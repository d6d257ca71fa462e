import json
import random

import pytest

from keyhorn import HornCNF, VarSet, cli
from keyhorn.cli import (
    ParseError,
    main,
    parse_bodies,
    parse_horn,
    write_bodies,
    write_horn,
)

TRIANGLE_TEXT = "c triangle\np keyhorn 3 3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.bodies"
    p.write_text(TRIANGLE_TEXT)
    return str(p)


class TestParseBodies:
    def test_grammar(self):
        n, bodies = parse_bodies(TRIANGLE_TEXT)
        assert n == 3
        assert [sorted(b) for b in bodies] == [[1, 2], [2, 3], [1, 3]]

    def test_comments_ignored(self):
        n, bodies = parse_bodies("c a\np keyhorn 2 1\nc mid\n1\n")
        assert n == 2 and len(bodies) == 1

    def test_full_body_rejected(self):
        with pytest.raises(ParseError, match="full variable set"):
            parse_bodies("p keyhorn 2 1\n1 2\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="exactly 3 body lines"):
            parse_bodies("p keyhorn 3 3\n1 2\n2 3\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_bodies("p horn 3 3\n1 2\n2 3\n1 3\n")

    def test_out_of_range_and_duplicates(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_bodies("p keyhorn 3 1\n1 4\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_bodies("p keyhorn 3 1\n2 2\n")

    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 8)
            bodies = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, n - 1)
                bodies.append(VarSet(n, rng.sample(range(1, n + 1), size)))
            text = write_bodies(n, bodies)
            n2, parsed = parse_bodies(text)
            assert n2 == n and parsed == bodies


class TestParseHorn:
    def test_five_var_formula(self):
        phi = parse_horn("p horn 5 3\n1 -> 2\n2 -> 1\n1 3 -> 4 5\n")
        assert phi == HornCNF.of(5, [((1,), (2,)), ((2,), (1,)), ((1, 3), (4, 5))])

    def test_roundtrip_is_canonical(self):
        text = "p horn 4 3\n2 3 -> 1\n1 -> 3\n1 -> 2\n"
        phi = parse_horn(text)
        assert write_horn(parse_horn(write_horn(phi))) == write_horn(phi)
        assert write_horn(phi) == "p horn 4 2\n1 -> 2 3\n2 3 -> 1\n"

    def test_head_in_body(self):
        with pytest.raises(ParseError, match="intersect"):
            parse_horn("p horn 2 1\n1 -> 1\n")

    def test_malformed_arrow(self):
        with pytest.raises(ParseError, match="'->'"):
            parse_horn("p horn 2 1\n1 2\n")

    def test_empty_heads_accepted_and_dropped(self):
        phi = parse_horn("p horn 3 2\n1 ->\n2 -> 3\n")
        assert len(phi.groups) == 1


class TestMinimizeCommand:
    def test_triangle_report(self, tri_file, tmp_path, capsys):
        out = tmp_path / "tri.horn"
        rc = main(
            ["minimize", "--in", tri_file, "--measure", "L", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        blk = report["results"]["L"]
        assert blk["size"] == 9 and blk["lower_bound"] == 9
        assert blk["ratio_num"] == 1 and blk["ratio_den"] == 1
        phi = parse_horn(out.read_text())
        assert len(phi.groups) == 3

    def test_all_measures(self, tri_file, capsys):
        rc = main(["minimize", "--in", tri_file, "--measure", "all"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report["results"]) == ["B", "BA", "BC", "C", "L", "TA"]
        sizes = {mu: blk["size"] for mu, blk in report["results"].items()}
        assert sizes == {"B": 3, "BA": 6, "TA": 9, "C": 3, "BC": 6, "L": 9}

    def test_missing_file(self, capsys):
        rc = main(["minimize", "--in", "/nonexistent.bodies", "--measure", "L"])
        assert rc == 2

    def test_out_with_all_rejected(self, tri_file, tmp_path):
        rc = main(
            [
                "minimize",
                "--in",
                tri_file,
                "--measure",
                "all",
                "--out",
                str(tmp_path / "x.horn"),
            ]
        )
        assert rc == 2

    def test_byte_identical_reports(self, tri_file, capsys):
        main(["minimize", "--in", tri_file, "--measure", "all"])
        first = capsys.readouterr().out
        main(["minimize", "--in", tri_file, "--measure", "all"])
        second = capsys.readouterr().out
        assert first == second

    def test_strategy_override(self, tri_file, capsys):
        rc = main(
            ["minimize", "--in", tri_file, "--measure", "C", "--strategy", "hamiltonian"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["C"]["strategy"] == "hamiltonian"
        rc = main(
            ["minimize", "--in", tri_file, "--measure", "C", "--strategy", "procedure2"]
        )
        assert rc == 2

    def test_trivial_instance_short_circuit(self, tmp_path, capsys):
        p = tmp_path / "one.bodies"
        p.write_text("p keyhorn 3 1\n1 2\n")
        rc = main(["minimize", "--in", str(p), "--measure", "all"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instance"]["m"] == 1
        assert report["results"]["C"]["size"] == 1
        assert all(blk["strategy"] == "exact" for blk in report["results"].values())

    def test_uncovered_variable_lift(self, tmp_path, capsys):
        p = tmp_path / "gap.bodies"
        p.write_text("p keyhorn 4 2\n1 2\n1 3\n")
        out = tmp_path / "gap.horn"
        rc = main(["minimize", "--in", str(p), "--measure", "C", "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        # reduced instance has two singleton bodies; lift adds core + clause for 4
        assert report["instance"] == {"n": 2, "m": 2, "k": 1, "delta": 1}
        assert report["results"]["C"]["lifted_size"] == report["results"]["C"]["size"] + 1
        pairs = [(sorted(g.body), sorted(g.heads)) for g in parse_horn(out.read_text()).groups]
        assert ([1, 2], [3, 4]) in pairs


class TestOtherCommands:
    def test_verify_accept_and_reject(self, tri_file, tmp_path, capsys):
        good = tmp_path / "good.horn"
        good.write_text("p horn 3 3\n1 2 -> 3\n2 3 -> 1\n1 3 -> 2\n")
        assert main(["verify", "--in", tri_file, "--formula", str(good)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]
        bad = tmp_path / "bad.horn"
        bad.write_text("p horn 3 1\n1 2 -> 3\n")
        assert main(["verify", "--in", tri_file, "--formula", str(bad)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"]["kind"] == "deficient_closure"

    def test_exact_command(self, tri_file, capsys):
        rc = main(["exact", "--in", tri_file, "--measure", "all"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["L"] == {"opt": 9, "optimal": True}

    def test_bounds_command(self, tri_file, capsys):
        rc = main(["bounds", "--in", tri_file])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower_bounds"]["L"] == 9
        assert report["lower_bounds"]["C_partition"] == 3

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_resource_errors_exit_2_in_one_line(self, tri_file, capsys, monkeypatch, exc):
        def boom(args):
            raise exc()

        monkeypatch.setattr(cli, "cmd_bounds", boom)
        assert main(["bounds", "--in", tri_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("keyhorn: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_price_command(self, tmp_path, capsys):
        p = tmp_path / "four.bodies"
        p.write_text("p keyhorn 4 2\n1 2\n3 4\n")
        rc = main(
            ["price", "--in", str(p), "--measure", "C", "--from", "1 2", "--to", "2 3 4"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["value"] == 2
        rc = main(
            [
                "price",
                "--in",
                str(p),
                "--measure",
                "L",
                "--from",
                "1 2",
                "--to",
                "3 4",
                "--exact",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["value"] == 6

    @pytest.mark.parametrize("measure", ["C", "L"])
    def test_price_rejects_source_without_body(self, tmp_path, capsys, measure):
        p = tmp_path / "four.bodies"
        p.write_text("p keyhorn 4 2\n1 2\n3 4\n")
        rc = main(["price", "--in", str(p), "--measure", measure, "--from", "1", "--to", "3 4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "keyhorn: error: no family body is contained in the source set\n"
        )

    def test_gen_roundtrip_minimize(self, tmp_path, capsys):
        f = tmp_path / "r.bodies"
        rc = main(
            ["gen", "random", "--n", "8", "--m", "4", "--k", "3", "--seed", "9", "--out", str(f)]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["minimize", "--in", str(f), "--measure", "all"])
        assert rc == 0

    def test_gen_to_stdout(self, capsys):
        rc = main(["gen", "hydra", "--n", "3", "--edges", "1,2 2,3 1,3"])
        assert rc == 0
        n, bodies = parse_bodies(capsys.readouterr().out)
        assert n == 3 and len(bodies) == 3

    def test_gen_trivial_instance_errors(self, capsys):
        rc = main(["gen", "hydra", "--n", "3", "--edges", "1,2"])
        assert rc == 2

    def test_gen_sat3(self, capsys):
        rc = main(["gen", "sat3", "--clause", "1 2 3"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["alpha"], stats["beta"], stats["tau"]) == (98, 341, 542_734)
        assert "note" in stats

    def test_mwscs_projective_d2(self, tmp_path, capsys):
        f = tmp_path / "pg2.bodies"
        rc = main(["gen", "projective", "--d", "2", "--out", str(f)])
        assert rc == 0
        capsys.readouterr()
        # the construction is detected without the explicit flag
        rc = main(["mwscs", "--in", str(f)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == 14
        assert report["projective"]["certificate_c_size"] == 3 * 7 - 2 - 2
        assert report["weight"] >= report["projective"]["hyperplane_bound"]
        rc = main(["mwscs", "--in", str(f), "--projective-d", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == report

    def test_mwscs_plain_instance_has_no_projective_block(self, tri_file, capsys):
        rc = main(["mwscs", "--in", tri_file])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "projective" not in report

    def test_mwscs_projective_mismatch(self, tri_file, capsys):
        rc = main(["mwscs", "--in", tri_file, "--projective-d", "2"])
        assert rc == 2
