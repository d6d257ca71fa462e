import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from keyhorn import HornCNF, VarSet, VerifyResult, approx, cli, exact, gen_projective, gen_random
from keyhorn.cli import (
    ParseError,
    main,
    parse_bodies,
    parse_horn,
    write_bodies,
    write_horn,
)
from keyhorn.graph import BodyGraph

from helpers import (
    c_graph_builds,
    counting,
    random_cnf,
    random_instances,
    ref_min_price_into_hyperplane_shifts,
)

TRIANGLE_TEXT = "c triangle\np keyhorn 3 3\n1 2\n2 3\n1 3\n"
# a family whose exact C search does not finish at once: its body-order
# cycle has C size 11 and the optimum is 7
SEED9_TEXT = "p keyhorn 8 6\n1 4 5\n2 5\n4 6\n3 5\n3 4\n1 2 3\n"


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.bodies"
    p.write_text(TRIANGLE_TEXT)
    return str(p)


# a universe beyond sys.maxsize: its full mask overflows a shift, its range
# a C ssize_t
HUGE_N = "99999999999999999999"


@pytest.fixture
def huge_files(tmp_path):
    bodies, horn = tmp_path / "huge.bodies", tmp_path / "huge.horn"
    bodies.write_text(f"p keyhorn {HUGE_N} 2\n1\n2\n")
    horn.write_text(f"p horn {HUGE_N} 1\n1 -> 2\n")
    return {"bodies": str(bodies), "horn": str(horn)}


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_roundtrip(self, seed):
        # both file formats: .bodies keeps the body order, .horn the formula
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        bodies = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n - 1)
            bodies.append(VarSet(n, rng.sample(range(1, n + 1), size)))
        n2, parsed = parse_bodies(write_bodies(n, bodies))
        assert n2 == n and parsed == bodies
        phi = random_cnf(rng)
        assert parse_horn(write_horn(phi)) == phi


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

    def test_empty_body(self):
        with pytest.raises(ParseError, match="^line 2: empty body$"):
            parse_horn("p horn 3 1\n-> 3\n")

    def test_full_body(self):
        # the clause group rejects it, and the parser names the line
        with pytest.raises(ParseError, match="^line 3: clause body must not be the full"):
            parse_horn("p horn 2 2\n1 -> 2\n1 2 ->\n")


class TestEntryPoint:
    def test_main_builds_no_parser(self, tri_file, capsys, monkeypatch):
        built = counting(monkeypatch, cli, "_build_parser")
        assert main(["bounds", "--in", tri_file]) == 0
        assert main(["minimize", "--in", tri_file, "--measure", "C"]) == 0
        assert built == []

    @pytest.mark.parametrize(
        "argv, code, stream",
        [
            (["bounds"], 0, "out"),
            (["bounds", "--in", "{bad}"], 2, "err"),
            (["verify", "--formula", "{horn}"], 3, "out"),
        ],
        ids=["bounds", "malformed", "rejected"],
    )
    def test_module_run_exits_with_mains_code(self, tmp_path, argv, code, stream):
        # a shell gets main's return value as the process's exit code
        paths = {}
        for key, name, text in [
            ("in", "tri.bodies", TRIANGLE_TEXT),
            ("bad", "bad.bodies", "p keyhorn 3 1\n1 x\n"),
            ("horn", "f.horn", "p horn 3 1\n1 2 -> 3\n"),
        ]:
            paths[key] = tmp_path / name
            paths[key].write_text(text)
        argv = [a.format(**paths) for a in argv]
        if "--in" not in argv:
            argv[1:1] = ["--in", str(paths["in"])]
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "keyhorn.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        if stream == "err":
            assert proc.stdout == ""
            assert proc.stderr == "keyhorn: error: line 2: not an integer: 'x'\n"
        else:
            assert proc.stderr == ""
            report = json.loads(proc.stdout)
            if code == 0:
                assert report["lower_bounds"]["C_partition"] == 3
            else:
                assert report["ok"] is False


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

    def test_report_file_holds_what_is_printed(self, tri_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["minimize", "--in", tri_file, "--measure", "all", "--report", str(report)]) == 0
        assert report.read_text() == capsys.readouterr().out

    def test_timings_add_only_their_block(self, tri_file, capsys):
        main(["minimize", "--in", tri_file, "--measure", "all"])
        plain = capsys.readouterr().out
        main(["minimize", "--in", tri_file, "--measure", "all", "--timings"])
        timed = json.loads(capsys.readouterr().out)
        timings = timed.pop("timings_ms")
        assert sorted(timings) == ["lift_verify_ms", "minimize_ms", "normalize_ms", "total_ms"]
        assert json.dumps(timed, sort_keys=True, indent=2) + "\n" == plain

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

    @pytest.mark.parametrize(
        "text", [TRIANGLE_TEXT, "p keyhorn 3 1\n1 2\n", None], ids=["triangle", "one", "missing"]
    )
    def test_strategy_is_checked_before_the_input_is_read(self, tmp_path, capsys, text):
        # the same line for every family, and ahead of a missing --in file
        p = tmp_path / "in.bodies"
        if text is not None:
            p.write_text(text)
        argv = ["minimize", "--in", str(p), "--measure", "C", "--strategy", "procedure2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "keyhorn: error: --strategy procedure2 applies to measure L only\n"

    @pytest.mark.parametrize("command", ["minimize", "exact"])
    def test_out_with_all_is_checked_before_the_input_is_read(self, tmp_path, capsys, command):
        out = tmp_path / "x.horn"
        argv = [command, "--in", str(tmp_path / "missing.bodies"), "--measure", "all"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "keyhorn: error: --out needs a single --measure, not 'all'\n"
        assert not out.exists()

    def test_single_body_timings(self, tmp_path, capsys):
        # normalize raises at once and nothing is minimized, so only the
        # result loop and the total are timed
        p = tmp_path / "one.bodies"
        p.write_text("p keyhorn 3 1\n1 2\n")
        assert main(["minimize", "--in", str(p), "--measure", "all", "--timings"]) == 0
        timings = json.loads(capsys.readouterr().out)["timings_ms"]
        assert sorted(timings) == ["lift_verify_ms", "total_ms"]

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

    def test_wide_uncovered_universe_reports_quickly(self, tmp_path, capsys):
        n = 200_000
        p = tmp_path / "wide.bodies"
        p.write_text(f"p keyhorn {n} 2\n1 2\n3\n")
        start = time.perf_counter()
        assert main(["minimize", "--in", str(p), "--measure", "all"]) == 0
        assert time.perf_counter() - start < 2.0
        results = json.loads(capsys.readouterr().out)["results"]
        # the n - 3 uncovered variables hang off the smallest body {3}
        assert results["C"]["lifted_size"] == results["C"]["size"] + n - 3
        assert results["L"]["lifted_size"] == results["L"]["size"] + 2 * (n - 3)

    @pytest.mark.parametrize("measure, built", [("B", []), ("C", ["procedure1"])])
    def test_single_measure_builds_only_what_it_needs(
        self, tmp_path, capsys, monkeypatch, measure, built
    ):
        inst = random_instances(1, 3500)[0]
        p = tmp_path / "r.bodies"
        p.write_text(write_bodies(inst.n, inst.bodies))
        calls = {name: counting(monkeypatch, approx, name) for name in ("procedure1", "procedure2")}
        assert main(["minimize", "--in", str(p), "--measure", measure]) == 0
        assert [name for name, seen in calls.items() if seen] == built

    def test_each_distinct_formula_is_lifted_once(self, tmp_path, capsys, monkeypatch):
        # on this family Procedure 2 builds Procedure 1's formula, so C, BC
        # and L share one lift and the cycle (B, BA, TA) takes the other
        inst = gen_random(60, 20, 8, 1)
        assert approx.procedure1(inst) == approx.procedure2(inst)
        p = tmp_path / "r.bodies"
        p.write_text(write_bodies(inst.n, inst.bodies))
        lifts = counting(monkeypatch, cli, "lift")
        assert main(["minimize", "--in", str(p), "--measure", "all"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert {blk["strategy"] for blk in results.values()} == {
            "exact", "hamiltonian", "procedure1", "procedure2"
        }
        assert len(lifts) == 2


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

    @pytest.mark.parametrize("measure, searches", [("C", 1), ("L", 1), ("all", 2)])
    def test_exact_runs_only_the_searches_it_reports(
        self, tri_file, capsys, monkeypatch, measure, searches
    ):
        calls = counting(monkeypatch, exact, "_search_weighted")
        assert main(["exact", "--in", tri_file, "--measure", measure]) == 0
        assert len(calls) == searches

    def test_exact_single_body_lifts_once(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "one.bodies"
        p.write_text("p keyhorn 3 1\n1 2\n")
        out = tmp_path / "w.horn"
        lifts = counting(monkeypatch, cli, "lift")
        assert main(["exact", "--in", str(p), "--measure", "C", "--out", str(out)]) == 0
        assert len(lifts) == 1
        assert out.read_text() == "p horn 3 1\n1 2 -> 3\n"

    def test_exact_timeout_reports_the_seed_unproven(self, tmp_path, capsys):
        p = tmp_path / "seed9.bodies"
        p.write_text(SEED9_TEXT)
        rc = main(["exact", "--in", str(p), "--measure", "C", "--timeout", "-1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["C"] == {"opt": 11, "optimal": False}

    @pytest.mark.parametrize("text", [SEED9_TEXT, "p keyhorn 3 1\n1 2\n"], ids=["seed9", "one-body"])
    def test_exact_rejects_a_nan_timeout(self, tmp_path, capsys, text):
        # no clock reading is past a nan deadline, so the run would be unbounded
        p = tmp_path / "in.bodies"
        p.write_text(text)
        assert main(["exact", "--in", str(p), "--measure", "C", "--timeout", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "keyhorn: error: --timeout must be a number of seconds, not nan\n"

    @pytest.mark.parametrize(
        "text", ["p keyhorn 4 2\n1 2\n3 4\n", "p keyhorn 3 1\n1 2\n"], ids=["two", "one"]
    )
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["exact", "--measure", "C", "--max-candidates", "-5"], "--max-candidates"),
            (["price", "--measure", "L", "--from", "1 2", "--to", "3", "--exact", "--cap", "-5"],
             "--cap"),
        ],
        ids=["exact", "price"],
    )
    def test_negative_caps_are_bad_arguments(self, tmp_path, capsys, text, argv, flag):
        p = tmp_path / "in.bodies"
        p.write_text(text)
        assert main([argv[0], "--in", str(p), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"keyhorn: error: {flag} must be a nonnegative integer, not -5\n"

    def test_bounds_command(self, tri_file, capsys):
        rc = main(["bounds", "--in", tri_file])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower_bounds"]["L"] == 9
        assert report["lower_bounds"]["C_partition"] == 3

    @pytest.mark.parametrize(
        "argv",
        [["minimize", "--measure", "all"], ["bounds"], ["mwscs"]],
        ids=["minimize", "bounds", "mwscs"],
    )
    def test_builds_one_c_graph_per_instance(self, tri_file, capsys, monkeypatch, argv):
        # every consumer reads the graph kept on the instance
        builds = c_graph_builds(monkeypatch)
        assert main([argv[0], "--in", tri_file, *argv[1:]]) == 0
        assert len(builds) == 1

    def test_bounds_takes_the_c_row_minima_once(self, tri_file, capsys, monkeypatch):
        # the C bound and C_partition both sum the kept graph's row minima
        computed = []
        real = BodyGraph.row_minima.func

        def row_minima(g):
            computed.append(g)
            return real(g)

        kept = functools.cached_property(row_minima)
        kept.__set_name__(BodyGraph, "row_minima")
        monkeypatch.setattr(BodyGraph, "row_minima", kept)
        assert main(["bounds", "--in", tri_file]) == 0
        assert len(computed) == 1

    def test_exact_builds_no_c_graph(self, tri_file, capsys, monkeypatch):
        builds = c_graph_builds(monkeypatch)
        assert main(["exact", "--in", tri_file, "--measure", "all"]) == 0
        assert builds == []

    @pytest.mark.parametrize("measure", ["B", "BA", "TA"])
    def test_cycle_measures_build_no_c_graph(self, tri_file, capsys, monkeypatch, measure):
        builds = c_graph_builds(monkeypatch)
        assert main(["minimize", "--in", tri_file, "--measure", measure]) == 0
        assert builds == []

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_resource_errors_exit_2_in_one_line(self, tri_file, capsys, monkeypatch, exc):
        def boom(args):
            raise exc()

        monkeypatch.setattr(cli, "cmd_bounds", boom)
        assert main(["bounds", "--in", tri_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("keyhorn: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimize", "--in", "{bodies}", "--measure", "all"],
            ["exact", "--in", "{bodies}", "--measure", "all"],
            ["bounds", "--in", "{bodies}"],
            ["verify", "--in", "{bodies}", "--formula", "{horn}"],
            ["gen", "hydra", "--n", HUGE_N, "--edges", "1,2 2,3"],
            ["gen", "random", "--n", HUGE_N, "--m", "2", "--k", "2", "--seed", "1"],
        ],
        ids=["minimize", "exact", "bounds", "verify", "gen-hydra", "gen-random"],
    )
    def test_universe_too_large_for_an_int_exits_2_in_one_line(self, huge_files, capsys, argv):
        assert main([a.format(**huge_files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("keyhorn: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["mwscs", "--in", "{bodies}"],
            ["price", "--in", "{bodies}", "--measure", "C", "--from", "1", "--to", "2"],
            ["price", "--in", "{bodies}", "--measure", "L", "--from", "1", "--to", "2"],
        ],
        ids=["mwscs", "price-C", "price-L"],
    )
    def test_universe_too_large_for_an_int_still_serves(self, huge_files, capsys, argv):
        assert main([a.format(**huge_files) for a in argv]) == 0
        json.loads(capsys.readouterr().out)

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
        assert capsys.readouterr().err == (
            "keyhorn: error: single-body family over 3 variables; 'gen' emits "
            "normalized families, and a single-body family normalizes to no variables\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--in", "c only a comment\n"], "line 1: missing 'p keyhorn <n> <m>' header"),
            (["bounds", "--in", ""], "line 1: missing 'p keyhorn <n> <m>' header"),
            (["bounds", "--in", "p keyhorn 0 1\n1\n"],
             "line 1: header needs n >= 1 and m >= 1, got 'p keyhorn 0 1'"),
            (["bounds", "--in", "p keyhorn 3 0\n"],
             "line 1: header needs n >= 1 and m >= 1, got 'p keyhorn 3 0'"),
            (["verify", "--in", TRIANGLE_TEXT, "--formula", "p horn 0 0\n"],
             "line 1: bad sizes in header 'p horn 0 0'"),
            (["verify", "--in", TRIANGLE_TEXT, "--formula", "p horn 3 -1\n"],
             "line 1: bad sizes in header 'p horn 3 -1'"),
            (["gen", "random", "--n", "1", "--m", "2", "--k", "1", "--seed", "1"],
             "degenerate parameters n=1 m=2 k=1"),
            (["gen", "random", "--n", "5", "--m", "0", "--k", "2", "--seed", "1"],
             "degenerate parameters n=5 m=0 k=2"),
            (["gen", "random", "--n", "5", "--m", "2", "--k", "0", "--seed", "1"],
             "degenerate parameters n=5 m=2 k=0"),
            (["gen", "random", "--n", "2", "--m", "2", "--k", "2", "--seed", "1"],
             "no legal body sizes for n=2, k=2"),
            (["gen", "hydra", "--n", "3", "--edges", ""], "edge set must be nonempty"),
        ],
        ids=[
            "comment-only", "empty-file", "keyhorn-n0", "keyhorn-m0", "horn-n0", "horn-g-1",
            "random-n1", "random-m0", "random-k0", "random-no-sizes", "hydra-no-edges",
        ],
    )
    def test_input_errors_exit_2_in_one_line(self, tmp_path, capsys, argv, message):
        # the text after --in or --formula is the file's content
        argv = list(argv)
        for i, flag in enumerate(argv[:-1]):
            if flag in ("--in", "--formula"):
                path = tmp_path / flag.lstrip("-")
                path.write_text(argv[i + 1])
                argv[i + 1] = str(path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"keyhorn: error: {message}\n"

    @pytest.mark.parametrize("pair", ["1", "1,x", "1,2,3", ",2"])
    def test_gen_hydra_names_a_malformed_pair(self, capsys, pair):
        assert main(["gen", "hydra", "--n", "3", "--edges", f"1,2 {pair}"]) == 2
        assert capsys.readouterr().err == (
            f"keyhorn: error: --edges pair '{pair}' is not of the form a,b with integers a and b\n"
        )

    @pytest.mark.parametrize(
        "clause, message",
        [
            ("1 2 0", "clause 2 has the literal 0; a literal is a nonzero variable index, negated with '-'"),
            ("1 2 3 0", "clause 2 has the literal 0; a literal is a nonzero variable index, negated with '-'"),
            ("1 2", "clause 2 must have exactly 3 literals"),
            ("1 2 -3 4", "clause 2 must have exactly 3 literals"),
            ("1 x 3", "--clause '1 x 3' is not a list of integer literals such as '1 -2 3'"),
        ],
        ids=["zero", "trailing-zero", "two", "four", "not-an-int"],
    )
    def test_gen_sat3_names_a_zero_literal_apart_from_a_wrong_count(self, capsys, clause, message):
        assert main(["gen", "sat3", "--clause", "1 -2 3", "--clause", clause]) == 2
        assert capsys.readouterr().err == f"keyhorn: error: {message}\n"

    def test_gen_sat3(self, capsys):
        rc = main(["gen", "sat3", "--clause", "1 2 3"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["alpha"], stats["beta"], stats["tau"]) == (98, 341, 542_734)
        assert "note" in stats

    def test_gen_sat3_out_is_pinned_and_quick(self, tmp_path, capsys):
        # 544,498 variables: writing the bodies walks every wide set once
        out = tmp_path / "sat3.bodies"
        start = time.perf_counter()
        assert main(["gen", "sat3", "--clause", "1 2 -3", "--out", str(out)]) == 0
        assert time.perf_counter() - start < 10.0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "19b3ad349b2b04c1c89b8396d9f4d9d4d3f758698887d74c6f96bbf6b4c82d04"
        )

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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mwscs_reports_the_pairwise_hyperplane_price(self, tmp_path, capsys, monkeypatch, d):
        p = gen_projective(d)
        f = tmp_path / "pg.bodies"
        f.write_text(write_bodies(p.n, p.bodies))
        builds = c_graph_builds(monkeypatch)
        assert main(["mwscs", "--in", str(f), "--projective-d", str(d)]) == 0
        report = json.loads(capsys.readouterr().out)["projective"]
        want = ref_min_price_into_hyperplane_shifts(p)
        assert report["min_entering_hyperplane_shift"] == want
        assert report["hyperplane_bound"] == p.n * want
        assert len(builds) == 1

    def test_mwscs_plain_instance_has_no_projective_block(self, tri_file, capsys):
        rc = main(["mwscs", "--in", tri_file])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "projective" not in report

    def test_mwscs_projective_mismatch(self, tri_file, capsys):
        rc = main(["mwscs", "--in", tri_file, "--projective-d", "2"])
        assert rc == 2

    @pytest.mark.parametrize("family, d", [("triangle", 5), ("projective-d2", 3)])
    def test_mwscs_projective_mismatch_is_found_before_the_graph_work(
        self, tmp_path, capsys, monkeypatch, family, d
    ):
        def unreachable(g):
            raise AssertionError("mwscs_2approx ran on a rejected input")

        monkeypatch.setattr(cli, "mwscs_2approx", unreachable)
        p = tmp_path / "in.bodies"
        pg = gen_projective(2)
        p.write_text(TRIANGLE_TEXT if family == "triangle" else write_bodies(pg.n, pg.bodies))
        assert main(["mwscs", "--in", str(p), "--projective-d", str(d)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "keyhorn: error: --projective-d given but the input is not that construction\n"
        )

    @pytest.mark.parametrize(
        "text", ["p keyhorn 3 1\n1 2\n", "p keyhorn 4 2\n1 2\n1 2 3\n"], ids=["one", "superset"]
    )
    def test_mwscs_single_minimal_body(self, tmp_path, capsys, text):
        p = tmp_path / "one.bodies"
        p.write_text(text)
        assert main(["mwscs", "--in", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == 1
        assert report["weight"] == report["arc_count"] == report["entering_arc_bound"] == 0


def _drop_first_group(real):
    def lossy(*args, **kwargs):
        phi = real(*args, **kwargs)
        return HornCNF(phi.n, phi.groups[1:])

    return lossy


class TestVerificationFailures:
    """A formula that fails its check ends in exit 3, one line on stderr and
    no written file, whichever command and branch produced it."""

    @staticmethod
    def _fails(argv, out, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("keyhorn: verification failed: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["minimize", "exact"])
    def test_lifted_witness(self, tri_file, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "lift", _drop_first_group(cli.lift))
        out = tmp_path / "w.horn"
        self._fails([command, "--in", tri_file, "--measure", "C", "--out", str(out)], out, capsys)

    @pytest.mark.parametrize("command", ["minimize", "exact"])
    def test_single_body_witness(self, tmp_path, capsys, monkeypatch, command):
        p = tmp_path / "one.bodies"
        p.write_text("p keyhorn 3 1\n1 2\n")
        monkeypatch.setattr(cli, "lift", _drop_first_group(cli.lift))
        out = tmp_path / "w.horn"
        self._fails([command, "--in", str(p), "--measure", "C", "--out", str(out)], out, capsys)

    def test_candidate_check(self, tri_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(approx, "verify_representation", lambda phi, inst: VerifyResult(False))
        out = tmp_path / "w.horn"
        self._fails(["minimize", "--in", tri_file, "--measure", "C", "--out", str(out)], out, capsys)


SEED_BODIES = (
    TRIANGLE_TEXT,
    "p keyhorn 4 2\n1 2\n1 3\n",
    "p keyhorn 6 3\n1 2\n2 3 4\n5\n",
    "p keyhorn 3 1\n1 2\n",
)
SEED_HORN = (
    "p horn 3 3\n1 2 -> 3\n2 3 -> 1\n1 3 -> 2\n",
    "p horn 4 2\n1 2 -> 3 4\n1 3 -> 2 4\n",
    "p horn 3 0\n",
)
TOKENS = st.sampled_from(
    ("0", "1", "2", "3", "5", "-1", "100000", "x", "1.5", "->", "p", "c", "keyhorn", "horn", "")
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


def shifted_size(header: str, pos: int, delta: int) -> str:
    """``header`` with its size token ``pos`` (2 or 3) moved by ``delta``,
    or unchanged unless both sizes are decimal.  ``isdecimal`` accepts
    exactly the digits ``int`` reads; ``isdigit`` also accepts ``'²'``."""
    head = header.split()
    if len(head) != 4 or not (head[2].isdecimal() and head[3].isdecimal()):
        return header
    head[pos] = str(int(head[pos]) + delta)
    return " ".join(head)


def test_shifted_size_skips_sizes_int_cannot_read():
    assert shifted_size("p keyhorn 4 3", 3, -1) == "p keyhorn 4 2"
    assert shifted_size("p keyhorn ² 3", 2, 1) == "p keyhorn ² 3"
    assert shifted_size("p keyhorn 4 ³", 2, 1) == "p keyhorn 4 ³"


@st.composite
def mutated(draw, seeds) -> str:
    """A seed file with up to four edits: a token replaced, a header size
    moved, a line dropped or doubled, or an arrow added or removed."""
    lines = draw(st.sampled_from(seeds)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(("token", "size", "drop", "double", "arrow")))
        if edit == "token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
        elif edit == "size":
            pos, delta = draw(st.sampled_from((2, 3))), draw(st.integers(-2, 2))
            lines[0] = shifted_size(lines[0], pos, delta)
        elif edit == "drop":
            del lines[i]
        elif edit == "double":
            lines.insert(i, lines[i])
        elif edit == "arrow":
            if "->" in tokens:
                tokens.remove("->")
            else:
                tokens.insert(draw(st.integers(0, len(tokens))), "->")
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestMutatedInputs:
    """Every command on malformed or odd files ends with exit 0, 2 or 3 and
    never raises."""

    @settings(max_examples=60, deadline=None)
    @given(
        mutated(SEED_BODIES),
        mutated(SEED_HORN),
        st.sampled_from(("1", "1 2", "2 3", "", "0", "x")),
        st.sampled_from(("3", "2 3 4", "1", "")),
    )
    def test_every_command_exits_cleanly(self, bodies_text, horn_text, src, dst):
        with tempfile.TemporaryDirectory() as tmp:
            bodies, horn = Path(tmp) / "in.bodies", Path(tmp) / "f.horn"
            bodies.write_text(bodies_text, encoding="utf-8")
            horn.write_text(horn_text, encoding="utf-8")
            runs = [
                ["minimize", "--measure", "all"],
                ["exact", "--measure", "all", "--max-candidates", "20"],
                ["bounds"],
                ["verify", "--formula", str(horn)],
                ["price", "--measure", "C", "--from", src, "--to", dst],
                ["price", "--measure", "L", "--from", src, "--to", dst],
                ["price", "--measure", "L", "--exact", "--from", src, "--to", dst],
                ["mwscs"],
            ]
            for argv in runs:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                    code = main([argv[0], "--in", str(bodies), *argv[1:]])
                assert code in (0, 2, 3), (argv, code)
                assert "Traceback" not in err.getvalue()
