"""Golden digest of the CLI reports over a fixed, seeded corpus.

Every command's stdout, stderr and exit code are hashed together and
compared to one recorded sha256.  A refactor that changes any emitted
formula, size, bound, guarantee, strategy label or error message changes
the digest, so such a change has to be made and re-recorded on purpose.
"""

import hashlib

from keyhorn import MEASURES, ClauseGroup, HornCNF, VarSet, gen_projective, gen_random
from keyhorn.cli import main, parse_bodies, write_bodies, write_horn

GOLDEN_SHA256 = "f54973c7b2ad2ef75b1c0ec9cd438f6f60fdc075408718f532c1cd85060004e0"
GOLDEN_WITNESS_SHA256 = "e6d0ff7ee8609cb0c00505eeca8454ebece9bd5dc3772eea4ca97c216f096cc7"
GOLDEN_OTHER_SHA256 = "2846813f2e3588d1bddd296e27929751b691ac57fbae26401ea031a79d6b307d"

STRATEGIES = ("auto", "hamiltonian", "procedure1", "procedure2")


def _corpus() -> dict[str, str]:
    files = {}
    params = [(4, 2, 2), (5, 3, 3), (6, 4, 3), (7, 4, 4), (8, 5, 3), (6, 5, 2), (8, 3, 5)]
    for seed, (n, m, k) in enumerate(params):
        inst = gen_random(n, m, k, seed)
        files[f"random{seed}"] = write_bodies(inst.n, inst.bodies)
    mid = gen_random(120, 24, 16, 5)
    files["random-m24"] = write_bodies(mid.n, mid.bodies)
    proj = gen_projective(3)
    files["projective3"] = write_bodies(proj.n, proj.bodies)
    # shared core {1}, a non-minimal body, and an uncovered variable 7
    files["unnormalized"] = "p keyhorn 7 4\n1 2 3\n1 3 4\n1 5\n1 2 3 6\n"
    files["uncovered"] = "p keyhorn 5 3\n1 2\n2 3\n1 3\n"
    files["single-body"] = "p keyhorn 4 1\n2 3\n"
    return files


def _commands(path: str):
    yield ["minimize", "--in", path, "--measure", "all"]
    for strategy in STRATEGIES:
        for measure in [str(mu) for mu in MEASURES] + ["all"]:
            yield ["minimize", "--in", path, "--measure", measure, "--strategy", strategy]
    yield ["exact", "--in", path, "--measure", "all", "--max-candidates", "20"]
    yield ["bounds", "--in", path]


def test_cli_reports_match_golden_digest(tmp_path, capsys):
    h = hashlib.sha256()
    for name, text in sorted(_corpus().items()):
        path = tmp_path / f"{name}.bodies"
        path.write_text(text)
        for argv in _commands(str(path)):
            rc = main(argv)
            captured = capsys.readouterr()
            label = " ".join(a if a != str(path) else name for a in argv)
            for part in (label, str(rc), captured.out, captured.err):
                h.update(part.encode())
                h.update(b"\0")
    assert h.hexdigest() == GOLDEN_SHA256


def _witness_digest(tmp_path, capsys) -> str:
    """sha256 over the exit code and the ``--out`` file of ``minimize`` and
    ``exact`` for every single measure on every corpus file."""
    h = hashlib.sha256()
    out = tmp_path / "witness.horn"
    for name, text in sorted(_corpus().items()):
        path = tmp_path / f"{name}.bodies"
        path.write_text(text)
        for command, extra in (("minimize", []), ("exact", ["--max-candidates", "20"])):
            for mu in MEASURES:
                out.unlink(missing_ok=True)
                argv = [command, "--in", str(path), "--measure", str(mu), "--out", str(out), *extra]
                rc = main(argv)
                capsys.readouterr()
                written = out.read_text() if out.exists() else "<no file>"
                for part in (f"{command} {name} {mu}", str(rc), written):
                    h.update(part.encode())
                    h.update(b"\0")
    return h.hexdigest()


def test_cli_witness_files_match_golden_digest(tmp_path, capsys):
    assert _witness_digest(tmp_path, capsys) == GOLDEN_WITNESS_SHA256


def _formulas(n: int, raw: list[VarSet]) -> dict[str, str]:
    """``.horn`` files for ``verify`` on one corpus file: the canonical
    representation, the same with its last group dropped, one group whose
    body holds no family body, and two files that do not parse against it."""
    psi = [ClauseGroup(b, b.complement()) for b in raw]
    single = VarSet(n, [n])
    return {
        "psi": write_horn(HornCNF(n, psi)),
        "psi-minus-last": write_horn(HornCNF(n, psi[:-1])),
        "unentailed": write_horn(HornCNF(n, psi + [ClauseGroup(single, single.complement())])),
        "wider-universe": f"p horn {n + 1} 1\n1 -> 2\n",
        "head-in-body": f"p horn {n} 1\n1 -> 1\n",
    }


def _words(values) -> str:
    return " ".join(map(str, values))


def _other_commands(path: str, text: str, formula_dir):
    n, raw = parse_bodies(text)
    for name, horn in sorted(_formulas(n, raw).items()):
        formula = formula_dir / f"{name}.horn"
        formula.write_text(horn)
        yield ["verify", "--in", path, "--formula", str(formula)]
    every = _words(range(1, n + 1))
    # the last two sources mostly hold no body, or do not parse
    for src, dst in (
        (_words(raw[0]), every),
        (_words(raw[0] | raw[-1]), every),
        (_words(raw[0]), _words(raw[-1])),
        (str(n), every),
        ("x", every),
    ):
        yield ["price", "--in", path, "--measure", "C", "--from", src, "--to", dst]
        yield ["price", "--in", path, "--measure", "L", "--from", src, "--to", dst]
        yield ["price", "--in", path, "--measure", "L", "--exact", "--cap", "8", "--from", src, "--to", dst]
    yield ["mwscs", "--in", path]
    yield ["mwscs", "--in", path, "--projective-d", "3"]


def _gen_commands(out: str, cert: str):
    yield ["gen", "random", "--n", "9", "--m", "5", "--k", "4", "--seed", "3"]
    yield ["gen", "random", "--n", "30", "--m", "8", "--k", "6", "--seed", "7", "--out", out]
    yield ["gen", "random", "--n", "3", "--m", "9", "--k", "2", "--seed", "1"]
    yield ["gen", "random", "--n", "4", "--m", "2", "--k", "5", "--seed", "1"]
    yield ["gen", "hydra", "--n", "4", "--edges", "1,2 2,3 3,4 1,4"]
    yield ["gen", "hydra", "--n", "5", "--edges", "1,2 2,3 1,3", "--out", out]
    yield ["gen", "hydra", "--n", "3", "--edges", "1,x"]
    yield ["gen", "hydra", "--n", "3", "--edges", "1,4"]
    yield ["gen", "projective", "--d", "2"]
    yield ["gen", "projective", "--d", "3", "--out", out, "--cert", cert]
    yield ["gen", "projective", "--d", "7"]
    yield ["gen", "sat3", "--clause", "1 -2 3", "--clause", "-1 2 -3"]
    yield ["gen", "sat3", "--clause", "1 2 -3", "--clause", "-1 -2 3", "--clause", "2 3 -1"]
    yield ["gen", "sat3", "--clause", "1 2"]
    yield ["gen", "sat3", "--clause", "1 0 2"]


def _other_digest(tmp_path, capsys) -> str:
    """sha256 over ``verify``, ``price``, ``mwscs`` and ``gen``: label, exit
    code, stdout, stderr and every file the command wrote."""
    h = hashlib.sha256()
    out, cert = tmp_path / "gen.out", tmp_path / "gen.cert"

    def run(argv, label):
        for f in (out, cert):
            f.unlink(missing_ok=True)
        rc = main(argv)
        captured = capsys.readouterr()
        files = [f.read_text() if f.exists() else "<no file>" for f in (out, cert)]
        for part in (label, str(rc), captured.out, captured.err, *files):
            h.update(part.encode())
            h.update(b"\0")

    for name, text in sorted(_corpus().items()):
        path = tmp_path / f"{name}.bodies"
        path.write_text(text)
        for argv in _other_commands(str(path), text, tmp_path):
            run(argv, " ".join(name if a == str(path) else a.replace(str(tmp_path), "") for a in argv))
    for argv in _gen_commands(str(out), str(cert)):
        run(argv, " ".join(a.replace(str(tmp_path), "") for a in argv))
    return h.hexdigest()


def test_other_commands_match_golden_digest(tmp_path, capsys):
    assert _other_digest(tmp_path, capsys) == GOLDEN_OTHER_SHA256
