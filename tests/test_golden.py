"""Golden digest of the CLI reports over a fixed, seeded corpus.

Every command's stdout, stderr and exit code are hashed together and
compared to one recorded sha256.  A refactor that changes any emitted
formula, size, bound, guarantee, strategy label or error message changes
the digest, so such a change has to be made and re-recorded on purpose.
"""

import hashlib

from keyhorn import MEASURES, gen_projective, gen_random
from keyhorn.cli import main, write_bodies

GOLDEN_SHA256 = "028ff485b453cf931549d0a07e683d144efa0a90d03d7d1bf57687e9d34d0da5"

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
