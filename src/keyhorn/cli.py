"""Command-line surface and file formats.

Two text formats tie the tool together.  ``.bodies`` files carry an
instance: comment lines start with ``c``, a header ``p keyhorn <n> <m>``
follows, then exactly m lines of whitespace-separated variable ids, one
body per line.  ``.horn`` files carry a formula: header ``p horn <n> <g>``
then g lines ``<body vars> -> <head vars>``.  Writers emit canonical form
and reports are key-sorted JSON, so identical inputs and flags produce
byte-identical output.

Exit codes: 0 success, 2 argument/parse errors, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import __version__
from .approx import (
    MinimizationResult,
    STRATEGY_EXACT,
    STRATEGY_HAMILTONIAN,
    hamiltonian_formula,
    lower_bound,
    lower_bound_partition_c,
    minimize_all,
    procedure1,
    procedure2,
)
from .core import (
    HornCNF,
    ClauseGroup,
    KeyHornInstance,
    Measure,
    MEASURES,
    VarSet,
    measure_size,
    verify_against_family,
)
from .exact import SearchLimitError, opt_exact_all, price_l_exact
from .gen import (
    GenerationError,
    gen_hydra,
    gen_projective,
    gen_random,
    gen_sat_reduction,
)
from .graph import (
    NoBodyInSourceError,
    body_graph_c,
    lambda_formula,
    mwscs_2approx,
)
from .reduce import TrivialInstance, lift, normalize, sperner_minimal, trivial_formula


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class VerificationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line


def _parse_vars(lineno: int, tokens: Sequence[str], n: int) -> VarSet:
    seen = set()
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(lineno, f"not an integer: {tok!r}")
        if not 1 <= v <= n:
            raise ParseError(lineno, f"variable {v} out of range 1..{n}")
        if v in seen:
            raise ParseError(lineno, f"duplicate variable {v}")
        seen.add(v)
    return VarSet(n, seen)


def parse_bodies(text: str) -> tuple[int, list[VarSet]]:
    """Parse a ``.bodies`` instance file; returns (n, bodies in file order)."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "missing 'p keyhorn <n> <m>' header")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "keyhorn":
        raise ParseError(lineno, f"malformed header {header!r}")
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError(lineno, f"malformed header {header!r}")
    if n < 1 or m < 1:
        raise ParseError(lineno, f"header needs n >= 1 and m >= 1, got {header!r}")
    body_lines = lines[1:]
    if len(body_lines) != m:
        where = body_lines[m][0] if len(body_lines) > m else lineno
        raise ParseError(where, f"expected exactly {m} body lines, got {len(body_lines)}")
    bodies = []
    for bl, line in body_lines:
        body = _parse_vars(bl, line.split(), n)
        if not body:
            raise ParseError(bl, "empty body")
        if body.is_full():
            raise ParseError(bl, "body equals the full variable set")
        bodies.append(body)
    return n, bodies


def write_bodies(n: int, bodies: Iterable[VarSet], comment: Optional[str] = None) -> str:
    fam = list(bodies)
    out = []
    if comment:
        out.extend(f"c {line}" for line in comment.splitlines())
    out.append(f"p keyhorn {n} {len(fam)}")
    out.extend(" ".join(map(str, b)) for b in fam)
    return "\n".join(out) + "\n"


def parse_horn(text: str) -> HornCNF:
    """Parse a ``.horn`` formula file; accepts duplicates and canonicalizes."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "missing 'p horn <n> <g>' header")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "horn":
        raise ParseError(lineno, f"malformed header {header!r}")
    try:
        n, g = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError(lineno, f"malformed header {header!r}")
    if n < 1 or g < 0:
        raise ParseError(lineno, f"bad sizes in header {header!r}")
    group_lines = lines[1:]
    if len(group_lines) != g:
        where = group_lines[g][0] if len(group_lines) > g else lineno
        raise ParseError(where, f"expected exactly {g} group lines, got {len(group_lines)}")
    groups = []
    for gl, line in group_lines:
        if line.count("->") != 1:
            raise ParseError(gl, "expected exactly one '->'")
        left, right = line.split("->")
        body = _parse_vars(gl, left.split(), n)
        heads = _parse_vars(gl, right.split(), n)
        if not body:
            raise ParseError(gl, "empty body")
        if not body.isdisjoint(heads):
            raise ParseError(gl, f"heads intersect body: {sorted(heads & body)}")
        try:
            groups.append(ClauseGroup(body, heads))
        except ValueError as exc:
            raise ParseError(gl, str(exc))
    return HornCNF(n, groups)


def write_horn(phi: HornCNF) -> str:
    out = [f"p horn {phi.n} {len(phi.groups)}"]
    for g in phi.groups:
        out.append(
            " ".join(map(str, g.body)) + " -> " + " ".join(map(str, g.heads))
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _frac_fields(prefix: str, f: Fraction) -> dict:
    return {
        f"{prefix}_num": f.numerator,
        f"{prefix}_den": f.denominator,
        f"{prefix}_decimal": f"{f.numerator / f.denominator:.4f}",
    }


def _result_block(res: MinimizationResult, lifted_size: int) -> dict:
    block = {
        "size": res.size,
        "lifted_size": lifted_size,
        "lower_bound": res.lower_bound,
        "strategy": res.strategy,
    }
    block.update(_frac_fields("ratio", res.ratio()))
    block.update(_frac_fields("guarantee", res.guarantee))
    return block


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _measure_list(arg: str) -> list[Measure]:
    if arg == "all":
        return list(MEASURES)
    return [Measure(arg)]


def _forced_result(
    inst: KeyHornInstance, mu: Measure, strategy: str
) -> MinimizationResult:
    if strategy == "hamiltonian":
        formula = hamiltonian_formula(inst)
        lb = lower_bound(inst, mu)
        if mu is Measure.C and inst.m >= 2:
            lb = max(lb, lower_bound_partition_c(inst))
        guarantee = (
            Fraction(1)
            if mu in (Measure.B, Measure.BA)
            else Fraction(2) if mu is Measure.TA else Fraction(inst.k)
        )
        return MinimizationResult(
            formula, mu, measure_size(formula, mu), lb, guarantee, STRATEGY_HAMILTONIAN
        )
    if strategy == "procedure1":
        if mu not in (Measure.C, Measure.BC):
            raise ValueError("--strategy procedure1 applies to measures C and BC only")
        return procedure1(inst, mu)
    if strategy == "procedure2":
        if mu is not Measure.L:
            raise ValueError("--strategy procedure2 applies to measure L only")
        return procedure2(inst)
    raise ValueError(f"unknown strategy {strategy!r}")


def cmd_minimize(args) -> int:
    text = _read_file(args.infile)
    n, raw = parse_bodies(text)
    measures = _measure_list(args.measure)
    if args.out and len(measures) != 1:
        raise ValueError("--out needs a single --measure, not 'all'")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    report = {
        "format": 1,
        "version": __version__,
        "input_digest": _digest(text),
        "input": {"n": n, "m": len(raw)},
    }
    results_block = {}
    out_formula: Optional[HornCNF] = None
    try:
        t1 = time.perf_counter()
        inst, rec = normalize(n, raw)
        timings["normalize_ms"] = (time.perf_counter() - t1) * 1000
        report["instance"] = {
            "n": inst.n,
            "m": inst.m,
            "k": inst.k,
            "delta": inst.delta,
        }
        if args.strategy == "auto":
            t1 = time.perf_counter()
            all_results = minimize_all(inst)
            timings["minimize_ms"] = (time.perf_counter() - t1) * 1000
            per_measure = {mu: all_results[mu] for mu in measures}
        else:
            t1 = time.perf_counter()
            per_measure = {
                mu: _forced_result(inst, mu, args.strategy) for mu in measures
            }
            timings["minimize_ms"] = (time.perf_counter() - t1) * 1000
        t1 = time.perf_counter()
        lifted_cache: dict[int, HornCNF] = {}
        for mu in measures:
            res = per_measure[mu]
            key = id(res.formula)
            if key not in lifted_cache:
                lifted = lift(res.formula, rec, raw)
                check = verify_against_family(lifted, n, raw)
                if not check:
                    raise VerificationError(
                        f"lifted formula for measure {mu} failed verification"
                    )
                lifted_cache[key] = lifted
            lifted = lifted_cache[key]
            results_block[str(mu)] = _result_block(res, measure_size(lifted, mu))
            if args.out:
                out_formula = lifted
        timings["lift_verify_ms"] = (time.perf_counter() - t1) * 1000
    except TrivialInstance as triv:
        phi = trivial_formula(triv)
        check = verify_against_family(phi, n, raw)
        if not check:
            raise VerificationError("trivial representation failed verification")
        report["instance"] = {
            "n": triv.n,
            "m": 1,
            "k": len(triv.body),
            "delta": len(triv.body),
        }
        for mu in measures:
            size = measure_size(phi, mu)
            results_block[str(mu)] = {
                "size": size,
                "lifted_size": size,
                "lower_bound": size,
                "strategy": STRATEGY_EXACT,
                **_frac_fields("ratio", Fraction(1)),
                **_frac_fields("guarantee", Fraction(1)),
            }
        out_formula = phi

    report["results"] = results_block
    timings["total_ms"] = (time.perf_counter() - t0) * 1000
    if args.timings:
        report["timings_ms"] = {k: round(v, 3) for k, v in timings.items()}

    if args.out and out_formula is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(write_horn(out_formula))
    payload = _dump_json(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    return 0


def cmd_verify(args) -> int:
    n, raw = parse_bodies(_read_file(args.infile))
    phi = parse_horn(_read_file(args.formula))
    res = verify_against_family(phi, n, raw)
    out = {"ok": res.ok}
    if not res.ok:
        if res.bad_group is not None:
            out["certificate"] = {
                "kind": "unentailed_group",
                "body": sorted(res.bad_group.body),
                "heads": sorted(res.bad_group.heads),
            }
        else:
            out["certificate"] = {
                "kind": "deficient_closure",
                "body": sorted(res.bad_body),
                "closure": sorted(res.closure),
            }
    sys.stdout.write(_dump_json(out))
    return 0 if res.ok else 3


def cmd_exact(args) -> int:
    text = _read_file(args.infile)
    n, raw = parse_bodies(text)
    measures = _measure_list(args.measure)
    if args.out and len(measures) != 1:
        raise ValueError("--out needs a single --measure, not 'all'")
    report = {"format": 1, "version": __version__, "input_digest": _digest(text)}
    results = {}
    try:
        inst, rec = normalize(n, raw)
        all_opt = opt_exact_all(
            inst, max_candidates=args.max_candidates, timeout=args.timeout
        )
        witness: Optional[HornCNF] = None
        for mu in measures:
            res = all_opt[mu]
            results[str(mu)] = {"opt": res.size, "optimal": res.optimal}
            if args.out:
                witness = lift(res.formula, rec, raw)
        if args.out and witness is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(write_horn(witness))
    except TrivialInstance as triv:
        phi = trivial_formula(triv)
        for mu in measures:
            results[str(mu)] = {"opt": measure_size(phi, mu), "optimal": True}
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(write_horn(phi))
    report["results"] = results
    sys.stdout.write(_dump_json(report))
    return 0


def cmd_bounds(args) -> int:
    text = _read_file(args.infile)
    n, raw = parse_bodies(text)
    report = {"format": 1, "version": __version__, "input_digest": _digest(text)}
    try:
        inst, _rec = normalize(n, raw)
        bounds = {str(mu): lower_bound(inst, mu) for mu in MEASURES}
        if inst.m >= 2:
            part = lower_bound_partition_c(inst)
            bounds["C_partition"] = part
            bounds["C"] = max(bounds["C"], part)
        report["instance"] = {"n": inst.n, "m": inst.m, "k": inst.k, "delta": inst.delta}
        report["lower_bounds"] = bounds
    except TrivialInstance as triv:
        phi = trivial_formula(triv)
        report["instance"] = {"n": triv.n, "m": 1}
        report["lower_bounds"] = {
            str(mu): measure_size(phi, mu) for mu in MEASURES
        }
        report["trivial"] = True
    sys.stdout.write(_dump_json(report))
    return 0


def _parse_var_list(text: str, n: int) -> VarSet:
    try:
        vals = [int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"not a variable list: {text!r}")
    return VarSet(n, vals)


def cmd_price(args) -> int:
    text = _read_file(args.infile)
    n, raw = parse_bodies(text)
    src = _parse_var_list(getattr(args, "from"), n)
    dst = _parse_var_list(args.to, n)
    out = {"measure": args.measure, "from": sorted(src), "to": sorted(dst)}
    if args.measure == "C":
        out["value"] = len(dst - src)
        out["exact"] = True
    else:
        # keep the caller's coordinates: minimal bodies, no remapping
        inst = KeyHornInstance(n, sperner_minimal(raw))
        if args.exact:
            out["value"] = price_l_exact(inst, src, dst, max_bodies=args.cap)
            out["exact"] = True
        else:
            lam = lambda_formula(inst, src, dst)
            out["value"] = lam.weight
            out["exact"] = False
            out["formula"] = write_horn(lam.formula).splitlines()
    sys.stdout.write(_dump_json(out))
    return 0


def _write_or_print(args, body_text: str, stats: Optional[dict]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body_text)
        if stats is not None:
            sys.stdout.write(_dump_json(stats))
    else:
        sys.stdout.write(body_text)


def cmd_gen(args) -> int:
    if args.kind == "random":
        inst = gen_random(args.n, args.m, args.k, args.seed)
        text = write_bodies(
            inst.n,
            inst.bodies,
            comment=f"random n={args.n} m={args.m} k={args.k} seed={args.seed}",
        )
        stats = {"n": inst.n, "m": inst.m, "k": inst.k, "delta": inst.delta}
        _write_or_print(args, text, stats if args.out else None)
        return 0
    if args.kind == "hydra":
        edges = []
        for pair in args.edges.split():
            a, _, b = pair.partition(",")
            edges.append((int(a), int(b)))
        inst = gen_hydra(edges, args.n)
        text = write_bodies(inst.n, inst.bodies, comment="hydra")
        _write_or_print(args, text, None)
        return 0
    if args.kind == "projective":
        pinst = gen_projective(args.d)
        text = write_bodies(
            pinst.n, pinst.bodies, comment=f"projective d={pinst.dim} q=2"
        )
        stats = {
            "d": pinst.dim,
            "n": pinst.n,
            "m": len(pinst.bodies),
            "hyperplane_size": len(pinst.hyperplane),
            "certificate_c_size": measure_size(pinst.certificate, Measure.C),
        }
        if args.cert:
            with open(args.cert, "w", encoding="utf-8") as fh:
                fh.write(write_horn(pinst.certificate))
        _write_or_print(args, text, stats if args.out else None)
        return 0
    if args.kind == "sat3":
        clauses = []
        for raw_clause in args.clause:
            clauses.append([int(tok) for tok in raw_clause.split()])
        rinst = gen_sat_reduction(clauses)
        stats = {
            "clauses": len(rinst.clauses),
            "variables": rinst.num_vars,
            "alpha": rinst.alpha,
            "beta": rinst.beta,
            "tau": rinst.tau,
            "ground_n": rinst.ground_n,
            "bodies": len(rinst.bodies),
            "source_size": len(rinst.source),
            "target_size": len(rinst.target),
            "note": (
                "exact literal pricing on this instance is intentionally not "
                "run here; the ground set has {} elements and one chain-DP "
                "evaluation over it is expensive".format(rinst.ground_n)
            ),
        }
        if args.out:
            text = write_bodies(rinst.ground_n, rinst.bodies, comment="sat3 reduction")
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(_dump_json(stats))
        return 0
    raise ValueError(f"unknown generator {args.kind!r}")


def _detect_projective(inst: KeyHornInstance):
    for d in range(2, 7):
        n = (1 << (d + 1)) - 1
        if inst.n == n and inst.m == 2 * n:
            pinst = gen_projective(d)
            if set(pinst.bodies) == set(inst.bodies):
                return pinst
    return None


def cmd_mwscs(args) -> int:
    text = _read_file(args.infile)
    n, raw = parse_bodies(text)
    inst = KeyHornInstance(n, sperner_minimal(raw))
    g = body_graph_c(inst)
    arcs, weight = mwscs_2approx(g)
    entering = sum(
        min(g.weight[u][v] for u in range(g.m) if u != v) for v in range(g.m)
    )
    out = {
        "format": 1,
        "version": __version__,
        "nodes": g.m,
        "weight": weight,
        "arc_count": len(arcs),
        "entering_arc_bound": entering,
    }
    pinst = _detect_projective(inst)
    if args.projective_d is not None:
        if pinst is None or pinst.dim != args.projective_d:
            raise ValueError(
                "--projective-d given but the input is not that construction"
            )
    if pinst is not None:
        min_x = pinst.min_price_into_hyperplane_shifts()
        csize = measure_size(pinst.certificate, Measure.C)
        out["projective"] = {
            "d": pinst.dim,
            "n": pinst.n,
            "min_entering_hyperplane_shift": min_x,
            "hyperplane_bound": pinst.n * min_x,
            "certificate_c_size": csize,
            "gap_at_least_n_over_12": 12 * pinst.n * min_x >= pinst.n * csize,
        }
    sys.stdout.write(_dump_json(out))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="keyhorn",
        description="Bounded-approximation minimization of key Horn CNF representations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    mz = sub.add_parser("minimize", help="normalize, minimize, lift, verify, report")
    mz.add_argument("--in", dest="infile", required=True)
    mz.add_argument(
        "--measure",
        required=True,
        choices=[str(mu) for mu in MEASURES] + ["all"],
    )
    mz.add_argument("--out", help="write the lifted formula (single measure only)")
    mz.add_argument("--report", help="also write the JSON report to this path")
    mz.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", "hamiltonian", "procedure1", "procedure2"],
    )
    mz.add_argument("--timings", action="store_true", help="include timings in the report")
    mz.set_defaults(func=cmd_minimize)

    vf = sub.add_parser("verify", help="check a formula against an instance")
    vf.add_argument("--in", dest="infile", required=True)
    vf.add_argument("--formula", required=True)
    vf.set_defaults(func=cmd_verify)

    ex = sub.add_parser("exact", help="brute-force optimum (desk scale)")
    ex.add_argument("--in", dest="infile", required=True)
    ex.add_argument(
        "--measure",
        required=True,
        choices=[str(mu) for mu in MEASURES] + ["all"],
    )
    ex.add_argument("--out", help="write an optimal witness formula")
    ex.add_argument("--max-candidates", type=int, default=28)
    ex.add_argument("--timeout", type=float, default=None)
    ex.set_defaults(func=cmd_exact)

    bd = sub.add_parser("bounds", help="lower bounds for all measures")
    bd.add_argument("--in", dest="infile", required=True)
    bd.set_defaults(func=cmd_bounds)

    pr = sub.add_parser("price", help="cost of chaining between variable sets")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--measure", required=True, choices=["C", "L"])
    pr.add_argument("--from", required=True)
    pr.add_argument("--to", required=True)
    pr.add_argument("--exact", action="store_true")
    pr.add_argument("--cap", type=int, default=12, help="body cap for exact pricing")
    pr.set_defaults(func=cmd_price)

    gn = sub.add_parser("gen", help="instance generators")
    gsub = gn.add_subparsers(dest="kind", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--m", type=int, required=True)
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--out")
    gr.set_defaults(func=cmd_gen)
    gh = gsub.add_parser("hydra")
    gh.add_argument("--n", type=int, required=True)
    gh.add_argument("--edges", required=True, help="e.g. '1,2 2,3 1,3'")
    gh.add_argument("--out")
    gh.set_defaults(func=cmd_gen)
    gp = gsub.add_parser("projective")
    gp.add_argument("--d", type=int, required=True)
    gp.add_argument("--out")
    gp.add_argument("--cert", help="write the clause-count certificate formula")
    gp.set_defaults(func=cmd_gen)
    gs = gsub.add_parser("sat3")
    gs.add_argument(
        "--clause",
        action="append",
        required=True,
        help="three literals, e.g. '1 -2 3'; repeatable",
    )
    gs.add_argument("--out")
    gs.set_defaults(func=cmd_gen)

    mw = sub.add_parser("mwscs", help="2-approx strongly connected subgraph weight")
    mw.add_argument("--in", dest="infile", required=True)
    mw.add_argument("--projective-d", type=int, default=None)
    mw.set_defaults(func=cmd_mwscs)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"keyhorn: verification failed: {exc}", file=sys.stderr)
        return 3
    except TrivialInstance as exc:
        print(
            f"keyhorn: error: {exc}; the 'minimize' and 'exact' commands "
            "handle single-body instances directly",
            file=sys.stderr,
        )
        return 2
    except (
        ParseError,
        GenerationError,
        SearchLimitError,
        NoBodyInSourceError,
        ValueError,
        OSError,
    ) as exc:
        print(f"keyhorn: error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # last resort: no known input gets here, and none may end in a traceback
        what = "out of memory" if isinstance(exc, MemoryError) else "recursion limit exceeded"
        print(f"keyhorn: error: {what}; the input is too large for this command", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
