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
    CandidateTable,
    MinimizationResult,
    STRATEGY_EXACT,
    STRATEGY_TARGETS,
    lower_bound,
    lower_bound_partition_c,
)
from .core import (
    HornCNF,
    ClauseGroup,
    KeyHornInstance,
    Measure,
    MEASURES,
    VarSet,
    VerificationError,
    measure_size,
    verify_against_family,
)
from .exact import MAX_BODIES, MAX_CANDIDATES, OptResult, check_cap, check_timeout
from .exact import opt_exact_all, price_l_exact
from .gen import (
    gen_hydra,
    gen_projective,
    gen_random,
    gen_sat_reduction,
)
from .graph import (
    body_graph_c,
    bodies_inside,
    lambda_formula,
    mwscs_2approx,
    price_c,
)
from .reduce import NormalizationRecord, TrivialInstance, lift, normalize


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


# per header kind: the count's letter, its least value, the message head for
# sizes out of range, and what one content line holds
_HEADERS = {
    "keyhorn": ("m", 1, "header needs n >= 1 and m >= 1, got", "body"),
    "horn": ("g", 0, "bad sizes in header", "group"),
}


def _read_header(text: str, kind: str) -> tuple[int, list[tuple[int, str]]]:
    """The ``p <kind> <n> <count>`` header's n, and the count content lines
    that follow it as (line number, line) pairs."""
    letter, least, bad_sizes, noun = _HEADERS[kind]
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, f"missing 'p {kind} <n> <{letter}>' header")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != kind:
        raise ParseError(lineno, f"malformed header {header!r}")
    try:
        n, count = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError(lineno, f"malformed header {header!r}")
    if n < 1 or count < least:
        raise ParseError(lineno, f"{bad_sizes} {header!r}")
    content = lines[1:]
    if len(content) != count:
        where = content[count][0] if len(content) > count else lineno
        raise ParseError(where, f"expected exactly {count} {noun} lines, got {len(content)}")
    return n, content


def parse_bodies(text: str) -> tuple[int, list[VarSet]]:
    """Parse a ``.bodies`` instance file; returns (n, bodies in file order)."""
    n, body_lines = _read_header(text, "keyhorn")
    bodies = []
    for bl, line in body_lines:
        # a significant line holds a token, so the body is never empty
        body = _parse_vars(bl, line.split(), n)
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
    n, group_lines = _read_header(text, "horn")
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


def _instance_block(inst: KeyHornInstance) -> dict:
    return {"n": inst.n, "m": inst.m, "k": inst.k, "delta": inst.delta}


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(args) -> tuple[int, list[VarSet], dict]:
    """The ``--in`` file parsed, with the report head that names it."""
    text = _read_file(args.infile)
    n, raw = parse_bodies(text)
    head = {
        "format": 1,
        "version": __version__,
        "input_digest": "sha256:" + hashlib.sha256(text.encode()).hexdigest(),
    }
    return n, raw, head


def _measure_list(args, strategy: str = "auto") -> list[Measure]:
    """The measures to report, checked against ``--out`` and ``strategy``
    before the input is read."""
    measures = list(MEASURES) if args.measure == "all" else [Measure(args.measure)]
    if args.out and len(measures) > 1:
        raise ValueError("--out needs a single --measure, not 'all'")
    targets = STRATEGY_TARGETS.get(strategy, MEASURES)
    if any(mu not in targets for mu in measures):
        noun = "measures" if len(targets) > 1 else "measure"
        what = " and ".join(map(str, targets))
        raise ValueError(f"--strategy {strategy} applies to {noun} {what} only")
    return measures


def _verified_lift(
    formula: HornCNF, rec: NormalizationRecord, raw: list[VarSet], lifted: dict
) -> HornCNF:
    """``formula`` lifted back to the input's variables and verified against
    the input family, once per distinct formula: ``lifted`` keeps each one
    by value, so candidates that build the same formula share it."""
    if formula not in lifted:
        phi = lift(formula, rec)
        if not verify_against_family(phi, rec.original_n, raw):
            raise VerificationError("lifted formula failed verification")
        lifted[formula] = phi
    return lifted[formula]


def _single_body(rec: NormalizationRecord, raw: list[VarSet], lifted: dict) -> dict[Measure, int]:
    """Per measure, the size of a single-body family's one representation,
    the lift of the empty formula, which is optimal under every measure."""
    phi = _verified_lift(HornCNF(0), rec, raw, lifted)
    return {mu: measure_size(phi, mu) for mu in MEASURES}


def cmd_minimize(args) -> int:
    measures = _measure_list(args, args.strategy)
    n, raw, report = _load(args)
    report["input"] = {"n": n, "m": len(raw)}
    lifted: dict[HornCNF, HornCNF] = {}
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        inst, rec = normalize(n, raw)
        t1 = time.perf_counter()
        table = CandidateTable(inst)
        per_measure = {
            mu: table.best(mu) if args.strategy == "auto" else table.score(args.strategy, mu)
            for mu in measures
        }
        t2 = time.perf_counter()
        timings = {"normalize_ms": t1 - t0, "minimize_ms": t2 - t1}
    except TrivialInstance as triv:
        t2 = time.perf_counter()
        rec = triv.record
        inst, sizes = KeyHornInstance(n, [rec.anchor]), _single_body(rec, raw, lifted)
        per_measure = {
            mu: MinimizationResult(HornCNF(0), sizes[mu], sizes[mu], Fraction(1), STRATEGY_EXACT)
            for mu in measures
        }
    report["instance"] = _instance_block(inst)
    results = report["results"] = {}
    for mu in measures:
        phi = _verified_lift(per_measure[mu].formula, rec, raw, lifted)
        results[str(mu)] = _result_block(per_measure[mu], measure_size(phi, mu))
    timings["lift_verify_ms"] = time.perf_counter() - t2
    timings["total_ms"] = time.perf_counter() - t0
    if args.timings:
        report["timings_ms"] = {k: round(v * 1000, 3) for k, v in timings.items()}
    # with --out there is exactly one measure (see _measure_list)
    if args.out:
        _write_file(args.out, write_horn(phi))
    payload = _dump_json(report)
    if args.report:
        _write_file(args.report, payload)
    sys.stdout.write(payload)
    return 0


def cmd_verify(args) -> int:
    n, raw, _head = _load(args)
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
    # also for a single-body family, which runs no search
    check_timeout("--timeout", args.timeout)
    check_cap("--max-candidates", args.max_candidates)
    measures = _measure_list(args)
    n, raw, report = _load(args)
    lifted: dict[HornCNF, HornCNF] = {}
    try:
        inst, rec = normalize(n, raw)
        all_opt = opt_exact_all(
            inst, max_candidates=args.max_candidates, timeout=args.timeout, measures=measures
        )
    except TrivialInstance as triv:
        rec, sizes = triv.record, _single_body(triv.record, raw, lifted)
        all_opt = {mu: OptResult(sizes[mu], HornCNF(0), True) for mu in measures}
    results = {str(mu): {"opt": r.size, "optimal": r.optimal} for mu, r in all_opt.items()}
    report["results"] = results
    # with --out there is exactly one measure (see _measure_list)
    if args.out:
        witness = _verified_lift(all_opt[measures[0]].formula, rec, raw, lifted)
        _write_file(args.out, write_horn(witness))
    sys.stdout.write(_dump_json(report))
    return 0


def cmd_bounds(args) -> int:
    n, raw, report = _load(args)
    try:
        inst, _rec = normalize(n, raw)
        bounds = {str(mu): lower_bound(inst, mu) for mu in MEASURES}
        bounds["C_partition"] = lower_bound_partition_c(inst)
        report["instance"] = _instance_block(inst)
        report["lower_bounds"] = bounds
    except TrivialInstance as triv:
        report["instance"] = {"n": n, "m": 1}
        sizes = _single_body(triv.record, raw, {})
        report["lower_bounds"] = {str(mu): size for mu, size in sizes.items()}
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
    check_cap("--cap", args.cap)
    n, raw, _head = _load(args)
    src = _parse_var_list(getattr(args, "from"), n)
    dst = _parse_var_list(args.to, n)
    out = {"measure": args.measure, "from": sorted(src), "to": sorted(dst)}
    # keep the caller's coordinates: minimal bodies, no remapping
    inst = KeyHornInstance(n, raw)
    if args.measure == "C":
        # as for L: with no body inside the source no clause can ever fire
        if not dst.issubset(src):
            bodies_inside(inst, src)
        out["value"] = price_c(src, dst)
        out["exact"] = True
    elif args.exact:
        out["value"] = price_l_exact(inst, src, dst, max_bodies=args.cap)
        out["exact"] = True
    else:
        lam = lambda_formula(inst, src, dst)
        out["value"] = lam.weight
        out["exact"] = False
        out["formula"] = write_horn(lam.formula).splitlines()
    sys.stdout.write(_dump_json(out))
    return 0


def cmd_gen(args) -> int:
    stats = None
    if args.kind == "random":
        inst = gen_random(args.n, args.m, args.k, args.seed)
        comment = f"random n={args.n} m={args.m} k={args.k} seed={args.seed}"
        text, stats = write_bodies(inst.n, inst.bodies, comment=comment), _instance_block(inst)
    elif args.kind == "hydra":
        edges = []
        for pair in args.edges.split():
            a, _, b = pair.partition(",")
            try:
                edges.append((int(a), int(b)))
            except ValueError:
                raise ValueError(
                    f"--edges pair {pair!r} is not of the form a,b with integers a and b"
                ) from None
        inst = gen_hydra(edges, args.n)
        text = write_bodies(inst.n, inst.bodies, comment="hydra")
    elif args.kind == "projective":
        pinst = gen_projective(args.d)
        text = write_bodies(pinst.n, pinst.bodies, comment=f"projective d={pinst.dim} q=2")
        stats = {
            "d": pinst.dim,
            "n": pinst.n,
            "m": len(pinst.bodies),
            "hyperplane_size": len(pinst.hyperplane),
            "certificate_c_size": measure_size(pinst.certificate, Measure.C),
        }
        if args.cert:
            _write_file(args.cert, write_horn(pinst.certificate))
    else:
        clauses = []
        for raw_clause in args.clause:
            try:
                clauses.append([int(tok) for tok in raw_clause.split()])
            except ValueError:
                raise ValueError(
                    f"--clause {raw_clause!r} is not a list of integer literals such as '1 -2 3'"
                ) from None
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
        text = ""
        if args.out:
            text = write_bodies(rinst.ground_n, rinst.bodies, comment="sat3 reduction")
    if args.out:
        _write_file(args.out, text)
    # stdout gets the family, or its stats once the family went to a file;
    # sat3's ground sets are too large to print, so it always prints its stats
    if args.out or args.kind == "sat3":
        text = "" if stats is None else _dump_json(stats)
    sys.stdout.write(text)
    return 0


def _detect_projective(inst: KeyHornInstance):
    for d in range(2, 7):
        n = (1 << (d + 1)) - 1
        if inst.n == n and inst.m == 2 * n:
            pinst = gen_projective(d)
            if set(pinst.bodies) == set(inst.bodies):
                return pinst
    return None


def cmd_mwscs(args) -> int:
    n, raw, _head = _load(args)
    inst = KeyHornInstance(n, raw)
    pinst = _detect_projective(inst)
    if args.projective_d is not None and (pinst is None or pinst.dim != args.projective_d):
        raise ValueError("--projective-d given but the input is not that construction")
    g = body_graph_c(inst)
    arcs, weight = mwscs_2approx(g)
    # a single body is strongly connected on its own and has no entering arc
    entering = g.column_minima
    out = {
        "format": 1,
        "version": __version__,
        "nodes": g.m,
        "weight": weight,
        "arc_count": len(arcs),
        "entering_arc_bound": sum(entering),
    }
    if pinst is not None:
        # the cheapest arc entering a hyperplane shift, off its column minima
        shifts = set(pinst.hyperplane_shifts())
        min_x = min(e for b, e in zip(g.nodes, entering) if b in shifts)
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
    measures = [str(mu) for mu in MEASURES] + ["all"]

    mz = sub.add_parser("minimize", help="normalize, minimize, lift, verify, report")
    mz.add_argument("--in", dest="infile", required=True)
    mz.add_argument("--measure", required=True, choices=measures)
    mz.add_argument("--out", help="write the lifted formula (single measure only)")
    mz.add_argument("--report", help="also write the JSON report to this path")
    mz.add_argument("--strategy", default="auto", choices=["auto", *STRATEGY_TARGETS])
    mz.add_argument("--timings", action="store_true", help="include timings in the report")

    vf = sub.add_parser("verify", help="check a formula against an instance")
    vf.add_argument("--in", dest="infile", required=True)
    vf.add_argument("--formula", required=True)

    ex = sub.add_parser("exact", help="brute-force optimum (desk scale)")
    ex.add_argument("--in", dest="infile", required=True)
    ex.add_argument("--measure", required=True, choices=measures)
    ex.add_argument("--out", help="write an optimal witness formula")
    ex.add_argument("--max-candidates", type=int, default=MAX_CANDIDATES)
    ex.add_argument("--timeout", type=float, default=None)

    bd = sub.add_parser("bounds", help="lower bounds for all measures")
    bd.add_argument("--in", dest="infile", required=True)

    pr = sub.add_parser("price", help="cost of chaining between variable sets")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--measure", required=True, choices=["C", "L"])
    pr.add_argument("--from", required=True)
    pr.add_argument("--to", required=True)
    pr.add_argument("--exact", action="store_true")
    pr.add_argument("--cap", type=int, default=MAX_BODIES, help="body cap for exact pricing")

    gn = sub.add_parser("gen", help="instance generators")
    gsub = gn.add_subparsers(dest="kind", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--m", type=int, required=True)
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--out")
    gh = gsub.add_parser("hydra")
    gh.add_argument("--n", type=int, required=True)
    gh.add_argument("--edges", required=True, help="e.g. '1,2 2,3 1,3'")
    gh.add_argument("--out")
    gp = gsub.add_parser("projective")
    gp.add_argument("--d", type=int, required=True)
    gp.add_argument("--out")
    gp.add_argument("--cert", help="write the clause-count certificate formula")
    gs = gsub.add_parser("sat3")
    gs.add_argument(
        "--clause",
        action="append",
        required=True,
        help="three literals, e.g. '1 -2 3'; repeatable",
    )
    gs.add_argument("--out")

    mw = sub.add_parser("mwscs", help="2-approx strongly connected subgraph weight")
    mw.add_argument("--in", dest="infile", required=True)
    mw.add_argument("--projective-d", type=int, default=None)

    return p


# built once per process: building it costs more than parsing with it
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # looked up at call time, so a rebound command is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except VerificationError as exc:
        print(f"keyhorn: verification failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ParseError, GenerationError, SearchLimitError and
        # NoBodyInSourceError are all ValueErrors
        print(f"keyhorn: error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        # last resort, as no input may end in a traceback: a header n beyond
        # sys.maxsize overflows a shift or a range
        causes = {MemoryError: "out of memory", OverflowError: "integer overflow"}
        what = causes.get(type(exc), "recursion limit exceeded")
        print(f"keyhorn: error: {what}; the input is too large for this command", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
