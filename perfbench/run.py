#!/usr/bin/env python3
"""The keyhorn benchmark: one workload per process, a closed loop with one
client and one op in flight.

    python3 perfbench/run.py --workload minimize-small --seed 1 --seconds 20 --trace 0

Every op is a call of the public entry point ``keyhorn.cli.main(argv)`` in
this process, with its output captured and checked.  The last line printed is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The line before it is a summary of the run.
End-to-end timings are given at reference speed (see speed.py), so that
the drift of a shared machine's speed does not decide them.
See README.md beside this file for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import sampler  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import ROOT_SPAN, SPAN_NAMES, Tracer  # noqa: E402

EXPECTED = HERE / "expected.json"
PROJECTIVE = HERE / "projective-d4.bodies"
THREE_BODIES = "p keyhorn 5 3\n1 2\n2 3 4\n4 5\n"
SETUP_STARTS = 8  # before and again after the timed phase
CALIBRATE_SAMPLES = 5  # speed samples just before and after each start
WARMUP_S = 1.0
WARMUP_MEMBERS = 8


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    pool: Optional[str]  # None: the committed gen_projective(4) file
    argv: tuple[str, ...]
    warmup_pool: str
    warmup_argv: tuple[str, ...]


MINIMIZE = ("minimize", "--measure", "all")
WORKLOADS = {
    "minimize-large": Workload("large", MINIMIZE, "small", MINIMIZE),
    "minimize-small": Workload("small", MINIMIZE, "small", MINIMIZE),
    "mwscs-projective": Workload(None, ("mwscs", "--projective-d", "4"), "small", ("mwscs",)),
    "exact-oracle": Workload("exact", ("exact", "--measure", "all"), "exact", ("exact", "--measure", "all")),
}


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------


@dataclass
class Op:
    key: str  # "<argv> @ <input sha256>", the key of its recorded result
    start: float  # perf_counter at the call
    seconds: float
    failure: Optional[str]
    report: Optional[dict]


def results_block(report: dict) -> dict:
    """The part of a report that must match the recorded one."""
    if "results" in report:
        return report["results"]
    return {k: v for k, v in report.items() if k not in ("format", "version")}


def results_digest(report: dict) -> str:
    text = json.dumps(results_block(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def op_key(argv: tuple[str, ...], input_sha: str) -> str:
    return " ".join(argv) + " @ " + input_sha


def check(report: dict) -> Optional[str]:
    """Which guarantee the report breaks, or None."""
    for mu, res in report.get("results", {}).items():
        if "ratio_num" in res:
            ratio = Fraction(res["ratio_num"], res["ratio_den"])
            guarantee = Fraction(res["guarantee_num"], res["guarantee_den"])
            if not 1 <= ratio <= guarantee:
                return f"{mu} ratio {ratio} outside [1, {guarantee}]"
        if res.get("optimal") is False:
            return f"{mu} optimum not certified"
    if report.get("projective", {}).get("gap_at_least_n_over_12") is False:
        return "projective gap lost"
    return None


def run_op(main: Callable, argv: tuple[str, ...], path: Path, input_sha: str,
           expected: Optional[dict], tracer: Optional[Tracer] = None) -> Op:
    """One CLI op, timed and checked.  ``expected`` maps op keys to recorded
    result digests; None skips that comparison (when recording them)."""
    key = op_key(argv, input_sha)
    out, err = io.StringIO(), io.StringIO()
    full = [*argv, "--in", str(path)]
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = main(full)
            else:
                with tracer.span(ROOT_SPAN):
                    rc = main(full)
    except (Exception, SystemExit) as exc:  # a crashed op is a failed op, not a crashed run
        return Op(key, start, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None)
    seconds = time.perf_counter() - start
    if rc != 0:
        return Op(key, start, seconds, f"exit {rc}: {err.getvalue().strip()[:200]}", None)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return Op(key, start, seconds, "output is not JSON", None)
    failure = check(report)
    if failure is None and expected is not None:
        recorded = expected.get(key)
        if recorded is None:
            failure = "no recorded result for this input"
        elif recorded != results_digest(report):
            failure = "results differ from the recorded ones"
    return Op(key, start, seconds, failure, report)


# ---------------------------------------------------------------------------
# Program, inputs and recorded results
# ---------------------------------------------------------------------------


def load_program() -> Callable:
    """``keyhorn.cli.main`` from this checkout's sources, never another copy."""
    cli = ROOT / "src" / "keyhorn" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"no program sources at {cli.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import keyhorn.cli
    except ImportError as exc:
        raise BenchError(f"cannot import keyhorn.cli: {exc}")
    if Path(keyhorn.cli.__file__).resolve() != cli.resolve():
        raise BenchError(f"imported keyhorn from {keyhorn.cli.__file__}, not this checkout")
    return keyhorn.cli.main


def load_expected() -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {EXPECTED.name}: {exc}")


class Inputs:
    """Pool members written to a scratch directory on first use, each one
    checked against its pinned sha256."""

    def __init__(self, workdir: Path, pinned: dict):
        self.workdir = workdir
        self.pinned = pinned
        self.files: dict[tuple[str, int], tuple[Path, str]] = {}

    def member(self, pool: str, pos: int) -> tuple[Path, str]:
        if (pool, pos) not in self.files:
            recorded = self.pinned["pools"][pool]
            text = sampler.member_text(pool, recorded["draws"][pos])
            sha = sampler.sha256(text)
            if sha != recorded["sha256"][pos]:
                raise BenchError(f"input drift: pool {pool!r} member {pos} changed")
            self.files[pool, pos] = (self.write(f"{pool}-{pos}.bodies", text), sha)
        return self.files[pool, pos]

    def write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def projective(self) -> tuple[Path, str]:
        text = PROJECTIVE.read_text(encoding="utf-8")
        sha = sampler.sha256(text)
        if sha != self.pinned["projective_sha256"]:
            raise BenchError(f"input drift: {PROJECTIVE.name} is not the pinned gen_projective(4) file")
        return self.write(PROJECTIVE.name, text), sha


def cost_order(pinned: dict, pool: str) -> list[int]:
    """Pool members from cheapest to dearest op, as recorded."""
    costs = pinned["pools"][pool]["cost_s"]
    return sorted(range(len(costs)), key=lambda i: (costs[i], i))


def warmup_members(pinned: dict, workload: Workload) -> list[int]:
    """The untimed pass before timing: the same command on the first small
    members, or on the cheapest ones of the exact pool."""
    if workload.warmup_pool == "exact":
        return cost_order(pinned, "exact")[:WARMUP_MEMBERS]
    return list(range(WARMUP_MEMBERS))


def pool_digest(pinned: dict, pool: Optional[str]) -> str:
    shas = [pinned["projective_sha256"]] if pool is None else pinned["pools"][pool]["sha256"]
    return hashlib.sha256("".join(shas).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); with fewer than eleven samples, the maximum."""
    s = sorted(times)
    idx = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return 100.0 * (idx + 1) / len(s), s[idx]


def gmean(values: list[float]) -> float:
    """Geometric mean; 1 when the workload's op reports no such ratio."""
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality(reports: list[dict]) -> dict[str, float]:
    ratio = {"C": [], "L": []}
    mwscs = []
    for r in reports:
        for mu, vals in ratio.items():
            res = r.get("results", {}).get(mu, {})
            if "ratio_num" in res:
                vals.append(res["ratio_num"] / res["ratio_den"])
        if "entering_arc_bound" in r:
            mwscs.append(r["weight"] / r["entering_arc_bound"])
    return {
        "ratio_C_gmean": gmean(ratio["C"]),
        "ratio_L_gmean": gmean(ratio["L"]),
        "mwscs_ratio": gmean(mwscs),
    }


def cold_starts(path: Path, expected: dict, ops: list[Op], count: int,
                meter: SpeedMeter) -> list[float]:
    """Times at reference speed of ``count`` fresh ``python -m keyhorn.cli
    bounds`` runs on the three-body file: the cold start every shell
    invocation pays.  The machine's speed is sampled just before and after
    each start.  Each start's output is checked like any op."""
    key = op_key(("bounds",), sampler.sha256(THREE_BODIES))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "keyhorn.cli", "bounds", "--in", str(path)]
    times = []
    for _ in range(count):
        meter.calibrate(CALIBRATE_SAMPLES)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:  # the child is killed and reaped by now
            ops.append(Op(key, start, time.perf_counter() - start, "no exit within 60 s", None))
            continue
        end = time.perf_counter()
        meter.calibrate(CALIBRATE_SAMPLES)
        failure = None
        if proc.returncode != 0:
            failure = f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        else:
            try:
                if results_digest(json.loads(proc.stdout)) != expected.get(key):
                    failure = "results differ from the recorded ones"
            except ValueError:
                failure = "output is not JSON"
        ops.append(Op(key, start, end - start, failure, None))
        times.append(meter.reference_seconds(start, end))
    return times


def per_layer(tracer: Tracer, traced: list[Op], plain: list[Op]) -> dict:
    """Per op medians of each span's self time and calls, and the derived
    counts; ``plain`` are the untraced twins of the ``traced`` ops."""
    per_op = tracer.per_op()
    ops = sorted(per_op)
    metrics: dict[str, tuple[float, str]] = {}

    def median_over_ops(fn) -> float:
        return statistics.median(fn(op) for op in ops) if ops else 0.0

    for name in (ROOT_SPAN, *SPAN_NAMES):
        if name in tracer.absent:
            self_s = calls = -1.0
        else:
            self_s = median_over_ops(lambda op: per_op[op].get(name, [0.0, 0])[0])
            calls = median_over_ops(lambda op: per_op[op].get(name, [0.0, 0])[1])
        if name == ROOT_SPAN:
            metrics["cli.self"] = (self_s, "s")
        else:
            metrics[f"{name}.self_s"] = (self_s, "s")
            metrics[f"{name}.calls"] = (calls, "count")
    for name in ("graph.body_graph_l", "graph.min_in_arborescence.unrooted"):

        def rate(op, name=name):
            self_s = per_op[op].get(name, [0.0, 0])[0]
            return tracer.counts.get((op, name + ".arcs"), 0) / self_s if self_s else 0.0

        metrics[f"{name}.arcs_per_s"] = (median_over_ops(rate), "1/s")
    for name in ("core.verify.closures", "exact.candidates"):
        metrics[name] = (median_over_ops(lambda op: tracer.counts.get((op, name), 0)), "count")
    won = built = 0
    for op in traced:
        for mu in ("C", "BC", "L"):
            res = (op.report or {}).get("results", {}).get(mu)
            if res is not None and "strategy" in res:
                built += 1
                won += res["strategy"] == "hamiltonian"
    metrics["approx.hamiltonian_win_frac"] = (won / built if built else 0.0, "frac")
    overhead = [t.seconds / u.seconds for t, u in zip(traced, plain)]
    metrics["trace_overhead_frac"] = (statistics.median(overhead) - 1 if overhead else 0.0, "frac")
    return metrics


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def timed_rounds(main: Callable, argv: tuple[str, ...], batch: list[tuple[Path, str]],
                 expected: dict, seconds: float) -> tuple[list[Op], float]:
    """Whole rounds of the batch until ``seconds`` have passed, so every run
    holds the batch's mix of ops; returns the ops and the end of the timed
    phase, which began at the first op.  Only the first round's ops keep
    their reports."""
    ops: list[Op] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        round_ops = [run_op(main, argv, path, sha, expected) for path, sha in batch]
        if ops:
            # a checked report repeats the first round's; holding every copy
            # would make peak memory grow with the number of ops
            for op in round_ops:
                op.report = None
        ops.extend(round_ops)
    return ops, time.perf_counter()


def traced_pairs(main: Callable, argv: tuple[str, ...], batch: list[tuple[Path, str]],
                 expected: dict, seconds: float, tracer: Tracer) -> tuple[list[Op], list[Op]]:
    """Each input untraced and then traced, or the other way round on every
    second pair, until ``seconds`` have passed; returns (untraced, traced)."""
    plain: list[Op] = []
    traced: list[Op] = []
    start = time.perf_counter()
    for path, sha in itertools.cycle(batch):
        if time.perf_counter() - start >= seconds:
            break
        traced_first = len(traced) % 2 == 1
        if not traced_first:
            plain.append(run_op(main, argv, path, sha, expected))
        tracer.install()
        try:
            traced.append(run_op(main, argv, path, sha, expected, tracer))
        finally:
            tracer.uninstall()
        tracer.op += 1
        if traced_first:
            plain.append(run_op(main, argv, path, sha, expected))
    return plain, traced


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    main = load_program()
    pinned = load_expected()
    expected = pinned["results"]
    tracer = Tracer()
    meter = SpeedMeter()
    ops: list[Op] = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = Inputs(workdir, pinned)
        three = inputs.write("three.bodies", THREE_BODIES)
        setup_times: list[float] = []
        if not trace:
            cold_starts(three, expected, ops, 1, meter)  # may compile bytecode: not timed
            setup_times += cold_starts(three, expected, ops, SETUP_STARTS, meter)
            meter.start()  # also through the warm-up, so the first op has samples before it
        try:
            start = time.perf_counter()
            while time.perf_counter() - start < WARMUP_S:
                for pos in warmup_members(pinned, workload):
                    path, sha = inputs.member(workload.warmup_pool, pos)
                    ops.append(run_op(main, workload.warmup_argv, path, sha, expected))
            if workload.pool is None:
                batch = [inputs.projective()]
            else:
                order = cost_order(pinned, workload.pool)
                members = sampler.batch(order, sampler.POOLS[workload.pool].strata, seed)
                batch = [inputs.member(workload.pool, pos) for pos in members]
            # everything alive now (modules, inputs, warm-up results) is left
            # out of later collections, so a full collection in a timed op
            # scans what the op made, as in a fresh CLI process, and not the
            # benchmark's own heap
            gc.collect()
            gc.freeze()
            if trace:
                plain, timed = traced_pairs(main, workload.argv, batch, expected, seconds, tracer)
                ops.extend(plain)
            else:
                timed, end = timed_rounds(main, workload.argv, batch, expected, seconds)
        finally:
            meter.stop()
        if not trace:
            # half the starts after the timed phase, so that one slow stretch
            # of the machine does not decide the median
            setup_times += cold_starts(three, expected, ops, SETUP_STARTS, meter)
        ops.extend(timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {"workload": name, "seed": seed, "trace": int(trace), "timed_ops": len(timed)}
    if trace:
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{name}-seed{seed}.jsonl")
        metrics = per_layer(tracer, timed, plain)
        summary["absent_spans"] = tracer.absent
    else:
        times = [meter.reference_seconds(op.start, op.start + op.seconds) for op in timed]
        # the tail is over inputs, each at the median of its rounds: a
        # stall of the shared machine lands on single ops at random, and
        # whether a dozen of them fell in one run decided a tail over ops
        per_input: dict[str, list[float]] = {}
        for op, t in zip(timed, times):
            per_input.setdefault(op.key, []).append(t)
        percentile, tail_s = tail([statistics.median(ts) for ts in per_input.values()])
        # the timed phase at reference speed, cut at each op's start
        cuts = [op.start for op in timed] + [end]
        phase_s = sum(meter.reference_seconds(a, b) for a, b in zip(cuts, cuts[1:]))
        metrics = {
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
            "ops_per_s": (len(timed) / phase_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        for key, value in quality([op.report for op in timed if op.report]).items():
            metrics[key] = (value, "ratio")
        summary["op_tail_percentile"] = round(percentile, 2)
        summary["op_tail_inputs"] = len(per_input)
        summary["op_p50_wall_s"] = statistics.median(op.seconds for op in timed)
        summary["speed_factor_p50"] = meter.factor(cuts[0], end)
    failures = [op for op in ops if op.failure]
    summary.update({
        "failed_frac": len(failures) / len(ops),
        "failures": [f"{op.key}: {op.failure}" for op in failures[:5]],
        "pool_sha256": pool_digest(pinned, workload.pool),
        "inputs_sha256": hashlib.sha256("".join(sha for _, sha in batch).encode()).hexdigest(),
        "claim": None,
    })
    return summary, result_line(ops, metrics)


def result_line(ops: list[Op], metrics: dict[str, tuple[float, str]]) -> dict:
    """The last line of a run: every op attempted counts, every failed check fails it."""
    failed = sum(op.failure is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
