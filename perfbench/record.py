#!/usr/bin/env python3
"""Record the reference results that every benchmark op is checked against.

    python3 perfbench/record.py

Rewrites expected.json beside this file with, per pool, the draws kept, the
sha256 of each and the seconds its op took here (which orders the members for
the batch and keeps the exact pool inside its cost band); the pinned sha256
of projective-d4.bodies; and the digest of the results block of every op a
run can make.  Run it only on a commit whose
reports are the reference; the digests are what later commits must match.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import sampler


def main() -> int:
    program = run.load_program()
    results: dict[str, str] = {}
    pinned: dict = {"pools": {}, "results": results}

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:

        def run_once(argv: tuple[str, ...], text: str) -> run.Op:
            sha = sampler.sha256(text)
            path = Path(tmp) / f"{sha}.bodies"
            path.write_text(text, encoding="utf-8")
            op = run.run_op(program, argv, path, sha, None)
            if op.failure:
                raise SystemExit(f"{op.key}: {op.failure}")
            return op

        def keep(op: run.Op) -> None:
            results[op.key] = run.results_digest(op.report)

        for pool, spec in sampler.POOLS.items():
            argv = next(w.argv for w in run.WORKLOADS.values() if w.pool == pool)
            lo, hi = spec.cost_band or (0.0, float("inf"))
            recorded = pinned["pools"][pool] = {"draws": [], "sha256": [], "cost_s": []}
            draw = 0
            while len(recorded["draws"]) < spec.size:
                text = sampler.member_text(pool, draw)
                op = run_once(argv, text)
                if lo <= op.seconds <= hi:
                    keep(op)
                    recorded["draws"].append(draw)
                    recorded["sha256"].append(sampler.sha256(text))
                    recorded["cost_s"].append(round(op.seconds, 4))
                draw += 1
            print(f"recorded pool {pool}: {spec.size} of {draw} draws", file=sys.stderr)
        for w in run.WORKLOADS.values():
            for pos in run.warmup_members(pinned, w):
                draw = pinned["pools"][w.warmup_pool]["draws"][pos]
                keep(run_once(w.warmup_argv, sampler.member_text(w.warmup_pool, draw)))
        projective = run.PROJECTIVE.read_text(encoding="utf-8")
        pinned["projective_sha256"] = sampler.sha256(projective)
        keep(run_once(run.WORKLOADS["mwscs-projective"].argv, projective))
        keep(run_once(("bounds",), run.THREE_BODIES))

    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.EXPECTED.name}: {len(results)} recorded results", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
