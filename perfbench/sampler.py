"""Seeded inputs for the benchmark, independent of the code under test.

Families are drawn here rather than with ``keyhorn.gen`` so that a change to
the program cannot change what it is measured on.  Every pool member is drawn
from its own string-seeded generator, so any member can be rebuilt alone, and
its sha256 is pinned in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class PoolSpec:
    """Shape of one pool of random Sperner families (``gen_random``'s shape:
    body sizes uniform in 2..min(k, n-1), incomparable bodies only)."""

    n: int
    m: int
    k: int
    size: int
    strata: int
    candidates: Optional[tuple[int, int]] = None  # inclusive range, after normalizing
    cost_band: Optional[tuple[float, float]] = None  # op seconds when recorded


POOLS = {
    "small": PoolSpec(n=120, m=24, k=16, size=256, strata=64),
    "large": PoolSpec(n=1000, m=200, k=50, size=12, strata=2),
    "exact": PoolSpec(
        n=8, m=6, k=5, size=64, strata=32, candidates=(22, 25), cost_band=(0.2, 0.5)
    ),
}


def sperner_family(rng: random.Random, n: int, m: int, k: int) -> list[int]:
    """m pairwise incomparable bodies as bitmasks over n variables."""
    hi = min(k, n - 1)
    if hi < 2:
        raise ValueError(f"no legal body sizes for n={n}, k={k}")
    masks: list[int] = []
    rejected = 0
    while len(masks) < m:
        mask = 0
        for v in rng.sample(range(n), rng.randint(2, hi)):
            mask |= 1 << v
        if any(mask & o in (mask, o) for o in masks):
            rejected += 1
            if rejected > 1000 + 200 * m:
                raise ValueError(f"cannot place {m} incomparable bodies over {n} variables")
            continue
        masks.append(mask)
    return masks


def candidate_count(n: int, masks: Sequence[int]) -> int:
    """Sum of n' - |B'| over the normalized family (core and uncovered
    variables removed): the candidate clauses ``exact`` searches over."""
    core, union = (1 << n) - 1, 0
    for mask in masks:
        core &= mask
        union |= mask
    kept = (union & ~core).bit_count()
    return sum(kept - (mask & ~core).bit_count() for mask in masks)


def bodies_text(n: int, masks: Sequence[int]) -> str:
    lines = [f"p keyhorn {n} {len(masks)}"]
    for mask in masks:
        lines.append(" ".join(str(v + 1) for v in range(n) if mask >> v & 1))
    return "\n".join(lines) + "\n"


def member_text(pool: str, index: int) -> str:
    """The ``.bodies`` text of draw ``index`` for a pool; the same on every
    call.  A pool with a cost band keeps only the draws recorded in it."""
    spec = POOLS[pool]
    rng = random.Random(f"keyhorn-perfbench/{pool}/{index}")
    for _ in range(10_000):
        masks = sperner_family(rng, spec.n, spec.m, spec.k)
        if spec.candidates is None:
            return bodies_text(spec.n, masks)
        lo, hi = spec.candidates
        if lo <= candidate_count(spec.n, masks) <= hi:
            return bodies_text(spec.n, masks)
    raise ValueError(f"pool {pool!r} member {index}: no family in the candidate range")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def batch(order: Sequence[int], strata: int, seed: int) -> list[int]:
    """The pool members one run measures, in a seeded order.

    ``order`` lists the members from cheapest to dearest op; it is cut into
    ``strata`` equal slices and the seed picks one member of each.  A run
    repeats its batch in whole rounds, so every run holds the same mix of
    cheap and dear ops and its median does not hinge on the draw.
    """
    if len(order) % strata:
        raise ValueError("pool size must be a multiple of the stratum count")
    width = len(order) // strata
    rng = random.Random(seed)
    picked = [rng.choice(order[s * width:(s + 1) * width]) for s in range(strata)]
    rng.shuffle(picked)
    return picked
