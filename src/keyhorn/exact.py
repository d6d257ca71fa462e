"""Exact oracles for desk-scale ground truth.

``opt_exact`` searches clause subsets over the instance's own bodies, which
is sufficient: some optimal representation uses exactly the minimal bodies,
and any representation must give every body a clause (its own closure has
to start) and every variable a clause pointing at it.  ``price_l_exact``
evaluates the cheapest literal cost of chaining between variable sets by a
dynamic program over body chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import approx
from .core import MEASURES, ClauseGroup, HornCNF, KeyHornInstance, Measure, VarSet
from .graph import NoBodyInSourceError


class SearchLimitError(ValueError):
    """The instance exceeds the configured exhaustive-search limits."""


@dataclass(frozen=True)
class OptResult:
    """A certified optimum (or, after a timeout, the best size found so far
    with ``optimal`` cleared)."""

    size: int
    formula: HornCNF
    optimal: bool


def cost_l(seq: Sequence[VarSet]) -> int:
    """Literal cost of the chain formula of a set sequence: step i pays
    (|S_i| + 1) for every element of S_{i+1} not seen before."""
    if not seq:
        raise ValueError("sequence must be nonempty")
    total = 0
    covered = seq[0].mask
    for cur, nxt in zip(seq, seq[1:]):
        total += (len(cur) + 1) * (nxt.mask & ~covered).bit_count()
        covered |= nxt.mask
    return total


def cost_lemma_check(a: VarSet, b: VarSet, c: VarSet) -> bool:
    """Self-test of the insertion criterion: going A,B,C is strictly cheaper
    than going A,C exactly when (|A|-|B|) * |C\\(A|B)| > (|A|+1) * |B\\(A|C)|.
    Both sides are evaluated independently; returns whether they agree."""
    lhs = cost_l([a, b, c]) < cost_l([a, c])
    e = len(b - (a | c))
    g = len(c - (a | b))
    rhs = (len(a) - len(b)) * g > (len(a) + 1) * e
    return lhs == rhs


def price_l_exact(
    inst: KeyHornInstance,
    s: VarSet,
    s2: VarSet,
    max_bodies: int = 12,
) -> int:
    """Exact minimum literal cost of a formula over the instance's bodies
    whose chaining from ``s`` covers ``s2``.

    Dynamic program over (used body subset, last body): appending body B
    costs (|last| + 1) per not-yet-reached element of B, and a final hop
    pays for the rest of ``s2``.  Keying on the subset is enough because
    the reached set is order-free; switching to an already-reached smaller
    body is a zero-cost transition, so no ordering constraint is needed.
    """
    if s.n != inst.n or s2.n != inst.n:
        raise ValueError("source/target universe does not match the instance")
    if s2.issubset(s):
        return 0
    m = inst.m
    if m > max_bodies:
        raise SearchLimitError(f"instance has {m} bodies, cap is {max_bodies}")
    masks = [b.mask for b in inst.bodies]
    szp = [len(b) + 1 for b in inst.bodies]
    starts = [i for i in range(m) if masks[i] & ~s.mask == 0]
    if not starts:
        raise NoBodyInSourceError("no family body is contained in the source set")

    smask = s.mask
    t_mask = s2.mask
    size = 1 << m
    reach = [0] * size
    reach[0] = smask
    for sub in range(1, size):
        low = sub & -sub
        reach[sub] = reach[sub ^ low] | masks[low.bit_length() - 1]

    unreached = (inst.n + 2) * (inst.k + 2) * (m + 2)  # above any chain cost
    dp = [[unreached] * m for _ in range(size)]
    for i in starts:
        dp[1 << i][i] = 0
    best = unreached
    for sub in range(1, size):
        row = dp[sub]
        r = reach[sub]
        for last in range(m):
            cur = row[last]
            if cur >= unreached:
                continue
            final = cur + szp[last] * (t_mask & ~r).bit_count()
            if final < best:
                best = final
            for j in range(m):
                bit = 1 << j
                if sub & bit:
                    continue
                nd = cur + szp[last] * (masks[j] & ~r).bit_count()
                if nd < dp[sub | bit][j]:
                    dp[sub | bit][j] = nd
    assert best < unreached
    return best


class _Timeout(Exception):
    pass


class _ClauseSearch:
    """Exhaustive branch-and-bound over per-head clause choices.

    Every variable needs at least one clause with that head, so a candidate
    formula is an assignment of a nonempty body subset to each head; heads
    are filled in order, subsets tried cheapest-first, and branches are cut
    against the incumbent plus the cheapest possible completion.
    """

    def __init__(self, inst: KeyHornInstance, weights: list[int], deadline: Optional[float]):
        self.n = inst.n
        self.m = inst.m
        self.body_masks = [b.mask for b in inst.bodies]
        self.deadline = deadline
        self.ticks = 0
        # per head: nonempty body-index subsets sorted by (weight, indices)
        self.head_options: list[list[tuple[int, tuple[int, ...]]]] = []
        for v in range(1, self.n + 1):
            avail = [i for i in range(self.m) if v not in inst.bodies[i]]
            assert avail, "normalized instances leave every variable a choice"
            opts: list[tuple[int, tuple[int, ...]]] = []
            for sub in range(1, 1 << len(avail)):
                combo = tuple(avail[t] for t in range(len(avail)) if sub >> t & 1)
                opts.append((sum(weights[i] for i in combo), combo))
            opts.sort()
            self.head_options.append(opts)
        self.min_head_cost = [opts[0][0] for opts in self.head_options]
        self.suffix_min = [0] * (self.n + 1)
        for v in range(self.n - 1, -1, -1):
            self.suffix_min[v] = self.suffix_min[v + 1] + self.min_head_cost[v]

    def _feasible(self, chosen: list[tuple[int, ...]]) -> bool:
        heads_of = [0] * self.m
        for v0, combo in enumerate(chosen):
            for i in combo:
                heads_of[i] |= 1 << v0
        full = (1 << self.n) - 1
        for start in self.body_masks:
            reached = start
            changed = True
            while changed and reached != full:
                changed = False
                for i, bmask in enumerate(self.body_masks):
                    if bmask & ~reached == 0:
                        add = heads_of[i] & ~reached
                        if add:
                            reached |= add
                            changed = True
            if reached != full:
                return False
        return True

    def run(self, incumbent: int) -> tuple[int, Optional[list[tuple[int, ...]]]]:
        self.best = incumbent
        self.best_choice: Optional[list[tuple[int, ...]]] = None
        self._dfs(0, 0, [])
        return self.best, self.best_choice

    def _dfs(self, v: int, cost: int, chosen: list[tuple[int, ...]]) -> None:
        if self.deadline is not None and self.ticks & 63 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        self.ticks += 1
        if cost + self.suffix_min[v] >= self.best:
            return
        if v == self.n:
            if self._feasible(chosen):
                self.best = cost
                self.best_choice = list(chosen)
            return
        for w, combo in self.head_options[v]:
            if cost + w + self.suffix_min[v + 1] >= self.best:
                break  # options are weight-sorted
            chosen.append(combo)
            self._dfs(v + 1, cost + w, chosen)
            chosen.pop()


def _formula_from_choice(inst: KeyHornInstance, chosen: Sequence[tuple[int, ...]]) -> HornCNF:
    heads_of: dict[int, list[int]] = {}
    for v0, combo in enumerate(chosen):
        for i in combo:
            heads_of.setdefault(i, []).append(v0 + 1)
    groups = [
        ClauseGroup(inst.bodies[i], VarSet(inst.n, vs)) for i, vs in heads_of.items()
    ]
    return HornCNF(inst.n, groups)


def _search_weighted(
    inst: KeyHornInstance,
    weights: list[int],
    seed_mu: Measure,
    deadline: Optional[float],
) -> OptResult:
    seed = approx.minimize(inst, seed_mu)
    search = _ClauseSearch(inst, weights, deadline)
    try:
        best, choice = search.run(_clause_cost(seed.formula, inst, weights) + 1)
    except _Timeout:
        return OptResult(seed.size, seed.formula, False)
    # the seed formula lives in the searched space, so something was found
    assert choice is not None
    return OptResult(best, _formula_from_choice(inst, choice), True)


def _clause_cost(phi: HornCNF, inst: KeyHornInstance, weights: list[int]) -> int:
    by_mask = {b.mask: i for i, b in enumerate(inst.bodies)}
    total = 0
    for g in phi.groups:
        total += weights[by_mask[g.body.mask]] * len(g.heads)
    return total


def opt_exact(
    inst: KeyHornInstance,
    mu: Measure,
    max_candidates: int = 28,
    timeout: Optional[float] = None,
) -> OptResult:
    """Certified optimal ``mu``-size with a witness formula.

    Feasible formulas all use every minimal body, so body count and body
    area are fixed; clause count, bodies+clauses and total area share one
    unit-weight search, and literal count is the same search with weight
    |body| + 1 per clause.
    """
    return _opt_exact(inst, (mu,), max_candidates, timeout)[mu]


def opt_exact_all(
    inst: KeyHornInstance,
    max_candidates: int = 28,
    timeout: Optional[float] = None,
) -> dict[Measure, OptResult]:
    """All six optima, running the two underlying searches once each."""
    return _opt_exact(inst, MEASURES, max_candidates, timeout)


def _opt_exact(
    inst: KeyHornInstance,
    measures: Sequence[Measure],
    max_candidates: int,
    timeout: Optional[float],
) -> dict[Measure, OptResult]:
    """The optima of ``measures`` under one cap check and one deadline,
    running only the searches they need."""
    if not inst.is_normalized:
        raise ValueError("instance must be normalized (covering and coreless)")
    n_cands = sum(inst.n - len(b) for b in inst.bodies)
    if n_cands > max_candidates:
        raise SearchLimitError(
            f"{n_cands} candidate clauses exceed the cap of {max_candidates}"
        )
    deadline = None if timeout is None else time.monotonic() + timeout
    out: dict[Measure, OptResult] = {}
    if any(mu is not Measure.L for mu in measures):
        unit = _search_weighted(inst, [1] * inst.m, Measure.C, deadline)
        sum_bodies = sum(len(b) for b in inst.bodies)
        sizes = {
            Measure.B: inst.m,
            Measure.BA: sum_bodies,
            Measure.TA: sum_bodies + unit.size,
            Measure.C: unit.size,
            Measure.BC: inst.m + unit.size,
        }
        out = {mu: replace(unit, size=sizes[mu]) for mu in measures if mu in sizes}
    if Measure.L in measures:
        weights = [len(b) + 1 for b in inst.bodies]
        out[Measure.L] = _search_weighted(inst, weights, Measure.L, deadline)
    return out
