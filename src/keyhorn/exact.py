"""Exact oracles for desk-scale ground truth.

``opt_exact_all`` searches clause subsets over the instance's own bodies,
which is sufficient: some optimal representation uses exactly the minimal
bodies, and any representation must give every body a clause (its own
closure has to start) and every variable a clause pointing at it.
``price_l_exact`` evaluates the cheapest literal cost of chaining between
variable sets by a dynamic program over body chains.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

from .core import MEASURES, ClauseGroup, HornCNF, KeyHornInstance, Measure, VarSet, measure_size
from .graph import NoBodyInSourceError


class SearchLimitError(ValueError):
    """The instance exceeds the configured exhaustive-search limits."""


# the default caps of the two exponential oracles
MAX_CANDIDATES = 28
MAX_BODIES = 12


def check_cap(name: str, cap: int) -> None:
    if cap < 0:
        raise ValueError(f"{name} must be a nonnegative integer, not {cap}")


def check_timeout(name: str, timeout: Optional[float]) -> None:
    # no clock passes a nan deadline
    if timeout is not None and math.isnan(timeout):
        raise ValueError(f"{name} must be a number of seconds, not nan")


@dataclass(frozen=True)
class OptResult:
    """A certified optimum (or, after a timeout, the best size found so far
    with ``optimal`` cleared)."""

    size: int
    formula: HornCNF
    optimal: bool


def price_l_exact(
    inst: KeyHornInstance,
    s: VarSet,
    s2: VarSet,
    max_bodies: int = MAX_BODIES,
) -> int:
    """Exact minimum literal cost of a formula over the instance's bodies
    whose chaining from ``s`` covers ``s2``.

    Dynamic program over (used body subset, last body): appending body B
    costs (|last| + 1) per not-yet-reached element of B, and a final hop
    pays for the rest of ``s2``.  Keying on the subset is enough because
    the reached set is order-free; switching to an already-reached smaller
    body is a zero-cost transition, so no ordering constraint is needed.
    """
    check_cap("max_bodies", max_bodies)
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
    against the incumbent plus the cheapest possible completion.  A node is
    kept only if every body closes to V when each head not yet assigned may
    come from every body; otherwise no completion is feasible.  The children
    of a node that assigns head v are decided together: a start body without
    v, closed with v withheld and the heads above v free, reaches v exactly
    when a chosen body fires in it, and from there its closure is the
    accepted node's, which is V (a start with v is not changed by head v).
    So ``_fires`` closes each such start once per node, and a choice passes
    when its body mask meets every start's fired mask.  At the last head
    this is the feasibility check, so no feasible leaf is dropped.  Each
    choice that survives the cost cut is one tick, tested or not.  The choice
    is kept as one head mask per body, which the closure and the witness
    both read.

    Each node is first cut on the bodies' head deficits.  The bodies are a
    Sperner family, so the closure of B_i first fires only body i's own
    group, and it goes on only if those heads H_i hold B_j minus B_i for
    some j != i (if H_i held every variable outside B_i, every j would do,
    and a normalized instance has m >= 2).  Below a node whose heads below
    v are fixed, H_i therefore gains at least ``need_i`` heads from v up:
    the fewest bits of ``B_j & ~B_i & ~H_i`` over the j with none of them
    below v.  A node where some body has no such j has no feasible leaf, and
    a node where cost + sum of w_i * need_i reaches the incumbent has no
    cheaper one, so both are cut.  Every cut drops only subtrees with no
    feasible leaf below the incumbent, so the incumbents, and with them
    ``best`` and ``best_heads``, are those of the search without it.
    """

    def __init__(self, inst: KeyHornInstance, weights: list[int], deadline: Optional[float]):
        self.n = inst.n
        self.body_masks = [b.mask for b in inst.bodies]
        self.heads_of = [0] * inst.m
        self.deadline = deadline
        self.ticks = 0
        # per head: nonempty body-index subsets sorted by (weight, indices),
        # each with its mask of body indices
        self.head_options: list[list[tuple[int, tuple[int, ...], int]]] = []
        for v in range(1, self.n + 1):
            avail = [i for i in range(inst.m) if v not in inst.bodies[i]]
            assert avail, "normalized instances leave every variable a choice"
            combos = [c for r in range(1, len(avail) + 1) for c in combinations(avail, r)]
            options = sorted((sum(weights[i] for i in c), c) for c in combos)
            self.head_options.append([(w, c, sum(1 << i for i in c)) for w, c in options])
        self.suffix_min = [0] * (self.n + 1)
        for v in range(self.n - 1, -1, -1):
            self.suffix_min[v] = self.suffix_min[v + 1] + self.head_options[v][0][0]
        # per body: its weight and the masks B_j \ B_i of the other bodies,
        # one of which its own heads must cover
        self.deficits = [
            (w, [b & ~bi for b in self.body_masks if b != bi])
            for w, bi in zip(weights, self.body_masks)
        ]
        # per head v: (body mask, body index, body bit) of the bodies without v
        self.without = [
            [(b, i, 1 << i) for i, b in enumerate(self.body_masks) if not b >> v & 1]
            for v in range(self.n)
        ]

    def _deficit_cut(self, v: int, cost: int) -> bool:
        """Whether the head deficits show that no leaf below a node whose
        heads below ``v`` are fixed is both feasible and cheaper than
        ``best``: body i needs at least ``need_i`` more heads, the fewest
        bits of some ``B_j & ~B_i`` that its heads lack, over the j whose
        lacking bits all lie at v or above."""
        low = (1 << v) - 1
        bound = cost
        for (w, diffs), h in zip(self.deficits, self.heads_of):
            need = -1
            for d in diffs:
                r = d & ~h
                if not r & low:  # a variable below v can no longer be a head
                    c = r.bit_count()
                    if need < 0 or c < need:
                        need = c
            if need < 0:
                return True  # its closure stops at B_i with its heads
            bound += w * need
            if bound >= self.best:
                return True
        return False

    def _fires(self, v: int) -> list[int]:
        """Per start body without ``v``: the mask of the bodies whose groups
        fire in its closure when head ``v`` comes from no body and each head
        above ``v`` may come from every body."""
        free = (1 << self.n) - (2 << v)
        heads_of = self.heads_of
        # v is withheld, so a body with v never fires
        groups = [(b, heads_of[i] | free, ibit) for b, i, ibit in self.without[v]]
        out = []
        for start, _h, _i in groups:
            reached = start
            fired = 0
            unfired = groups
            while unfired:
                # fire every group whose body is reached; a fired group
                # adds nothing later, so only the rest are scanned again
                before = reached
                rest = []
                for group in unfired:
                    if group[0] & ~reached == 0:
                        reached |= group[1]
                        fired |= group[2]
                    else:
                        rest.append(group)
                if reached == before:
                    break
                unfired = rest
            out.append(fired)
        return out

    def _tick(self) -> None:
        """Count one search node; the deadline is read every 64 nodes."""
        if self.deadline is not None and self.ticks & 63 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        self.ticks += 1

    def run(self, incumbent: int) -> None:
        """Search below ``incumbent``; ``best`` and ``best_heads`` hold the
        cheapest leaf found, also after a ``_Timeout``."""
        self.best = incumbent
        self.best_heads: Optional[list[int]] = None
        self._tick()
        # the root passes: each start fires its own group, whose heads are all free
        if self.suffix_min[0] < self.best:
            self._dfs(0, 0)

    def _dfs(self, v: int, cost: int) -> None:
        """Extend a node whose heads below ``v`` are assigned and pass."""
        if v == self.n:
            self.best = cost
            self.best_heads = list(self.heads_of)
            return
        if self._deficit_cut(v, cost):
            return
        fires = None
        heads_of = self.heads_of
        bit = 1 << v
        for w, combo, mask in self.head_options[v]:
            if cost + w + self.suffix_min[v + 1] >= self.best:
                break  # options are weight-sorted
            self._tick()
            if fires is None:
                fires = self._fires(v)
            for fired in fires:
                if not mask & fired:
                    break
            else:
                for i in combo:
                    heads_of[i] |= bit
                self._dfs(v + 1, cost + w)
                for i in combo:
                    heads_of[i] ^= bit


def _search_weighted(
    inst: KeyHornInstance, weights: list[int], deadline: Optional[float]
) -> OptResult:
    """Clause search under ``weights`` below the Hamiltonian cycle in body
    order, written as the search's own leaf: body i's heads are B_{i+1}
    minus B_i (the last body's, B_0 minus it).  The cycle is feasible, since
    each head v has a body B_{i+1} with v after a body B_i without it, and
    every cut is admissible, so a finished search returns the first cheapest
    leaf in its order, as from any incumbent above the optimum.  After a
    timeout the result is the best leaf found, or the cycle if none was."""
    masks = [b.mask for b in inst.bodies]
    heads = [nxt & ~b for b, nxt in zip(masks, masks[1:] + masks[:1])]
    search = _ClauseSearch(inst, weights, deadline)
    optimal = True
    try:
        search.run(sum(w * h.bit_count() for w, h in zip(weights, heads)) + 1)
    except _Timeout:
        optimal = False
    if search.best_heads is not None:
        heads = search.best_heads
    groups = [ClauseGroup(b, VarSet.from_mask(inst.n, h)) for b, h in zip(inst.bodies, heads)]
    size = sum(w * h.bit_count() for w, h in zip(weights, heads))
    return OptResult(size, HornCNF(inst.n, groups), optimal)


def opt_exact_all(
    inst: KeyHornInstance,
    max_candidates: int = MAX_CANDIDATES,
    timeout: Optional[float] = None,
    measures: Sequence[Measure] = MEASURES,
) -> dict[Measure, OptResult]:
    """The optima of ``measures`` under one cap check and one deadline.

    Feasible formulas all use every minimal body, so body count and body
    area are fixed; clause count, bodies+clauses and total area share one
    unit-weight search, and literal count is the same search with weight
    |body| + 1 per clause.  Only the searches ``measures`` need are run.
    A negative cap or a nan ``timeout`` (which no clock passes) is rejected.
    """
    check_cap("max_candidates", max_candidates)
    check_timeout("timeout", timeout)
    inst.require_normalized()
    n_cands = sum(inst.n - len(b) for b in inst.bodies)
    if n_cands > max_candidates:
        raise SearchLimitError(
            f"{n_cands} candidate clauses exceed the cap of {max_candidates}"
        )
    deadline = None if timeout is None else time.monotonic() + timeout
    out: dict[Measure, OptResult] = {}
    if any(mu is not Measure.L for mu in measures):
        # the result, a search leaf or the cycle, gives every body one group,
        # so its B and BA are the fixed m and body area, and its C is the
        # unit search's size
        unit = _search_weighted(inst, [1] * inst.m, deadline)
        out = {
            mu: replace(unit, size=measure_size(unit.formula, mu))
            for mu in measures
            if mu is not Measure.L
        }
    if Measure.L in measures:
        weights = [len(b) + 1 for b in inst.bodies]
        out[Measure.L] = _search_weighted(inst, weights, deadline)
    return out
