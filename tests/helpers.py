"""Shared random generators and brute-force oracles for the test suite.

The oracles deliberately use different algorithms than the package: spanning
in-arborescences are enumerated from successor maps, strongly connected
subgraphs from arborescence pairs, and random feasibility is checked by raw
closure fixpoints.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional

from keyhorn import (
    ClauseGroup,
    HornCNF,
    KeyHornInstance,
    TrivialInstance,
    VarSet,
    gen_random,
)
from keyhorn.gen import GenerationError


def random_raw_family(rng: random.Random, max_n: int = 8) -> tuple[int, list[VarSet]]:
    """Raw body family: possibly comparable, duplicated, non-covering."""
    n = rng.randint(2, max_n)
    count = rng.randint(1, 5)
    fam = []
    for _ in range(count):
        size = rng.randint(1, n - 1)
        fam.append(VarSet(n, rng.sample(range(1, n + 1), size)))
    return n, fam


def random_cnf(rng: random.Random, max_n: int = 7) -> HornCNF:
    n = rng.randint(2, max_n)
    groups = []
    for _ in range(rng.randint(0, 6)):
        bsize = rng.randint(1, n - 1)
        body = VarSet(n, rng.sample(range(1, n + 1), bsize))
        rest = [v for v in range(1, n + 1) if v not in body]
        heads = VarSet(n, rng.sample(rest, rng.randint(0, len(rest))))
        groups.append(ClauseGroup(body, heads))
    return HornCNF(n, groups)


def random_subset(rng: random.Random, n: int) -> VarSet:
    return VarSet(n, (v for v in range(1, n + 1) if rng.random() < 0.5))


def random_instances(
    count: int,
    base_seed: int,
    n_range=(3, 6),
    m_range=(2, 4),
    k_range=(2, 4),
) -> list[KeyHornInstance]:
    """Seeded normalized instances; infeasible parameter draws are skipped."""
    out: list[KeyHornInstance] = []
    seed = base_seed
    rng = random.Random(base_seed)
    while len(out) < count:
        seed += 1
        n = rng.randint(*n_range)
        m = rng.randint(*m_range)
        k = rng.randint(*k_range)
        try:
            out.append(gen_random(n, m, k, seed))
        except (GenerationError, TrivialInstance):
            continue
    return out


# ---------------------------------------------------------------------------
# Graph oracles
# ---------------------------------------------------------------------------


def all_in_arborescences(m: int, root: int):
    """Every spanning in-arborescence as a succ map, by enumeration."""
    others = [x for x in range(m) if x != root]
    choices = [[y for y in range(m) if y != x] for x in others]
    for combo in itertools.product(*choices):
        succ = dict(zip(others, combo))
        ok = True
        for x in others:
            seen = {x}
            y = x
            while y != root:
                y = succ[y]
                if y in seen:
                    ok = False
                    break
                seen.add(y)
            if not ok:
                break
        if ok:
            yield succ


def brute_min_in_arborescence(weight, root: Optional[int] = None):
    """(best weight, best root) over enumerated arborescences."""
    m = len(weight)
    roots = range(m) if root is None else [root]
    best = None
    best_root = None
    for r in roots:
        for succ in all_in_arborescences(m, r):
            w = sum(weight[x][s] for x, s in succ.items())
            if best is None or w < best:
                best, best_root = w, r
    return best, best_root


def brute_mwscs(weight) -> int:
    """Exact minimum strongly connected spanning weight.

    Any strongly connected spanning subgraph contains an in- and an
    out-arborescence at node 0, and any such union is itself strongly
    connected, so the optimum is the cheapest union over all pairs.
    """
    m = len(weight)
    if m == 1:
        return 0
    in_arbs = list(all_in_arborescences(m, 0))
    out_arbs = list(all_in_arborescences(m, 0))
    best = None
    for succ_in in in_arbs:
        arcs_in = {(x, s) for x, s in succ_in.items()}
        for succ_out in out_arbs:
            arcs = arcs_in | {(s, x) for x, s in succ_out.items()}
            w = sum(weight[u][v] for u, v in arcs)
            if best is None or w < best:
                best = w
    return best


def is_strongly_connected(m: int, arcs: Iterable[tuple[int, int]]) -> bool:
    fwd: dict[int, list[int]] = {x: [] for x in range(m)}
    rev: dict[int, list[int]] = {x: [] for x in range(m)}
    for u, v in arcs:
        fwd[u].append(v)
        rev[v].append(u)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == m

    return reach(fwd) and reach(rev)


def random_weight_matrix(rng: random.Random, m: int, hi: int = 9):
    return tuple(
        tuple(0 if i == j else rng.randint(0, hi) for j in range(m)) for i in range(m)
    )


# ---------------------------------------------------------------------------
# Reference arborescence: the recursive contraction Edmonds the package used
# before its iterative routine, kept verbatim as a differential oracle for
# the choices (not just the weights) of ``keyhorn.graph``.
# ---------------------------------------------------------------------------

# Arcs are tuples (u, v, w, base) where base is the pre-contraction arc the
# tuple stands for, or None at the outermost level.


def _all_cycles(pred: dict[int, int], root: int) -> list[list[int]]:
    """Every cycle of the chosen-arc functional graph (they are disjoint)."""
    color: dict[int, int] = {}
    cycles = []
    for start in pred:
        if start in color:
            continue
        path = []
        x = start
        while x != root and x not in color:
            color[x] = 1  # open
            path.append(x)
            x = pred[x]
        if color.get(x) == 1:
            cycles.append(path[path.index(x):])
        for y in path:
            color[y] = 2  # done
    return cycles


def _edmonds(nodes: list[int], arcs: list[tuple], root: int, next_id: int) -> dict[int, tuple]:
    """Minimum spanning out-arborescence rooted at ``root``; returns the
    chosen in-arc per non-root node.

    Cycle contraction with all disjoint cycles collapsed per round, so the
    recursion depth stays small even on tie-heavy uniform graphs.  Ties go
    to the smaller tail, then head, so the result is deterministic.
    """
    best: dict[int, tuple] = {}
    for a in arcs:
        v = a[1]
        if v == root:
            continue
        b = best.get(v)
        if b is None:
            best[v] = a
        else:
            w, bw = a[2], b[2]
            if w < bw or (w == bw and a[0] < b[0]):
                best[v] = a
    for v in nodes:
        if v != root and v not in best:
            raise ValueError(f"node {v} has no incoming arc")
    cycles = _all_cycles({v: a[0] for v, a in best.items()}, root)
    if not cycles:
        return dict(best)

    rep = {}
    for cyc in cycles:
        for x in cyc:
            rep[x] = next_id
        next_id += 1
    contracted = set(rep)
    sub: dict[tuple[int, int], tuple] = {}
    for a in arcs:
        u, v = a[0], a[1]
        u2 = rep.get(u, u)
        v2 = rep.get(v, v)
        if u2 == v2:
            continue
        w2 = a[2] - best[v][2] if v in contracted else a[2]
        key = (u2, v2)
        old = sub.get(key)
        if old is None:
            sub[key] = (u2, v2, w2, a)
        else:
            ow = old[2]
            if w2 < ow or (
                w2 == ow and (u, v) < (old[3][0], old[3][1])
            ):
                sub[key] = (u2, v2, w2, a)
    new_nodes = [x for x in nodes if x not in contracted]
    new_nodes.extend(range(next_id - len(cycles), next_id))
    solved = _edmonds(new_nodes, list(sub.values()), root, next_id)

    parents: dict[int, tuple] = {}
    entries: dict[int, tuple] = {}  # contracted id -> arc entering its cycle
    for a2 in solved.values():
        a = a2[3]
        if a[1] in contracted:
            entries[rep[a[1]]] = a
        else:
            parents[a[1]] = a
    for cyc in cycles:
        entry = entries[rep[cyc[0]]]
        for x in cyc:
            if x != entry[1]:
                parents[x] = best[x]
        parents[entry[1]] = entry
    return parents


def ref_rooted_in_succ(weight, root: int) -> dict[int, int]:
    """Successor map of the reference minimum in-arborescence toward root."""
    m = len(weight)
    arcs = [(u, v, weight[v][u], None) for u in range(m) for v in range(m) if u != v]
    parents = _edmonds(list(range(m)), arcs, root, m)
    return {v: a[0] for v, a in sorted(parents.items())}


def ref_out_parents(weight, root: int) -> dict[int, int]:
    """Parent map of the reference minimum out-arborescence from root."""
    m = len(weight)
    arcs = [(u, v, weight[u][v], None) for u in range(m) for v in range(m) if u != v]
    parents = _edmonds(list(range(m)), arcs, root, m)
    return {v: a[0] for v, a in parents.items()}


def ref_best_unrooted_root(weight) -> int:
    """Root the reference augmented virtual-root run selects."""
    m = len(weight)
    scale = m + 1
    total = sum(w for row in weight for w in row)
    big = scale * total + m + 1
    arcs = [(u, v, scale * weight[v][u], None) for u in range(m) for v in range(m) if u != v]
    arcs.extend((m, v, big + v, None) for v in range(m))
    parents = _edmonds(list(range(m + 1)), arcs, m, m + 1)
    roots = [v for v, a in parents.items() if a[0] == m]
    assert len(roots) == 1
    return roots[0]
