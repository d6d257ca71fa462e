"""Shared random generators and brute-force oracles for the test suite.

The oracles deliberately use different algorithms than the package: spanning
in-arborescences are enumerated from successor maps, strongly connected
subgraphs from arborescence pairs, and closures are round-based fixpoints
rather than the package's counter-based ``_Propagator``.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from functools import cmp_to_key
from typing import Iterable, Optional

from keyhorn import (
    ClauseGroup,
    HornCNF,
    KeyHornInstance,
    LambdaFormula,
    NoBodyInSourceError,
    NormalizationRecord,
    ProjectiveInstance,
    SatReductionInstance,
    UniverseMismatchError,
    VarSet,
    VerifyResult,
    body_graph_l,
    gen_random,
    min_in_arborescence,
)
from keyhorn.core import _Propagator
from keyhorn.exact import _Timeout
from keyhorn.graph import BodyGraph, _Contraction
from keyhorn.gen import GenerationError


def counting(monkeypatch, module, name) -> list[tuple]:
    """Wrap ``module.name`` so that each call's positional arguments are
    recorded in the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def c_graph_builds(monkeypatch) -> list[KeyHornInstance]:
    """Record every C body graph stored on an instance, that is every build,
    in the returned list (one entry per build, the instance it is for).  A
    call of ``body_graph_c`` that finds the graph already kept is no build."""
    builds = []
    slot = KeyHornInstance._graph_c

    def store(inst, graph):
        if graph is not None:
            builds.append(inst)
        slot.__set__(inst, graph)

    monkeypatch.setattr(KeyHornInstance, "_graph_c", property(slot.__get__, store))
    return builds


def random_raw_family(rng: random.Random, max_n: int = 8) -> tuple[int, list[VarSet]]:
    """Raw body family: possibly comparable, duplicated, non-covering."""
    n = rng.randint(2, max_n)
    count = rng.randint(1, 5)
    fam = []
    for _ in range(count):
        size = rng.randint(1, n - 1)
        fam.append(VarSet(n, rng.sample(range(1, n + 1), size)))
    return n, fam


def ref_lift(
    phi_reduced: HornCNF,
    rec: NormalizationRecord,
    original_bodies: Iterable[VarSet],
) -> HornCNF:
    """Translate a formula on the reduced instance back to original ids.

    Core variables rejoin every body; the uncovered variables become the
    heads of one group whose body is the smallest original minimal body
    (lexicographic tie-break), found by scanning the raw family rather than
    read off the record.
    """
    if phi_reduced.n != len(rec.var_map):
        raise ValueError(
            f"formula universe {phi_reduced.n} does not match the record's "
            f"{len(rec.var_map)} reduced variables"
        )
    n = rec.original_n
    core = rec.removed_core

    def unmap(s: VarSet) -> VarSet:
        return VarSet(n, (rec.var_map[v - 1] for v in s))

    groups = [
        ClauseGroup(unmap(g.body) | core, unmap(g.heads)) for g in phi_reduced.groups
    ]
    if rec.uncovered:
        # the canonical minimum has no strict subset, so it is a minimal body
        bstar = min(original_bodies, key=cmp_to_key(VarSet.compare))
        groups.append(ClauseGroup(bstar, rec.uncovered))
    return HornCNF(n, groups)


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
        except GenerationError:
            continue
    return out


def random_sperner_instance(rng: random.Random, n: int, m: int) -> KeyHornInstance:
    """Up to ``m`` pairwise incomparable bodies over {1..n}, raw (possibly
    not covering), drawn from at most three sizes so that many bodies share
    a size; sizes 1 and 2 are drawn often."""
    sizes = rng.sample(range(1, n), min(n - 1, rng.randint(1, 3)))
    if rng.random() < 0.5:
        sizes[0] = rng.choice((1, 2)) if n > 2 else 1
    fam: list[VarSet] = []
    for _ in range(20 * m):
        if len(fam) == m:
            break
        s = VarSet(n, rng.sample(range(1, n + 1), rng.choice(sizes)))
        if all(a.mask & ~s.mask and s.mask & ~a.mask for a in fam):
            fam.append(s)
    return KeyHornInstance(n, fam)


def psi(n: int, bodies: Iterable[VarSet]) -> HornCNF:
    """The canonical representation: every body implies all other variables."""
    return HornCNF(n, (ClauseGroup(b, b.complement()) for b in bodies))


def forward_chain_trace(phi: HornCNF, z: VarSet) -> list[VarSet]:
    """Round-by-round closure: each round adds every head derivable from the
    current set simultaneously.  Returns the strictly increasing sequence
    starting at ``z``; the last element is the closure."""
    rounds = [z]
    cur = z.mask
    while True:
        add = 0
        for g in phi.groups:
            if g.body.mask & ~cur == 0:
                add |= g.heads.mask & ~cur
        if not add:
            return rounds
        cur |= add
        rounds.append(VarSet.from_mask(phi.n, cur))


def equivalent(phi1: HornCNF, phi2: HornCNF) -> bool:
    """Each formula entails every clause of the other."""
    return all(
        g.heads.issubset(forward_chain_trace(a, g.body)[-1])
        for a, b in ((phi1, phi2), (phi2, phi1))
        for g in b.groups
    )


def cost_l(seq: list[VarSet]) -> int:
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
    """The insertion criterion: going A,B,C is strictly cheaper than going
    A,C exactly when (|A|-|B|) * |C\\(A|B)| > (|A|+1) * |B\\(A|C)|.  Both
    sides are evaluated independently; returns whether they agree."""
    lhs = cost_l([a, b, c]) < cost_l([a, c])
    e, g = len(b - (a | c)), len(c - (a | b))
    return lhs == ((len(a) - len(b)) * g > (len(a) + 1) * e)


# ---------------------------------------------------------------------------
# Graph oracles
# ---------------------------------------------------------------------------


def all_in_arborescences(m: int, root: int):
    """Every spanning in-arborescence as a succ map, by enumeration."""
    others = [x for x in range(m) if x != root]
    choices = [[y for y in range(m) if y != x] for x in others]
    for combo in itertools.product(*choices):
        succ = dict(zip(others, combo))
        if _reaches_root(succ, root):
            yield succ


def _reaches_root(succ: dict[int, int], root: int) -> bool:
    """Following ``succ`` from every node reaches ``root`` without a cycle."""
    for x in succ:
        seen = {x}
        while x != root:
            x = succ[x]
            if x in seen:
                return False
            seen.add(x)
    return True


def arborescence_weight(arb, g: BodyGraph) -> int:
    """Weight of ``arb`` in ``g``, after asserting that it spans ``g``."""
    assert sorted(arb.succ) == [x for x in range(g.m) if x != arb.root]
    assert _reaches_root(arb.succ, arb.root)
    return sum(g.weight[x][s] for x, s in arb.succ.items())


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


def ref_mwscs_2approx(g: BodyGraph) -> tuple[frozenset[tuple[int, int]], int]:
    """``keyhorn.graph.mwscs_2approx`` as it was before it shared the
    root-free contraction prefix: 2m independent rooted ``_Contraction``
    runs, kept as a differential oracle for its arc set and weight."""
    cols = list(zip(*g.weight))  # in-columns of g; its rows give the in-arborescence

    def union(r: int) -> tuple[frozenset[tuple[int, int]], int]:
        arcs = {(x, s) for x, s in enumerate(_Contraction(g.weight, r).finish()) if x != r}
        arcs.update((u, v) for v, u in enumerate(_Contraction(cols, r).finish()) if v != r)
        return frozenset(arcs), sum(g.weight[u][v] for u, v in arcs)

    # min keeps the first root of least weight
    return min(map(union, range(g.m)), key=lambda aw: aw[1])


# ---------------------------------------------------------------------------
# Reference literal-cost body graph: the m dense single-source Dijkstras the
# package used before its decreasing-size relaxation, kept verbatim as a
# differential oracle for the weights of ``keyhorn.graph.body_graph_l``.
# ---------------------------------------------------------------------------


def ref_body_graph_l(inst: KeyHornInstance) -> BodyGraph:
    """Complete body graph under the literal arc costs.

    ``weight[i][j]`` equals ``lambda_formula(inst, bodies[i], bodies[j]).weight``;
    computed with one dense single-source run per node since the arc costs
    depend on the source body.
    """
    bodies = inst.bodies
    m = inst.m
    masks = [b.mask for b in bodies]
    szp = [len(b) + 1 for b in bodies]
    unreached = (inst.n + 2) * (inst.k + 2) * (m + 2)  # above any path weight
    weight_rows = []
    for i in range(m):
        notc = [~(masks[i] | masks[u]) for u in range(m)]
        dist = [unreached] * m
        dist[i] = 0
        done = [False] * m
        for _ in range(m):
            u = -1
            best = unreached
            for x in range(m):
                if not done[x] and dist[x] < best:
                    best = dist[x]
                    u = x
            if u < 0:
                break
            done[u] = True
            du, nc, sp = dist[u], notc[u], szp[u]
            for v in range(m):
                if not done[v]:
                    nd = du + (masks[v] & nc).bit_count() * sp
                    if nd < dist[v]:
                        dist[v] = nd
        weight_rows.append(tuple(dist))
    return BodyGraph(bodies, tuple(weight_rows))


# ---------------------------------------------------------------------------
# Reference verifier: the family-order closure loop the package used before
# verification reused the bodies it had proven, kept verbatim as a
# differential oracle for every field of ``keyhorn.verify_against_family``.
# ---------------------------------------------------------------------------


def ref_verify_against_family(phi: HornCNF, n: int, bodies: Iterable[VarSet]) -> VerifyResult:
    """Check that ``phi`` represents the key Horn function of ``bodies``.

    Accepts iff (a) every body of ``phi`` contains some family body, so each
    clause of ``phi`` is entailed by the canonical representation, and (b)
    chaining from every family body reaches the whole universe.
    """
    fam = list(bodies)
    if phi.n != n or any(b.n != n for b in fam):
        raise UniverseMismatchError("formula and family universes differ")
    for g in phi.groups:
        if not any(b.mask & ~g.body.mask == 0 for b in fam):
            return VerifyResult(False, bad_group=g)
    prop = _Propagator(phi)
    full = (1 << n) - 1
    for b in fam:
        cl = prop.closure_mask(b.mask)
        if cl != full:
            return VerifyResult(False, bad_body=b, closure=VarSet._raw(n, cl))
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# Reference lambda chains: the generic lexicographic Dijkstra and the
# ``lambda_formula`` built on it, as the package had them before the search
# moved into ``lambda_formula`` itself, kept verbatim as a differential
# oracle for its path, weight and formula.
# ---------------------------------------------------------------------------


def _lex_dijkstra(num_nodes: int, arc_weight, src: int, dst: int) -> tuple[list[int], int]:
    """Shortest path with deterministic ties: among minimum-weight simple
    paths, the lexicographically smallest node-index sequence wins.

    ``arc_weight(u, v)`` returns the weight of arc u->v or None if absent.
    Labels are (distance, path); heap order on these pairs is exactly the
    required tie-break because simple paths to one node can never be
    prefixes of each other.
    """
    heap = [(0, (src,))]
    done = set()
    while heap:
        dist, path = heapq.heappop(heap)
        u = path[-1]
        if u == dst:
            return list(path), dist
        if u in done:
            continue
        done.add(u)
        for v in range(num_nodes):
            if v in done or v == u:
                continue
            w = arc_weight(u, v)
            if w is None:
                continue
            heapq.heappush(heap, (dist + w, path + (v,)))
    raise ValueError(f"no path from {src} to {dst}")


def ref_lambda_formula(inst: KeyHornInstance, s: VarSet, s2: VarSet) -> LambdaFormula:
    """Constant-factor approximation of the cheapest literal cost of chaining
    from ``s`` to cover ``s2``.

    Extends the body graph with ``s2`` as an extra target node, weights arc
    (B, B') as |B' minus (s union B)| * (|B| + 1), and takes the shortest
    path from the smallest body inside ``s``.  The emitted formula chains
    from ``s`` to ``s2`` and its literal count equals the path weight.
    """
    if s.n != inst.n or s2.n != inst.n:
        raise ValueError("source/target universe does not match the instance")
    if s2.issubset(s):
        return LambdaFormula((), HornCNF(inst.n), 0)
    bodies = inst.bodies
    m = inst.m
    sources = [i for i, b in enumerate(bodies) if b.issubset(s)]
    if not sources:
        raise NoBodyInSourceError("no family body is contained in the source set")
    b0 = sources[0]  # canonical order makes this the smallest such body

    smask = s.mask
    masks = [b.mask for b in bodies]
    sizes = [len(b) for b in bodies]
    target_mask = s2.mask

    def arc_weight(u: int, v: int):
        if u == m:
            return None  # the target has no outgoing arcs
        head = (target_mask if v == m else masks[v]) & ~(smask | masks[u])
        return head.bit_count() * (sizes[u] + 1)

    path, dist = _lex_dijkstra(m + 1, arc_weight, b0, m)
    groups = []
    for u, v in zip(path, path[1:]):
        head_mask = (target_mask if v == m else masks[v]) & ~(smask | masks[u])
        groups.append(ClauseGroup(bodies[u], VarSet._raw(inst.n, head_mask)))
    return LambdaFormula(tuple(path), HornCNF(inst.n, groups), dist)


def ref_procedure2(inst: KeyHornInstance) -> HornCNF:
    """``procedure2`` with every tree arc realized by ``ref_lambda_formula``,
    as the package had it before arcs without a tying detour skipped the
    search: the oracle for the chain shortcut."""
    g = body_graph_l(inst)
    arb = min_in_arborescence(g, root=0)
    bodies = inst.bodies
    groups = []
    for x, s in arb.succ.items():
        groups.extend(ref_lambda_formula(inst, bodies[x], bodies[s]).formula.groups)
    groups.append(ClauseGroup(bodies[0], bodies[0].complement()))
    return HornCNF(inst.n, groups)


# ---------------------------------------------------------------------------
# The sat3 gadget's relations, re-derived from the built sets: the generator
# states them once, in ``SatReductionInstance``'s docstring, and checks none.
# ---------------------------------------------------------------------------


def random_3cnf(rng: random.Random, max_vars: int = 6) -> list[tuple[int, int, int]]:
    """A seeded random 3-CNF that ``gen_sat_reduction`` accepts: three
    distinct variables per clause, each of 1..nv occurring one to four
    times."""
    while True:
        nv = rng.randint(3, max_vars)
        occ = dict.fromkeys(range(1, nv + 1), 0)
        clauses = []
        for _ in range(rng.randint(-(-nv // 3), 4 * nv // 3)):
            free = [v for v, c in occ.items() if c < 4]
            if len(free) < 3:
                break
            vs = rng.sample(free, 3)
            for v in vs:
                occ[v] += 1
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        if all(occ.values()):
            return clauses


def sat_gadget_violations(r: SatReductionInstance) -> list[str]:
    """The names of the relations of ``SatReductionInstance``'s docstring,
    and of ``_reduction_parameters``' inequalities, that ``r`` breaks; []
    when the gadget is sound."""
    nv, m = r.num_vars, len(r.clauses)
    alpha, beta, tau = r.alpha, r.beta, r.tau
    x, y, mset = r.x_sets, r.y_sets, r.m_block
    pats = [len(s & mset) for s in x]
    bad = []

    def check(name: str, holds: bool) -> None:
        if not holds and name not in bad:
            bad.append(name)

    check("alpha", alpha * alpha > max(m * m, 256 * (nv + 1) + 512 * (nv + 1) ** 2 + 272))
    check("beta", beta > 2 * alpha + 32 * (nv + 1) + 16)
    check("tau", tau > ((nv + 1) * beta + 17) * ((nv + 1) * alpha + m))
    for i in range(nv + 2):
        check("(i) overlap", pats[i] == len(y[i] & mset) <= 16)
    ends = x[0] | y[0] | x[nv + 1] | y[nv + 1]
    check("(i) boundary overlap", len(ends & mset) == 0)
    check("(ii) source size", len(r.source) == (nv + 1) * beta)
    check("(ii) z size", len(r.z_set) == (nv + 1) * alpha + m)
    for i in range(nv + 2):
        want = (nv - i + 1) * beta + i * alpha + pats[i] if i <= nv else (nv + 1) * alpha
        check("(iii) level size", len(x[i]) == len(y[i]) == want)
    for i in range(nv + 1):
        check("(iv) gap", len(x[i]) > len(x[i + 1]) + alpha)
    seen = x[0]
    for i in range(1, nv + 2):
        check("(v) fresh", alpha <= len(x[i] - seen) <= alpha + 16)
        seen = seen | x[i]
    for i in range(1, nv + 1):
        inc = x[i + 1] - x[i]
        for j in range(i):
            check("(vi) leak", (x[j] & inc).issubset(x[i + 1] & mset))
    return bad


# ---------------------------------------------------------------------------
# Reference partition bound and hyperplane entering price: the direct
# recounts of |B_j \ B_i| the package used before both were read off the C
# body graph.
# ---------------------------------------------------------------------------


def ref_lower_bound_partition_c(inst: KeyHornInstance) -> int:
    masks = [b.mask for b in inst.bodies]
    total = 0
    for i, bi in enumerate(masks):
        total += min(
            (masks[j] & ~bi).bit_count() for j in range(inst.m) if j != i
        )
    return total


def ref_min_price_into_hyperplane_shifts(p: ProjectiveInstance) -> int:
    """Measured minimum clause cost over arcs entering a hyperplane shift,
    recounted pairwise; a per-node lower bound for any strongly connected
    subgraph."""
    best = None
    for tgt in p.hyperplane_shifts():
        for src in p.bodies:
            if src == tgt:
                continue
            w = len(tgt - src)
            if best is None or w < best:
                best = w
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Reference clause search: the exact oracle's branch-and-bound as it was
# before the optimistic-closure cut, testing feasibility only at the leaves.
# ---------------------------------------------------------------------------


class RefClauseSearch:
    """Exhaustive branch-and-bound over per-head clause choices.

    Every variable needs at least one clause with that head, so a candidate
    formula is an assignment of a nonempty body subset to each head; heads
    are filled in order, subsets tried cheapest-first, and branches are cut
    against the incumbent plus the cheapest possible completion.  The choice
    is kept as one head mask per body, which the leaf check and the witness
    both read.
    """

    def __init__(self, inst: KeyHornInstance, deadline: Optional[float]):
        self.n = inst.n
        self.bodies = inst.bodies
        self.body_masks = masks = [b.mask for b in inst.bodies]
        self.deadline = deadline
        # the Hamiltonian cycle in body order, which the exact oracle reads
        # as its first incumbent
        self.cycle = [nxt & ~b for b, nxt in zip(masks, masks[1:] + masks[:1])]

    def _feasible(self) -> bool:
        heads_of = self.heads_of
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

    def run(self, weights: list[int], incumbent: int) -> None:
        """Search under ``weights`` below ``incumbent``; ``best`` and
        ``best_heads`` hold the cheapest leaf found, also after a
        ``_Timeout``, and ``ticks`` counts this run's nodes."""
        self.heads_of = [0] * len(self.bodies)
        self.ticks = 0
        # per head: nonempty body-index subsets sorted by (weight, indices)
        self.head_options: list[list[tuple[int, tuple[int, ...]]]] = []
        for v in range(1, self.n + 1):
            avail = [i for i in range(len(self.bodies)) if v not in self.bodies[i]]
            assert avail, "normalized instances leave every variable a choice"
            combos = [c for r in range(1, len(avail) + 1) for c in itertools.combinations(avail, r)]
            self.head_options.append(sorted((sum(weights[i] for i in c), c) for c in combos))
        self.suffix_min = [0] * (self.n + 1)
        for v in range(self.n - 1, -1, -1):
            self.suffix_min[v] = self.suffix_min[v + 1] + self.head_options[v][0][0]
        self.best = incumbent
        self.best_heads: Optional[list[int]] = None
        self._dfs(0, 0)

    def _dfs(self, v: int, cost: int) -> None:
        if self.deadline is not None and self.ticks & 63 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        self.ticks += 1
        if cost + self.suffix_min[v] >= self.best:
            return
        if v == self.n:
            if self._feasible():
                self.best = cost
                self.best_heads = list(self.heads_of)
            return
        heads_of = self.heads_of
        bit = 1 << v
        for w, combo in self.head_options[v]:
            if cost + w + self.suffix_min[v + 1] >= self.best:
                break  # options are weight-sorted
            for i in combo:
                heads_of[i] |= bit
            self._dfs(v + 1, cost + w)
            for i in combo:
                heads_of[i] ^= bit


# ---------------------------------------------------------------------------
# Reference deficit cut: ``_ClauseSearch._deficit_cut`` as it was before the
# per-head tables, rescanning every difference mask at every node.
# ---------------------------------------------------------------------------


def ref_deficit_cut(search, v: int, cost: int) -> bool:
    """Whether the head deficits show that no leaf below a node whose
    heads below ``v`` are fixed is both feasible and cheaper than
    ``best``: body i needs at least ``need_i`` more heads, the fewest
    bits of some ``B_j & ~B_i`` that its heads lack, over the j whose
    lacking bits all lie at v or above."""
    # the body masks, read back from the bodies without each head (no body
    # of a normalized instance holds every variable, so each one appears)
    by_index = {i: b for row in search.without for b, i, _bit in row}
    masks = [by_index[i] for i in range(len(by_index))]
    all_diffs = [[b & ~bi for b in masks if b != bi] for bi in masks]
    low = (1 << v) - 1
    bound = cost
    for w, diffs, h in zip(search.weights, all_diffs, search.heads_of):
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
        if bound >= search.best:
            return True
    return False
