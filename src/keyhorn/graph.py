"""Body graphs, their per-measure arc weights, and the graph algorithms the
minimizers are built on: the lambda chain formulas, which realize an arc
by the cheapest chain of bodies from a source set to a target set,
minimum-weight spanning in-arborescences, and a 2-approximation for the
minimum-weight strongly connected spanning subgraph.

All weights are exact integers; no floating point enters this module.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

from .core import ClauseGroup, HornCNF, KeyHornInstance, VarSet


class NoBodyInSourceError(ValueError):
    """The source set contains no family body, so nothing can ever fire."""


@dataclass(frozen=True)
class BodyGraph:
    """Complete weighted digraph on a body family.

    ``weight[i][j]`` is the cost of the arc ``nodes[i] -> nodes[j]``, read
    as: the cost of extending forward chaining from node i to cover node j.
    Diagonal entries are 0 and never used.
    """

    nodes: tuple[VarSet, ...]
    weight: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.nodes)
        if len(self.weight) != m:
            raise ValueError("weight matrix shape does not match node count")
        for row in self.weight:
            if len(row) != m:
                raise ValueError("weight matrix shape does not match node count")
            if min(row) < 0:
                raise ValueError("arc weights must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.nodes)

    def cheapest_arcs(self, entering: bool = False) -> list[int]:
        """Per node, the least weight of an arc out of it (its row's off-diagonal
        minimum), or with ``entering`` into it (its column's); 0 for a lone node."""
        rows = zip(*self.weight) if entering else self.weight
        return [min(row[:i] + row[i + 1 :], default=0) for i, row in enumerate(rows)]


@dataclass(frozen=True, eq=True)
class InArborescence:
    """Spanning in-arborescence: every non-root node has one outgoing arc and
    following ``succ`` from anywhere reaches ``root``."""

    root: int
    succ: dict[int, int]


@dataclass(frozen=True)
class LambdaFormula:
    """A shortest-path-derived formula that chains from a source set to a
    target set, together with its path and literal count."""

    path: tuple[int, ...]
    formula: HornCNF
    weight: int


def bodies_inside(inst: KeyHornInstance, s: VarSet) -> list[int]:
    """The indices of the instance's bodies contained in ``s``, in body order.
    Raises :class:`NoBodyInSourceError` when there are none, since chaining
    from ``s`` then never fires a clause."""
    inside = [i for i, b in enumerate(inst.bodies) if b.mask & ~s.mask == 0]
    if not inside:
        raise NoBodyInSourceError("no family body is contained in the source set")
    return inside


def price_c(b: VarSet, b2: VarSet) -> int:
    """Exact clause cost of reaching ``b2`` from ``b``: each missing variable
    needs one clause and one clause each suffices."""
    return len(b2 - b)


def body_graph_c(inst: KeyHornInstance) -> BodyGraph:
    """Complete body graph under the clause-count arc costs: the weight of
    i -> j is |B_j \\ B_i|.  It is the one pairwise table an instance
    counts; the partition bound and ``body_graph_l`` are derived from it.
    It is built on the first call and kept on the instance."""
    if inst._graph_c is None:
        masks = [b.mask for b in inst.bodies]
        sizes = [len(b) for b in inst.bodies]
        # |B_j| - |B_i & B_j|, which is 0 on the diagonal
        weight = tuple(tuple(s - (a & b).bit_count() for s, b in zip(sizes, masks)) for a in masks)
        inst._graph_c = BodyGraph(inst.bodies, weight)
    return inst._graph_c


def lambda_formula(inst: KeyHornInstance, s: VarSet, s2: VarSet) -> LambdaFormula:
    """Constant-factor approximation of the cheapest literal cost of chaining
    from ``s`` to cover ``s2``.

    Extends the body graph with ``s2`` as an extra target node m, weights arc
    (B, B') as |B' minus (s union B)| * (|B| + 1), and takes the shortest
    path from the smallest body inside ``s``.  The emitted formula chains
    from ``s`` to ``s2`` and its literal count equals the path weight.

    Ties are deterministic: among minimum-weight simple paths, the
    lexicographically smallest node-index sequence wins.  The Dijkstra labels
    are (distance, path) pairs, and heap order on them is exactly that
    tie-break, because simple paths to one node can never be prefixes of each
    other.  The graph is complete, so the target is always reached, and it is
    popped before it could be expanded.
    """
    if s.n != inst.n or s2.n != inst.n:
        raise ValueError("source/target universe does not match the instance")
    if s2.issubset(s):
        return LambdaFormula((), HornCNF(inst.n), 0)
    bodies = inst.bodies
    m = inst.m
    # canonical order makes the first body inside s the smallest one
    b0 = bodies_inside(inst, s)[0]

    smask = s.mask
    masks = [b.mask for b in bodies] + [s2.mask]
    # the variables arc u -> v must derive are masks[v] & outside[u]
    outside = [~(smask | masks[u]) for u in range(m)]
    heap = [(0, (b0,))]
    done = set()
    while True:
        dist, path = heapq.heappop(heap)
        u = path[-1]
        if u == m:
            break
        if u in done:
            continue
        done.add(u)
        out = outside[u]
        cost = len(bodies[u]) + 1
        for v in range(m + 1):
            if v not in done:
                heapq.heappush(heap, (dist + (masks[v] & out).bit_count() * cost, path + (v,)))
    groups = [
        ClauseGroup(bodies[u], VarSet._raw(inst.n, masks[v] & outside[u]))
        for u, v in zip(path, path[1:])
    ]
    return LambdaFormula(path, HornCNF(inst.n, groups), dist)


def _row_layout(m: int, cap: int) -> tuple[struct.Struct, int]:
    """The narrowest layout that packs a row of m values up to ``cap`` into
    unsigned little-endian fields of 1, 2, 4 or 8 bytes with one bit to
    spare, as a ``struct.Struct`` and the field width in bits."""
    for nb, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
        if cap.bit_length() < 8 * nb:
            return struct.Struct(f"<{m}{code}"), 8 * nb
    raise ValueError(f"arc weights up to {cap} do not fit 8-byte row fields")


def body_graph_l(inst: KeyHornInstance) -> BodyGraph:
    """Complete body graph under the literal arc costs.

    ``weight[i][j]`` equals ``lambda_formula(inst, bodies[i], bodies[j]).weight``:
    the cheapest chain i = P0 -> P1 -> ... -> Pt = j whose arc u -> v, taken
    from source s = B_i, costs (|B_u| + 1) * |B_v \\ (B_i | B_u)|.

    Lemma: an intermediate Pj with |Pj| >= |Pj-1| can be skipped at no extra
    cost: Pj+1 \\ (s | Pj-1) lies in (Pj \\ (s | Pj-1)) | (Pj+1 \\ (s | Pj)),
    and the shortcut pays |Pj-1| + 1 <= |Pj| + 1 for each of its variables.
    So some cheapest chain has strictly decreasing intermediate sizes, all
    below |B_i|, and one relaxation from each smaller body in decreasing size
    order (a DAG, no heap) gives the exact distances.  Relaxing between
    bodies of equal size is harmless: every candidate is a real chain.

    Identity: with C the clause-count graph ``body_graph_c(inst)``, row i of
    C is |B_v \\ B_i| over v, the direct arcs up to the factor |B_i| + 1, and
    |B_v \\ (B_i | B_u)| = C[i][v] + C[u][v] - |B_v| + |B_u & B_v & B_i|.  The
    triple term, nonzero only for bodies sharing a variable of B_u & B_i, is
    added through per-variable holder lists.
    """
    bodies = inst.bodies
    m = inst.m
    masks = [b.mask for b in bodies]
    sizes = [len(b) for b in bodies]
    # A row of m small nonnegative integers is one int, field v at bit v*w,
    # so adding, scaling and taking the minimum of rows are a few big-int
    # operations.  Every field value stays below 2**(w-1): the top bit of a
    # field is a guard that a field-wise subtraction never borrows past.  A
    # distance is at most its direct arc, (k+1)*k, and a candidate adds at
    # most one more arc.
    layout, w = _row_layout(m, 2 * (inst.k + 1) * inst.k)

    def pack(values) -> int:
        return int.from_bytes(layout.pack(*values), "little")

    ones = pack([1] * m)
    guard = ones << (w - 1)
    field = (1 << w) - 1
    packed_sizes = pack(sizes)
    outside = [pack(row) for row in body_graph_c(inst).weight]  # row i: |B_v \ B_i|
    units = [1 << (v * w) for v in range(m)]
    holders: dict[int, list[int]] = {}  # variable -> the units of the bodies holding it
    for v, body in enumerate(bodies):
        for x in body:
            holders.setdefault(x, []).append(units[v])

    weight_rows = []
    smaller = 0  # canonical order: bodies[:smaller] are the ones smaller than B_i
    for i in range(m):
        while sizes[smaller] < sizes[i]:
            smaller += 1
        dist = (sizes[i] + 1) * outside[i]
        rest = outside[i] - packed_sizes  # C[i][v] - |B_v|
        for u in range(smaller - 1, -1, -1):
            du = (dist >> (u * w)) & field
            triple = 0
            common = masks[u] & masks[i]
            while common:
                bit = common & -common
                common ^= bit
                triple += sum(holders[bit.bit_length()])  # the variable at bit
            cand = du * ones + (sizes[u] + 1) * (outside[u] + rest + triple)
            # fields where dist >= cand keep their guard bit; take cand there
            ge = ((dist | guard) - cand) & guard
            dist ^= (dist ^ cand) & (ge - (ge >> (w - 1)))
        weight_rows.append(layout.unpack(dist.to_bytes(layout.size, "little")))
    return BodyGraph(bodies, tuple(weight_rows))


# ---------------------------------------------------------------------------
# Minimum spanning arborescence (Edmonds/Chu-Liu via cycle contraction)
# ---------------------------------------------------------------------------

# ``_min_arborescence`` is the one routine that chooses an arborescence, and
# it serves only rooted calls: ``min_in_arborescence`` and the in- and
# out-arborescences of ``mwscs_2approx``.  An unrooted ``min_in_arborescence``
# first picks its root with ``_root_weights`` and then makes one rooted call.
# The routine contracts level by level, without recursion, on dense per-head
# columns of the current level only, and five rules fix its choices (the
# tie-break contract the reports rely on):
#
# 1. Each head takes its minimum in-arc, ties to the smallest tail id.  The
#    original nodes keep their ids; supernodes get ids after them in the
#    order they are created.
# 2. All cycles of a level contract at once.  They are numbered in discovery
#    order, walking the chosen arcs from each head in turn, the heads sorted
#    by (contains original node 0, smallest original member): by smallest
#    original member, the head holding node 0 last.
# 3. Parallel arcs of the next level merge to the least reduced weight, ties
#    to the smallest (tail id, head id) of the level below.
# 4. An arc into a contracted member is reduced by that member's chosen
#    weight.
# 5. Expansion enters a supernode at the member holding the original head of
#    the arc chosen into it; every other member keeps its own choice.
#
# Lemma: rule 1 needs to run on every column only once, at the start.  A
# column that no cycle contracts keeps its minimum at the next level: its
# entries from uncontracted tails are unchanged, and each merged entry is
# the least of the entries it replaces (rule 3).  Supernode ids exceed every
# older id, so the least-id tail reaching that minimum is also unchanged,
# unless that tail was contracted.  So after a contraction only the new
# supernode columns, and the columns whose chosen tail was just contracted,
# choose again; every other column keeps its choice, moved to the tail's
# new position.
#
# A level still costs O(k^2) for k current nodes, in merging the cycles'
# columns and rebuilding every column without the members, and a rooted
# call can need about m levels (the out-arborescences of ``mwscs_2approx``
# do), so a call is O(m^3) in the worst case.  Tarjan's O(m^2) branching
# breaks ties differently and would change which arborescence is chosen,
# and with it the reports; ``_root_weights`` uses such a tree only for
# weights, which do not depend on ties.


def _min_arborescence(cols, root: int) -> list[int]:
    """Minimum spanning out-arborescence from ``root`` of a complete digraph
    on ``len(cols)`` nodes, chosen by the five rules above.

    ``cols[h][t]`` is the weight of arc t -> h; ``cols[root]`` and the
    diagonal are ignored.  Returns the parent (the tail of the chosen in-arc)
    of every node, -1 for the root.
    """
    n = len(cols)
    inf = float("inf")
    # Per position of the current level, in ascending node id: the node id,
    # its smallest original member, and its in-column: w[p][q] is the weight
    # of the arc from position q (inf for q == p) and orig[p][q] the original
    # arc behind it, as tail * n + head.  The root has no column.  pred[p] is
    # the position of p's chosen tail and bw[p] that arc's weight (rule 1).
    ids = list(range(n))
    low = list(range(n))
    w: list = [None] * n
    orig: list = [None] * n
    pred = [root] * n
    bw = [0] * n
    for h, col in enumerate(cols):
        if h != root:
            w[h] = col = list(col)
            col[h] = inf
            orig[h] = list(range(h, n * n, n))
            bw[h] = x = min(col)
            pred[h] = col.index(x)
    rp = root  # the root's position
    up = [-1] * (2 * n)  # node id -> the supernode it was contracted into
    members: list[list[tuple[int, int]]] = []  # per supernode: (member, own arc)

    while True:
        k = len(ids)
        color = [0] * k  # 1 on the current walk, 2 done
        color[rp] = 2
        cycles = []
        for x in sorted(range(k), key=lambda p: low[p] or n):
            path = []
            while not color[x]:
                color[x] = 1
                path.append(x)
                x = pred[x]
            if color[x] == 1:
                cycles.append(sorted(path[path.index(x):]))
            for y in path:
                color[y] = 2
        if not cycles:
            break

        # one merged in-column per cycle, reduced per member, over this level
        for cyc in cycles:
            s = n + len(members)
            members.append([(ids[p], orig[p][pred[p]]) for p in cyc])
            b = bw[cyc[0]]
            mw = [x - b for x in w[cyc[0]]]
            mo = list(orig[cyc[0]])
            for v in cyc[1:]:
                b, col, oc = bw[v], w[v], orig[v]
                for q in range(k):
                    x = col[q] - b
                    if x < mw[q]:
                        mw[q] = x
                        mo[q] = oc[q]
            for p in cyc:
                up[ids[p]] = s
            ids.append(s)
            low.append(min(low[p] for p in cyc))
            w.append(mw)
            orig.append(mo)
            pred.append(0)
            bw.append(0)

        # every column gains one entry per supernode and loses the members;
        # pos[q] is the next level's position of q, or of q's supernode
        gone = sorted((p for cyc in cycles for p in cyc), reverse=True)
        new = k - len(gone)  # the first supernode's position
        pos = [-1] * k
        for j, cyc in enumerate(cycles):
            for q in cyc:
                pos[q] = new + j
        for i, q in enumerate([q for q in range(k) if pos[q] < 0]):
            pos[q] = i
        for p in gone:
            del w[p], orig[p], ids[p], low[p], pred[p], bw[p]
        rp = pos[rp]
        # each cycle as its first member and the rest: ties go to the first
        split = [(cyc[0], cyc[1:]) for cyc in cycles]
        for p, (col, oc) in enumerate(zip(w, orig)):
            if col is None:
                continue
            for bq, rest in split:
                best = col[bq]
                for q in rest:
                    if col[q] < best:
                        best = col[q]
                        bq = q
                col.append(best)
                oc.append(oc[bq])
            for q in gone:
                del col[q], oc[q]
            # rule 1 again only where the lemma above does not keep the choice
            if p >= new:
                col[p] = inf  # a new supernode's entry for itself
                bw[p] = x = min(col)
                pred[p] = col.index(x)
            else:
                q = pos[pred[p]]
                pred[p] = q if q < new else col.index(bw[p])

    parent = [-1] * n
    stack = [(ids[p], orig[p][pred[p]]) for p in range(len(ids)) if p != rp]
    while stack:
        x, a = stack.pop()
        if x < n:
            parent[x] = a // n
            continue
        y = a % n
        while up[y] != x:
            y = up[y]
        for mem, own in members[x - n]:
            stack.append((mem, a if mem == y else own))
    return parent


def _root_weights(cols) -> list[int]:
    """Weight of the minimum spanning out-arborescence from every root of a
    complete digraph (``cols`` as for ``_min_arborescence``), read off one
    root-free contraction tree (Fischetti & Toth 1993).

    A path grows by minimum in-arcs; when it closes a cycle, the cycle
    contracts into a supernode whose in-column merges its members' columns,
    each reduced by its member's chosen weight.  It stops when one node holds
    them all.  ``bw[x]``, the reduced weight of node x's chosen arc, is a
    dual value on the set of original nodes x holds, and for root r those
    not holding r give both a feasible dual and a tight arborescence, so the
    weight for r is the sum of ``bw`` less that of r and its ancestors.
    Tails stay original nodes, so a contraction costs O(|C| m) and the whole
    tree O(m^2).
    """
    m = len(cols)
    inf = float("inf")
    w = []  # per tree node: its in-column over original tails, inf inside it
    for x, col in enumerate(cols):
        w.append(list(col))
        w[x][x] = inf
    top = list(range(m))  # original node -> the tree node holding it now
    held = [[x] for x in range(m)]  # tree node -> the original nodes it holds
    up = [-1] * (2 * m)
    bw = [0] * (2 * m)
    path = [0]
    on_path = {0}
    while True:
        x = path[-1]
        col = w[x]
        b = min(col)
        if b == inf:
            break  # x holds every node
        bw[x] = b
        y = top[col.index(b)]
        if y not in on_path:
            path.append(y)
            on_path.add(y)
            continue
        cyc = path[path.index(y):]
        del path[-len(cyc):]
        on_path.difference_update(cyc)
        s = len(w)
        merged = [a - bw[cyc[0]] for a in w[cyc[0]]]
        for c in cyc[1:]:
            bc = bw[c]
            merged = list(map(min, merged, [a - bc for a in w[c]]))
        inside = [v for c in cyc for v in held[c]]
        for v in inside:
            merged[v] = inf
            top[v] = s
        for c in cyc:
            up[c] = s
            w[c] = held[c] = None
        w.append(merged)
        held.append(inside)
        path.append(s)
        on_path.add(s)
    # below[x]: bw summed over x and its ancestors; children precede parents
    below = [0] * len(w)
    for x in range(len(w) - 2, -1, -1):
        below[x] = bw[x] + below[up[x]]
    total = sum(bw[: len(w) - 1])
    return [total - below[r] for r in range(m)]


def min_in_arborescence(g: BodyGraph, root: int | None = None) -> InArborescence:
    """Minimum-weight spanning in-arborescence of a complete body graph.

    With ``root`` given, the minimum among arborescences with that root;
    otherwise the minimum over all roots, ties broken by smallest root
    index: ``_root_weights`` reads every root's weight off one contraction
    tree in O(m^2), and the arborescence is then the rooted one for the
    first root of least weight.  Either way ``_min_arborescence`` runs once.
    """
    m = g.m
    if m == 0:
        raise ValueError("graph has no nodes")
    if root is not None and not 0 <= root < m:
        raise ValueError(f"root {root} out of range 0..{m - 1}")
    # an in-arborescence toward root is an out-arborescence from root in the
    # reversed graph, whose in-columns are the rows of g; the reversed parent
    # of x is exactly succ(x)
    if root is None:
        w = _root_weights(g.weight)
        root = w.index(min(w))
    succ = _min_arborescence(g.weight, root)
    return InArborescence(root, {x: s for x, s in enumerate(succ) if x != root})


def mwscs_2approx(g: BodyGraph) -> tuple[frozenset[tuple[int, int]], int]:
    """Strongly connected spanning arc set of weight at most twice optimal.

    For each root the union of a minimum in- and a minimum out-arborescence
    is strongly connected and costs at most twice any strongly connected
    subgraph; the best root (by deduplicated union weight, smallest index on
    ties) is returned.
    """
    cols = list(zip(*g.weight))  # in-columns of g; its rows give the in-arborescence

    def union(r: int) -> tuple[frozenset[tuple[int, int]], int]:
        arcs = {(x, s) for x, s in enumerate(_min_arborescence(g.weight, r)) if x != r}
        arcs.update((u, v) for v, u in enumerate(_min_arborescence(cols, r)) if v != r)
        return frozenset(arcs), sum(g.weight[u][v] for u, v in arcs)

    # min keeps the first root of least weight
    return min(map(union, range(g.m)), key=lambda aw: aw[1])
