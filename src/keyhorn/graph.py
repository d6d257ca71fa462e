"""Body graphs, their per-measure arc weights, and the graph algorithms the
minimizers are built on: lexicographically tie-broken shortest paths,
minimum-weight spanning in-arborescences, and a 2-approximation for the
minimum-weight strongly connected spanning subgraph.

All weights are exact integers; no floating point enters this module.
"""

from __future__ import annotations

import heapq
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
        if len(self.weight) != m or any(len(row) != m for row in self.weight):
            raise ValueError("weight matrix shape does not match node count")
        if any(w < 0 for row in self.weight for w in row):
            raise ValueError("arc weights must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=True)
class InArborescence:
    """Spanning in-arborescence: every non-root node has one outgoing arc and
    following ``succ`` from anywhere reaches ``root``."""

    root: int
    succ: dict[int, int]

    def validate(self, m: int) -> None:
        if not 0 <= self.root < m:
            raise ValueError(f"root {self.root} out of range")
        if sorted(self.succ) != [x for x in range(m) if x != self.root]:
            raise ValueError("succ must map exactly the non-root nodes")
        for x in self.succ:
            seen = {x}
            while x != self.root:
                x = self.succ[x]
                if x in seen:
                    raise ValueError("succ contains a cycle")
                seen.add(x)

    def weight_in(self, g: BodyGraph) -> int:
        return sum(g.weight[x][s] for x, s in self.succ.items())


@dataclass(frozen=True)
class LambdaFormula:
    """A shortest-path-derived formula that chains from a source set to a
    target set, together with its path and literal count."""

    path: tuple[int, ...]
    formula: HornCNF
    weight: int


def price_c(b: VarSet, b2: VarSet) -> int:
    """Exact clause cost of reaching ``b2`` from ``b``: each missing variable
    needs one clause and one clause each suffices."""
    return len(b2 - b)


def body_graph_c(inst: KeyHornInstance) -> BodyGraph:
    """Complete body graph under the clause-count arc costs."""
    bodies = inst.bodies
    masks = [b.mask for b in bodies]
    weight = tuple(
        tuple(
            (masks[j] & ~masks[i]).bit_count() if i != j else 0
            for j in range(inst.m)
        )
        for i in range(inst.m)
    )
    return BodyGraph(bodies, weight)


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


def shortest_path(g: BodyGraph, src: int, dst: int) -> tuple[list[int], int]:
    """Minimum-weight directed path in a body graph; see ``_lex_dijkstra``
    for the tie-break.  Complete graphs make every target reachable."""
    if src == dst:
        return [src], 0
    return _lex_dijkstra(g.m, lambda u, v: g.weight[u][v], src, dst)


def lambda_formula(inst: KeyHornInstance, s: VarSet, s2: VarSet) -> LambdaFormula:
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


def body_graph_l(inst: KeyHornInstance) -> BodyGraph:
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
# Minimum spanning arborescence (Edmonds/Chu-Liu via cycle contraction)
# ---------------------------------------------------------------------------

# ``_min_arborescence`` is the one routine behind the rooted, unrooted and
# out-arborescence cases.  It contracts level by level, without recursion,
# on dense per-head columns of the current level only, and five rules fix
# its choices (the tie-break contract the reports rely on):
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
# A level costs O(k^2) for k current nodes, and the unrooted and
# out-arborescence cases can need about m levels, so a call is O(m^3) in the
# worst case.  Tarjan's O(m^2) branching breaks ties differently and would
# change which arborescence is chosen, and with it the reports.


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
    # arc behind it, as tail * n + head.  The root has no column.
    ids = list(range(n))
    low = list(range(n))
    w: list = [None] * n
    orig: list = [None] * n
    for h, col in enumerate(cols):
        if h != root:
            w[h] = col = list(col)
            col[h] = inf
            orig[h] = list(range(h, n * n, n))
    up = [-1] * (2 * n)  # node id -> the supernode it was contracted into
    members: list[list[tuple[int, int]]] = []  # per supernode: (member, own arc)

    while True:
        k = len(ids)
        rp = ids.index(root)
        pred = [rp] * k
        bw = [0] * k
        for p in range(k):
            if p != rp:
                col = w[p]
                bw[p] = x = min(col)
                pred[p] = col.index(x)

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

        # every column gains one entry per supernode and loses the members
        c = len(cycles)
        gone = sorted((p for cyc in cycles for p in cyc), reverse=True)
        for p in gone:
            del w[p], orig[p], ids[p], low[p]
        for p, (col, oc) in enumerate(zip(w, orig)):
            if col is None:
                continue
            own = p - (len(w) - c)  # this column's own cycle, if it is new
            for j, cyc in enumerate(cycles):
                best = inf
                bq = cyc[0]
                if j != own:
                    for q in cyc:
                        if col[q] < best:
                            best = col[q]
                            bq = q
                col.append(best)
                oc.append(oc[bq])
            for q in gone:
                del col[q], oc[q]

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


def _rooted_in_arborescence(g: BodyGraph, root: int) -> InArborescence:
    # an in-arborescence toward root is an out-arborescence from root in the
    # reversed graph, whose in-columns are the rows of g; the reversed parent
    # of x is exactly succ(x)
    parent = _min_arborescence(g.weight, root)
    return InArborescence(root, {x: t for x, t in enumerate(parent) if x != root})


def _min_out_parents(g: BodyGraph, root: int) -> dict[int, int]:
    parent = _min_arborescence(list(zip(*g.weight)), root)
    return {x: t for x, t in enumerate(parent) if x != root}


def _best_unrooted_root(g: BodyGraph) -> int:
    """Root minimizing the rooted in-arborescence weight, smallest index on
    ties.  One augmented run: a virtual root m gets an arc into every node,
    and real weights are scaled so a virtual arc's index term acts as the
    tie-break."""
    m = g.m
    scale = m + 1
    total = sum(w for row in g.weight for w in row)
    big = scale * total + m + 1
    cols = [[scale * w for w in row] + [big + v] for v, row in enumerate(g.weight)]
    cols.append(None)
    parent = _min_arborescence(cols, m)
    roots = [v for v in range(m) if parent[v] == m]
    assert len(roots) == 1, "exactly one virtual arc must be selected"
    return roots[0]


def min_in_arborescence(g: BodyGraph, root: int | None = None) -> InArborescence:
    """Minimum-weight spanning in-arborescence of a complete body graph.

    With ``root`` given, the minimum among arborescences with that root;
    otherwise the minimum over all roots, ties broken by smallest root
    index (equivalent to solving the rooted problem for every root).
    """
    m = g.m
    if m == 0:
        raise ValueError("graph has no nodes")
    if root is not None and not 0 <= root < m:
        raise ValueError(f"root {root} out of range 0..{m - 1}")
    if m == 1:
        return InArborescence(0 if root is None else root, {})
    if root is None:
        root = _best_unrooted_root(g)
    return _rooted_in_arborescence(g, root)


def mwscs_2approx(g: BodyGraph) -> tuple[frozenset[tuple[int, int]], int]:
    """Strongly connected spanning arc set of weight at most twice optimal.

    For each root the union of a minimum in- and a minimum out-arborescence
    is strongly connected and costs at most twice any strongly connected
    subgraph; the best root (by deduplicated union weight, smallest index on
    ties) is returned.
    """
    m = g.m
    if m == 1:
        return frozenset(), 0
    best_arcs: frozenset[tuple[int, int]] | None = None
    best_w = None
    for r in range(m):
        t_in = _rooted_in_arborescence(g, r)
        out_parents = _min_out_parents(g, r)
        arcs = {(x, s) for x, s in t_in.succ.items()}
        arcs.update((u, v) for v, u in out_parents.items())
        w = sum(g.weight[u][v] for u, v in arcs)
        if best_w is None or w < best_w:
            best_arcs, best_w = frozenset(arcs), w
    assert best_arcs is not None and best_w is not None
    return best_arcs, best_w
