"""Minimization algorithms with provable guarantees, plus lower bounds.

Body-count and body-area minimization are exact.  Total area gets a
2-approximation from any Hamiltonian cycle of the body graph.  Clause-count
style measures use a minimum spanning in-arborescence of the clause-cost
body graph; literal count uses an in-arborescence of the literal-cost graph
rooted at a smallest body.  Each dispatch also tries the cheap Hamiltonian
candidate and keeps the smaller formula, which realizes the ``min{..., k}``
term of the guarantees constructively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    ClauseGroup,
    HornCNF,
    KeyHornInstance,
    MEASURES,
    Measure,
    VarSet,
    VerificationError,
    measure_size,
    verify_representation,
)
from .graph import (
    BodyGraph,
    InArborescence,
    body_graph_c,
    body_graph_l,
    lambda_formula,
    min_in_arborescence,
)

STRATEGY_EXACT = "exact"
STRATEGY_HAMILTONIAN = "hamiltonian"
STRATEGY_PROCEDURE1 = "procedure1"
STRATEGY_PROCEDURE2 = "procedure2"

# the measures each candidate is built for; the cycle represents all six
STRATEGY_TARGETS = {
    STRATEGY_HAMILTONIAN: MEASURES,
    STRATEGY_PROCEDURE1: (Measure.C, Measure.BC),
    STRATEGY_PROCEDURE2: (Measure.L,),
}


@dataclass(frozen=True)
class MinimizationResult:
    """A verified representation with its size, bound and guarantee."""

    formula: HornCNF
    size: int
    lower_bound: int
    guarantee: Fraction
    strategy: str

    def ratio(self) -> Fraction:
        return Fraction(self.size, self.lower_bound)


def _ceil_log2(x: int) -> int:
    # x >= 1: callers pass inst.k and inst.n, and core.check_body keeps bodies nonempty
    return (x - 1).bit_length()


def _factor(inst: KeyHornInstance, strategy: str, mu: Measure) -> Fraction:
    """The approximation factor one construction proves on its own for
    ``mu``: the cycle is exact on B and BA, 2 on TA and k elsewhere;
    Procedure 1 (C, BC) and Procedure 2 (L) prove their logarithmic
    factors."""
    if strategy == STRATEGY_PROCEDURE2:
        return Fraction(108, 17) * _ceil_log2(inst.k) + 2
    if strategy == STRATEGY_PROCEDURE1:
        return Fraction(min(_ceil_log2(inst.n) + 1, _ceil_log2(inst.k) + 2))
    if mu in (Measure.B, Measure.BA):
        return Fraction(1)
    if mu is Measure.TA:
        return Fraction(2)
    return Fraction(inst.k)


def guarantee_factor(inst: KeyHornInstance, mu: Measure) -> Fraction:
    """The proved approximation factor of ``minimize`` for this measure: the
    least factor of the constructions built for it, so ``min{..., k}`` on
    C, BC and L."""
    factors = [_factor(inst, s, mu) for s, targets in STRATEGY_TARGETS.items() if mu in targets]
    if not factors:
        raise ValueError(f"unknown measure {mu!r}")
    return min(factors)


def lower_bound(inst: KeyHornInstance, mu: Measure) -> int:
    """Unconditional lower bound on the optimal ``mu``-size.

    Every representation uses all m minimal bodies; every variable must be
    the head of some clause (so at least n clauses); each such clause has a
    body of size at least delta and at least two literals.  The clause
    count also takes the partition bound (a normalized family has m >= 2).
    """
    inst.require_normalized()
    n, m, delta = inst.n, inst.m, inst.delta
    sum_bodies = sum(len(b) for b in inst.bodies)
    if mu is Measure.B:
        return m
    if mu is Measure.BA:
        return sum_bodies
    if mu is Measure.TA:
        return max(m, n, sum_bodies)
    if mu is Measure.C:
        return max(m, n, lower_bound_partition_c(inst))
    if mu is Measure.BC:
        return m + n
    if mu is Measure.L:
        return max(n * (delta + 1), 2 * m)
    raise ValueError(f"unknown measure {mu!r}")


def lower_bound_partition_c(inst: KeyHornInstance) -> int:
    """Clause-count bound from the singleton partition: chaining out of each
    body B costs at least the cheapest |B' \\ B| over the other bodies, so
    the bound is the sum of the off-diagonal row minima of the C body graph.

    Valid for any instance; normalization is not required.
    """
    if inst.m < 2:
        raise ValueError("partition bound needs at least two bodies")
    return sum(body_graph_c(inst).row_minima)


def _verified(formula: HornCNF, inst: KeyHornInstance) -> HornCNF:
    res = verify_representation(formula, inst)
    if not res:
        raise VerificationError(f"produced formula failed verification: {res}")
    return formula


def hamiltonian_formula(inst: KeyHornInstance) -> HornCNF:
    """Representation from the Hamiltonian cycle of the body graph in body
    order: each body implies the next body's missing variables, the last
    the first's.  A k-approximation for every measure."""
    inst.require_normalized()
    bodies = inst.bodies
    groups = [ClauseGroup(b, nxt - b) for b, nxt in zip(bodies, bodies[1:] + bodies[:1])]
    return _verified(HornCNF(inst.n, groups), inst)


def _tree_formula(inst: KeyHornInstance, arb: InArborescence, realize) -> HornCNF:
    """The verified formula of an in-arborescence over the bodies: the
    groups ``realize(x, s)`` of each tree arc x -> s, plus the root's full
    clause group."""
    groups = [group for x, s in arb.succ.items() for group in realize(x, s)]
    root_body = inst.bodies[arb.root]
    groups.append(ClauseGroup(root_body, root_body.complement()))
    return _verified(HornCNF(inst.n, groups), inst)


def procedure1(inst: KeyHornInstance) -> HornCNF:
    """Clause-count minimizer: a minimum clause-cost spanning in-arborescence
    of the C body graph routes every body's chaining to a root body, which
    then implies the rest of the universe directly."""
    inst.require_normalized()
    arb = min_in_arborescence(body_graph_c(inst))
    bodies = inst.bodies
    return _tree_formula(inst, arb, lambda x, s: [ClauseGroup(bodies[x], bodies[s] - bodies[x])])


def _chain_groups(inst: KeyHornInstance, g: BodyGraph):
    """``chain(x, s)``: the groups of ``lambda_formula(inst, B_x, B_s)``, for
    ``g = body_graph_l(inst)``, without a search when no detour ties the
    direct arc (see ``procedure2``)."""
    bodies = inst.bodies
    masks = [b.mask for b in bodies]
    sizes = [len(b) for b in bodies]

    def chain(x: int, s: int) -> tuple[ClauseGroup, ...]:
        row = g.weight[x]
        t = row[s]
        target = masks[s] & ~masks[x]
        for v, d in enumerate(row):
            if d <= t and v != x and v != s:
                if d + (sizes[v] + 1) * (target & ~masks[v]).bit_count() == t:
                    return lambda_formula(inst, bodies[x], bodies[s]).formula.groups
        return (ClauseGroup(bodies[x], VarSet._raw(inst.n, target)),)

    return chain


def procedure2(inst: KeyHornInstance) -> HornCNF:
    """Literal-count minimizer: a minimum literal-cost spanning
    in-arborescence rooted at a smallest body, each tree arc realized by its
    shortest-path chain formula, plus the root's full clause group.

    Lemma: a tree arc x -> s of weight t = ``g.weight[x][s]`` is realized by
    the one group ``B_x -> B_s \\ B_x`` unless some v not in {x, s} has
    ``g.weight[x][v] + (|B_v| + 1) * |B_s \\ (B_x | B_v)| == t``; only then
    is ``lambda_formula`` called.  Row x of the L graph is exactly the
    Dijkstra label of every body node in ``lambda_formula``'s graph for
    source B_x (the only body inside B_x), and the target node m, a copy of
    B_s, has label t.  A minimum path to m enters it from x, from s, or from
    such a v; and a minimum path through s enters s from x or from such a v.
    Without a v, the minimum paths are therefore (x, m) and (x, s, m), the
    latter wins the lexicographic tie-break (s < m), and its second arc
    s -> m has an empty head set, which the formula drops.
    """
    inst.require_normalized()
    g = body_graph_l(inst)
    # canonical body order puts a smallest body first
    return _tree_formula(inst, min_in_arborescence(g, root=0), _chain_groups(inst, g))


# the constructions are looked up by name at call time, so a rebinding of
# them (as by the benchmark's span tracer) is seen
_BUILD = {
    STRATEGY_HAMILTONIAN: lambda inst: hamiltonian_formula(inst),
    STRATEGY_PROCEDURE1: lambda inst: procedure1(inst),
    STRATEGY_PROCEDURE2: lambda inst: procedure2(inst),
}


class CandidateTable:
    """The candidates of one normalized instance (the Hamiltonian cycle and
    Procedures 1 and 2), each built and verified on first use and shared by
    every measure.  The table is the one place that scores a candidate, and
    it computes each lower bound once.  The cycle measures B, BA and TA
    build no body graph."""

    def __init__(self, inst: KeyHornInstance):
        inst.require_normalized()
        self.inst = inst
        self._formulas: dict[str, HornCNF] = {}
        self._bounds: dict[Measure, int] = {}

    def score(self, strategy: str, mu: Measure) -> MinimizationResult:
        """One candidate as a ``mu`` result with the guarantee its own
        construction proves (``_factor``)."""
        if mu not in STRATEGY_TARGETS[strategy]:
            raise ValueError(f"{strategy} does not construct a {mu} representation")
        if strategy not in self._formulas:
            self._formulas[strategy] = _BUILD[strategy](self.inst)
        if mu not in self._bounds:
            self._bounds[mu] = lower_bound(self.inst, mu)
        phi = self._formulas[strategy]
        guarantee = _factor(self.inst, strategy, mu)
        return MinimizationResult(phi, measure_size(phi, mu), self._bounds[mu], guarantee, strategy)

    def best(self, mu: Measure) -> MinimizationResult:
        """The smallest candidate built for ``mu``, ties to the arborescence
        construction, with the least guarantee among them
        (``guarantee_factor``), which realizes the ``min{..., k}`` term.
        B and BA, where only the cycle is built, are exact."""
        scored = [self.score(s, mu) for s, targets in STRATEGY_TARGETS.items() if mu in targets]
        winner = min(scored, key=lambda r: (r.size, r.strategy == STRATEGY_HAMILTONIAN))
        winner = replace(winner, guarantee=guarantee_factor(self.inst, mu))
        if mu in (Measure.B, Measure.BA):
            assert winner.size == winner.lower_bound, "cycle formula must meet the body-measure optimum"
            return replace(winner, strategy=STRATEGY_EXACT)
        return winner


def minimize(inst: KeyHornInstance, mu: Measure) -> MinimizationResult:
    """Best available representation for one measure (see
    :meth:`CandidateTable.best`); builds only the candidates ``mu`` needs."""
    return CandidateTable(inst).best(mu)

