"""Instance generators.

``gen_random`` rejection-samples Sperner families for test harnesses.
``gen_hydra`` builds the all-bodies-of-size-two special case from an edge
list.  ``gen_projective`` constructs the binary projective-space family
whose strongly-connected relaxation is far from the clause optimum, via a
Singer cycle of the point set.  ``gen_sat_reduction`` lays out the ground
set showing that exact literal pricing encodes 3-SAT; the instances are
emitted with source/target handles but deliberately not evaluated, since
their ground sets run to hundreds of thousands of elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ClauseGroup, HornCNF, KeyHornInstance, VarSet
from .reduce import TrivialInstance, normalize


class GenerationError(ValueError):
    """Requested parameters cannot produce a valid instance."""


def _normalized(n: int, bodies: list[VarSet]) -> KeyHornInstance:
    """``normalize``'s instance; a single-body family is a :class:`GenerationError`."""
    try:
        return normalize(n, bodies)[0]
    except TrivialInstance as exc:
        raise GenerationError(
            f"{exc}; 'gen' emits normalized families, and a single-body family "
            "normalizes to no variables"
        ) from exc


def gen_random(n: int, m: int, k: int, seed: int) -> KeyHornInstance:
    """Seeded random normalized instance: m pairwise incomparable bodies of
    size at most k over n variables, then normalized.  The same seed always
    yields the same instance.

    Raises :class:`GenerationError` when sampling cannot place m
    incomparable bodies, or when m == 1.
    """
    if n < 2 or m < 1 or k < 1:
        raise GenerationError(f"degenerate parameters n={n} m={m} k={k}")
    lo = 2 if k >= 2 else 1
    hi = min(k, n - 1)
    if hi < lo:
        raise GenerationError(f"no legal body sizes for n={n}, k={k}")
    rng = random.Random(seed)
    masks: list[int] = []
    failures = 0
    limit = 1000 + 200 * m
    while len(masks) < m:
        if failures > limit:
            raise GenerationError(
                f"could not place {m} incomparable bodies of size {lo}..{hi} "
                f"over {n} variables after {limit} rejected samples"
            )
        size = rng.randint(lo, hi)
        body = VarSet(n, rng.sample(range(1, n + 1), size)).mask
        # comparable: one mask holds the other (equal masks included)
        if any(body & other in (body, other) for other in masks):
            failures += 1
        else:
            masks.append(body)
    return _normalized(n, [VarSet._raw(n, b) for b in masks])


def gen_hydra(edges: Iterable[tuple[int, int]], n: int) -> KeyHornInstance:
    """Instance whose bodies are the given edges as 2-element sets."""
    bodies = []
    for a, b in edges:
        if a == b:
            raise GenerationError(f"self-loop {a}-{b} is not a body")
        body = VarSet(n, (a, b))
        if body.is_full():
            raise GenerationError(f"edge {a}-{b} covers the whole universe")
        bodies.append(body)
    if not bodies:
        raise GenerationError("edge set must be nonempty")
    return _normalized(n, bodies)


# ---------------------------------------------------------------------------
# Binary projective spaces
# ---------------------------------------------------------------------------

# Primitive polynomials over GF(2), degree -> coefficient bitmask
# (degree 3: x^3+x+1, 4: x^4+x+1, 5: x^5+x^2+1, 6: x^6+x+1, 7: x^7+x+1).
_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
}


def _gf_powers(deg: int) -> list[int]:
    poly = _PRIMITIVE_POLY[deg]
    top = 1 << deg
    out = []
    e = 1
    for _ in range(top - 1):
        out.append(e)
        e <<= 1
        if e & top:
            e ^= poly
    assert len(set(out)) == top - 1, "polynomial must be primitive"
    return out


@dataclass(frozen=True)
class ProjectiveInstance:
    """The binary projective-space body family of dimension ``dim``.

    Points are the cyclic group Z_n (n = 2^(dim+1) - 1) via a Singer cycle,
    stored 1-based.  ``hyperplane`` is the unique hyperplane containing
    points {0, ..., dim-1}.  ``bodies`` holds all n cyclic shifts of it and
    of the point window {0, ..., dim}, hyperplane shifts first.
    ``certificate`` is a representation witnessing a small clause count.
    """

    dim: int
    n: int
    hyperplane: VarSet
    bodies: tuple[VarSet, ...]
    certificate: HornCNF

    def instance(self) -> KeyHornInstance:
        return KeyHornInstance(self.n, self.bodies)

    def hyperplane_shifts(self) -> tuple[VarSet, ...]:
        return self.bodies[: self.n]


def gen_projective(d: int) -> ProjectiveInstance:
    """Binary projective space of dimension ``d`` (2 <= d <= 6) as a body
    family: all hyperplane shifts plus all shifts of the first d+1 points."""
    if not 2 <= d <= 6:
        raise GenerationError(f"dimension {d} outside the supported range 2..6")
    deg = d + 1
    n = (1 << deg) - 1
    powers = _gf_powers(deg)
    # the kernel of the constant-term functional is a hyperplane; the Singer
    # cycle is transitive on hyperplanes, so its shifts are all of them
    base = frozenset(i for i, e in enumerate(powers) if e & 1 == 0)
    assert len(base) == (1 << d) - 1, "a hyperplane has 2^d - 1 points"

    shifts = [frozenset((p + j) % n for p in base) for j in range(n)]
    assert len(set(shifts)) == n, "hyperplane shifts must be pairwise distinct"
    prefix = set(range(d))
    matches = [s for s in shifts if prefix <= s]
    assert len(matches) == 1, "exactly one hyperplane contains the first d points"
    x0 = matches[0]
    assert d not in x0, "the selected hyperplane avoids point d"

    x_shifts = [frozenset((p + j) % n for p in x0) for j in range(n)]
    interval0 = frozenset(range(d + 1))
    d_shifts = [frozenset((p + j) % n for p in interval0) for j in range(n)]

    def to_vs(points: frozenset[int]) -> VarSet:
        return VarSet(n, (p + 1 for p in points))

    bodies = tuple(to_vs(s) for s in x_shifts) + tuple(to_vs(s) for s in d_shifts)

    groups = [ClauseGroup(to_vs(interval0), to_vs(interval0).complement())]
    for j in range(n):
        groups.append(
            ClauseGroup(to_vs(x_shifts[j]), VarSet(n, ((d + j) % n + 1,)))
        )
    for j in range(n):
        groups.append(
            ClauseGroup(to_vs(d_shifts[j]), VarSet(n, ((d + 1 + j) % n + 1,)))
        )
    certificate = HornCNF(n, groups)

    return ProjectiveInstance(
        dim=d,
        n=n,
        hyperplane=to_vs(x0),
        bodies=bodies,
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# 3-SAT reduction gadget for literal pricing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatReductionInstance:
    """Ground-set layout encoding a 3-CNF into literal pricing.

    The ground set is T | B_0..B_nv | A_1..A_(nv+1) | M in that order, where
    M holds all eight sign patterns of every clause.  ``bodies`` is
    (source, z_set, target, X_1, Y_1, ..., X_nv, Y_nv); chains realizing
    the cheapest source-to-target price select X_i or Y_i per variable,
    i.e. a truth assignment.  Evaluating the price is intentionally left to
    the caller: ``ground_n`` runs to hundreds of thousands of elements, so
    even one chain-DP call is expensive.
    """

    clauses: tuple[tuple[int, int, int], ...]
    alpha: int
    beta: int
    tau: int
    ground_n: int
    m_block: VarSet
    x_sets: tuple[VarSet, ...]  # X_0 .. X_{nv+1}
    y_sets: tuple[VarSet, ...]  # Y_0 .. Y_{nv+1}
    z_set: VarSet
    source: VarSet  # = X_0, all B blocks
    target: VarSet  # = the T block
    bodies: tuple[VarSet, ...]

    @property
    def num_vars(self) -> int:
        return len(self.x_sets) - 2

    def instance(self) -> KeyHornInstance:
        return KeyHornInstance(self.ground_n, self.bodies)


def _reduction_parameters(nv: int, m: int) -> tuple[int, int, int]:
    """Smallest alpha, beta, tau satisfying the three size inequalities that
    make detours through the gadget blocks always profitable."""
    bound = max(m * m, 256 * (nv + 1) + 512 * (nv + 1) ** 2 + 16 * 17)
    alpha = 1
    while alpha * alpha <= bound:
        alpha += 1
    beta = 2 * alpha + 32 * (nv + 1) + 16 + 1
    tau = ((nv + 1) * beta + 17) * ((nv + 1) * alpha + m) + 1
    return alpha, beta, tau


def gen_sat_reduction(clauses: Sequence[Sequence[int]]) -> SatReductionInstance:
    """Build the literal-pricing gadget for a 3-CNF.

    Every clause must have exactly three literals over distinct variables,
    every variable may occur at most four times, and every variable index
    1..nv must occur at least once (otherwise two gadget bodies coincide).
    """
    cls: list[tuple[int, int, int]] = []
    occ: dict[int, int] = {}
    nv = 0
    for idx, c in enumerate(clauses):
        lits = tuple(c)
        if 0 in lits:
            raise GenerationError(
                f"clause {idx + 1} has the literal 0; "
                "a literal is a nonzero variable index, negated with '-'"
            )
        if len(lits) != 3:
            raise GenerationError(f"clause {idx + 1} must have exactly 3 literals")
        vs = tuple(abs(l) for l in lits)
        if len(set(vs)) != 3:
            raise GenerationError(f"clause {idx + 1} repeats a variable")
        lits = tuple(sorted(lits, key=abs))
        for v in vs:
            occ[v] = occ.get(v, 0) + 1
            nv = max(nv, v)
        cls.append(lits)  # type: ignore[arg-type]
    if not cls:
        raise GenerationError("formula must have at least one clause")
    for v in range(1, nv + 1):
        if occ.get(v, 0) == 0:
            raise GenerationError(f"variable {v} never occurs")
        if occ[v] > 4:
            raise GenerationError(f"variable {v} occurs {occ[v]} times, at most 4 allowed")

    m = len(cls)
    alpha, beta, tau = _reduction_parameters(nv, m)
    ground_n = tau + (nv + 1) * beta + (nv + 1) * alpha + 8 * m

    def block(start: int, size: int) -> int:
        return ((1 << size) - 1) << start

    t_mask = block(0, tau)
    b_start = tau
    b_masks = [block(b_start + j * beta, beta) for j in range(nv + 1)]
    a_start = b_start + (nv + 1) * beta
    a_masks = [block(a_start + j * alpha, alpha) for j in range(nv + 1)]
    m_start = a_start + (nv + 1) * alpha

    # pattern (k, j): clause k with literal t complemented iff bit t of j set
    def pattern_bit(k: int, j: int) -> int:
        return 1 << (m_start + 8 * k + j)

    pos_mask = [0] * (nv + 1)  # patterns containing variable v positively
    neg_mask = [0] * (nv + 1)
    phi_mask = 0
    for k, lits in enumerate(cls):
        phi_mask |= pattern_bit(k, 0)
        for j in range(8):
            bit = pattern_bit(k, j)
            for t, lit in enumerate(lits):
                v = abs(lit)
                sign = lit > 0
                if j >> t & 1:
                    sign = not sign
                if sign:
                    pos_mask[v] |= bit
                else:
                    neg_mask[v] |= bit

    def vs(mask: int) -> VarSet:
        return VarSet.from_mask(ground_n, mask)

    b_suffix = [0] * (nv + 2)  # union of B_j for j >= i
    for j in range(nv, -1, -1):
        b_suffix[j] = b_suffix[j + 1] | b_masks[j]
    a_prefix = [0] * (nv + 3)  # union of A_j for j <= i
    for j in range(1, nv + 2):
        a_prefix[j] = a_prefix[j - 1] | a_masks[j - 1]

    x_masks = []
    y_masks = []
    for i in range(nv + 2):
        base = b_suffix[i] if i <= nv else 0
        base |= a_prefix[min(i, nv + 1)]
        xp = pos_mask[i] if 1 <= i <= nv else 0
        yn = neg_mask[i] if 1 <= i <= nv else 0
        x_masks.append(base | xp)
        y_masks.append(base | yn)

    z_mask = x_masks[nv + 1] | phi_mask
    source_mask = x_masks[0]

    inst = SatReductionInstance(
        clauses=tuple(cls),
        alpha=alpha,
        beta=beta,
        tau=tau,
        ground_n=ground_n,
        m_block=vs(block(m_start, 8 * m)),
        x_sets=tuple(vs(x) for x in x_masks),
        y_sets=tuple(vs(y) for y in y_masks),
        z_set=vs(z_mask),
        source=vs(source_mask),
        target=vs(t_mask),
        bodies=(
            (vs(source_mask), vs(z_mask), vs(t_mask))
            + tuple(
                vs(mm)
                for i in range(1, nv + 1)
                for mm in (x_masks[i], y_masks[i])
            )
        ),
    )
    _validate_reduction(inst)
    return inst


def _validate_reduction(inst: SatReductionInstance) -> None:
    """Assert the structural relations the pricing argument relies on."""
    nv = inst.num_vars
    m = len(inst.clauses)
    alpha, beta, tau = inst.alpha, inst.beta, inst.tau
    x, y = inst.x_sets, inst.y_sets
    mset = inst.m_block

    def fail(msg: str) -> None:
        raise GenerationError(f"reduction invariant violated: {msg}")

    # parameter inequalities
    if not alpha * alpha > max(m * m, 256 * (nv + 1) + 512 * (nv + 1) ** 2 + 272):
        fail("alpha too small")
    if not beta > 2 * alpha + 32 * (nv + 1) + 16:
        fail("beta too small")
    if not tau > ((nv + 1) * beta + 17) * ((nv + 1) * alpha + m):
        fail("tau too small")

    # (i) pattern overlaps are equal for X_i and Y_i and at most 16
    for i in range(nv + 2):
        dx, dy = len(x[i] & mset), len(y[i] & mset)
        if dx != dy or dx > 16:
            fail(f"pattern overlap at index {i}: {dx} vs {dy}")
        if i in (0, nv + 1) and dx != 0:
            fail("boundary sets must avoid the pattern block")
    # (ii) boundary sizes
    if len(inst.source) != (nv + 1) * beta:
        fail("source size")
    if len(inst.z_set) != (nv + 1) * alpha + m:
        fail("z size")
    # (iii) interior sizes
    for i in range(nv + 2):
        want = (nv - i + 1) * beta + i * alpha + len(x[i] & mset)
        if i == nv + 1:
            want = (nv + 1) * alpha
        if len(x[i]) != want or len(y[i]) != want:
            fail(f"size of level {i}")
    # (iv) strict size gaps
    for i in range(nv + 1):
        if not len(x[i]) > len(x[i + 1]) + alpha:
            fail(f"size gap at level {i}")
    # (v) fresh contribution of each level
    seen = x[0]
    for i in range(1, nv + 2):
        fresh = len(x[i] - seen)
        if not alpha <= fresh <= alpha + 16:
            fail(f"fresh contribution at level {i}: {fresh}")
        seen = seen | x[i]
    # (vi) early levels meet later increments only inside the pattern block
    for i in range(1, nv + 1):
        inc = x[i + 1] - x[i]
        for j in range(i):
            if not (x[j] & inc).issubset(x[i + 1] & mset):
                fail(f"level {j} leaks into increment {i + 1}")
