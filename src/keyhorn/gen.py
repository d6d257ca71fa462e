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

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ClauseGroup, HornCNF, KeyHornInstance, VarSet
from .reduce import TrivialInstance, normalize


class GenerationError(ValueError):
    """Requested parameters cannot produce a valid instance."""


def _normalized(n: int, bodies: list[VarSet]) -> KeyHornInstance:
    """``normalize``'s instance; a family it refuses is a :class:`GenerationError`."""
    try:
        return normalize(n, bodies)[0]
    except TrivialInstance as exc:
        raise GenerationError(
            f"{exc}; 'gen' emits normalized families, and a single-body family "
            "normalizes to no variables"
        ) from exc
    except ValueError as exc:
        raise GenerationError(str(exc)) from exc


def gen_random(n: int, m: int, k: int, seed: int) -> KeyHornInstance:
    """Seeded random normalized instance: m pairwise incomparable bodies of
    size at most k over n variables, then normalized.  The same seed always
    yields the same instance.

    Raises :class:`GenerationError` before sampling when no m incomparable
    bodies fit, when sampling cannot place them, or when m == 1.
    """
    if n < 2 or m < 1 or k < 1:
        raise GenerationError(f"degenerate parameters n={n} m={m} k={k}")
    lo = 2 if k >= 2 else 1
    hi = min(k, n - 1)
    if hi < lo:
        raise GenerationError(f"no legal body sizes for n={n}, k={k}")
    # LYM (Lubell 1966): incomparable bodies of sizes lo..hi number at most
    # the largest C(n, s) there, at the s nearest n/2; multiplied out only
    # until it reaches m, since C(n - s + i, i) grows with i
    s = min(max(n // 2, lo), hi)
    fit = 1
    for i in range(1, s + 1):
        if fit >= m:
            break
        fit = fit * (n - s + i) // i
    if fit < m:
        raise GenerationError(
            f"cannot place {m} incomparable bodies of size {lo}..{hi} over {n} "
            f"variables: at most C({n}, {s}) = {fit} fit (LYM inequality)"
        )
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
        bodies.append(VarSet(n, (a, b)))
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


@dataclass(frozen=True)
class ProjectiveInstance:
    """The binary projective-space body family of dimension ``dim``.

    Points are the cyclic group Z_n (n = 2^(dim+1) - 1) via a Singer cycle:
    point i is x^i in GF(2^(dim+1)), stored 1-based as variable i + 1.
    ``hyperplane`` is the kernel of the x^dim coefficient, the one hyperplane
    through points {0, ..., dim-1}, and it avoids point dim.  The cycle is
    transitive on hyperplanes, so the n cyclic shifts of it are all of them.
    ``bodies`` holds those shifts and the n shifts of the point window
    {0, ..., dim}, hyperplane shifts first.  ``certificate`` witnesses a small
    clause count: window 0 implies every point outside it, and shift j of the
    hyperplane (of the window) implies point dim + j (dim + 1 + j), mod n.
    """

    dim: int
    n: int
    hyperplane: VarSet
    bodies: tuple[VarSet, ...]
    certificate: HornCNF

    def hyperplane_shifts(self) -> tuple[VarSet, ...]:
        return self.bodies[: self.n]


def gen_projective(d: int) -> ProjectiveInstance:
    """Binary projective space of dimension ``d`` (2 <= d <= 6) as a body
    family: all hyperplane shifts plus all shifts of the first d+1 points."""
    if not 2 <= d <= 6:
        raise GenerationError(f"dimension {d} outside the supported range 2..6")
    n = (1 << (d + 1)) - 1
    # point i is x^i in GF(2^(d+1)), so points 0..d-1 are the monomials
    # 1, ..., x^(d-1): the one hyperplane through them is the kernel of the
    # x^d coefficient, and point d (x^d itself) lies outside it
    hyperplane, e = 0, 1
    for i in range(n):
        if not e >> d & 1:
            hyperplane |= 1 << i
        e <<= 1
        if e >> (d + 1):
            e ^= _PRIMITIVE_POLY[d + 1]

    def shifts(mask: int) -> list[VarSet]:
        # shift j moves point p to p + j mod n
        full = (1 << n) - 1
        return [VarSet._raw(n, (mask << j | mask >> (n - j)) & full) for j in range(n)]

    hyperplanes, windows = shifts(hyperplane), shifts((1 << (d + 1)) - 1)
    groups = [ClauseGroup(windows[0], windows[0].complement())]
    groups += [ClauseGroup(b, h) for b, h in zip(hyperplanes, shifts(1 << d))]
    groups += [ClauseGroup(b, h) for b, h in zip(windows, shifts(1 << (d + 1)))]
    return ProjectiveInstance(
        d, n, hyperplanes[0], tuple(hyperplanes + windows), HornCNF(n, groups)
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

    The blocks are disjoint, with |T| = tau, |B_j| = beta, |A_j| = alpha and
    |M| = 8m.  X_i is B_i..B_nv with A_1..A_i and the patterns that make
    variable i true, Y_i the same with the patterns that make it false;
    X_0 = source, X_(nv+1) = A_1..A_(nv+1), and z_set adds to X_(nv+1)
    each clause's own pattern.  The pricing argument's relations hold by
    construction:

    (i) a clause's eight patterns make each of its variables true in four
        and false in four, and a variable occurs at most 4 times, so X_i
        and Y_i hold the same number of patterns, at most 16; X_0 and
        X_(nv+1) hold none;
    (ii) |source| = (nv+1)*beta and |z_set| = (nv+1)*alpha + m;
    (iii) |X_i| = |Y_i| = (nv-i+1)*beta + i*alpha + |X_i & M| for i <= nv,
        and |X_(nv+1)| = (nv+1)*alpha;
    (iv) so |X_i| - |X_(i+1)| >= beta - alpha - 16 > alpha, as
        beta > 2*alpha + 16;
    (v) X_i adds to X_0..X_(i-1) the block A_i and at most 16 patterns;
    (vi) X_(i+1) - X_i is A_(i+1) and some patterns, and A_(i+1) lies outside
        every X_j with j <= i, so no earlier level meets an increment
        outside the pattern block.
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


def _reduction_parameters(nv: int, m: int) -> tuple[int, int, int]:
    """Smallest alpha, beta, tau with alpha**2 > max(m**2, 256(nv+1) +
    512(nv+1)**2 + 272), beta > 2*alpha + 32(nv+1) + 16 and
    tau > ((nv+1)*beta + 17) * ((nv+1)*alpha + m): the size inequalities
    that make detours through the gadget blocks always profitable."""
    bound = max(m * m, 256 * (nv + 1) + 512 * (nv + 1) ** 2 + 16 * 17)
    alpha = math.isqrt(bound) + 1
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

    def block(start: int, size: int) -> int:
        return ((1 << size) - 1) << start

    a_start = tau + (nv + 1) * beta
    m_start = a_start + (nv + 1) * alpha
    ground_n = m_start + 8 * m

    # pattern (k, j): clause k with literal t complemented iff bit t of j set
    def pattern_bit(k: int, j: int) -> int:
        return 1 << (m_start + 8 * k + j)

    # per level, the patterns that make its variable true (false); levels 0
    # and nv + 1 have no variable
    pos_mask = [0] * (nv + 2)
    neg_mask = [0] * (nv + 2)
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

    # level i holds B_i..B_nv and A_1..A_i, two runs of adjacent blocks
    levels = [
        block(tau + i * beta, (nv + 1 - i) * beta) | block(a_start, i * alpha)
        for i in range(nv + 2)
    ]
    x_sets = tuple(vs(b | p) for b, p in zip(levels, pos_mask))
    y_sets = tuple(vs(b | p) for b, p in zip(levels, neg_mask))
    z_set = vs(levels[nv + 1] | phi_mask)
    target = vs(block(0, tau))
    return SatReductionInstance(
        clauses=tuple(cls),
        alpha=alpha,
        beta=beta,
        tau=tau,
        ground_n=ground_n,
        m_block=vs(block(m_start, 8 * m)),
        x_sets=x_sets,
        y_sets=y_sets,
        z_set=z_set,
        source=x_sets[0],
        target=target,
        bodies=(x_sets[0], z_set, target)
        + tuple(s for xy in zip(x_sets[1:-1], y_sets[1:-1]) for s in xy),
    )
