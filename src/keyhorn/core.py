"""Core types for body-grouped pure Horn CNFs and key Horn instances.

A pure Horn clause has a set of negative literals (the body) and a single
positive literal (the head).  Clauses sharing a body are grouped, so a
formula is a conjunction of ``body -> heads`` groups.  A key Horn function
is one representable as ``B -> (V \\ B)`` for every body B of a family over
the variable set V.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Iterator, Optional


class UniverseMismatchError(ValueError):
    """Operands are defined over different variable universes."""


class VarSet:
    """Immutable set of variables drawn from the universe {1, ..., n}.

    Backed by an int bitmask (bit ``i-1`` holds variable ``i``), so union,
    difference and subset tests cost O(n/wordsize) no matter how many
    elements are present.  That matters: the hardness-reduction instances
    have ground sets of several hundred thousand variables.
    """

    __slots__ = ("n", "mask", "_size")

    def __init__(self, n: int, elements: Iterable[int] = ()):
        if n < 0:
            raise ValueError(f"universe size must be nonnegative, got {n}")
        mask = 0
        for v in elements:
            if not 1 <= v <= n:
                raise ValueError(f"variable {v} out of range 1..{n}")
            mask |= 1 << (v - 1)
        self.n = n
        self.mask = mask
        self._size: Optional[int] = None

    @classmethod
    def _raw(cls, n: int, mask: int) -> "VarSet":
        obj = object.__new__(cls)
        obj.n = n
        obj.mask = mask
        obj._size = None
        return obj

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VarSet":
        if mask < 0 or mask >> n:
            raise ValueError(f"mask has bits outside universe 1..{n}")
        return cls._raw(n, mask)

    @classmethod
    def full(cls, n: int) -> "VarSet":
        return cls._raw(n, (1 << n) - 1)

    def __len__(self) -> int:
        if self._size is None:
            self._size = self.mask.bit_count()
        return self._size

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: int) -> bool:
        return 1 <= v <= self.n and (self.mask >> (v - 1)) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            lsb = m & -m
            yield lsb.bit_length()
            m ^= lsb

    def __or__(self, other: "VarSet") -> "VarSet":
        _same_universe(self, other)
        return VarSet._raw(self.n, self.mask | other.mask)

    def __and__(self, other: "VarSet") -> "VarSet":
        _same_universe(self, other)
        return VarSet._raw(self.n, self.mask & other.mask)

    def __sub__(self, other: "VarSet") -> "VarSet":
        _same_universe(self, other)
        return VarSet._raw(self.n, self.mask & ~other.mask)

    def issubset(self, other: "VarSet") -> bool:
        _same_universe(self, other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VarSet") -> bool:
        _same_universe(self, other)
        return self.mask & other.mask == 0

    def complement(self) -> "VarSet":
        return VarSet._raw(self.n, ((1 << self.n) - 1) ^ self.mask)

    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def compare(self, other: "VarSet") -> int:
        """Total order by (cardinality, lexicographic element sequence).

        For equal cardinalities the set holding the smallest differing
        variable comes first; this matches comparing the ascending element
        tuples and needs only O(1) big-int operations.
        """
        _same_universe(self, other)
        la, lb = len(self), len(other)
        if la != lb:
            return -1 if la < lb else 1
        if self.mask == other.mask:
            return 0
        lsb = (self.mask ^ other.mask) & -(self.mask ^ other.mask)
        return -1 if self.mask & lsb else 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VarSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        elems = list(self)
        shown = ", ".join(map(str, elems[:12]))
        if len(elems) > 12:
            shown += f", ... ({len(elems)} total)"
        return f"VarSet(n={self.n}, {{{shown}}})"


def _same_universe(a, b) -> None:
    if a.n != b.n:
        raise UniverseMismatchError(f"universe sizes differ: {a.n} != {b.n}")


def canonical_sorted(sets: Iterable[VarSet]) -> tuple[VarSet, ...]:
    """Sort by (cardinality, lexicographic elements); the order used for
    bodies everywhere tie-breaking matters."""
    return tuple(sorted(sets, key=cmp_to_key(VarSet.compare)))


@dataclass(frozen=True)
class ClauseGroup:
    """All clauses sharing one body: ``body -> v`` for each v in ``heads``.

    An empty head set is legal in memory (it shows up as a zero-weight edge
    formula) but is dropped when a formula is canonicalized.
    """

    body: VarSet
    heads: VarSet

    def __post_init__(self):
        _same_universe(self.body, self.heads)
        if not self.body:
            raise ValueError("clause body must be nonempty")
        if self.body.is_full():
            raise ValueError("clause body must not be the full variable set")
        if not self.body.isdisjoint(self.heads):
            raise ValueError(f"heads intersect body: {self.heads & self.body!r}")


class HornCNF:
    """Pure Horn CNF in canonical body-grouped form.

    Construction canonicalizes: groups with equal bodies are merged by
    uniting their head sets, empty-head groups are dropped, and the result
    is ordered by (body size, lexicographic body).
    """

    __slots__ = ("n", "groups")

    def __init__(self, n: int, groups: Iterable[ClauseGroup] = ()):
        merged: dict[int, int] = {}
        for g in groups:
            if g.body.n != n:
                raise UniverseMismatchError(
                    f"group over universe {g.body.n}, formula over {n}"
                )
            merged[g.body.mask] = merged.get(g.body.mask, 0) | g.heads.mask
        kept = [
            ClauseGroup(VarSet._raw(n, b), VarSet._raw(n, h))
            for b, h in merged.items()
            if h
        ]
        kept.sort(key=cmp_to_key(lambda x, y: x.body.compare(y.body)))
        self.n = n
        self.groups = tuple(kept)

    @classmethod
    def of(cls, n: int, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> "HornCNF":
        """Build from (body, heads) element iterables; test/CLI convenience."""
        return cls(n, (ClauseGroup(VarSet(n, b), VarSet(n, h)) for b, h in pairs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HornCNF)
            and self.n == other.n
            and self.groups == other.groups
        )

    def __hash__(self) -> int:
        return hash((self.n, self.groups))

    def __repr__(self) -> str:
        return f"HornCNF(n={self.n}, {len(self.groups)} groups)"


class Measure(enum.Enum):
    """The six size measures of a body-grouped pure Horn CNF."""

    B = "B"    # number of bodies
    BA = "BA"  # body area: sum of body sizes
    TA = "TA"  # total area: sum of body plus head-set sizes
    C = "C"    # number of clauses
    BC = "BC"  # bodies plus clauses
    L = "L"    # number of literals

    def __str__(self) -> str:
        return self.value


MEASURES: tuple[Measure, ...] = (
    Measure.B,
    Measure.BA,
    Measure.TA,
    Measure.C,
    Measure.BC,
    Measure.L,
)


def measure_size(phi: HornCNF, mu: Measure) -> int:
    """Size of ``phi`` under measure ``mu``.

    A group with an empty head set would count its body toward B/BA/TA and
    contribute no clauses; canonical formulas never contain one.
    """
    if mu is Measure.B:
        return len(phi.groups)
    if mu is Measure.BA:
        return sum(len(g.body) for g in phi.groups)
    if mu is Measure.TA:
        return sum(len(g.body) + len(g.heads) for g in phi.groups)
    if mu is Measure.C:
        return sum(len(g.heads) for g in phi.groups)
    if mu is Measure.BC:
        return len(phi.groups) + sum(len(g.heads) for g in phi.groups)
    if mu is Measure.L:
        return sum((len(g.body) + 1) * len(g.heads) for g in phi.groups)
    raise ValueError(f"unknown measure {mu!r}")


class _Propagator:
    """Counter-based forward chaining over one formula.

    Building the variable-to-group incidence once lets many closures over
    the same formula run in time linear in the formula size each.
    """

    __slots__ = ("n", "full_mask", "body_masks", "head_masks", "occ")

    def __init__(self, phi: HornCNF):
        self.n = phi.n
        self.full_mask = (1 << phi.n) - 1
        self.body_masks = [g.body.mask for g in phi.groups]
        self.head_masks = [g.heads.mask for g in phi.groups]
        occ: dict[int, list[int]] = {}
        for gi, g in enumerate(phi.groups):
            for v in g.body:
                occ.setdefault(v, []).append(gi)
        self.occ = occ

    def closure_mask(self, zmask: int) -> int:
        # counts are taken against zmask, so only variables derived later may
        # decrement them; derived heads are always disjoint from z.
        reached = zmask
        counts = []
        stack: list[int] = []
        for gi, bmask in enumerate(self.body_masks):
            rem = (bmask & ~zmask).bit_count()
            counts.append(rem)
            if rem == 0:
                new = self.head_masks[gi] & ~reached
                if new:
                    reached |= new
                    stack.append(new)
        while stack:
            if reached == self.full_mask:
                return reached
            m = stack.pop()
            while m:
                lsb = m & -m
                m ^= lsb
                v = lsb.bit_length()
                for gi in self.occ.get(v, ()):
                    counts[gi] -= 1
                    if counts[gi] == 0:
                        new = self.head_masks[gi] & ~reached
                        if new:
                            reached |= new
                            stack.append(new)
        return reached


def forward_chain(phi: HornCNF, z: VarSet) -> VarSet:
    """Closure of ``z`` under ``phi``: the least fixpoint containing ``z``
    closed under every group whose body is already reached."""
    if phi.n != z.n:
        raise UniverseMismatchError(f"universe sizes differ: {phi.n} != {z.n}")
    return VarSet._raw(phi.n, _Propagator(phi).closure_mask(z.mask))


def forward_chain_trace(phi: HornCNF, z: VarSet) -> list[VarSet]:
    """Round-by-round closure: each round adds every head derivable from the
    current set simultaneously.  Returns the strictly increasing sequence
    starting at ``z``; the last element is the closure."""
    if phi.n != z.n:
        raise UniverseMismatchError(f"universe sizes differ: {phi.n} != {z.n}")
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
        rounds.append(VarSet._raw(phi.n, cur))


def entails(phi: HornCNF, body: VarSet, head: int) -> bool:
    """Does ``phi`` force ``head`` true whenever all of ``body`` is true?"""
    if head in body:
        raise ValueError(f"head {head} lies in the body")
    return head in forward_chain(phi, body)


def equivalent(phi1: HornCNF, phi2: HornCNF) -> bool:
    """Mutual entailment of all clauses; both formulas must share a universe."""
    if phi1.n != phi2.n:
        raise UniverseMismatchError(f"universe sizes differ: {phi1.n} != {phi2.n}")
    for a, b in ((phi1, phi2), (phi2, phi1)):
        prop = _Propagator(a)
        for g in b.groups:
            if g.heads.mask & ~prop.closure_mask(g.body.mask):
                return False
    return True


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a representation check, with a rejection certificate.

    On rejection exactly one certificate is set: ``bad_group`` is a clause
    group whose body contains no instance body (so the clause is not
    entailed), or ``bad_body`` is an instance body whose closure
    (``closure``) falls short of the full variable set.
    """

    ok: bool
    bad_group: Optional[ClauseGroup] = None
    bad_body: Optional[VarSet] = None
    closure: Optional[VarSet] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_against_family(phi: HornCNF, n: int, bodies: Iterable[VarSet]) -> VerifyResult:
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


def verify_representation(phi: HornCNF, inst: "KeyHornInstance") -> VerifyResult:
    """``verify_against_family`` specialised to a key Horn instance."""
    return verify_against_family(phi, inst.n, inst.bodies)


class KeyHornInstance:
    """A Sperner body family over {1, ..., n} with cached size statistics.

    ``m`` is the family size, ``k`` the largest and ``delta`` the smallest
    body size.  Raw instances may leave variables uncovered or shared by all
    bodies; normalization (module ``reduce``) removes both.
    """

    __slots__ = ("n", "bodies", "m", "k", "delta")

    def __init__(self, n: int, bodies: Iterable[VarSet]):
        fam = canonical_sorted(set(bodies))
        if not fam:
            raise ValueError("body family must be nonempty")
        for b in fam:
            if b.n != n:
                raise UniverseMismatchError(f"body over universe {b.n}, instance over {n}")
            if not b:
                raise ValueError("bodies must be nonempty")
            if b.is_full():
                raise ValueError("no body may equal the full variable set")
        for i, a in enumerate(fam):
            for b in fam[i + 1 :]:
                # canonical order sorts by size, so only a subset-of-b is possible
                if a.mask & ~b.mask == 0:
                    raise ValueError(f"family is not Sperner: {a!r} inside {b!r}")
        self.n = n
        self.bodies = fam
        self.m = len(fam)
        self.k = max(len(b) for b in fam)
        self.delta = min(len(b) for b in fam)

    @property
    def is_normalized(self) -> bool:
        """Covering (bodies union to V) and coreless (empty intersection)."""
        union = 0
        inter = (1 << self.n) - 1
        for b in self.bodies:
            union |= b.mask
            inter &= b.mask
        return union == (1 << self.n) - 1 and inter == 0

    def psi(self) -> HornCNF:
        """The canonical representation: every body implies all other variables."""
        return HornCNF(
            self.n, (ClauseGroup(b, b.complement()) for b in self.bodies)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KeyHornInstance)
            and self.n == other.n
            and self.bodies == other.bodies
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bodies))

    def __repr__(self) -> str:
        return f"KeyHornInstance(n={self.n}, m={self.m}, k={self.k}, delta={self.delta})"
