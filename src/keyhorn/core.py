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
        # one pass over the binary digits, lowest first; peeling bits with
        # ``m & -m`` costs O(n) per set bit, quadratic on a wide dense set
        digits = bin(self.mask)[:1:-1]
        i = digits.find("1")
        while i >= 0:
            yield i + 1
            i = digits.find("1", i + 1)

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
        return len(self) == self.n

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


MEASURES: tuple[Measure, ...] = tuple(Measure)


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
    """Counter-based forward chaining over one formula (Dowling & Gallier
    1984).

    Building the variable-to-group incidence ``occ`` once lets many closures
    over the same formula run in time linear in the formula size each.  Each
    body has one group: heads added for a body already present join its
    slot.  ``sizes`` holds each group body's size, so a closure starts its
    counters by decrementing a copy of it along ``occ`` for the bits of z,
    not by counting every body outside z.
    """

    __slots__ = ("full_mask", "head_masks", "sizes", "occ", "slot")

    def __init__(self, phi: HornCNF):
        self.full_mask = (1 << phi.n) - 1
        self.head_masks: list[int] = []
        self.sizes: list[int] = []
        self.occ: dict[int, list[int]] = {}
        self.slot: dict[int, int] = {}  # body mask -> its group index
        for g in phi.groups:
            self.add_group(g.body.mask, g.heads.mask)

    def add_group(self, bmask: int, hmask: int) -> None:
        """Add the group ``bmask -> hmask`` (``bmask`` nonempty).  Closures
        stay unchanged only when the group is entailed by the formula."""
        gi = self.slot.get(bmask)
        if gi is not None:
            self.head_masks[gi] |= hmask
            return
        gi = self.slot[bmask] = len(self.sizes)
        self.head_masks.append(hmask)
        self.sizes.append(bmask.bit_count())
        while bmask:
            lsb = bmask & -bmask
            bmask ^= lsb
            self.occ.setdefault(lsb.bit_length(), []).append(gi)

    def closure_mask(self, zmask: int) -> int:
        # counts[gi] is the number of body variables of group gi not yet
        # reached; each reached bit, of z or of a fired group's new heads,
        # takes its count off once, and a group fires when its count reaches 0.
        occ = self.occ
        counts = self.sizes.copy()
        reached = zmask
        stack = [zmask]
        while stack:
            if reached == self.full_mask:
                return reached
            m = stack.pop()
            while m:
                lsb = m & -m
                m ^= lsb
                for gi in occ.get(lsb.bit_length(), ()):
                    counts[gi] -= 1
                    if counts[gi] == 0:
                        new = self.head_masks[gi] & ~reached
                        if new:
                            reached |= new
                            if reached == self.full_mask:
                                return reached
                            stack.append(new)
        return reached


class VerificationError(RuntimeError):
    """An emitted formula failed its forward-chaining check."""


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
    fam_masks = {b.mask for b in fam}
    for g in phi.groups:
        if g.body.mask in fam_masks:
            continue
        if not any(b.mask & ~g.body.mask == 0 for b in fam):
            return VerifyResult(False, bad_group=g)
    # Bodies are closed from last to first, and each one that reaches the
    # universe becomes the group ``b -> V \ b`` (in the slot of phi's group
    # on b, if there is one).  That group is entailed, so no closure changes,
    # but a later closure stops once it covers a proven body (a cycle formula
    # chains each body into the next one).  The body reported is still the
    # first failing one in family order.
    prop = _Propagator(phi)
    full = (1 << n) - 1
    bad = None
    for b in reversed(fam):
        cl = prop.closure_mask(b.mask)
        if cl == full:
            prop.add_group(b.mask, full ^ b.mask)
        else:
            bad = b, cl
    if bad is not None:
        return VerifyResult(False, bad_body=bad[0], closure=VarSet._raw(n, bad[1]))
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

    __slots__ = ("n", "bodies", "m", "k", "delta", "_graph_c")

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
                if a.mask & b.mask == a.mask:
                    raise ValueError(f"family is not Sperner: {a!r} inside {b!r}")
        self.n = n
        self.bodies = fam
        self.m = len(fam)
        self.k = max(len(b) for b in fam)
        self.delta = min(len(b) for b in fam)
        self._graph_c = None  # the C body graph, kept by ``graph.body_graph_c``

    @property
    def is_normalized(self) -> bool:
        """Covering (bodies union to V) and coreless (empty intersection)."""
        union = 0
        inter = self.bodies[0].mask
        for b in self.bodies:
            union |= b.mask
            inter &= b.mask
        return union.bit_count() == self.n and inter == 0

    def require_normalized(self) -> None:
        """Raise ``ValueError`` unless the instance ``is_normalized``."""
        if not self.is_normalized:
            raise ValueError("instance must be normalized (covering and coreless)")

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
