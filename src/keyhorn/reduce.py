"""Normalization of raw body families and lifting of solutions back.

Minimization only ever needs the inclusion-minimal bodies, a covering body
union and an empty body intersection.  ``normalize`` enforces all three and
records what was stripped so ``lift`` can translate a formula found on the
reduced instance back to the original variables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import ClauseGroup, HornCNF, KeyHornInstance, VarSet


@dataclass(frozen=True)
class NormalizationRecord:
    """What ``normalize`` stripped, in original variable ids.

    ``var_map[i-1]`` is the original id of reduced variable ``i``;
    ``removed_core`` lists variables shared by all minimal bodies and
    ``uncovered`` those missing from their union.  ``anchor`` is the
    canonically least minimal body, which ``lift`` hangs ``uncovered`` off.
    """

    removed_core: VarSet
    uncovered: VarSet
    var_map: tuple[int, ...]
    anchor: VarSet

    @property
    def original_n(self) -> int:
        return self.removed_core.n

    @cached_property
    def _runs(self) -> tuple[list[int], list[int], list[int]]:
        """``var_map``'s runs of consecutive ids as three lists, lowest run
        first: first original bits, first reduced bits and lengths.  Since
        ``var_map[j] - j`` is constant on a run, bisection finds its end."""
        vm, orig, red, lengths, r = self.var_map, [], [], [], 0
        while r < len(vm):
            end = bisect_right(range(len(vm)), vm[r] - r, lo=r, key=lambda j: vm[j] - j)
            orig.append(vm[r] - 1)
            red.append(r)
            lengths.append(end - r)
            r = end
        return orig, red, lengths


class TrivialInstance(Exception):
    """Single-body family: removing the core empties the body.

    Normalized, the family is one empty body over no variables, so its one
    representation is the empty formula; ``lift`` of that under ``record``
    is ``body -> complement``, which is optimal under all six measures.
    """

    def __init__(self, record: NormalizationRecord):
        super().__init__(f"single-body family over {record.original_n} variables")
        self.record = record


def _remap(mask: int, src: list[int], dst: list[int], lengths: list[int]) -> int:
    """``mask``, each of whose set bits lies in a run, with every run moved
    from its ``src`` bit to its ``dst`` bit.  Each step moves the run of the
    lowest bit left with a few big-int operations, so a set costs one step
    per run it meets, however long the runs are, for any n."""
    out = 0
    while mask:
        low = (mask & -mask).bit_length() - 1
        k = bisect_right(src, low) - 1
        assert src[k] <= low < src[k] + lengths[k], f"bit {low} lies in no run"
        run = ((1 << lengths[k]) - 1) << src[k]
        out |= (mask & run) >> src[k] << dst[k]
        mask &= ~run
    return out


def normalize(n: int, bodies: Iterable[VarSet]) -> tuple[KeyHornInstance, NormalizationRecord]:
    """Reduce a raw family to minimal bodies over a dense covering universe.

    Drops non-minimal bodies, deletes the shared core from every body and
    from the universe, drops variables no body covers, and remaps the rest
    to 1..n'.  Raises :class:`TrivialInstance`, which carries the record,
    when only one minimal body remains (its core removal would empty it).
    """
    minimal = KeyHornInstance(n, bodies).bodies

    core = (1 << n) - 1
    union = 0
    for b in minimal:
        core &= b.mask
        union |= b.mask
    uncovered_mask = ((1 << n) - 1) & ~union
    kept_mask = union & ~core
    var_map = tuple(VarSet._raw(n, kept_mask))
    rec = NormalizationRecord(
        removed_core=VarSet._raw(n, core),
        uncovered=VarSet._raw(n, uncovered_mask),
        var_map=var_map,
        anchor=minimal[0],
    )
    if len(minimal) == 1:
        raise TrivialInstance(rec)
    (orig, red, lengths), n_red = rec._runs, len(var_map)
    reduced = [VarSet._raw(n_red, _remap(b.mask & ~core, orig, red, lengths)) for b in minimal]
    inst = KeyHornInstance(n_red, reduced)
    assert inst.is_normalized
    return inst, rec


def lift(phi_reduced: HornCNF, rec: NormalizationRecord) -> HornCNF:
    """Translate a formula on the reduced instance back to original ids.

    Core variables rejoin every body; the uncovered variables become the
    heads of one group whose body is the record's ``anchor``, the smallest
    minimal body (lexicographic tie-break), which minimizes the area and
    literal cost of the addition.
    """
    if phi_reduced.n != len(rec.var_map):
        raise ValueError(
            f"formula universe {phi_reduced.n} does not match the record's "
            f"{len(rec.var_map)} reduced variables"
        )
    n, core = rec.original_n, rec.removed_core
    orig, red, lengths = rec._runs

    def unmap(s: VarSet) -> VarSet:
        return VarSet._raw(n, _remap(s.mask, red, orig, lengths))

    groups = [
        ClauseGroup(unmap(g.body) | core, unmap(g.heads)) for g in phi_reduced.groups
    ]
    if rec.uncovered:
        groups.append(ClauseGroup(rec.anchor, rec.uncovered))
    return HornCNF(n, groups)
