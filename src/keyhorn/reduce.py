"""Normalization of raw body families and lifting of solutions back.

Minimization only ever needs the inclusion-minimal bodies, a covering body
union and an empty body intersection.  ``normalize`` enforces all three and
records what was stripped so ``lift`` can translate a formula found on the
reduced instance back to the original variables.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class TrivialInstance(Exception):
    """Single-body family: removing the core empties the body.

    Normalized, the family is one empty body over no variables, so its one
    representation is the empty formula; ``lift`` of that under ``record``
    is ``body -> complement``, which is optimal under all six measures.
    """

    def __init__(self, record: NormalizationRecord):
        super().__init__(f"single-body family over {record.original_n} variables")
        self.record = record


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
    pos = {orig: i + 1 for i, orig in enumerate(var_map)}
    n_red = len(var_map)

    reduced = [
        VarSet(n_red, (pos[v] for v in b if pos.get(v) is not None))
        for b in minimal
    ]
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
    n = rec.original_n
    core = rec.removed_core

    def unmap(s: VarSet) -> VarSet:
        return VarSet(n, (rec.var_map[v - 1] for v in s))

    groups = [
        ClauseGroup(unmap(g.body) | core, unmap(g.heads)) for g in phi_reduced.groups
    ]
    if rec.uncovered:
        groups.append(ClauseGroup(rec.anchor, rec.uncovered))
    return HornCNF(n, groups)
