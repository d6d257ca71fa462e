import random

import pytest

from keyhorn import (
    ClauseGroup,
    HornCNF,
    KeyHornInstance,
    MEASURES,
    Measure,
    TrivialInstance,
    UniverseMismatchError,
    VarSet,
    canonical_sorted,
    hamiltonian_formula,
    lift,
    measure_size,
    minimize,
    normalize,
    verify_against_family,
)
from keyhorn.approx import CandidateTable

from helpers import random_raw_family, ref_lift


def raw_family_with_core(rng: random.Random) -> tuple[int, list[VarSet]]:
    """Raw family over a shared core, leaving some variables uncovered,
    with duplicates and strict supersets; a single body in one draw of five."""
    n = rng.randint(2, 9)
    order = rng.sample(range(1, n + 1), n)
    ncore = rng.randint(0, min(2, n - 2))
    nunc = rng.randint(0, min(2, n - ncore - 1))
    core, free = order[:ncore], order[ncore + nunc :]
    # with nothing uncovered, one free variable stays out so no body is full
    most = len(free) - (nunc == 0)
    fam = [
        VarSet(n, core + rng.sample(free, rng.randint(1, most)))
        for _ in range(1 if rng.random() < 0.2 else rng.randint(2, 5))
    ]
    for b in list(fam):
        rest = sorted(b.complement())
        if len(rest) > 1 and rng.random() < 0.5:
            fam.append(b | VarSet(n, [rng.choice(rest)]))
        if rng.random() < 0.3:
            fam.append(b)
    rng.shuffle(fam)
    return n, fam


class TestSpernerMinimal:
    """The instance keeps a family's inclusion-minimal bodies, the family
    ``normalize`` starts from."""

    def test_drops_supersets(self):
        fam = [VarSet(3, [1]), VarSet(3, [1, 2]), VarSet(3, [2, 3])]
        kept = KeyHornInstance(3, fam).bodies
        assert [sorted(b) for b in kept] == [[1], [2, 3]]

    def test_identity_on_sperner(self):
        fam = [VarSet(3, [1, 2]), VarSet(3, [2, 3])]
        assert set(KeyHornInstance(3, fam).bodies) == set(fam)

    def test_dedupes(self):
        fam = [VarSet(3, [1, 2]), VarSet(3, [1, 2])]
        assert len(KeyHornInstance(3, fam).bodies) == 1

    def test_idempotent_order_independent_covering(self):
        rng = random.Random(3)
        for _ in range(200):
            n, fam = random_raw_family(rng)
            kept = KeyHornInstance(n, fam).bodies
            assert KeyHornInstance(n, kept).bodies == kept
            shuffled = list(fam)
            rng.shuffle(shuffled)
            assert KeyHornInstance(n, shuffled).bodies == kept
            assert len(kept) <= len(set(fam))
            for b in fam:
                assert any(k.issubset(b) for k in kept)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            KeyHornInstance(2, [])
        with pytest.raises(ValueError):
            KeyHornInstance(2, [VarSet(2, [1, 2])])

    @pytest.mark.parametrize(
        "fam, message",
        [
            ([], "body family must be nonempty"),
            ([VarSet(3, [1]), VarSet(3)], "bodies must be nonempty"),
            ([VarSet(3, [1]), VarSet(3, [1, 2, 3])], "no body may equal the full variable set"),
        ],
        ids=["empty-family", "empty-body", "full-body"],
    )
    def test_checks_the_family_as_the_instance_does(self, fam, message):
        # normalize checks the family through the instance it starts from
        with pytest.raises(ValueError) as via_normalize:
            normalize(3, fam)
        with pytest.raises(ValueError) as via_instance:
            KeyHornInstance(3, fam)
        assert str(via_normalize.value) == str(via_instance.value) == message


class TestNormalize:
    def test_body_over_another_universe_is_reported_after_the_family_checks(self):
        with pytest.raises(UniverseMismatchError, match="body over universe 4, instance over 3"):
            normalize(3, [VarSet(4, [1]), VarSet(4, [2])])
        with pytest.raises(ValueError, match="no body may equal the full variable set"):
            normalize(3, [VarSet(4, [1]), VarSet(4, [1, 2, 3, 4])])

    def test_core_and_uncovered(self):
        inst, rec = normalize(4, [VarSet(4, [1, 2]), VarSet(4, [1, 3])])
        assert inst.n == 2 and inst.m == 2
        assert [sorted(b) for b in inst.bodies] == [[1], [2]]
        assert sorted(rec.removed_core) == [1]
        assert sorted(rec.uncovered) == [4]
        assert rec.var_map == (2, 3)
        assert rec.anchor == VarSet(4, [1, 2])

    def test_identity_on_normalized(self):
        fam = [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])]
        inst, rec = normalize(3, fam)
        assert not rec.removed_core and not rec.uncovered
        assert rec.var_map == (1, 2, 3)
        assert set(inst.bodies) == set(fam)

    def test_trivial_single_body(self):
        with pytest.raises(TrivialInstance) as exc:
            normalize(3, [VarSet(3, [1, 2])])
        assert sorted(exc.value.record.removed_core) == [1, 2]
        phi = lift(HornCNF(0), exc.value.record)
        assert [(sorted(g.body), sorted(g.heads)) for g in phi.groups] == [([1, 2], [3])]

    def test_single_body_lifts_the_empty_formula(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(2, 8)
            body = VarSet(n, rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            rest = sorted(body.complement())
            # duplicates and strict, non-full supersets of the one minimal body
            fam = [body] * rng.randint(1, 3) + [
                body | VarSet(n, rng.sample(rest, rng.randint(1, len(rest) - 1)))
                for _ in range(rng.randint(0, 3) if len(rest) > 1 else 0)
            ]
            rng.shuffle(fam)
            with pytest.raises(TrivialInstance) as exc:
                normalize(n, fam)
            assert str(exc.value) == f"single-body family over {n} variables"
            rec = exc.value.record
            assert rec.removed_core == body and rec.original_n == n
            assert rec.uncovered == body.complement() and rec.var_map == ()
            phi = lift(HornCNF(0), rec)
            assert phi == HornCNF(n, [ClauseGroup(body, body.complement())])
            assert verify_against_family(phi, n, fam)

    def test_duplicate_collapse_to_trivial(self):
        with pytest.raises(TrivialInstance):
            normalize(3, [VarSet(3, [1, 2]), VarSet(3, [1, 2])])

    def test_output_always_normalized(self):
        rng = random.Random(4)
        for _ in range(300):
            n, fam = random_raw_family(rng)
            try:
                inst, _ = normalize(n, fam)
            except TrivialInstance:
                continue
            assert inst.is_normalized


class TestLift:
    def test_uncovered_clause_uses_smallest_body(self):
        fam = [VarSet(4, [1, 2]), VarSet(4, [1, 3])]
        inst, rec = normalize(4, fam)
        reduced = hamiltonian_formula(inst)
        lifted = lift(reduced, rec)
        pairs = [(sorted(g.body), sorted(g.heads)) for g in lifted.groups]
        # {1,2} is the smallest original body, so it carries the clause for
        # the uncovered variable 4 (merged with its cycle heads)
        assert ([1, 2], [3, 4]) in pairs
        assert ([1, 3], [2]) in pairs
        assert verify_against_family(lifted, 4, fam)

    def test_identity_record_is_noop(self):
        fam = [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])]
        inst, rec = normalize(3, fam)
        phi = hamiltonian_formula(inst)
        assert lift(phi, rec) == phi

    def test_mismatched_record(self):
        fam = [VarSet(4, [1, 2]), VarSet(4, [1, 3])]
        _, rec = normalize(4, fam)
        wrong = HornCNF.of(3, [((1,), (2,))])
        with pytest.raises(ValueError):
            lift(wrong, rec)

    def test_roundtrip_verifies_on_random_raw_families(self):
        rng = random.Random(5)
        measures = list(Measure)
        for i in range(300):
            n, fam = random_raw_family(rng)
            try:
                inst, rec = normalize(n, fam)
            except TrivialInstance as triv:
                phi = lift(HornCNF(0), triv.record)
                assert verify_against_family(phi, n, fam)
                continue
            res = minimize(inst, measures[i % len(measures)])
            lifted = lift(res.formula, rec)
            assert verify_against_family(lifted, n, fam)

    def test_matches_reference_lift_on_raw_families(self):
        # the record's anchor replaces the reference's scan of the raw family
        rng = random.Random(23)
        seen = {"trivial": 0, "core": 0, "uncovered": 0, "dropped": 0}
        for _ in range(500):
            n, fam = raw_family_with_core(rng)
            try:
                inst, rec = normalize(n, fam)
                table = CandidateTable(inst)
                formulas = [HornCNF(inst.n)] + [table.best(mu).formula for mu in MEASURES]
            except TrivialInstance as triv:
                rec, formulas = triv.record, [HornCNF(0)]
                seen["trivial"] += 1
            seen["core"] += bool(rec.removed_core)
            seen["uncovered"] += bool(rec.uncovered)
            seen["dropped"] += len(set(fam)) < len(fam) or KeyHornInstance(n, fam).m < len(set(fam))
            assert rec.anchor == canonical_sorted(fam)[0]
            for phi in formulas:
                assert lift(phi, rec) == ref_lift(phi, rec, fam)
        assert min(seen.values()) >= 50, seen

    def test_matches_per_element_maps_on_wide_gapped_universes(self):
        # many words wide, uncovered variables at both ends, a core, and
        # uncovered gaps that split the kept variables into many runs
        rng = random.Random(32)
        for _ in range(40):
            n, lo, hi = rng.randint(150, 600), rng.randint(1, 5), rng.randint(1, 5)
            middle = range(lo + 1, n - hi + 1)
            core = rng.sample(middle, rng.randint(1, 3))
            rest = [v for v in middle if v not in core]
            fam = [VarSet(n, core + rng.sample(rest, rng.randint(3, 12))) for _ in range(6)]
            inst, rec = normalize(n, fam)
            vm = rec.var_map
            assert rec.removed_core and vm[0] > lo and vm[-1] <= n - hi
            assert sum(b - a > 1 for a, b in zip(vm, vm[1:])) >= 5
            pos = {v: i + 1 for i, v in enumerate(vm)}
            minimal = KeyHornInstance(n, fam).bodies
            by_element = [VarSet(inst.n, (pos[v] for v in b if v in pos)) for b in minimal]
            assert inst.bodies == KeyHornInstance(inst.n, by_element).bodies
            canonical = HornCNF(inst.n, [ClauseGroup(b, b.complement()) for b in inst.bodies])
            table = CandidateTable(inst)
            for phi in [canonical] + [table.best(mu).formula for mu in MEASURES]:
                assert lift(phi, rec) == ref_lift(phi, rec, fam)

    def test_lifted_sizes_account_for_core_and_uncovered(self):
        fam = [VarSet(6, [1, 2, 3]), VarSet(6, [1, 2, 4])]
        inst, rec = normalize(6, fam)
        res = minimize(inst, Measure.C)
        lifted = lift(res.formula, rec)
        # two uncovered variables (5, 6) add one clause each
        assert measure_size(lifted, Measure.C) == res.size + 2
