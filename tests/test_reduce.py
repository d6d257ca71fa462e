import random

import pytest

from keyhorn import (
    ClauseGroup,
    HornCNF,
    Measure,
    TrivialInstance,
    VarSet,
    hamiltonian_formula,
    lift,
    measure_size,
    minimize,
    normalize,
    sperner_minimal,
    verify_against_family,
)

from helpers import random_raw_family


class TestSpernerMinimal:
    def test_drops_supersets(self):
        fam = [VarSet(3, [1]), VarSet(3, [1, 2]), VarSet(3, [2, 3])]
        kept = sperner_minimal(fam)
        assert [sorted(b) for b in kept] == [[1], [2, 3]]

    def test_identity_on_sperner(self):
        fam = [VarSet(3, [1, 2]), VarSet(3, [2, 3])]
        assert set(sperner_minimal(fam)) == set(fam)

    def test_dedupes(self):
        fam = [VarSet(3, [1, 2]), VarSet(3, [1, 2])]
        assert len(sperner_minimal(fam)) == 1

    def test_idempotent_order_independent_covering(self):
        rng = random.Random(3)
        for _ in range(200):
            n, fam = random_raw_family(rng)
            kept = sperner_minimal(fam)
            assert sperner_minimal(kept) == kept
            shuffled = list(fam)
            rng.shuffle(shuffled)
            assert sperner_minimal(shuffled) == kept
            assert len(kept) <= len(set(fam))
            for b in fam:
                assert any(k.issubset(b) for k in kept)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            sperner_minimal([])
        with pytest.raises(ValueError):
            sperner_minimal([VarSet(2, [1, 2])])


class TestNormalize:
    def test_core_and_uncovered(self):
        inst, rec = normalize(4, [VarSet(4, [1, 2]), VarSet(4, [1, 3])])
        assert inst.n == 2 and inst.m == 2
        assert [sorted(b) for b in inst.bodies] == [[1], [2]]
        assert sorted(rec.removed_core) == [1]
        assert sorted(rec.uncovered) == [4]
        assert rec.var_map == (2, 3)

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
        phi = lift(HornCNF(0), exc.value.record, [VarSet(3, [1, 2])])
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
            phi = lift(HornCNF(0), rec, fam)
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
        lifted = lift(reduced, rec, fam)
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
        assert lift(phi, rec, fam) == phi

    def test_mismatched_record(self):
        fam = [VarSet(4, [1, 2]), VarSet(4, [1, 3])]
        _, rec = normalize(4, fam)
        wrong = HornCNF.of(3, [((1,), (2,))])
        with pytest.raises(ValueError):
            lift(wrong, rec, fam)

    def test_roundtrip_verifies_on_random_raw_families(self):
        rng = random.Random(5)
        measures = list(Measure)
        for i in range(300):
            n, fam = random_raw_family(rng)
            try:
                inst, rec = normalize(n, fam)
            except TrivialInstance as triv:
                phi = lift(HornCNF(0), triv.record, fam)
                assert verify_against_family(phi, n, fam)
                continue
            res = minimize(inst, measures[i % len(measures)])
            lifted = lift(res.formula, rec, fam)
            assert verify_against_family(lifted, n, fam)

    def test_lifted_sizes_account_for_core_and_uncovered(self):
        fam = [VarSet(6, [1, 2, 3]), VarSet(6, [1, 2, 4])]
        inst, rec = normalize(6, fam)
        res = minimize(inst, Measure.C)
        lifted = lift(res.formula, rec, fam)
        # two uncovered variables (5, 6) add one clause each
        assert measure_size(lifted, Measure.C) == res.size + 2
