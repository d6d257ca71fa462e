from fractions import Fraction

import pytest

from keyhorn import (
    KeyHornInstance,
    Measure,
    MEASURES,
    VarSet,
    guarantee_factor,
    hamiltonian_formula,
    lower_bound,
    lower_bound_partition_c,
    measure_size,
    minimize,
    minimize_all,
    procedure1,
    procedure2,
    verify_representation,
)

from keyhorn import approx, cli

from helpers import random_instances

TRIANGLE = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])])
SINGLETONS = KeyHornInstance(3, [VarSet(3, [1]), VarSet(3, [2]), VarSet(3, [3])])
PAIR = KeyHornInstance(2, [VarSet(2, [1]), VarSet(2, [2])])


class TestLowerBounds:
    def test_triangle(self):
        assert lower_bound(TRIANGLE, Measure.L) == 9
        assert lower_bound(TRIANGLE, Measure.C) == 3
        assert lower_bound(TRIANGLE, Measure.BC) == 6
        assert lower_bound(TRIANGLE, Measure.TA) == 6
        assert lower_bound(TRIANGLE, Measure.B) == 3
        assert lower_bound(TRIANGLE, Measure.BA) == 6

    def test_partition_examples(self):
        assert lower_bound_partition_c(SINGLETONS) == 3
        two = KeyHornInstance(4, [VarSet(4, [1, 2]), VarSet(4, [3, 4])])
        assert lower_bound_partition_c(two) == 4
        near = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3])])
        assert lower_bound_partition_c(near) == 2

    def test_partition_needs_two_bodies(self):
        single = KeyHornInstance(2, [VarSet(2, [1])])
        with pytest.raises(ValueError):
            lower_bound_partition_c(single)

    def test_c_includes_partition_bound(self):
        # the Fano lines meet pairwise in one point: partition bound 14 > m = n = 7
        fano = [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [1, 5, 6], [2, 6, 7], [1, 3, 7]]
        fano_inst = KeyHornInstance(7, [VarSet(7, line) for line in fano])
        assert lower_bound(fano_inst, Measure.C) == 14
        for inst in random_instances(40, 3100):
            want = max(inst.m, inst.n, lower_bound_partition_c(inst))
            assert lower_bound(inst, Measure.C) == want

    def test_requires_normalized(self):
        raw = KeyHornInstance(4, [VarSet(4, [1, 2]), VarSet(4, [1, 3])])
        with pytest.raises(ValueError):
            lower_bound(raw, Measure.C)


class TestHamiltonian:
    def test_triangle_cycle(self):
        phi = hamiltonian_formula(TRIANGLE)
        assert measure_size(phi, Measure.L) == 9
        assert measure_size(phi, Measure.TA) == 9
        assert measure_size(phi, Measure.C) == 3

    def test_two_bodies(self):
        phi = hamiltonian_formula(PAIR)
        assert [(sorted(g.body), sorted(g.heads)) for g in phi.groups] == [
            ([1], [2]),
            ([2], [1]),
        ]

    def test_total_area_bound(self):
        for inst in random_instances(60, 3300):
            phi = hamiltonian_formula(inst)
            assert measure_size(phi, Measure.TA) <= 2 * sum(len(b) for b in inst.bodies)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            hamiltonian_formula(TRIANGLE, order=[0, 1])
        with pytest.raises(ValueError):
            hamiltonian_formula(TRIANGLE, order=[0, 1, 1])

    def test_custom_order(self):
        phi = hamiltonian_formula(TRIANGLE, order=[2, 1, 0])
        assert verify_representation(phi, TRIANGLE)


class TestExactMeasures:
    def test_b_ba_sizes(self):
        res_b = minimize(SINGLETONS, Measure.B)
        assert res_b.size == 3 and res_b.guarantee == 1
        assert res_b.strategy == "exact"
        res_ba = minimize(TRIANGLE, Measure.BA)
        assert res_ba.size == 6 and res_ba.guarantee == 1


class TestProcedure1:
    def test_singletons(self):
        res = procedure1(SINGLETONS)
        assert res.size == 4  # the cycle does better with 3

    def test_triangle(self):
        res = procedure1(TRIANGLE)
        assert res.size == 3 and res.lower_bound == 3

    def test_pair(self):
        res = procedure1(PAIR)
        assert res.size == 2


class TestProcedure2:
    def test_triangle(self):
        res = procedure2(TRIANGLE)
        assert res.size == 9 and res.lower_bound == 9

    def test_pair(self):
        res = procedure2(PAIR)
        assert res.size == 4


class TestMinimize:
    def test_dispatch_examples(self):
        res_c = minimize(SINGLETONS, Measure.C)
        assert res_c.size == 3 and res_c.strategy == "hamiltonian"
        res_l = minimize(TRIANGLE, Measure.L)
        assert res_l.size == 9 and res_l.strategy == "procedure2"
        for inst in random_instances(10, 4400):
            assert minimize(inst, Measure.B).size == inst.m

    def test_guarantees_shape(self):
        assert guarantee_factor(TRIANGLE, Measure.L) == Fraction(2)  # k = 2
        big = KeyHornInstance(
            128,
            [VarSet(128, range(1, 65)), VarSet(128, range(65, 129))],
        )
        # k = 64: the logarithmic terms win over k
        assert guarantee_factor(big, Measure.L) == Fraction(108, 17) * 6 + 2
        assert guarantee_factor(big, Measure.C) == min(7 + 1, 6 + 2, 64)

    def test_results_verify_and_bound(self):
        from keyhorn import equivalent

        for inst in random_instances(40, 5500):
            psi = inst.psi()
            assert verify_representation(psi, inst)
            for mu in MEASURES:
                res = minimize(inst, mu)
                assert verify_representation(res.formula, inst)
                assert res.size == measure_size(res.formula, mu)
                assert res.lower_bound <= res.size
            # any verified representation defines the same function
            assert equivalent(minimize(inst, Measure.C).formula, psi)

    def test_minimize_all_matches_minimize(self):
        for inst in random_instances(30, 6600):
            allres = minimize_all(inst)
            for mu in MEASURES:
                single = minimize(inst, mu)
                combined = allres[mu]
                assert combined.size == single.size
                assert combined.strategy == single.strategy
                assert combined.lower_bound == single.lower_bound
                assert combined.formula == single.formula

    def test_best_of_never_worse_than_candidates(self):
        for inst in random_instances(30, 7700):
            for mu in (Measure.C, Measure.BC):
                assert minimize(inst, mu).size <= procedure1(inst, mu).size
                ham = hamiltonian_formula(inst)
                assert minimize(inst, mu).size <= measure_size(ham, mu)
            assert minimize(inst, Measure.L).size <= procedure2(inst).size


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestCandidateTable:
    def test_cycle_measures_build_no_procedure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("B, BA and TA need only the cycle")

        monkeypatch.setattr(approx, "procedure1", boom)
        monkeypatch.setattr(approx, "procedure2", boom)
        for inst in random_instances(10, 3200):
            for mu in (Measure.B, Measure.BA, Measure.TA):
                assert verify_representation(minimize(inst, mu).formula, inst)

    def test_each_candidate_built_once_per_instance(self, monkeypatch):
        names = ("hamiltonian_formula", "procedure1", "procedure2", "lower_bound_partition_c")
        calls = {name: _counting(monkeypatch, approx, name) for name in names}
        minimize_all(random_instances(1, 3300)[0])
        for name in ("hamiltonian_formula", "procedure1", "procedure2"):
            assert len(calls[name]) == 1
        # once in procedure1 and once for the table's C bound, no more
        assert len(calls["lower_bound_partition_c"]) <= 2

    def test_forced_cycle_for_all_measures_builds_it_once(self, tmp_path, monkeypatch, capsys):
        inst = random_instances(1, 3400)[0]
        path = tmp_path / "r.bodies"
        path.write_text(cli.write_bodies(inst.n, inst.bodies))
        calls = _counting(monkeypatch, approx, "hamiltonian_formula")
        argv = ["minimize", "--in", str(path), "--measure", "all", "--strategy", "hamiltonian"]
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_score_rejects_measures_a_procedure_does_not_target(self):
        table = approx.CandidateTable(TRIANGLE)
        with pytest.raises(ValueError):
            table.score("procedure1", Measure.L)
        with pytest.raises(ValueError):
            table.score("procedure2", Measure.C)
