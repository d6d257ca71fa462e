import random
from fractions import Fraction

import pytest

from keyhorn import (
    KeyHornInstance,
    Measure,
    MEASURES,
    VarSet,
    body_graph_c,
    guarantee_factor,
    hamiltonian_formula,
    lower_bound,
    lower_bound_partition_c,
    measure_size,
    minimize,
    minimize_all,
    opt_exact_all,
    procedure1,
    procedure2,
    verify_representation,
)

from keyhorn import approx, cli
from keyhorn.exact import MAX_CANDIDATES

from helpers import (
    c_graph_builds,
    counting,
    equivalent,
    psi,
    random_instances,
    random_sperner_instance,
    ref_lower_bound_partition_c,
)

TRIANGLE = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])])
SINGLETONS = KeyHornInstance(3, [VarSet(3, [1]), VarSet(3, [2]), VarSet(3, [3])])
PAIR = KeyHornInstance(2, [VarSet(2, [1]), VarSet(2, [2])])
# k = 64: the logarithmic terms win over k
HALVES = KeyHornInstance(128, [VarSet(128, range(1, 65)), VarSet(128, range(65, 129))])


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

    def test_partition_is_the_c_graph_row_minima(self):
        rng = random.Random(3150)
        for _ in range(300):
            inst = random_sperner_instance(rng, rng.randint(3, 12), rng.randint(2, 9))
            if inst.m < 2:
                continue
            g = body_graph_c(inst)
            minima = sum(
                min(w for j, w in enumerate(row) if j != i) for i, row in enumerate(g.weight)
            )
            want = ref_lower_bound_partition_c(inst)
            assert lower_bound_partition_c(inst) == want
            assert minima == want

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


class TestExactMeasures:
    def test_b_ba_sizes(self):
        res_b = minimize(SINGLETONS, Measure.B)
        assert res_b.size == 3 and res_b.guarantee == 1
        assert res_b.strategy == "exact"
        res_ba = minimize(TRIANGLE, Measure.BA)
        assert res_ba.size == 6 and res_ba.guarantee == 1


class TestProcedure1:
    def test_singletons(self):
        assert measure_size(procedure1(SINGLETONS), Measure.C) == 4  # the cycle does better with 3

    def test_triangle(self):
        assert measure_size(procedure1(TRIANGLE), Measure.C) == 3
        assert lower_bound(TRIANGLE, Measure.C) == 3

    def test_pair(self):
        assert measure_size(procedure1(PAIR), Measure.C) == 2


class TestProcedure2:
    def test_triangle(self):
        assert measure_size(procedure2(TRIANGLE), Measure.L) == 9
        assert lower_bound(TRIANGLE, Measure.L) == 9

    def test_pair(self):
        assert measure_size(procedure2(PAIR), Measure.L) == 4


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
        assert guarantee_factor(HALVES, Measure.L) == Fraction(108, 17) * 6 + 2
        assert guarantee_factor(HALVES, Measure.C) == min(7 + 1, 6 + 2, 64)
        # k = 1: the cycle's k term wins over Procedure 1's factor 2
        assert guarantee_factor(SINGLETONS, Measure.C) == 1
        table = approx.CandidateTable(SINGLETONS)
        assert table.score("hamiltonian", Measure.C).guarantee == 1
        assert table.score("procedure1", Measure.C).guarantee == 2
        with pytest.raises(ValueError, match="unknown measure 'C'"):
            guarantee_factor(SINGLETONS, "C")

    def test_results_verify_and_bound(self):
        for inst in random_instances(40, 5500):
            canonical = psi(inst.n, inst.bodies)
            assert verify_representation(canonical, inst)
            for mu in MEASURES:
                res = minimize(inst, mu)
                assert verify_representation(res.formula, inst)
                assert res.size == measure_size(res.formula, mu)
                assert res.lower_bound <= res.size
            # any verified representation defines the same function
            assert equivalent(minimize(inst, Measure.C).formula, canonical)

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
                assert minimize(inst, mu).size <= measure_size(procedure1(inst), mu)
                ham = hamiltonian_formula(inst)
                assert minimize(inst, mu).size <= measure_size(ham, mu)
            assert minimize(inst, Measure.L).size <= measure_size(procedure2(inst), Measure.L)


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
        calls = {name: counting(monkeypatch, approx, name) for name in names}
        builds = c_graph_builds(monkeypatch)
        inst, fresh = random_instances(2, 3300)
        minimize_all(inst)
        for name in ("hamiltonian_formula", "procedure1", "procedure2"):
            assert len(calls[name]) == 1
        # once, for the table's C bound
        assert len(calls["lower_bound_partition_c"]) == 1
        # Procedure 1, the partition bound and Procedure 2's L graph share it
        assert builds == [inst]
        minimize(fresh, Measure.B)
        assert builds == [inst]

    def test_forced_cycle_for_all_measures_builds_it_once(self, tmp_path, monkeypatch, capsys):
        inst = random_instances(1, 3400)[0]
        path = tmp_path / "r.bodies"
        path.write_text(cli.write_bodies(inst.n, inst.bodies))
        calls = counting(monkeypatch, approx, "hamiltonian_formula")
        argv = ["minimize", "--in", str(path), "--measure", "all", "--strategy", "hamiltonian"]
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_every_score_meets_its_own_guarantee(self):
        # five singletons: Procedure 1 emits 8 clauses against the optimum 5,
        # within its own factor 2 but not the cycle's k = 1
        singletons5 = KeyHornInstance(5, [VarSet(5, [v]) for v in range(1, 6)])
        assert measure_size(procedure1(singletons5), Measure.C) == 8
        drawn = [singletons5] + random_instances(150, 3600, (5, 8), (3, 6), (2, 5))
        for inst in drawn:
            if sum(inst.n - len(b) for b in inst.bodies) > MAX_CANDIDATES:
                continue
            opts = opt_exact_all(inst)
            table = approx.CandidateTable(inst)
            for strategy, targets in approx.STRATEGY_TARGETS.items():
                for mu in targets:
                    res = table.score(strategy, mu)
                    # size / opt <= guarantee, cross-multiplied
                    g = res.guarantee
                    assert res.size * g.denominator <= opts[mu].size * g.numerator, (strategy, mu)
            for mu in MEASURES:
                best = table.best(mu)
                assert best.guarantee == guarantee_factor(inst, mu)

    def test_guarantee_and_best_derive_from_scores(self):
        # the guarantee table has one source, each construction's own factor:
        # minimize's factor is the least one built for the measure, and best
        # is the smallest candidate, ties to the arborescence construction
        ties = 0
        for inst in [HALVES] + random_instances(60, 3700):
            table = approx.CandidateTable(inst)
            for mu in MEASURES:
                scored = [
                    table.score(s, mu)
                    for s, targets in approx.STRATEGY_TARGETS.items()
                    if mu in targets
                ]
                assert guarantee_factor(inst, mu) == min(r.guarantee for r in scored)
                size = min(r.size for r in scored)
                tied = [r for r in scored if r.size == size]
                ties += len(tied) > 1
                want = [r for r in tied if r.strategy != "hamiltonian"] or tied
                best = table.best(mu)
                assert (best.size, best.formula) == (size, want[0].formula)
                assert best.strategy in (want[0].strategy, "exact")
        assert ties > 0

    def test_score_rejects_measures_a_procedure_does_not_target(self):
        table = approx.CandidateTable(TRIANGLE)
        with pytest.raises(ValueError):
            table.score("procedure1", Measure.L)
        with pytest.raises(ValueError):
            table.score("procedure2", Measure.C)
