import random

import pytest

from keyhorn import (
    KeyHornInstance,
    Measure,
    MEASURES,
    NoBodyInSourceError,
    SearchLimitError,
    VarSet,
    cost_l,
    cost_lemma_check,
    forward_chain,
    lambda_formula,
    lower_bound,
    measure_size,
    minimize,
    opt_exact,
    opt_exact_all,
    price_l_exact,
    verify_representation,
)

from keyhorn import exact

from helpers import random_instances, random_subset

TRIANGLE = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])])
SINGLETONS = KeyHornInstance(3, [VarSet(3, [1]), VarSet(3, [2]), VarSet(3, [3])])


class TestCostL:
    def test_one_step(self):
        assert cost_l([VarSet(3, [1, 2]), VarSet(3, [3])]) == 3

    def test_two_steps(self):
        seq = [VarSet(4, [1, 2]), VarSet(4, [2, 3]), VarSet(4, [4])]
        assert cost_l(seq) == 6

    def test_nothing_new(self):
        assert cost_l([VarSet(3, [1]), VarSet(3, [1])]) == 0

    def test_singleton_sequence(self):
        assert cost_l([VarSet(3, [1, 2])]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cost_l([])


class TestCostLemma:
    def test_degenerate_equal_sets(self):
        a = VarSet(6, [1, 2, 3])
        c = VarSet(6, [4, 5])
        assert cost_lemma_check(a, a, c)

    def test_target_inside_source(self):
        a = VarSet(6, [1, 2, 3])
        b = VarSet(6, [4, 5])
        c = VarSet(6, [1, 2])
        assert cost_lemma_check(a, b, c)

    def test_random_triples(self):
        rng = random.Random(21)
        for _ in range(2000):
            n = rng.randint(1, 10)
            a, b, c = (random_subset(rng, n) for _ in range(3))
            assert cost_lemma_check(a, b, c)


class TestPriceLExact:
    def test_detour_example(self):
        inst = KeyHornInstance(8, [VarSet(8, [1, 2, 3, 4]), VarSet(8, [5])])
        assert price_l_exact(inst, VarSet(8, [1, 2, 3, 4]), VarSet(8, [6, 7, 8])) == 11

    def test_target_inside_source(self):
        assert price_l_exact(TRIANGLE, VarSet(3, [1, 2]), VarSet(3, [1])) == 0

    def test_triangle_direct(self):
        assert price_l_exact(TRIANGLE, VarSet(3, [1, 2]), VarSet(3, [2, 3])) == 3

    def test_no_body_in_source(self):
        with pytest.raises(NoBodyInSourceError):
            price_l_exact(TRIANGLE, VarSet(3, [1]), VarSet(3, [2]))

    def test_cap(self):
        inst = KeyHornInstance(6, [VarSet(6, [i]) for i in range(1, 6)])
        with pytest.raises(SearchLimitError):
            price_l_exact(inst, VarSet(6, [1]), VarSet(6, [6]), max_bodies=4)

    def test_sandwich_against_lambda(self):
        rng = random.Random(22)
        for inst in random_instances(40, 8800, n_range=(3, 7), m_range=(2, 5)):
            bi = rng.randrange(inst.m)
            s = inst.bodies[bi] | random_subset(rng, inst.n)
            s2 = random_subset(rng, inst.n)
            lam = lambda_formula(inst, s, s2)
            exact = price_l_exact(inst, s, s2)
            assert exact <= lam.weight
            assert 17 * lam.weight <= 54 * exact

    def test_matches_definition_level_brute_force(self):
        # enumerate every clause subset over the instance's bodies, keep the
        # ones whose chaining from s covers s2, take the cheapest literal
        # count; the chain DP must agree exactly
        import itertools

        from keyhorn import ClauseGroup, HornCNF

        rng = random.Random(24)
        checked = 0
        for inst in random_instances(60, 7777, n_range=(3, 4), m_range=(2, 3)):
            cands = [
                (i, v)
                for i, b in enumerate(inst.bodies)
                for v in range(1, inst.n + 1)
                if v not in b
            ]
            if len(cands) > 10:
                continue
            bi = rng.randrange(inst.m)
            s = inst.bodies[bi] | random_subset(rng, inst.n)
            s2 = random_subset(rng, inst.n)
            best = None
            for r in range(len(cands) + 1):
                for combo in itertools.combinations(cands, r):
                    groups = [
                        ClauseGroup(inst.bodies[i], VarSet(inst.n, [v]))
                        for i, v in combo
                    ]
                    phi = HornCNF(inst.n, groups)
                    if s2.issubset(forward_chain(phi, s)):
                        cost = measure_size(phi, Measure.L)
                        if best is None or cost < best:
                            best = cost
            assert best is not None  # s contains a body, so the full set works
            assert price_l_exact(inst, s, s2) == best
            checked += 1
        assert checked >= 30

    def test_beats_random_feasible_chains(self):
        rng = random.Random(23)
        for inst in random_instances(30, 9900, n_range=(3, 6), m_range=(2, 4)):
            s = inst.bodies[0] | random_subset(rng, inst.n)
            s2 = random_subset(rng, inst.n)
            exact = price_l_exact(inst, s, s2)
            # any random chain of bodies ending at the target costs at least as much
            for _ in range(5):
                perm = list(range(inst.m))
                rng.shuffle(perm)
                seq = [s] + [inst.bodies[i] for i in perm] + [s2]
                assert exact <= cost_l(seq)


class TestOptExact:
    def test_triangle_all_measures(self):
        res = opt_exact_all(TRIANGLE)
        expected = {
            Measure.B: 3,
            Measure.BA: 6,
            Measure.TA: 9,
            Measure.C: 3,
            Measure.BC: 6,
            Measure.L: 9,
        }
        for mu, want in expected.items():
            assert res[mu].size == want and res[mu].optimal

    def test_singletons_c(self):
        res = opt_exact(SINGLETONS, Measure.C)
        assert res.size == 3
        assert verify_representation(res.formula, SINGLETONS)

    def test_witness_verifies_and_matches(self):
        for inst in random_instances(25, 1234):
            for mu in (Measure.C, Measure.L):
                res = opt_exact(inst, mu)
                assert res.optimal
                assert verify_representation(res.formula, inst)
                assert measure_size(res.formula, mu) == res.size

    def test_b_ba_closed_forms(self):
        for inst in random_instances(25, 2345):
            assert opt_exact(inst, Measure.B).size == inst.m
            assert opt_exact(inst, Measure.BA).size == sum(len(b) for b in inst.bodies)

    def test_respects_lower_bounds_and_minimize(self):
        for inst in random_instances(40, 3456):
            opts = opt_exact_all(inst)
            for mu in MEASURES:
                assert lower_bound(inst, mu) <= opts[mu].size
                assert opts[mu].size <= minimize(inst, mu).size

    def test_candidate_cap(self):
        inst = KeyHornInstance(
            8, [VarSet(8, [1, 2]), VarSet(8, [3, 4]), VarSet(8, [5, 6]), VarSet(8, [7, 8])]
        )
        with pytest.raises(SearchLimitError):
            opt_exact(inst, Measure.C, max_candidates=10)

    def test_timeout_returns_flagged_upper_bound(self):
        inst = KeyHornInstance(
            6, [VarSet(6, [1, 2]), VarSet(6, [3, 4]), VarSet(6, [5, 6])]
        )
        res = opt_exact(inst, Measure.C, timeout=-1.0)
        assert not res.optimal
        assert verify_representation(res.formula, inst)
        true_opt = opt_exact(inst, Measure.C).size
        assert res.size >= true_opt

    @pytest.mark.parametrize(
        "run, searches",
        [
            (lambda inst: opt_exact(inst, Measure.L), [Measure.L]),
            (lambda inst: opt_exact(inst, Measure.C), [Measure.C]),
            (lambda inst: opt_exact(inst, Measure.B), [Measure.C]),
            (opt_exact_all, [Measure.C, Measure.L]),
        ],
        ids=["L", "C", "B", "all"],
    )
    def test_runs_only_the_searches_its_measures_need(self, monkeypatch, run, searches):
        calls = []
        real = exact._search_weighted

        def counted(inst, weights, seed_mu, deadline):
            calls.append(seed_mu)
            return real(inst, weights, seed_mu, deadline)

        monkeypatch.setattr(exact, "_search_weighted", counted)
        run(TRIANGLE)
        assert calls == searches
