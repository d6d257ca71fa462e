import random

import pytest

from keyhorn import (
    KeyHornInstance,
    Measure,
    MEASURES,
    NoBodyInSourceError,
    SearchLimitError,
    VarSet,
    lambda_formula,
    lower_bound,
    measure_size,
    minimize,
    normalize,
    opt_exact_all,
    price_l_exact,
    verify_representation,
)

from keyhorn import ClauseGroup, HornCNF, approx, exact
from keyhorn.cli import parse_bodies

from helpers import (
    RefClauseSearch,
    c_graph_builds,
    cost_l,
    cost_lemma_check,
    counting,
    forward_chain_trace,
    random_instances,
    random_subset,
)

TRIANGLE = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])])
SINGLETONS = KeyHornInstance(3, [VarSet(3, [1]), VarSet(3, [2]), VarSet(3, [3])])
# families whose search node counts are pinned
SEED9_TEXT = "p keyhorn 8 6\n1 4 5\n2 5\n4 6\n3 5\n3 4\n1 2 3\n"
SEED12_TEXT = "p keyhorn 8 6\n4 5 6 7\n1 3 4 7 8\n1 2 3 5 6\n1 3 4 5\n1 5 6 7\n6 8\n"
# families whose C searches, 28 and 27 candidates, run for several 64-node
# deadline reads and find a leaf below the cycle before the fourth
LONG12_TEXT = "p keyhorn 8 6\n1 3 8\n4 5\n2 6 8\n1 3 5\n1 2 4 7 8\n1 3 6 7\n"
LONG13_TEXT = "p keyhorn 8 6\n3 5\n1 2 4 6 8\n2 6 7\n2 5 7 8\n1 7 8\n5 6 7 8\n"


def heads_formula(inst, heads):
    """The formula giving body i the heads ``heads[i]``."""
    groups = [ClauseGroup(b, VarSet.from_mask(inst.n, h)) for b, h in zip(inst.bodies, heads)]
    return HornCNF(inst.n, groups)


def all_bodies_close(inst, heads):
    """Whether the formula giving body i the heads ``heads[i]`` closes every
    body to the full set, by forward chaining."""
    phi = heads_formula(inst, heads)
    return all(forward_chain_trace(phi, b)[-1].is_full() for b in inst.bodies)


def cycle_incumbent(inst, mu):
    """The incumbent ``_search_weighted`` starts the ``mu`` search from: one
    above the size of the Hamiltonian cycle in body order."""
    return measure_size(approx.hamiltonian_formula(inst), mu) + 1


def with_head(heads, combo, v):
    """``heads`` with head ``v`` added to the bodies in ``combo``."""
    out = list(heads)
    for i in combo:
        out[i] |= 1 << v
    return out


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

    def test_negative_cap_rejected(self):
        # before any work: this query is otherwise answered at once
        with pytest.raises(ValueError, match="^max_bodies must be a nonnegative integer"):
            price_l_exact(TRIANGLE, VarSet(3, [1, 2]), VarSet(3, [1]), max_bodies=-1)

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
                    if s2.issubset(forward_chain_trace(phi, s)[-1]):
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
        res = opt_exact_all(SINGLETONS, measures=(Measure.C,))[Measure.C]
        assert res.size == 3
        assert verify_representation(res.formula, SINGLETONS)

    def test_witness_verifies_and_matches(self):
        # a timeout of -1 stops both searches before their first leaf, so
        # every result is then the cycle in body order
        for timeout in (None, -1.0):
            for inst in random_instances(25, 1234):
                for mu, res in opt_exact_all(inst, timeout=timeout).items():
                    assert res.optimal == (timeout is None)
                    assert verify_representation(res.formula, inst)
                    assert measure_size(res.formula, mu) == res.size
                    if timeout is not None:
                        assert res.formula == approx.hamiltonian_formula(inst)

    def test_b_ba_closed_forms(self):
        for inst in random_instances(25, 2345):
            opts = opt_exact_all(inst, measures=(Measure.B, Measure.BA))
            assert opts[Measure.B].size == inst.m
            assert opts[Measure.BA].size == sum(len(b) for b in inst.bodies)

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
            opt_exact_all(inst, max_candidates=10, measures=(Measure.C,))

    @pytest.mark.parametrize(
        "text, found, cycle",
        [
            (LONG12_TEXT, 11, 12),
            (LONG13_TEXT, 12, 13),
        ],
        ids=["seed12", "seed13"],
    )
    def test_timeout_reports_best_leaf_found(self, monkeypatch, text, found, cycle):
        n, raw = parse_bodies(text)
        inst, _rec = normalize(n, raw)
        assert cycle_incumbent(inst, Measure.C) == cycle + 1
        # the clock is read for the deadline, then once every 64 search nodes;
        # four reads stop the search at its 192nd node, before it finishes
        # (at 448 and 1936 nodes) and after it found a leaf below the cycle
        reads = iter([0.0] * 4)
        monkeypatch.setattr(exact.time, "monotonic", lambda: next(reads, 2.0))
        res = opt_exact_all(inst, timeout=1.0, measures=(Measure.C,))[Measure.C]
        assert (res.size, res.optimal) == (found, False)
        assert verify_representation(res.formula, inst)
        assert measure_size(res.formula, Measure.C) == found

    def test_nan_timeout_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            opt_exact_all(TRIANGLE, timeout=float("nan"))

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="^max_candidates must be a nonnegative integer"):
            opt_exact_all(TRIANGLE, max_candidates=-1)

    def test_unnormalized_rejected_before_the_cap(self):
        raw = KeyHornInstance(4, [VarSet(4, [1, 2]), VarSet(4, [1, 3])])
        with pytest.raises(ValueError, match="^instance must be normalized"):
            opt_exact_all(raw, max_candidates=0)

    def test_timeout_returns_flagged_upper_bound(self):
        inst = KeyHornInstance(
            6, [VarSet(6, [1, 2]), VarSet(6, [3, 4]), VarSet(6, [5, 6])]
        )
        res = opt_exact_all(inst, timeout=-1.0, measures=(Measure.C,))[Measure.C]
        assert not res.optimal
        assert verify_representation(res.formula, inst)
        true_opt = opt_exact_all(inst, measures=(Measure.C,))[Measure.C].size
        assert res.size >= true_opt

    @pytest.mark.parametrize(
        "run, searches",
        [
            (lambda inst: opt_exact_all(inst, measures=(Measure.L,)), [Measure.L]),
            (lambda inst: opt_exact_all(inst, measures=(Measure.C,)), [Measure.C]),
            (lambda inst: opt_exact_all(inst, measures=(Measure.B,)), [Measure.C]),
            (opt_exact_all, [Measure.C, Measure.L]),
        ],
        ids=["L", "C", "B", "all"],
    )
    def test_runs_only_the_searches_its_measures_need(self, monkeypatch, run, searches):
        calls = []
        real = exact._search_weighted

        def counted(inst, weights, deadline):
            calls.append(Measure.C if weights == [1] * inst.m else Measure.L)
            return real(inst, weights, deadline)

        monkeypatch.setattr(exact, "_search_weighted", counted)
        run(TRIANGLE)
        assert calls == searches

    def test_builds_no_approximation(self, monkeypatch):
        # the searches start from their own cycle leaf, so no candidate and
        # no C graph is built
        names = ("hamiltonian_formula", "procedure1", "procedure2", "minimize")
        calls = {name: counting(monkeypatch, approx, name) for name in names}
        builds = c_graph_builds(monkeypatch)
        opt_exact_all(random_instances(1, 4500)[0])
        assert all(seen == [] for seen in calls.values())
        assert builds == []

    def test_same_result_from_every_incumbent_above_the_optimum(self):
        # a finished search returns the first cheapest leaf in its order, so
        # the cycle incumbent gives the sizes and witnesses of the table's
        # seed and of one every leaf beats
        for inst in random_instances(300, 4600, n_range=(3, 7), m_range=(2, 5)):
            res = opt_exact_all(inst)
            table = approx.CandidateTable(inst)
            unit, lit = [1] * inst.m, [len(b) + 1 for b in inst.bodies]
            for weights, mu in ((unit, Measure.C), (lit, Measure.L)):
                for incumbent in (table.best(mu).size + 1, sum(weights) * inst.n + 1):
                    search = exact._ClauseSearch(inst, weights, None)
                    search.run(incumbent)
                    assert res[mu].optimal
                    assert res[mu].size == search.best
                    assert res[mu].formula == heads_formula(inst, search.best_heads)



class TestClauseSearchMatchesReference:
    """The search with the optimistic-closure cut against the leaf-only
    search it replaced (``helpers.RefClauseSearch``)."""

    def test_same_leaf_and_no_more_nodes(self):
        small = random_instances(300, 6100)
        larger = random_instances(100, 6200, n_range=(5, 7), m_range=(3, 5))
        pruned = 0
        for pos, inst in enumerate(small + larger):
            unit, lit = [1] * inst.m, [len(b) + 1 for b in inst.bodies]
            for weights, mu in ((unit, Measure.C), (lit, Measure.L)):
                # the incumbent _search_weighted starts from and, on small
                # instances, one every leaf beats, so the search runs past
                # the cycle's size
                incumbents = [cycle_incumbent(inst, mu)]
                if pos < len(small):
                    incumbents.append(sum(weights) * inst.n + 1)
                for incumbent in incumbents:
                    new = exact._ClauseSearch(inst, weights, None)
                    ref = RefClauseSearch(inst, weights, None)
                    new.run(incumbent)
                    ref.run(incumbent)
                    assert (new.best, new.best_heads) == (ref.best, ref.best_heads)
                    assert new.ticks <= ref.ticks
                    pruned += new.ticks < ref.ticks
        assert pruned > 400

    def test_same_results_as_leaf_only_search(self, monkeypatch):
        instances = random_instances(40, 6300, n_range=(4, 7), m_range=(3, 5))
        new = [opt_exact_all(inst) for inst in instances]
        monkeypatch.setattr(exact, "_ClauseSearch", RefClauseSearch)
        assert new == [opt_exact_all(inst) for inst in instances]

    @pytest.mark.parametrize(
        "text, ticks, uncut",
        [
            (SEED9_TEXT, (47, 69), (203, 1248)),
            (SEED12_TEXT, (112, 154), (5414, 13023)),
        ],
        ids=["seed9", "seed12"],
    )
    def test_node_counts_are_pinned(self, text, ticks, uncut):
        # ``uncut`` are the counts without the head-deficit cut, which the
        # search that closed every body afresh at each child also visited;
        # a cut only drops nodes, so it may never exceed them
        inst, _rec = normalize(*parse_bodies(text))
        counts = []
        for weights, mu in (([1] * inst.m, Measure.C), ([len(b) + 1 for b in inst.bodies], Measure.L)):
            search = exact._ClauseSearch(inst, weights, None)
            search.run(cycle_incumbent(inst, mu))
            counts.append(search.ticks)
        assert tuple(counts) == ticks
        assert all(c <= u for c, u in zip(counts, uncut))

    def test_child_test_passes_exactly_feasible_options(self):
        # at a random node that has a feasible completion, an option for its
        # head v passes the fired-mask test exactly when some completion of
        # the heads above v gives every body the closure V
        rng = random.Random(6400)
        outcomes = set()
        nodes = 0
        for inst in random_instances(150, 6500, n_range=(3, 5), m_range=(2, 4)):
            search = exact._ClauseSearch(inst, [1] * inst.m, None)
            opts = search.head_options

            def feasible(heads, u):
                if u == inst.n:
                    return all_bodies_close(inst, heads)
                return any(feasible(with_head(heads, combo, u), u + 1) for _w, combo, _m in opts[u])

            for _ in range(4):
                v = rng.randint(max(0, inst.n - 3), inst.n - 1)
                heads = [0] * inst.m
                for u in range(v):
                    for i in rng.choice(opts[u])[1]:
                        heads[i] |= 1 << u
                if not feasible(heads, v):
                    continue
                search.heads_of = heads
                fires = search._fires(v)
                for _w, combo, mask in opts[v]:
                    passes = all(mask & fired for fired in fires)
                    assert passes == feasible(with_head(heads, combo, v), v + 1)
                    outcomes.add(passes)
                nodes += 1
        assert nodes > 200
        assert outcomes == {True, False}

    def test_deficit_bound_never_exceeds_the_cheapest_leaf_below(self):
        # at a random node, cost + sum of w_i * need_i is at most the cost of
        # the cheapest feasible leaf below it, and a body with no qualifying
        # j (the cut under an infinite incumbent) occurs only at a node that
        # has no feasible leaf below it
        rng = random.Random(6600)
        nodes = tight = no_j_nodes = 0
        for inst in random_instances(150, 6700, n_range=(3, 5), m_range=(2, 4)):
            weights = rng.choice(([1] * inst.m, [len(b) + 1 for b in inst.bodies]))
            search = exact._ClauseSearch(inst, weights, None)
            opts = search.head_options

            def cheapest(heads, u, cost):
                """The cost of the cheapest feasible leaf below, or None."""
                if u == inst.n:
                    return cost if all_bodies_close(inst, heads) else None
                below = [cheapest(with_head(heads, c, u), u + 1, cost + w) for w, c, _m in opts[u]]
                return min((c for c in below if c is not None), default=None)

            for _ in range(4):
                v = rng.randint(max(0, inst.n - 3), inst.n - 1)
                heads, cost = [0] * inst.m, 0
                for u in range(v):
                    w, combo, _mask = rng.choice(opts[u])
                    heads, cost = with_head(heads, combo, u), cost + w
                search.heads_of = heads
                leaf = cheapest(heads, v, cost)
                search.best = float("inf")
                no_j = search._deficit_cut(v, cost)
                if leaf is None:
                    no_j_nodes += no_j
                    continue
                assert not no_j
                search.best = leaf + 1
                assert not search._deficit_cut(v, cost)
                search.best = leaf
                tight += search._deficit_cut(v, cost)
                nodes += 1
        assert nodes > 200
        # the bound is reached at some nodes, and the no-j case does occur
        assert tight > 0 and no_j_nodes > 0
