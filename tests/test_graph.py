import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from keyhorn import (
    KeyHornInstance,
    Measure,
    NoBodyInSourceError,
    VarSet,
    body_graph_c,
    body_graph_l,
    gen_hydra,
    gen_projective,
    gen_random,
    lambda_formula,
    measure_size,
    min_in_arborescence,
    mwscs_2approx,
    price_c,
)
from keyhorn import approx, graph
from keyhorn.graph import BodyGraph, InArborescence, _Contraction, _root_weights, _row_layout

from helpers import (
    arborescence_weight,
    brute_min_in_arborescence,
    brute_mwscs,
    counting,
    forward_chain_trace,
    is_strongly_connected,
    random_instances,
    random_sperner_instance,
    random_weight_matrix,
    ref_best_unrooted_root,
    ref_body_graph_l,
    ref_lambda_formula,
    ref_mwscs_2approx,
    ref_out_parents,
    ref_procedure2,
    ref_rooted_in_succ,
)

TRIANGLE = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])])


def graph_of(weight):
    m = len(weight)
    return BodyGraph(tuple(VarSet(m, [i + 1]) for i in range(m)), tuple(map(tuple, weight)))


class TestPriceC:
    def test_examples(self):
        assert price_c(VarSet(4, [1, 2]), VarSet(4, [2, 3, 4])) == 2
        b = VarSet(4, [1, 3])
        assert price_c(b, b) == 0
        assert price_c(VarSet(2, [1]), VarSet(2, [2])) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_triangle_inequality(self, am, bm, cm):
        a, b, c = (VarSet.from_mask(8, x) for x in (am, bm, cm))
        assert price_c(a, c) <= price_c(a, b) + price_c(b, c)


class TestBodyGraph:
    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            graph_of([[0, 1, 1], [1, 0], [1, 1, 0]])
        with pytest.raises(ValueError, match="shape"):
            BodyGraph(graph_of([[0, 1], [1, 0]]).nodes, ((0, 1),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            graph_of([[0, 1, 1], [1, 0, 1], [1, -1, 0]])

    def test_cheapest_arcs_are_off_diagonal_row_and_column_minima(self):
        g = graph_of([[0, 5, 2], [3, 0, 7], [4, 1, 0]])
        assert g.row_minima == (2, 3, 1)
        assert g.column_minima == (3, 1, 2)
        # kept on the graph after the first read
        assert g.row_minima is g.row_minima and g.column_minima is g.column_minima
        lone = graph_of([[0]])
        assert lone.row_minima == lone.column_minima == (0,)


class TestBodyGraphC:
    def test_disjoint_singletons(self):
        inst = KeyHornInstance(3, [VarSet(3, [i]) for i in (1, 2, 3)])
        g = body_graph_c(inst)
        assert all(g.weight[i][j] == 1 for i in range(3) for j in range(3) if i != j)

    def test_triangle_all_ones(self):
        g = body_graph_c(TRIANGLE)
        assert all(g.weight[i][j] == 1 for i in range(3) for j in range(3) if i != j)

    def test_single_body(self):
        inst = KeyHornInstance(3, [VarSet(3, [1, 2])])
        g = body_graph_c(inst)
        assert g.m == 1 and g.weight == ((0,),)

    def test_every_arc_is_price_c(self):
        # each pair is counted once, so both triangles and the diagonal come
        # from the upper triangle's popcounts and their mirror
        rng = random.Random(4500)
        for _ in range(300):
            inst = random_sperner_instance(rng, rng.randint(2, 20), rng.randint(1, 12))
            g = body_graph_c(inst)
            assert g.weight == tuple(tuple(price_c(a, b) for b in inst.bodies) for a in inst.bodies)


class TestLambdaFormula:
    def test_detour_beats_direct(self):
        inst = KeyHornInstance(8, [VarSet(8, [1, 2, 3, 4]), VarSet(8, [5])])
        lam = lambda_formula(inst, VarSet(8, [1, 2, 3, 4]), VarSet(8, [6, 7, 8]))
        assert (lam.path, lam.weight) == ((1, 0, 2), 11)
        assert [
            (sorted(g.body), sorted(g.heads)) for g in lam.formula.groups
        ] == [([5], [6, 7, 8]), ([1, 2, 3, 4], [5])]
        assert measure_size(lam.formula, Measure.L) == lam.weight

    def test_target_inside_source(self):
        lam = lambda_formula(TRIANGLE, VarSet(3, [1, 2]), VarSet(3, [2]))
        assert lam.weight == 0 and lam.path == () and not lam.formula.groups

    def test_triangle_direct(self):
        lam = lambda_formula(TRIANGLE, VarSet(3, [1, 2]), VarSet(3, [2, 3]))
        assert lam.weight == 3

    def test_equal_weight_detour_beats_direct_arc(self):
        # {2} -> {1, 3} costs 2 * 2 directly and 2 + 2 through body 1 = {3};
        # the tie goes to the lexicographically smaller path (0, 1, 2)
        inst = KeyHornInstance(3, [VarSet(3, [2]), VarSet(3, [3])])
        lam = lambda_formula(inst, VarSet(3, [2]), VarSet(3, [1, 3]))
        assert (lam.path, lam.weight) == ((0, 1, 2), 4)
        # without variable 3 in the target the detour costs 2 + 2, direct 2
        lam = lambda_formula(inst, VarSet(3, [2]), VarSet(3, [1]))
        assert (lam.path, lam.weight) == ((0, 2), 2)

    def test_zero_weight_arc_on_chosen_path(self):
        # from s = {1, 3, 4}: arcs 2 -> 0 -> 1 -> target cost 4 + 0 + 3, as
        # {2, 3} lies inside s | {1, 2}; (2, 0, 3) also costs 7 and loses the
        # tie, and the direct arc costs 8
        inst = KeyHornInstance(
            5, [VarSet(5, [1, 2]), VarSet(5, [2, 3]), VarSet(5, [1, 3, 4])]
        )
        lam = lambda_formula(inst, VarSet(5, [1, 3, 4]), VarSet(5, [2, 4, 5]))
        assert (lam.path, lam.weight) == ((2, 0, 1, 3), 7)
        # the zero-weight arc emits an empty group, which the formula drops
        assert [(sorted(g.body), sorted(g.heads)) for g in lam.formula.groups] == [
            ([2, 3], [5]),
            ([1, 3, 4], [2]),
        ]

    def test_no_body_in_source(self):
        with pytest.raises(NoBodyInSourceError):
            lambda_formula(TRIANGLE, VarSet(3, [1]), VarSet(3, [2, 3]))

    def test_bodies_inside_lists_every_body_in_the_source(self):
        assert graph.bodies_inside(TRIANGLE, VarSet(3, [1, 2, 3])) == [0, 1, 2]
        assert graph.bodies_inside(TRIANGLE, VarSet(3, [2, 3])) == [2]
        with pytest.raises(NoBodyInSourceError, match="^no family body is contained"):
            graph.bodies_inside(TRIANGLE, VarSet(3, [1]))

    def test_chain_reaches_target_and_weight_bound(self):
        rng = random.Random(11)
        for inst in random_instances(40, 1100, n_range=(3, 7), m_range=(2, 5)):
            for _ in range(4):
                bi = rng.randrange(inst.m)
                s = inst.bodies[bi] | VarSet(
                    inst.n, rng.sample(range(1, inst.n + 1), rng.randint(0, inst.n // 2))
                )
                s2 = VarSet(inst.n, rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n)))
                lam = lambda_formula(inst, s, s2)
                assert s2.issubset(forward_chain_trace(lam.formula, s)[-1])
                assert measure_size(lam.formula, Measure.L) == lam.weight
                # a shortest path never beats the direct arc
                b0 = next(b for b in inst.bodies if b.issubset(s))
                direct = len(s2 - (s | b0)) * (len(b0) + 1)
                assert lam.weight <= direct


class TestLambdaFormulaMatchesReference:
    """The search inside ``lambda_formula`` gives exactly the path, weight
    and formula of the generic lexicographic Dijkstra it replaced
    (``helpers.ref_lambda_formula``)."""

    @staticmethod
    def assert_same(inst, s, s2):
        lam, ref = lambda_formula(inst, s, s2), ref_lambda_formula(inst, s, s2)
        assert (lam.path, lam.weight, lam.formula) == (ref.path, ref.weight, ref.formula)
        return lam

    def test_random_queries_on_small_universes(self):
        rng = random.Random(5000)
        detours = zero_arcs = 0
        for _ in range(2500):
            inst = random_sperner_instance(rng, rng.randint(3, 8), rng.randint(2, 6))
            s = inst.bodies[rng.randrange(inst.m)] | VarSet(
                inst.n, rng.sample(range(1, inst.n + 1), rng.randint(0, 2))
            )
            s2 = VarSet(inst.n, rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n)))
            lam = self.assert_same(inst, s, s2)
            detours += len(lam.path) > 2
            # a zero-weight arc emits no group; bodies on a path are distinct
            zero_arcs += len(lam.formula.groups) < len(lam.path) - 1
        # the draws reach the tie-breaks the oracle pins
        assert detours > 100 and zero_arcs > 100


class TestProcedure2Chains:
    """``procedure2`` emits a tree arc x -> s as the direct group
    ``B_x -> B_s \\ B_x`` unless a detour ties its weight, and otherwise calls
    ``lambda_formula``; either way the groups are those of the reference
    chain ``helpers.ref_lambda_formula(inst, B_x, B_s)``."""

    CLIQUE = gen_hydra([(a, b) for a in range(1, 9) for b in range(a + 1, 9)], 8)

    def test_every_ordered_pair_matches_reference(self, monkeypatch):
        # (family, whether every arc has a tying detour): on the clique each
        # one does; the others reach both the shortcut and the fallback
        families = [
            ([KeyHornInstance(15, gen_projective(3).bodies)], False),
            ([KeyHornInstance(31, gen_projective(4).bodies)], False),
            ([self.CLIQUE], True),
            (random_instances(300, 5100, n_range=(3, 8), m_range=(2, 7), k_range=(2, 5)), False),
        ]
        for insts, all_tie in families:
            calls = counting(monkeypatch, approx, "lambda_formula")
            pairs = 0
            for inst in insts:
                chain = approx._chain_groups(inst, body_graph_l(inst))
                for x, bx in enumerate(inst.bodies):
                    for s, bs in enumerate(inst.bodies):
                        if x != s:
                            pairs += 1
                            assert chain(x, s) == ref_lambda_formula(inst, bx, bs).formula.groups
            if all_tie:
                assert len(calls) == pairs
            else:
                assert 0 < len(calls) < pairs
            monkeypatch.undo()

    def test_procedure2_matches_reference(self):
        for inst in (
            gen_random(120, 24, 16, 5),
            KeyHornInstance(15, gen_projective(3).bodies),
            self.CLIQUE,
            *random_instances(60, 5200, n_range=(3, 8), m_range=(2, 7), k_range=(2, 5)),
        ):
            assert approx.procedure2(inst) == ref_procedure2(inst)

    def test_fallback_counts(self, monkeypatch):
        # a deterministic work count that pins both branches of the tie check
        calls = counting(monkeypatch, approx, "lambda_formula")
        approx.procedure2(gen_random(1000, 200, 50, 1))
        assert calls == []
        approx.procedure2(self.CLIQUE)
        assert len(calls) == self.CLIQUE.m - 1


class TestBodyGraphL:
    def test_triangle_uniform(self):
        g = body_graph_l(TRIANGLE)
        assert all(g.weight[i][j] == 3 for i in range(3) for j in range(3) if i != j)

    def test_two_disjoint_singletons(self):
        inst = KeyHornInstance(2, [VarSet(2, [1]), VarSet(2, [2])])
        g = body_graph_l(inst)
        assert g.weight[0][1] == 2 and g.weight[1][0] == 2

    def test_asymmetric_pair(self):
        inst = KeyHornInstance(8, [VarSet(8, [1, 2, 3, 4]), VarSet(8, [5])])
        g = body_graph_l(inst)
        big = g.nodes.index(VarSet(8, [1, 2, 3, 4]))
        small = 1 - big
        assert g.weight[big][small] == 5
        assert g.weight[small][big] == 8

    def test_matches_lambda_weights(self):
        for inst in random_instances(25, 2200, n_range=(3, 7), m_range=(2, 5)):
            g = body_graph_l(inst)
            for i in range(inst.m):
                for j in range(inst.m):
                    if i != j:
                        lam = lambda_formula(inst, inst.bodies[i], inst.bodies[j])
                        assert g.weight[i][j] == lam.weight


class TestBodyGraphLMatchesReference:
    """The decreasing-size relaxation gives exactly the weights of the dense
    Dijkstra runs it replaced (``helpers.ref_body_graph_l``)."""

    def test_random_families(self):
        rng = random.Random(4000)
        for _ in range(2000):
            inst = random_sperner_instance(rng, rng.randint(3, 30), rng.randint(2, 20))
            assert body_graph_l(inst).weight == ref_body_graph_l(inst).weight

    def test_single_body(self):
        inst = KeyHornInstance(3, [VarSet(3, [1, 2])])
        assert body_graph_l(inst).weight == ref_body_graph_l(inst).weight == ((0,),)

    def test_structured_families(self):
        clique = [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]
        star = [(1, b) for b in range(2, 12)]
        for inst in (
            KeyHornInstance(15, gen_projective(3).bodies),
            gen_hydra(clique + [(8, 9), (9, 10)], 10),
            gen_hydra(star, 11),
            gen_random(300, 60, 20, 4100),
        ):
            assert body_graph_l(inst).weight == ref_body_graph_l(inst).weight

    def test_one_size_class(self):
        # every body has the same size, so nothing is relaxed: each row is
        # its direct arcs, (|B_i| + 1) * C[i]
        rng = random.Random(4300)
        for _ in range(300):
            n = rng.randint(2, 12)
            size = rng.randint(1, n - 1)
            fam = {frozenset(rng.sample(range(1, n + 1), size)) for _ in range(rng.randint(1, 15))}
            inst = KeyHornInstance(n, [VarSet(n, b) for b in fam])
            weight = body_graph_l(inst).weight
            assert weight == ref_body_graph_l(inst).weight
            c = body_graph_c(inst).weight
            assert weight == tuple(tuple((size + 1) * x for x in row) for row in c)

    def test_several_size_classes_of_three_or_more(self):
        # every class's fields are read at its own offset, and each class
        # relaxes with its own size
        rng = random.Random(4400)
        families = 0
        while families < 150:
            n = rng.randint(8, 16)
            fam: list[VarSet] = []
            for size in sorted(rng.sample(range(2, n - 2), rng.randint(2, 4)), reverse=True):
                for _ in range(rng.randint(3, 6)):
                    b = VarSet(n, rng.sample(range(1, n + 1), size))
                    if all(a.mask & ~b.mask and b.mask & ~a.mask for a in fam):
                        fam.append(b)
            counts = Counter(len(b) for b in fam)
            if len(counts) < 2 or min(counts.values()) < 3:
                continue
            families += 1
            inst = KeyHornInstance(n, fam)
            assert body_graph_l(inst).weight == ref_body_graph_l(inst).weight

    @staticmethod
    def field_bits(inst) -> int:
        return _row_layout(inst.m, 2 * (inst.k + 1) * inst.k)[1]

    def test_four_byte_fields(self):
        # k up to 250 needs 3 bytes, rounded up to 4
        for seed in range(4200, 4203):
            inst = gen_random(400, 12, 250, seed)
            assert self.field_bits(inst) == 32
            assert body_graph_l(inst).weight == ref_body_graph_l(inst).weight

    def test_eight_byte_fields(self):
        # two halves of 2**15 variables sharing one more, and a pair across
        # them that the chain between the halves detours through
        h = 1 << 15
        n = 2 * h + 1
        half = (1 << h) - 1
        inst = KeyHornInstance(
            n,
            [
                VarSet.from_mask(n, 1 | 1 << h),
                VarSet.from_mask(n, half | 1 << (2 * h)),
                VarSet.from_mask(n, half << h | 1 << (2 * h)),
            ],
        )
        assert inst.is_normalized and self.field_bits(inst) == 64
        weight = body_graph_l(inst).weight
        assert weight == ref_body_graph_l(inst).weight
        assert weight[1][2] == (h + 2) * 1 + 3 * (h - 1)

    def test_fields_wider_than_eight_bytes_rejected(self):
        # k >= 2**31 would need them: 2 * (k + 1) * k reaches 2**63
        assert _row_layout(2, 2 * 2**31 * (2**31 - 1))[1] == 64
        with pytest.raises(ValueError, match="8-byte"):
            _row_layout(2, 2 * (2**31 + 1) * 2**31)


class TestMinInArborescence:
    @pytest.mark.parametrize(
        "g, root, message",
        [
            (BodyGraph((), ()), None, "graph has no nodes"),
            (graph_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), 3, "root 3 out of range 0..2"),
            (graph_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), -1, "root -1 out of range 0..2"),
        ],
        ids=["empty", "root-above", "root-below"],
    )
    def test_argument_checks(self, g, root, message):
        with pytest.raises(ValueError) as exc:
            min_in_arborescence(g, root)
        assert str(exc.value) == message

    def test_uniform_weights(self):
        w = [[0 if i == j else 4 for j in range(4)] for i in range(4)]
        assert arborescence_weight(min_in_arborescence(graph_of(w)), graph_of(w)) == 12

    def test_one_node(self):
        g = graph_of([[0]])
        assert min_in_arborescence(g) == min_in_arborescence(g, 0) == InArborescence(0, {})

    def test_zero_arcs_pick_root(self):
        g = graph_of([[0, 1, 0], [1, 0, 0], [1, 1, 0]])
        arb = min_in_arborescence(g)
        assert arb.root == 2 and arb.succ == {0: 2, 1: 2}
        assert arborescence_weight(arb, g) == 0

    def test_rooted_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(120):
            m = rng.randint(2, 5)
            w = random_weight_matrix(rng, m)
            g = graph_of(w)
            for root in range(m):
                arb = min_in_arborescence(g, root=root)
                best, _ = brute_min_in_arborescence(w, root)
                assert arborescence_weight(arb, g) == best

    def test_unrooted_matches_brute_force_with_tie_break(self):
        rng = random.Random(13)
        for _ in range(120):
            m = rng.randint(2, 5)
            w = random_weight_matrix(rng, m)
            g = graph_of(w)
            arb = min_in_arborescence(g)
            best, _ = brute_min_in_arborescence(w)
            assert arborescence_weight(arb, g) == best
            # smallest root index among optimal roots
            per_root = [brute_min_in_arborescence(w, r)[0] for r in range(m)]
            assert arb.root == min(r for r in range(m) if per_root[r] == best)


class TestRootWeights:
    """Every root's weight from one contraction tree equals the rooted
    arborescence weight, and the unrooted root is the reference's."""

    def test_weights_match_rooted_calls(self):
        rng = random.Random(16)
        for i in range(3000):
            m = 2 + i % 8
            g = graph_of(random_weight_matrix(rng, m, hi=(1, 2, 3, 6, 20)[i // 8 % 5]))
            assert _root_weights(g.weight) == [
                arborescence_weight(min_in_arborescence(g, root=r), g) for r in range(m)
            ]

    def test_unrooted_root_matches_reference_up_to_m_60(self):
        rng = random.Random(17)
        for i in range(40):
            m = rng.randint(10, 60)
            w = random_weight_matrix(rng, m, hi=(1, 2, 3, 6, 20)[i % 5])
            assert min_in_arborescence(graph_of(w)).root == ref_best_unrooted_root(w)

    def test_unrooted_call_runs_the_routine_once(self, monkeypatch):
        calls = counting(monkeypatch, graph, "_Contraction")
        g = body_graph_c(random_instances(1, 1600, n_range=(40, 40), m_range=(12, 12))[0])
        arb = min_in_arborescence(g)
        assert [args[1] for args in calls] == [arb.root]


def assert_same_choices_as_reference(g: BodyGraph, roots) -> None:
    w = g.weight
    for r in roots:
        assert min_in_arborescence(g, root=r).succ == ref_rooted_in_succ(w, r)
        parent = _Contraction(list(zip(*w)), r).finish()
        assert {v: u for v, u in enumerate(parent) if v != r} == ref_out_parents(w, r)
    assert min_in_arborescence(g).root == ref_best_unrooted_root(w)


class TestArborescenceMatchesReference:
    """The iterative routine makes the recursive reference's choices, not
    just its weights: same parent maps, same unrooted root."""

    def test_tie_heavy_random_graphs(self):
        rng = random.Random(15)
        for i in range(2000):
            m = 2 + i % 9
            g = graph_of(random_weight_matrix(rng, m, hi=(1, 2, 3, 6)[i // 9 % 4]))
            assert_same_choices_as_reference(g, range(m))

    def test_projective_d3(self):
        p = gen_projective(3)
        g = body_graph_c(KeyHornInstance(p.n, p.bodies))
        assert_same_choices_as_reference(g, range(g.m))

    # Many contraction levels, where a column keeps its rule-1 choice across
    # levels or chooses again after its tail is contracted: on d = 4 the
    # sampled roots contract 0 to 49 levels toward the root and 13 to 30 away
    # from it.
    def test_projective_d4_every_sixth_root(self):
        p = gen_projective(4)
        g = body_graph_c(KeyHornInstance(p.n, p.bodies))
        assert_same_choices_as_reference(g, range(0, g.m, 6))

    def test_tie_heavy_random_graphs_m_12_to_30(self):
        rng = random.Random(24)
        for i in range(38):
            m = 12 + i % 19
            g = graph_of(random_weight_matrix(rng, m, hi=(1, 3)[i // 19]))
            assert_same_choices_as_reference(g, range(i % 3, m, 3))

    def test_no_recursion_at_m_200(self):
        inst = random_instances(1, 1500, n_range=(300, 300), m_range=(200, 200), k_range=(20, 20))[0]
        g = body_graph_c(inst)
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            arb = min_in_arborescence(g)
        finally:
            sys.setrecursionlimit(limit)
        arborescence_weight(arb, g)


class TestEveryRootMatchesRootedCalls:
    """``_every_root`` runs the root-free levels once and splits each root
    off at its divergence level: every root's parent map is the rooted
    call's, in both orientations, and ``mwscs_2approx`` returns the per-root
    reference's arc set and weight."""

    @staticmethod
    def assert_same_as_rooted_calls(g: BodyGraph) -> None:
        for cols in (g.weight, list(zip(*g.weight))):
            assert graph._every_root(cols) == [_Contraction(cols, r).finish() for r in range(g.m)]
        assert mwscs_2approx(g) == ref_mwscs_2approx(g)

    def test_tie_heavy_random_graphs(self):
        rng = random.Random(29)
        for i in range(290):
            m = 2 + i % 29
            g = graph_of(random_weight_matrix(rng, m, hi=(1, 2, 3, 6, 20)[i // 29 % 5]))
            self.assert_same_as_rooted_calls(g)

    # A root on a walk that closes a cycle, with another cycle found after
    # that walk, splits off before its node lies on a cycle: on d = 4 that
    # is 17 of the 62 in-arborescence roots and 2 of the out-roots.
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projective(self, d):
        p = gen_projective(d)
        self.assert_same_as_rooted_calls(body_graph_c(KeyHornInstance(p.n, p.bodies)))


class TestMwscs:
    def test_two_nodes_exact(self):
        g = graph_of([[0, 3], [4, 0]])
        arcs, w = mwscs_2approx(g)
        assert arcs == frozenset({(0, 1), (1, 0)}) and w == 7

    def test_uniform_triangle(self):
        g = graph_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        arcs, w = mwscs_2approx(g)
        assert w <= 4
        assert is_strongly_connected(3, arcs)

    def test_within_factor_two_of_brute_force(self):
        rng = random.Random(14)
        for _ in range(60):
            m = rng.randint(2, 5)
            w = random_weight_matrix(rng, m)
            g = graph_of(w)
            arcs, weight = mwscs_2approx(g)
            assert is_strongly_connected(m, arcs)
            opt = brute_mwscs(w)
            assert opt <= weight <= 2 * opt

    def test_one_node(self):
        assert mwscs_2approx(graph_of([[0]])) == (frozenset(), 0)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError):
            mwscs_2approx(BodyGraph((), ()))

    def test_ties_keep_the_first_root(self):
        # uniform weights: every root's union weighs 2(m - 1), but the unions differ
        m = 5
        w = [[0 if i == j else 1 for j in range(m)] for i in range(m)]
        unions = []
        for r in range(m):
            arcs = set(ref_rooted_in_succ(w, r).items())
            arcs.update((u, v) for v, u in ref_out_parents(w, r).items())
            unions.append((frozenset(arcs), len(arcs)))
        assert {weight for _, weight in unions} == {2 * (m - 1)}
        assert unions[-1] != unions[0]
        assert mwscs_2approx(graph_of(w)) == unions[0]
