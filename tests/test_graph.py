import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from keyhorn import (
    KeyHornInstance,
    Measure,
    NoBodyInSourceError,
    VarSet,
    body_graph_c,
    body_graph_l,
    forward_chain,
    gen_projective,
    lambda_formula,
    measure_size,
    min_in_arborescence,
    mwscs_2approx,
    price_c,
    shortest_path,
)
from keyhorn.graph import BodyGraph, _min_out_parents

from helpers import (
    brute_min_in_arborescence,
    brute_mwscs,
    is_strongly_connected,
    random_instances,
    random_weight_matrix,
    ref_best_unrooted_root,
    ref_out_parents,
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


class TestLambdaFormula:
    def test_detour_beats_direct(self):
        inst = KeyHornInstance(8, [VarSet(8, [1, 2, 3, 4]), VarSet(8, [5])])
        lam = lambda_formula(inst, VarSet(8, [1, 2, 3, 4]), VarSet(8, [6, 7, 8]))
        assert lam.weight == 11
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

    def test_no_body_in_source(self):
        with pytest.raises(NoBodyInSourceError):
            lambda_formula(TRIANGLE, VarSet(3, [1]), VarSet(3, [2, 3]))

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
                assert s2.issubset(forward_chain(lam.formula, s) | s)
                assert measure_size(lam.formula, Measure.L) == lam.weight
                # a shortest path never beats the direct arc
                b0 = next(b for b in inst.bodies if b.issubset(s))
                direct = len(s2 - (s | b0)) * (len(b0) + 1)
                assert lam.weight <= direct


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


class TestShortestPath:
    def test_two_nodes(self):
        g = graph_of([[0, 5], [7, 0]])
        assert shortest_path(g, 0, 1) == ([0, 1], 5)

    def test_zero_weight_direct(self):
        g = graph_of([[0, 0, 9], [9, 0, 9], [9, 1, 0]])
        assert shortest_path(g, 0, 1) == ([0, 1], 0)

    def test_detour(self):
        g = graph_of([[0, 1, 9], [9, 0, 1], [9, 9, 0]])
        assert shortest_path(g, 0, 2) == ([0, 1, 2], 2)

    def test_lex_tie_break(self):
        # two minimum-weight paths, [0, 3] and [0, 1, 3]; the node-index
        # sequence [0, 1, 3] is lexicographically smaller
        g = graph_of([[0, 1, 9, 2], [9, 0, 9, 1], [9, 9, 0, 9], [9, 9, 9, 0]])
        assert shortest_path(g, 0, 3) == ([0, 1, 3], 2)
        # bumping node 1's arc breaks the tie in favour of the direct arc
        g2 = graph_of([[0, 1, 9, 2], [9, 0, 9, 2], [9, 9, 0, 9], [9, 9, 9, 0]])
        assert shortest_path(g2, 0, 3) == ([0, 3], 2)


class TestMinInArborescence:
    def test_uniform_weights(self):
        w = [[0 if i == j else 4 for j in range(4)] for i in range(4)]
        arb = min_in_arborescence(graph_of(w))
        arb.validate(4)
        assert arb.weight_in(graph_of(w)) == 12

    def test_zero_arcs_pick_root(self):
        g = graph_of([[0, 1, 0], [1, 0, 0], [1, 1, 0]])
        arb = min_in_arborescence(g)
        assert arb.root == 2 and arb.succ == {0: 2, 1: 2}
        assert arb.weight_in(g) == 0

    def test_rooted_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(120):
            m = rng.randint(2, 5)
            w = random_weight_matrix(rng, m)
            g = graph_of(w)
            for root in range(m):
                arb = min_in_arborescence(g, root=root)
                arb.validate(m)
                best, _ = brute_min_in_arborescence(w, root)
                assert arb.weight_in(g) == best

    def test_unrooted_matches_brute_force_with_tie_break(self):
        rng = random.Random(13)
        for _ in range(120):
            m = rng.randint(2, 5)
            w = random_weight_matrix(rng, m)
            g = graph_of(w)
            arb = min_in_arborescence(g)
            arb.validate(m)
            best, _ = brute_min_in_arborescence(w)
            assert arb.weight_in(g) == best
            # smallest root index among optimal roots
            per_root = [brute_min_in_arborescence(w, r)[0] for r in range(m)]
            assert arb.root == min(r for r in range(m) if per_root[r] == best)


def assert_same_choices_as_reference(g: BodyGraph, roots) -> None:
    w = g.weight
    for r in roots:
        assert min_in_arborescence(g, root=r).succ == ref_rooted_in_succ(w, r)
        assert _min_out_parents(g, r) == ref_out_parents(w, r)
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
        arb.validate(g.m)


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
