import hashlib
import random
from collections import Counter

import pytest

from keyhorn import (
    KeyHornInstance,
    Measure,
    VarSet,
    gen_hydra,
    gen_projective,
    gen_random,
    gen_sat_reduction,
    measure_size,
    verify_representation,
)
from keyhorn.cli import write_bodies, write_horn
from keyhorn.gen import _PRIMITIVE_POLY, GenerationError, _reduction_parameters

from helpers import random_3cnf, ref_min_price_into_hyperplane_shifts, sat_gadget_violations


def single_body_text(n: int) -> str:
    return (
        f"single-body family over {n} variables; 'gen' emits normalized families, "
        "and a single-body family normalizes to no variables"
    )


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(6, 4, 3, seed=1)
        b = gen_random(6, 4, 3, seed=1)
        assert a == b
        c = gen_random(6, 4, 3, seed=2)
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_invariants(self):
        for seed in range(20):
            try:
                inst = gen_random(7, 4, 4, seed)
            except GenerationError:
                continue
            assert inst.is_normalized
            assert inst.k <= 4

    def test_infeasible(self):
        with pytest.raises(GenerationError):
            gen_random(3, 4, 1, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_body_is_a_generation_error(self, seed):
        with pytest.raises(GenerationError) as exc:
            gen_random(5, 1, 3, seed)
        assert str(exc.value) == single_body_text(5)


class TestGenHydra:
    def test_triangle(self):
        inst = gen_hydra([(1, 2), (2, 3), (1, 3)], 3)
        assert inst.m == 3 and inst.n == 3 and inst.k == 2

    def test_single_edge_trivial(self):
        with pytest.raises(GenerationError) as exc:
            gen_hydra([(1, 2)], 3)
        assert str(exc.value) == single_body_text(3)

    def test_edge_covering_universe(self):
        # over two variables the only edge is the whole universe, which can
        # never be a body
        with pytest.raises(GenerationError):
            gen_hydra([(1, 2)], 2)

    def test_star_core_removed(self):
        inst = gen_hydra([(1, 2), (1, 3), (1, 4)], 4)
        assert inst.n == 3 and inst.k == 1
        assert [sorted(b) for b in inst.bodies] == [[1], [2], [3]]

    def test_self_loop(self):
        with pytest.raises(GenerationError):
            gen_hydra([(2, 2)], 3)


class TestGenProjective:
    @pytest.mark.parametrize("deg", sorted(_PRIMITIVE_POLY))
    def test_polynomials_are_primitive(self, deg):
        # x has order 2^deg - 1 modulo the polynomial, so its powers run
        # through every nonzero element of GF(2^deg) before returning to 1
        poly = _PRIMITIVE_POLY[deg]
        assert poly >> deg == 1
        e = 1
        for order in range(1, 1 << deg):
            e <<= 1
            if e >> deg:
                e ^= poly
            if e == 1:
                break
        assert e == 1 and order == (1 << deg) - 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_shift_structure(self, d):
        p = gen_projective(d)
        n = (1 << (d + 1)) - 1
        assert p.n == n
        shifts = p.hyperplane_shifts()
        assert len(set(shifts)) == n
        assert all(len(s) == (1 << d) - 1 for s in shifts)
        meet = (1 << (d - 1)) - 1
        for i, a in enumerate(shifts):
            for b in shifts[i + 1 :]:
                assert len(a & b) == meet
        # the base hyperplane is the one shift through points 0..d-1, and it
        # avoids point d
        prefix = VarSet(n, range(1, d + 1))
        assert [s for s in shifts if prefix.issubset(s)] == [p.hyperplane]
        assert (d + 1) not in p.hyperplane

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_certificate(self, d):
        p = gen_projective(d)
        inst = KeyHornInstance(p.n, p.bodies)
        assert verify_representation(p.certificate, inst)
        csize = measure_size(p.certificate, Measure.C)
        # one clause of the interval family duplicates a clause of the full
        # group on the interval body, hence 3n - d - 2 distinct clauses
        assert csize == 3 * p.n - d - 2
        assert csize <= 3 * p.n

    def test_d4_entering_price(self):
        p = gen_projective(4)
        assert ref_min_price_into_hyperplane_shifts(p) == 8

    def test_d2_entering_price_below_halving_bound(self):
        # at d = 2 an interval shift overlaps a hyperplane in two points, so
        # the measured minimum drops below 2^(d-1)
        p = gen_projective(2)
        assert ref_min_price_into_hyperplane_shifts(p) == 1

    def test_range_validation(self):
        with pytest.raises(GenerationError):
            gen_projective(1)
        with pytest.raises(GenerationError):
            gen_projective(7)

    def test_deterministic(self):
        a, b = gen_projective(3), gen_projective(3)
        assert a.bodies == b.bodies and a.certificate == b.certificate

    @pytest.mark.parametrize(
        "d, digest",
        [
            (2, "3a8d283a53244195b150dedd2e68f6a156595d36a5bb5b8b2f2caa2e5aa3db6b"),
            (3, "1cf039a4dbdaa8cadc1667e7b6a5064afe880b3bc95db6e155b168c590d4820c"),
            (4, "91faa34e75db000be44ab86f873d76f6dd373359804ee2132cff2222e3c79d75"),
            (5, "710b478773d5b04737dd3828fc833056afccecc64ed36812dbd43d097248f61a"),
            (6, "97d61b12f78138c09c99ece5842173cfc9e70fb623fb55b7536225d12ebb1f6c"),
        ],
    )
    def test_bodies_and_certificate_pinned(self, d, digest):
        # the bodies and certificate files that `gen projective --d D` writes;
        # any change to the construction or to its output order shows here
        p = gen_projective(d)
        text = write_bodies(p.n, p.bodies) + write_horn(p.certificate)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestGenSatReduction:
    def test_minimal_parameters(self):
        r = gen_sat_reduction([(1, 2, 3)])
        assert (r.alpha, r.beta, r.tau) == (98, 341, 542_734)
        assert len(r.bodies) == 9
        assert len(r.source) == 4 * 341
        assert len(r.m_block) == 8
        assert len(r.z_set) == 4 * 98 + 1

    def test_sizes_strictly_decrease(self):
        r = gen_sat_reduction([(1, 2, 3), (1, -2, 4)])
        sizes = [len(x) for x in r.x_sets]
        assert all(a > b + r.alpha for a, b in zip(sizes, sizes[1:]))
        assert all(len(x) == len(y) for x, y in zip(r.x_sets, r.y_sets))

    def test_pattern_overlap_bounded(self):
        r = gen_sat_reduction([(1, 2, 3), (-1, 2, 4), (1, -3, 5)])
        for i, x in enumerate(r.x_sets):
            assert len(x & r.m_block) <= 16
            assert len(x & r.m_block) == len(r.y_sets[i] & r.m_block)

    def test_instance_is_sperner(self):
        r = gen_sat_reduction([(1, 2, 3)])
        inst = KeyHornInstance(r.ground_n, r.bodies)
        assert inst.m == 9

    def test_deterministic(self):
        a = gen_sat_reduction([(1, 2, 3), (1, -2, 4)])
        b = gen_sat_reduction([(1, 2, 3), (1, -2, 4)])
        assert a.bodies == b.bodies and (a.alpha, a.beta, a.tau) == (b.alpha, b.beta, b.tau)

    def test_occurrence_bound(self):
        clauses = [(1, 2, 3)] * 5  # variable 1 appears five times
        with pytest.raises(GenerationError):
            gen_sat_reduction(clauses)

    def test_clause_shape(self):
        with pytest.raises(GenerationError):
            gen_sat_reduction([(1, 2)])
        with pytest.raises(GenerationError):
            gen_sat_reduction([(1, -1, 2)])
        with pytest.raises(GenerationError):
            gen_sat_reduction([(1, 2, 4)])  # variable 3 never occurs

    @pytest.mark.parametrize(
        "clauses",
        [
            # the two formulas the golden digest runs through `gen sat3`
            [(1, -2, 3), (-1, 2, -3)],
            [(1, 2, -3), (-1, -2, 3), (2, 3, -1)],
            # variables 1 and 4 at the four-occurrence limit
            [(1, 2, 3), (1, -2, 4), (-1, 3, 4), (1, -3, -4)],
        ],
        ids=["golden-2", "golden-3", "four-occurrences"],
    )
    def test_relations_hold(self, clauses):
        assert sat_gadget_violations(gen_sat_reduction(clauses)) == []

    def test_relations_hold_on_random_formulas(self):
        rng = random.Random(27)
        formulas = [random_3cnf(rng) for _ in range(24)]
        most = [max(Counter(abs(l) for c in f for l in c).values()) for f in formulas]
        assert most.count(4) >= 1
        for f in formulas:
            assert sat_gadget_violations(gen_sat_reduction(f)) == [], f

    def test_parameters_are_the_smallest_that_satisfy_the_inequalities(self):
        for nv in range(1, 200, 3):
            for m in range(1, 300, 7):
                alpha, beta, tau = _reduction_parameters(nv, m)
                bound = max(m * m, 256 * (nv + 1) + 512 * (nv + 1) ** 2 + 272)
                assert alpha * alpha > bound >= (alpha - 1) ** 2
                assert beta - 1 == 2 * alpha + 32 * (nv + 1) + 16
                assert tau - 1 == ((nv + 1) * beta + 17) * ((nv + 1) * alpha + m)
