"""Acceptance suite: one test per release criterion, each printing a PASS
line with its headline numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.

Approximation factors are checked with integer cross-multiplication; no
floating point enters any comparison.
"""

import json
import random
import time
from fractions import Fraction


from keyhorn import (
    HornCNF,
    KeyHornInstance,
    Measure,
    MEASURES,
    TrivialInstance,
    VarSet,
    gen_projective,
    gen_random,
    gen_sat_reduction,
    guarantee_factor,
    lambda_formula,
    lift,
    measure_size,
    min_in_arborescence,
    minimize,
    mwscs_2approx,
    normalize,
    opt_exact_all,
    price_l_exact,
    verify_against_family,
    verify_representation,
)
from keyhorn.approx import CandidateTable
from keyhorn.cli import main, write_bodies
from keyhorn.core import _Propagator
from keyhorn.exact import MAX_CANDIDATES
from keyhorn.gen import GenerationError
from keyhorn.graph import BodyGraph, body_graph_c

from helpers import (
    arborescence_weight,
    brute_min_in_arborescence,
    brute_mwscs,
    cost_lemma_check,
    forward_chain_trace,
    is_strongly_connected,
    psi,
    random_instances,
    random_raw_family,
    random_subset,
    random_weight_matrix,
    ref_min_price_into_hyperplane_shifts,
    sat_gadget_violations,
)


def test_criterion_1_oracle_guarantee_suite():
    t0 = time.perf_counter()
    # small shapes, then shapes near the exact benchmark pool's n = 8, m = 6,
    # kept within the oracle's default cap on candidate clauses
    drawn = random_instances(300, 10_000, (3, 6), (2, 4), (2, 4))
    drawn += random_instances(700, 11_000, (6, 8), (4, 6), (3, 5))
    instances = [
        inst for inst in drawn if sum(inst.n - len(b) for b in inst.bodies) <= MAX_CANDIDATES
    ]
    assert len(instances) >= 950
    worst = {mu: Fraction(0) for mu in MEASURES}
    for inst in instances:
        opts = opt_exact_all(inst)
        table = CandidateTable(inst)
        for mu in MEASURES:
            opt = opts[mu]
            assert opt.optimal, "oracle must terminate with a certified optimum"
            size = table.best(mu).size
            assert size >= opt.size
            factor = guarantee_factor(inst, mu)
            # size / opt <= factor, cross-multiplied
            assert size * factor.denominator <= opt.size * factor.numerator
            if mu in (Measure.B, Measure.BA):
                assert size == opt.size
            worst[mu] = max(worst[mu], Fraction(size, opt.size))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    ratios = ", ".join(f"{mu}={worst[mu].numerator}/{worst[mu].denominator}" for mu in MEASURES)
    print(
        f"\nACCEPTANCE 1 (oracle guarantees, {len(instances)} instances, "
        f"worst ratios {ratios}, {elapsed:.1f}s): PASS"
    )


def test_criterion_2_lambda_approximation_bound():
    t0 = time.perf_counter()
    rng = random.Random(20_000)
    checked = 0
    seed = 20_000
    while checked < 500:
        seed += 1
        try:
            inst = gen_random(
                rng.randint(3, 12), rng.randint(2, 10), rng.randint(2, 6), seed
            )
        except GenerationError:
            continue
        body = inst.bodies[rng.randrange(inst.m)]
        s = body | random_subset(rng, inst.n)
        s2 = random_subset(rng, inst.n)
        lam = lambda_formula(inst, s, s2)
        exact = price_l_exact(inst, s, s2)
        assert s2.issubset(forward_chain_trace(lam.formula, s)[-1])
        assert exact <= lam.weight
        assert 17 * lam.weight <= 54 * exact  # weight <= (54/17) * price
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 2 (path-formula bound, {checked} triples, {elapsed:.1f}s): PASS")


def test_criterion_3_triangle_regression():
    t0 = time.perf_counter()
    tri = KeyHornInstance(3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])])
    expected = {
        Measure.B: 3,
        Measure.BA: 6,
        Measure.TA: 9,
        Measure.C: 3,
        Measure.BC: 6,
        Measure.L: 9,
    }
    opts = opt_exact_all(tri)
    table = CandidateTable(tri)
    for mu, want in expected.items():
        assert opts[mu].size == want, f"oracle optimum for {mu}"
        assert table.best(mu).size == want, f"tool output for {mu}"
    # the literal bound n*(delta+1) = 9 is met exactly
    assert table.best(Measure.L).lower_bound == 9
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 3 (triangle regression, {elapsed:.2f}s): PASS")


def test_criterion_4_projective_gap_regression():
    t0 = time.perf_counter()
    p = gen_projective(4)
    assert p.n == 31
    inst = KeyHornInstance(p.n, p.bodies)
    assert verify_representation(p.certificate, inst)
    csize = measure_size(p.certificate, Measure.C)
    # the construction lists 3n - d - 1 = 88 clauses, but one clause (the
    # interval body implying its first point past the window) appears in two
    # of its families, so the formula's clause count is 3n - d - 2
    assert csize == 3 * p.n - p.dim - 2 == 87
    assert csize <= 3 * p.n
    min_x = ref_min_price_into_hyperplane_shifts(p)
    assert min_x >= 8
    scs_bound = p.n * min_x
    assert scs_bound >= 248
    # the strongly-connected relaxation is at least n/12 times the optimum
    assert 12 * scs_bound >= p.n * csize
    arcs, weight = mwscs_2approx(body_graph_c(inst))
    assert weight >= 248
    assert is_strongly_connected(len(inst.bodies), arcs)

    fano = gen_projective(2)
    through_01 = [
        s for s in fano.hyperplane_shifts() if VarSet(7, [1, 2]).issubset(s)
    ]
    assert len(through_01) == 1 and through_01[0] == fano.hyperplane
    assert 3 not in fano.hyperplane  # 0-based point 2 stays outside
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    print(
        f"\nACCEPTANCE 4 (projective gap: certificate C={csize}, scs bound "
        f"{scs_bound}, 2-approx weight {weight}, {elapsed:.1f}s): PASS"
    )


def test_criterion_5_sat_reduction_structural_suite():
    t0 = time.perf_counter()
    formulas = [
        [(1, 2, 3)],
        [(1, 2, 3), (1, -2, 4)],
        [(1, 2, 3), (-1, 2, 4), (1, -3, 5)],
    ]
    instances = [gen_sat_reduction(f) for f in formulas]
    first = instances[0]
    assert (first.alpha, first.beta, first.tau) == (98, 341, 542_734)
    assert len(first.bodies) == 2 * first.num_vars + 3 == 9
    for r in instances:
        # sizes, gaps, fresh contributions, pattern overlaps, no leaks and
        # the parameter inequalities, re-derived from the built sets
        assert sat_gadget_violations(r) == []
        assert KeyHornInstance(r.ground_n, r.bodies).m == len(r.bodies)

    rng = random.Random(50_000)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        a, b, c = (random_subset(rng, n) for _ in range(3))
        assert cost_lemma_check(a, b, c)
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 5 (reduction structure on {len(instances)} formulas, "
        f"insertion criterion on 10000 triples, {elapsed:.1f}s): PASS"
    )


def test_criterion_6_closure_measure_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(60_000)
    measures = list(MEASURES)
    families = 0
    while families < 1000:
        n, fam = random_raw_family(rng)
        families += 1
        phi = psi(n, fam)
        # closure properties of the propagator on the canonical representation
        prop = _Propagator(phi)
        z = random_subset(rng, n)
        z2 = z | random_subset(rng, n)
        cl = prop.closure_mask(z.mask)
        assert z.mask & ~cl == 0
        assert cl & ~prop.closure_mask(z2.mask) == 0
        assert prop.closure_mask(cl) == cl
        assert cl == forward_chain_trace(phi, z)[-1].mask
        # measure identities
        assert measure_size(phi, Measure.BC) == measure_size(phi, Measure.B) + measure_size(phi, Measure.C)
        assert measure_size(phi, Measure.TA) == measure_size(phi, Measure.BA) + measure_size(phi, Measure.C)
        # normalize -> minimize -> lift -> verify round trip
        try:
            inst, rec = normalize(n, fam)
        except TrivialInstance as triv:
            assert verify_against_family(lift(HornCNF(0), triv.record), n, fam)
            continue
        res = minimize(inst, measures[families % len(measures)])
        lifted = lift(res.formula, rec)
        assert verify_against_family(lifted, n, fam)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 6 (closure/measure properties, {families} families, {elapsed:.1f}s): PASS")


def test_criterion_7_arborescence_exactness():
    t0 = time.perf_counter()
    rng = random.Random(70_000)
    graphs = 0
    while graphs < 200:
        m = rng.randint(2, 5)
        w = random_weight_matrix(rng, m)
        nodes = tuple(VarSet(m, [i + 1]) for i in range(m))
        g = BodyGraph(nodes, w)
        root = rng.randrange(m)
        arb = min_in_arborescence(g, root=root)
        assert arborescence_weight(arb, g) == brute_min_in_arborescence(w, root)[0]
        arb_free = min_in_arborescence(g)
        assert arborescence_weight(arb_free, g) == brute_min_in_arborescence(w)[0]
        arcs, weight = mwscs_2approx(g)
        assert is_strongly_connected(m, arcs)
        opt = brute_mwscs(w)
        assert opt <= weight <= 2 * opt
        graphs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 7 (arborescence exactness, {graphs} graphs, {elapsed:.1f}s): PASS")


def test_criterion_8_scale_smoke(tmp_path, capsys):
    inst = gen_random(1000, 200, 50, seed=424242)
    infile = tmp_path / "scale.bodies"
    infile.write_text(write_bodies(inst.n, inst.bodies, comment="scale smoke"))
    report_file = tmp_path / "scale.json"
    t0 = time.perf_counter()
    rc = main(
        [
            "minimize",
            "--in",
            str(infile),
            "--measure",
            "all",
            "--report",
            str(report_file),
        ]
    )
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert rc == 0  # the command verifies every emitted formula itself
    assert elapsed < 30
    report = json.loads(report_file.read_text())
    assert sorted(report["results"]) == ["B", "BA", "BC", "C", "L", "TA"]
    for mu, blk in report["results"].items():
        assert blk["lower_bound"] <= blk["size"]
    print(f"\nACCEPTANCE 8 (scale smoke n=1000 m=200 k=50, {elapsed:.1f}s): PASS")
