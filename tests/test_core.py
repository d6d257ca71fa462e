import ast
import itertools
import random
import re
import shlex
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import keyhorn
from keyhorn import cli
from keyhorn import (
    ClauseGroup,
    HornCNF,
    KeyHornInstance,
    Measure,
    MEASURES,
    UniverseMismatchError,
    VarSet,
    canonical_sorted,
    hamiltonian_formula,
    measure_size,
    normalize,
    procedure1,
    procedure2,
    verify_against_family,
    verify_representation,
)
from keyhorn.core import _Propagator

from helpers import (
    equivalent,
    forward_chain_trace,
    psi,
    random_cnf,
    random_instances,
    random_subset,
    ref_verify_against_family,
)


def warmup_formula():
    # five variables: 1 and 2 imply each other, {1,3} implies 4 and 5
    return HornCNF.of(5, [((1,), (2,)), ((2,), (1,)), ((1, 3), (4, 5))])


TRIANGLE = KeyHornInstance(
    3, [VarSet(3, [1, 2]), VarSet(3, [2, 3]), VarSet(3, [1, 3])]
)


class TestVarSet:
    def test_basic_ops(self):
        a = VarSet(6, [1, 3, 5])
        b = VarSet(6, [3, 4])
        assert sorted(a | b) == [1, 3, 4, 5]
        assert sorted(a & b) == [3]
        assert sorted(a - b) == [1, 5]
        assert len(a) == 3 and 3 in a and 2 not in a
        assert VarSet(6, [3]).issubset(a)
        assert not a.issubset(b)
        assert sorted(a.complement()) == [2, 4, 6]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            VarSet(3, [4])
        with pytest.raises(ValueError):
            VarSet(3, [0])

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            VarSet(3, [1]) | VarSet(4, [1])

    def test_compare_is_size_then_lex(self):
        vs = [
            VarSet(5, [2, 3]),
            VarSet(5, [1, 5]),
            VarSet(5, [2]),
            VarSet(5, [1, 2, 3]),
            VarSet(5, [1, 3]),
        ]
        ordered = [sorted(s) for s in canonical_sorted(vs)]
        assert ordered == [[2], [1, 3], [1, 5], [2, 3], [1, 2, 3]]

    def test_fullness_checks_allocate_no_universe_mask(self):
        n = 10**8
        s = VarSet(n, [1, 2])
        inst = KeyHornInstance(n, [s, VarSet(n, [2, 3])])
        tracemalloc.start()
        try:
            assert not s.is_full()
            assert not inst.is_normalized
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a mask of n bits alone is 12.5 MB
        assert VarSet(5, range(1, 6)).is_full() and not VarSet(5, [1, 2, 3, 4]).is_full()

    def test_iteration_is_ascending_on_narrow_and_wide_sets(self):
        rng = random.Random(7)
        for n in (1, 64, 4096, 4097, 20_000):
            for _ in range(20):
                elems = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 40))))
                if rng.random() < 0.5:
                    elems = sorted(set(elems) | {n})
                assert list(VarSet(n, elems)) == elems

    def test_wide_set_matches_its_mask(self):
        n = 544_498  # the ground set of `gen sat3 --clause "1 2 -3"`
        every_other = (4 ** (n // 2) - 1) // 3  # bits 0, 2, ..., n - 2
        assert VarSet(n, range(1, n + 1, 2)) == VarSet.from_mask(n, every_other)
        # the top element at each offset in its byte
        for top in range(n - 9, n + 1):
            assert VarSet(n, [1, top]).mask == 1 | 1 << (top - 1)

    def test_order_and_duplicates_do_not_change_the_mask(self):
        rng = random.Random(3)
        for n in (1, 7, 8, 9, 64, 1000):
            elems = rng.sample(range(1, n + 1), rng.randint(1, n))
            want = sum(1 << (v - 1) for v in elems)
            shuffled = elems[:]
            rng.shuffle(shuffled)
            assert VarSet(n, shuffled).mask == want
            assert VarSet(n, iter(elems + elems[::2])).mask == want

    def test_buffer_is_sized_by_the_largest_element_not_by_n(self):
        tracemalloc.start()
        try:
            assert VarSet(10**9, [1, 2]).mask == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a buffer of n bits is 125 MB

    def test_range_error_names_the_first_bad_element(self):
        with pytest.raises(ValueError, match=r"^variable 7 out of range 1\.\.5$"):
            VarSet(5, [2, 7, 0, 9])
        with pytest.raises(ValueError, match=r"^variable 0 out of range 1\.\.5$"):
            VarSet(5, (v for v in [3, 0, 9]))

    def test_compare_matches_tuple_order(self):
        rng = random.Random(0)
        for _ in range(300):
            a = random_subset(rng, 7)
            b = random_subset(rng, 7)
            if not a or not b:
                continue
            want = (len(a), tuple(a)) < (len(b), tuple(b))
            got = a.compare(b) < 0
            if (len(a), tuple(a)) == (len(b), tuple(b)):
                assert a.compare(b) == 0
            else:
                assert want == got


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: VarSet(-1), "universe size must be nonnegative, got -1"),
        (lambda: VarSet.from_mask(3, 0b1000), "mask has bits outside universe 1..3"),
        (lambda: VarSet.from_mask(3, -1), "mask has bits outside universe 1..3"),
        (lambda: HornCNF(3, [ClauseGroup(VarSet(4, [1]), VarSet(4, [2]))]),
         "group over universe 4, formula over 3"),
        (lambda: measure_size(HornCNF(3), "C"), "unknown measure 'C'"),
    ],
    ids=["negative-n", "mask-above-n", "negative-mask", "foreign-group", "unknown-measure"],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestClauseGroup:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ClauseGroup(VarSet(3, []), VarSet(3, [1]))
        with pytest.raises(ValueError):
            ClauseGroup(VarSet(3, [1, 2, 3]), VarSet(3, []))
        with pytest.raises(ValueError):
            ClauseGroup(VarSet(3, [1]), VarSet(3, [1, 2]))

    @pytest.mark.parametrize(
        "body, heads, message",
        [
            ([], [1, 2, 3], "empty body"),
            ([1, 3], [1, 2, 3], "heads intersect body: [1, 3]"),
            ([1, 2, 3], [2], "heads intersect body: [2]"),
            ([1, 2, 3], [], "clause body must not be the full variable set"),
        ],
    )
    def test_rules_are_checked_nonempty_disjoint_then_not_full(self, body, heads, message):
        with pytest.raises(ValueError) as exc:
            ClauseGroup(VarSet(3, body), VarSet(3, heads))
        assert str(exc.value) == message
        with pytest.raises(UniverseMismatchError):
            ClauseGroup(VarSet(3, body), VarSet(4, heads))

    def test_empty_heads_allowed_in_memory(self):
        g = ClauseGroup(VarSet(3, [1]), VarSet(3, []))
        assert not g.heads


class TestHornCNF:
    def test_canonicalization_merges_and_sorts(self):
        phi = HornCNF.of(4, [((2, 3), (1,)), ((1,), (2,)), ((1,), (3,))])
        assert [(sorted(g.body), sorted(g.heads)) for g in phi.groups] == [
            ([1], [2, 3]),
            ([2, 3], [1]),
        ]

    def test_empty_heads_dropped(self):
        phi = HornCNF.of(3, [((1,), ()), ((2,), (3,))])
        assert len(phi.groups) == 1

    @staticmethod
    def count_checks(monkeypatch) -> list:
        calls = []
        check = ClauseGroup.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(ClauseGroup, "__post_init__", counted)
        return calls

    def test_distinct_bodies_keep_the_callers_groups(self, monkeypatch):
        groups = [ClauseGroup(b, b.complement()) for b in TRIANGLE.bodies[::-1]]
        groups.append(ClauseGroup(VarSet(3, [1]), VarSet(3)))
        calls = self.count_checks(monkeypatch)
        phi = HornCNF(3, groups)
        assert calls == []
        assert [id(g) for g in phi.groups] == [id(g) for g in groups[2::-1]]

    def test_a_merged_body_gets_one_checked_group(self, monkeypatch):
        body = VarSet(5, [1, 2])
        first, other = ClauseGroup(body, VarSet(5, [3])), ClauseGroup(VarSet(5, [4]), VarSet(5, [5]))
        repeats = [ClauseGroup(VarSet(5, [1, 2]), VarSet(5, [h])) for h in (4, 5, 3)]
        calls = self.count_checks(monkeypatch)
        phi = HornCNF(5, [first, other, *repeats])
        assert len(calls) == 1 and phi.groups[0] is other
        assert phi.groups[1] is calls[0] and phi.groups[1].body is body
        assert sorted(phi.groups[1].heads) == [3, 4, 5]
        # repeats that add no head keep the first group
        assert HornCNF(5, [first, repeats[2], first]).groups == (first,)
        assert HornCNF(5, [first, repeats[2]]).groups[0] is first
        assert len(calls) == 1

    def test_duplicate_merge_never_increases_measures(self):
        dup = HornCNF.of(4, [((1, 2), (3,)), ((1, 2), (3, 4))])
        merged = HornCNF.of(4, [((1, 2), (3, 4))])
        assert dup == merged


class TestMeasures:
    def test_warmup_formula_values(self):
        phi = warmup_formula()
        expected = {
            Measure.B: 3,
            Measure.BA: 4,
            Measure.TA: 8,
            Measure.C: 4,
            Measure.BC: 7,
            Measure.L: 10,
        }
        for mu, val in expected.items():
            assert measure_size(phi, mu) == val

    def test_empty_cnf(self):
        phi = HornCNF(4)
        assert all(measure_size(phi, mu) == 0 for mu in MEASURES)

    def test_single_group(self):
        phi = HornCNF.of(3, [((1, 2), (3,))])
        vals = [measure_size(phi, mu) for mu in MEASURES]
        assert vals == [1, 2, 3, 1, 2, 3]

    def test_identities_on_random_formulas(self):
        rng = random.Random(1)
        for _ in range(200):
            phi = random_cnf(rng)
            b = measure_size(phi, Measure.B)
            ba = measure_size(phi, Measure.BA)
            ta = measure_size(phi, Measure.TA)
            c = measure_size(phi, Measure.C)
            bc = measure_size(phi, Measure.BC)
            ell = measure_size(phi, Measure.L)
            assert bc == b + c
            assert ta == ba + c
            assert ell >= ta  # canonical groups all have nonempty heads


class TestForwardChain:
    """``_Propagator.closure_mask``, the closure every verification runs,
    against the round-based fixpoint ``helpers.forward_chain_trace``."""

    def test_warmup_closures(self):
        prop = _Propagator(warmup_formula())
        assert prop.closure_mask(VarSet(5, [1]).mask) == VarSet(5, [1, 2]).mask
        assert prop.closure_mask(VarSet(5, [1, 3]).mask) == (1 << 5) - 1

    def test_full_set_fixpoint(self):
        full = (1 << 5) - 1
        assert _Propagator(warmup_formula()).closure_mask(full) == full

    def test_trace_rounds(self):
        phi = warmup_formula()
        trace = forward_chain_trace(phi, VarSet(5, [1, 3]))
        assert [sorted(w) for w in trace] == [[1, 3], [1, 2, 3, 4, 5]]

    def test_trace_closed_input(self):
        phi = warmup_formula()
        z = VarSet(5, [3, 4])
        assert forward_chain_trace(phi, z) == [z]

    def test_trace_chain(self):
        phi = HornCNF.of(3, [((1,), (2,)), ((2,), (3,))])
        trace = forward_chain_trace(phi, VarSet(3, [1]))
        assert [sorted(w) for w in trace] == [[1], [1, 2], [1, 2, 3]]

    def test_trace_last_equals_closure(self):
        rng = random.Random(2)
        for _ in range(100):
            phi = random_cnf(rng)
            z = random_subset(rng, phi.n)
            assert forward_chain_trace(phi, z)[-1].mask == _Propagator(phi).closure_mask(z.mask)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_closure_properties(self, seed, zseed):
        rng = random.Random(seed)
        phi = random_cnf(rng)
        zrng = random.Random(zseed)
        z = random_subset(zrng, phi.n)
        z2 = z | random_subset(zrng, phi.n)
        prop = _Propagator(phi)
        cl = prop.closure_mask(z.mask)
        assert z.mask & ~cl == 0                               # extensive
        assert cl & ~prop.closure_mask(z2.mask) == 0           # monotone
        assert prop.closure_mask(cl) == cl                     # idempotent
        assert cl == forward_chain_trace(phi, z)[-1].mask      # naive fixpoint


class TestEntailsEquivalent:
    """``helpers.equivalent``: the oracle that checks a minimized formula
    against the canonical representation."""

    def test_equivalent_reordered(self):
        a = warmup_formula()
        b = HornCNF.of(5, [((1, 3), (5, 4)), ((2,), (1,)), ((1,), (2,))])
        assert equivalent(a, b)

    def test_equivalent_chain_vs_shortcut(self):
        a = HornCNF.of(3, [((1,), (2,)), ((2,), (3,))])
        b = HornCNF.of(3, [((1,), (2, 3)), ((2,), (3,))])
        assert equivalent(a, b)

    def test_not_equivalent(self):
        a = HornCNF.of(2, [((1,), (2,))])
        b = HornCNF.of(2, [((2,), (1,))])
        assert not equivalent(a, b)


class TestVerify:
    def test_triangle_psi_and_cycle(self):
        cycle = HornCNF.of(3, [((1, 2), (3,)), ((2, 3), (1,)), ((1, 3), (2,))])
        assert verify_representation(cycle, TRIANGLE)
        assert verify_representation(psi(TRIANGLE.n, TRIANGLE.bodies), TRIANGLE)

    def test_reject_with_closure_certificate(self):
        partial = HornCNF.of(3, [((1, 2), (3,))])
        res = verify_representation(partial, TRIANGLE)
        assert not res
        assert sorted(res.bad_body) == [1, 3]
        assert sorted(res.closure) == [1, 3]

    def test_reject_foreign_body(self):
        foreign = HornCNF.of(3, [((1,), (2, 3)), ((1, 2), (3,)), ((2, 3), (1,)), ((1, 3), (2,))])
        res = verify_representation(foreign, TRIANGLE)
        assert not res and res.bad_group is not None
        assert sorted(res.bad_group.body) == [1]

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            verify_representation(HornCNF(4), TRIANGLE)


def _dropped_group(rng, phi):
    groups = list(phi.groups)
    del groups[rng.randrange(len(groups))]
    return HornCNF(phi.n, groups)


def _dropped_head(rng, phi):
    groups = list(phi.groups)
    gi = rng.randrange(len(groups))
    heads = list(groups[gi].heads)
    heads.remove(rng.choice(heads))
    groups[gi] = ClauseGroup(groups[gi].body, VarSet(phi.n, heads))
    return HornCNF(phi.n, groups)


def _kind(res):
    return "ok" if res else "body" if res.bad_body else "group"


class TestVerifyMatchesReference:
    """Reusing proven bodies changes no field of the result: ok, the first
    bad group, the first failing body in family order and its closure
    (``helpers.ref_verify_against_family`` is the verifier it replaced)."""

    def test_candidates_and_their_mutations(self):
        rng = random.Random(4200)
        kinds = set()
        for inst in random_instances(60, 4200, n_range=(3, 9), m_range=(2, 7)):
            candidates = (hamiltonian_formula(inst), procedure1(inst), procedure2(inst))
            for phi in candidates:
                for cand in (phi, _dropped_group(rng, phi), _dropped_head(rng, phi)):
                    fam = list(inst.bodies)
                    for _ in range(2):
                        got = verify_against_family(cand, inst.n, fam)
                        assert got == ref_verify_against_family(cand, inst.n, fam)
                        kinds.add(_kind(got))
                        rng.shuffle(fam)
        assert kinds == {"ok", "body"}

    def test_random_formulas_on_random_families(self):
        rng = random.Random(4300)
        kinds = set()
        for _ in range(3000):
            phi = random_cnf(rng)
            n = phi.n
            fam = [g.body for g in phi.groups if rng.random() < 0.7]
            for _ in range(rng.randint(0, 3)):
                fam.append(VarSet(n, rng.sample(range(1, n + 1), rng.randint(1, n))))
            got = verify_against_family(phi, n, fam)
            assert got == ref_verify_against_family(phi, n, fam)
            kinds.add(_kind(got))
        assert kinds == {"ok", "body", "group"}


class TestVerifyFallbackPath:
    """Group bodies that are family bodies are accepted by one lookup; the
    others, strict supersets of family bodies or bodies holding none, still
    go through the containment scan in group order."""

    FAMILY = [VarSet(4, [1, 2]), VarSet(4, [3, 4])]

    def _check(self, phi, fam):
        got = verify_against_family(phi, phi.n, fam)
        assert got == ref_verify_against_family(phi, phi.n, fam)
        return got

    def test_strict_superset_bodies_are_accepted(self):
        phi = HornCNF.of(4, [((1, 2), (3,)), ((1, 2, 3), (4,)), ((3, 4), (1, 2))])
        assert self._check(phi, self.FAMILY).ok

    def test_superset_body_that_does_not_reach_the_universe(self):
        phi = HornCNF.of(4, [((1, 2, 3), (4,)), ((3, 4), (1, 2))])
        got = self._check(phi, self.FAMILY)
        assert got.bad_body == self.FAMILY[0] and got.closure == self.FAMILY[0]

    def test_non_entailed_group_is_the_certificate(self):
        phi = HornCNF.of(
            4, [((1,), (3,)), ((1, 2), (3, 4)), ((1, 2, 4), (3,)), ((3, 4), (1, 2))]
        )
        got = self._check(phi, self.FAMILY)
        assert not got.ok and got.bad_group == phi.groups[0]

    def test_random_mixes_of_family_and_superset_bodies(self):
        rng = random.Random(4400)
        kinds = set()
        for inst in random_instances(400, 4400, n_range=(3, 8), m_range=(2, 6)):
            n, full = inst.n, VarSet(inst.n, range(1, inst.n + 1))
            groups = []
            for b in inst.bodies:
                body = b
                if rng.random() < 0.5 and len(b) < n - 1:
                    extra = rng.choice(sorted(full - b))
                    body = b | VarSet(n, [extra])
                groups.append(ClauseGroup(body, full - body))
            if rng.random() < 0.25:
                b = rng.choice(inst.bodies)
                if len(b) > 1:
                    body = b - VarSet(n, [rng.choice(sorted(b))])
                    if not any(f.issubset(body) for f in inst.bodies):
                        groups.append(ClauseGroup(body, full - body))
            phi = HornCNF(n, groups)
            fam = list(inst.bodies)
            rng.shuffle(fam)
            kinds.add(_kind(self._check(phi, fam)))
        assert kinds == {"ok", "body", "group"}


class TestPropagator:
    def test_group_on_a_present_body_joins_its_slot(self):
        phi = HornCNF.of(5, [((1,), (2,)), ((1, 3), (4,))])
        prop = _Propagator(phi)
        prop.add_group(VarSet(5, [1, 3]).mask, VarSet(5, [5]).mask)
        assert len(prop.slot) == 2
        assert prop.closure_mask(VarSet(5, [1, 3]).mask) == (1 << 5) - 1
        prop.add_group(VarSet(5, [2]).mask, VarSet(5, [3]).mask)
        assert len(prop.slot) == 3

    def test_closures_match_a_naive_fixpoint(self):
        # every group is added before the first closure, so each closure but
        # the first starts from the watches the one before it left; the naive
        # fixpoint is the last round of forward_chain_trace
        rng = random.Random(8800)
        seen = {"z_holds_a_body": 0, "new_slot": 0, "merged_slot": 0, "full": 0}
        for _ in range(1500):
            phi = random_cnf(rng, max_n=9)
            n = phi.n
            if rng.random() < 0.3:
                # a group that reaches the full set from a small body
                body = VarSet(n, [rng.randint(1, n)])
                phi = HornCNF(n, phi.groups + (ClauseGroup(body, body.complement()),))
            prop = _Propagator(phi)
            groups = list(phi.groups)
            for _ in range(rng.randint(0, 3)):
                if groups and rng.random() < 0.5:
                    body = rng.choice(groups).body
                    seen["merged_slot"] += 1
                else:
                    body = VarSet(n, rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
                    seen["new_slot"] += body.mask not in prop.slot
                heads = random_subset(rng, n) - body
                prop.add_group(body.mask, heads.mask)
                groups.append(ClauseGroup(body, heads))
            naive = HornCNF(n, groups)
            for _ in range(4):
                z = random_subset(rng, n)
                if groups and rng.random() < 0.5:
                    z = z | rng.choice(groups).body
                seen["z_holds_a_body"] += any(g.body.issubset(z) for g in groups)
                want = forward_chain_trace(naive, z)[-1]
                assert prop.closure_mask(z.mask) == want.mask
                seen["full"] += want.is_full()
        assert min(seen.values()) > 100, seen

    def test_groups_added_between_closures(self):
        # as verify_against_family does: a group joins between two closures,
        # often the entailed ``z -> cl(z) \ z`` of the closure just run, so
        # each closure walks the watches that the closures and add_group calls
        # before it left behind
        rng = random.Random(3100)
        seen = {"entailed": 0, "new_slot": 0, "merged_slot": 0, "full": 0, "short": 0}
        for _ in range(400):
            phi = random_cnf(rng, max_n=9)
            n = phi.n
            prop = _Propagator(phi)
            groups = list(phi.groups)
            for _ in range(8):
                z = random_subset(rng, n)
                if groups and rng.random() < 0.5:
                    z = z | rng.choice(groups).body
                want = forward_chain_trace(HornCNF(n, groups), z)[-1]
                assert prop.closure_mask(z.mask) == want.mask
                seen["full" if want.is_full() else "short"] += 1
                if z and not z.is_full() and rng.random() < 0.6:
                    body, heads = z, want - z
                    seen["entailed"] += 1
                elif groups and rng.random() < 0.3:
                    body = rng.choice(groups).body
                    heads = random_subset(rng, n) - body
                    seen["merged_slot"] += 1
                else:
                    body = VarSet(n, rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
                    heads = random_subset(rng, n) - body
                    seen["new_slot"] += body.mask not in prop.slot
                prop.add_group(body.mask, heads.mask)
                groups.append(ClauseGroup(body, heads))
        assert min(seen.values()) > 100, seen


class TestKeyHornInstance:
    @pytest.mark.parametrize("order", [1, -1], ids=["own-universe-first", "other-universe-first"])
    def test_body_over_another_universe_in_a_mixed_family(self, order):
        # the universe is checked before the canonical sort, whose comparator
        # would report only the two universe sizes
        fam = [VarSet(3, [1]), VarSet(4, [2])][::order]
        for build in (KeyHornInstance, normalize):
            with pytest.raises(UniverseMismatchError) as err:
                build(3, fam)
            assert str(err.value) == "body over universe 4, instance over 3"

    def test_stats(self):
        assert (TRIANGLE.n, TRIANGLE.m, TRIANGLE.k, TRIANGLE.delta) == (3, 3, 2, 2)
        assert TRIANGLE.is_normalized

    def test_keeps_minimal_bodies(self):
        # a superset body's clauses are implied by its subset's, so the
        # instance keeps only the inclusion-minimal bodies, in canonical order
        inst = KeyHornInstance(
            4, [VarSet(4, [2, 3, 4]), VarSet(4, [1, 2]), VarSet(4, [1]), VarSet(4, [3])]
        )
        assert inst.bodies == (VarSet(4, [1]), VarSet(4, [3]))
        assert (inst.m, inst.k, inst.delta) == (2, 1, 1)
        assert inst == KeyHornInstance(4, [VarSet(4, [3]), VarSet(4, [1])])

    def test_rejects_full_body(self):
        with pytest.raises(ValueError):
            KeyHornInstance(2, [VarSet(2, [1, 2])])

    def test_raw_instance_not_normalized(self):
        raw = KeyHornInstance(4, [VarSet(4, [1, 2]), VarSet(4, [1, 3])])
        assert not raw.is_normalized


class TestPackageExports:
    def test_all_is_exactly_the_public_names(self):
        # a name dropped from a module but left in __all__ (so it no longer
        # resolves), or imported into the package but not exported, fails here
        public = {
            name
            for name, value in vars(keyhorn).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert sorted(keyhorn.__all__) == sorted(public)

    def test_readme_library_block_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})

    def test_readme_command_block_runs(self, tmp_path, monkeypatch, capsys):
        # each line runs in order, once with and once without each
        # bracketed part, in an empty directory
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        commands = readme.split("\n## Command line\n", 1)[1]
        block = commands.split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        ran = 0
        for line in block.splitlines():
            # the text outside the brackets, and each bracketed part
            pieces = re.split(r"\[([^\]]*)\]", line)
            options = [(part, "") for part in pieces[1::2]]
            for chosen in itertools.product(*options):
                text = "".join(p + c for p, c in zip(pieces[0::2], [*chosen, ""]))
                argv = shlex.split(text, comments=True)
                assert argv[0] == "keyhorn", line
                assert cli.main(argv[1:]) == 0, text
                capsys.readouterr()
                ran += 1
        assert ran == 13  # 11 lines, two of them with a bracketed part

    def test_every_export_is_used_by_the_package_or_documented(self):
        # a name counts as used when some module other than __init__ refers
        # to it in code (a Name or an Attribute, so docstrings do not count),
        # or when README's Library section names it
        src = Path(keyhorn.__file__).parent
        used = set()
        for path in src.glob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"\w+", library))
        assert sorted(set(keyhorn.__all__) - used - documented) == []
