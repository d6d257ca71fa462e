"""Tests of the benchmark itself: its inputs, its tracer and its output checks."""

import hashlib

import pytest

import run
import sampler
import speed
from tracer import Binding, Tracer


@pytest.fixture(scope="module")
def pinned():
    return run.load_expected()


def test_sampler_is_deterministic_per_seed(pinned):
    assert sampler.member_text("small", 3) == sampler.member_text("small", 3)
    assert sampler.member_text("small", 3) != sampler.member_text("small", 4)
    order = run.cost_order(pinned, "small")
    assert sampler.batch(order, 64, seed=1) == sampler.batch(order, 64, seed=1)
    assert sampler.batch(order, 64, seed=1) != sampler.batch(order, 64, seed=2)
    # one member from each stratum of four, whatever the seed
    strata = {order.index(pos) // 4 for pos in sampler.batch(order, 64, seed=5)}
    assert strata == set(range(64))


def test_pinned_inputs_match_the_sampler(pinned):
    for pool, recorded in pinned["pools"].items():
        for pos in (0, len(recorded["draws"]) - 1):
            text = sampler.member_text(pool, recorded["draws"][pos])
            assert sampler.sha256(text) == recorded["sha256"][pos]
    assert sampler.sha256(run.PROJECTIVE.read_text()) == pinned["projective_sha256"]


def test_exact_pool_keeps_its_candidate_range(pinned):
    lo, hi = sampler.POOLS["exact"].candidates
    for draw in pinned["pools"]["exact"]["draws"][:8]:
        lines = sampler.member_text("exact", draw).splitlines()[1:]
        masks = [sum(1 << (int(v) - 1) for v in line.split()) for line in lines]
        assert lo <= sampler.candidate_count(8, masks) <= hi


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 3, holding b from 2 to 2.5
            with tracer.span("b"):
                pass
        with tracer.span("a"):  # 4 .. 8
            pass
    by_name = tracer.per_op()[0]
    assert by_name["b"] == [0.5, 1]
    assert by_name["a"] == [1.5 + 4.0, 2]
    assert by_name["outer"] == [10.0 - 2.0 - 4.0, 1]
    outer = next(s for s in tracer.spans if s.name == "outer")
    assert all(s.parent == outer.id for s in tracer.spans if s.name == "a")


def test_absent_binding_is_reported_and_the_rest_still_traced():
    run.load_program()
    import keyhorn.cli

    original = keyhorn.cli.parse_bodies
    tracer = Tracer()
    tracer.install((
        Binding("keyhorn.cli", "no_such_function", ("cli.gone",)),
        Binding("keyhorn.no_such_module", "f", ("mod.gone",)),
        Binding("keyhorn.cli", "parse_bodies", ("cli.parse_bodies",)),
    ))
    try:
        assert keyhorn.cli.parse_bodies is not original
        keyhorn.cli.parse_bodies("p keyhorn 3 2\n1 2\n2 3\n")
    finally:
        tracer.uninstall()
    assert keyhorn.cli.parse_bodies is original
    assert tracer.absent == ["cli.gone", "mod.gone"]
    assert tracer.per_op()[0]["cli.parse_bodies"][1] == 1


def test_speed_meter_scales_each_op_by_the_kernel_time_around_it():
    ref = speed.REFERENCE_KERNEL_S
    meter = speed.SpeedMeter()
    slow = 2 ** (1 / speed.ELASTICITY)  # the kernel's time when the program's doubles
    # a sample every 0.1 s; the machine runs slow from t = 1.0 on
    for k in range(20):
        meter.starts.append(k / 10)
        meter.times.append(ref * (slow if k >= 10 else 1))
        meter.spent.append(2 * meter.times[-1])
    assert meter.factor(0.15, 0.55) == 1
    assert meter.factor(1.15, 1.55) == pytest.approx(2)
    # the op from 1.15 to 1.55 holds the samples at 1.2 .. 1.5
    assert meter.reference_seconds(1.15, 1.55) == pytest.approx((0.4 - 4 * 2 * slow * ref) / 2)
    # an op between two samples takes the nearest ones: five from before
    # t = 1.0 and four from after
    assert meter.factor(0.94, 0.95) == 1
    meter.calibrate(3)
    assert len(meter.times) == 23 and min(meter.times[-3:]) > 0


@pytest.fixture()
def small_input(tmp_path, pinned):
    text = sampler.member_text("small", pinned["pools"]["small"]["draws"][0])
    path = tmp_path / "in.bodies"
    path.write_text(text)
    return path, sampler.sha256(text)


def test_wrong_recorded_result_counts_as_one_failed_op(pinned, small_input):
    main = run.load_program()
    path, sha = small_input
    good = run.run_op(main, run.MINIMIZE, path, sha, pinned["results"])
    assert good.failure is None
    key = run.op_key(run.MINIMIZE, sha)
    wrong = dict(pinned["results"], **{key: hashlib.sha256(b"wrong").hexdigest()})
    bad = run.run_op(main, run.MINIMIZE, path, sha, wrong)
    assert bad.failure == "results differ from the recorded ones"
    line = run.result_line([good, bad, good], {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)


def test_failed_exit_and_broken_guarantee_are_failures(pinned, small_input, tmp_path):
    main = run.load_program()
    bad = tmp_path / "bad.bodies"
    bad.write_text("p keyhorn 3 1\n")
    op = run.run_op(main, run.MINIMIZE, bad, "0" * 64, pinned["results"])
    assert op.failure.startswith("exit 2")
    report = run.run_op(main, run.MINIMIZE, *small_input, None).report
    assert run.check(report) is None
    report["results"]["C"]["ratio_num"] = 100 * report["results"]["C"]["ratio_den"]
    assert "outside" in run.check(report)
