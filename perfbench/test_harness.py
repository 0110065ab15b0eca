"""Self-tests of the benchmark's own arithmetic and wiring.

Run: python3 -m pytest perfbench/test_harness.py
"""

import json
import sys

import pytest

import env

env.prepare()

import calibration  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.tick(2.0))

    def _mid():
        clock.tick(1.0)
        leaf()
        clock.tick(3.0)
        leaf()

    mid = tr.wrap("mid", _mid)

    def _outer():
        clock.tick(5.0)
        mid()

    tr.wrap("outer", _outer)()
    got = {n: (s.calls, s.total, s.self) for n, s in tr.stats.items()}
    assert got == {"leaf": (2, 4.0, 4.0), "mid": (1, 8.0, 4.0), "outer": (1, 13.0, 5.0)}


def test_span_closed_when_call_raises():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def _fail():
        clock.tick(2.0)
        raise ValueError

    fail = tr.wrap("fail", _fail)

    def _outer():
        with pytest.raises(ValueError):
            fail()
        clock.tick(1.0)

    tr.wrap("outer", _outer)()
    assert (tr.stats["fail"].total, tr.stats["outer"].self) == (2.0, 1.0)


@pytest.mark.parametrize("n, value, pct", [
    (1, 1.0, 100.0),
    (10, 10.0, 100.0),  # no sample has ten above it: the maximum
    (11, 1.0, 100.0 / 11),
    (30, 20.0, 100.0 * 20 / 30),
    (1000, 990.0, 99.0),
])
def test_high_percentile_has_ten_samples_beyond(n, value, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    got, got_pct, got_n = run.high_percentile(samples)
    assert (got, got_n) == (value, n)
    assert got_pct == pytest.approx(pct)
    if n > run.HIGH_BEYOND:
        assert sum(s > got for s in samples) == run.HIGH_BEYOND


def test_calibrated_normalises_by_the_kernel_timings_around_each_call(monkeypatch):
    # Kernel timings (wall, cpu): the host halves its speed after the first call.
    ref = calibration.REFERENCE_S
    timings = iter([(ref, ref), (ref, 2 * ref), (2 * ref, 2 * ref)])
    monkeypatch.setattr(calibration, "measure", lambda: next(timings))
    calls = iter([(1.0, 1.0), (2.0, 2.0)])
    raw, normalised = run.calibrated(0, 2, lambda: next(calls))
    assert raw == [(1.0, 1.0), (2.0, 2.0)]
    assert normalised == [pytest.approx((1.0, 1.0 / 1.5)), pytest.approx((2.0 / 1.5, 1.0))]


def test_calibration_kernel_is_deterministic():
    assert calibration.kernel() == calibration.kernel()


def test_rebinding_guard_wraps_every_holder_and_restores():
    flow = sys.modules["poissat.sprayflow"].flow
    rank_svd = sys.modules["poissat.linear"].rank_svd
    holders = [m for m in tracer._package_modules() if vars(m).get("rank_svd") is rank_svd]
    assert len(holders) >= 4
    tr = tracer.Tracer()
    with tr.installed(tracer.TARGETS):
        assert sys.modules["poissat.model"].flow is sys.modules["poissat.sprayflow"].flow
        assert sys.modules["poissat.model"].flow.__wrapped_original__ is flow
        assert all(m.rank_svd.__wrapped_original__ is rank_svd for m in holders)
        assert not tracer._holders([flow, rank_svd])
    assert sys.modules["poissat.model"].flow is flow
    assert all(m.rank_svd is rank_svd for m in holders)


def test_guard_refuses_a_missed_holder(monkeypatch):
    flow = sys.modules["poissat.sprayflow"].flow
    # A holder the name scan cannot see: a class attribute.
    monkeypatch.setattr(sys.modules["poissat.model"].SaturationChart, "_flow", flow,
                        raising=False)
    with pytest.raises(RuntimeError, match="unwrapped"):
        with tracer.Tracer().installed(tracer.TARGETS):
            pass
    assert sys.modules["poissat.model"].flow is flow


def test_benchmark_json_names_every_metric_printed():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    layer = [(n, u) for n, u, _ in tracer.LAYER_METRICS] + [tracer.OVERHEAD]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_references_hold_the_expected_verdicts():
    for name, jobs in workloads.WORKLOADS.items():
        for job in jobs:
            ref = workloads.load_reference(name, job)
            assert ref.exit_code == job.expect_exit, job.name
            assert "generated_at" not in json.loads(ref.report)
            assert (ref.csv is not None) == job.csv
