"""Self-test of the benchmark at its smallest size.

    python3 -m pytest -q bench/test_bench.py

Runs every workload on a 6x6 target seen by 3 cameras, with the fewest
inputs that still reach every wrapped layer, with and without the tracer.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402  (pins BLAS threads, puts src/ on the path)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from shapecal import pipeline  # noqa: E402

SMALLEST = wl.Size(fits_per_shape=2, certifying=1, escalating=0, trials=1,
                   scene=pipeline.SceneConfig(target_rows=6, target_cols=6,
                                              cameras=3))


@pytest.fixture(autouse=True)
def state_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_FILE", str(tmp_path / "digests.json"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_declared_metrics_present_finite_with_unit(workload, trace):
    detail, metrics, failures, attempted = bench.run(
        workload, 1, 0.0, bool(trace), size=SMALLEST)
    assert failures == []
    assert attempted >= 1
    for name in bench.declared_metrics(trace):
        assert name in metrics, name
        assert math.isfinite(metrics[name]["value"]), name
        assert metrics[name]["unit"], name
    for name, m in detail["metrics"].items():
        assert math.isfinite(m["value"]) and m["unit"], name
    if trace:
        assert math.isfinite(metrics["trace.overhead_ratio"]["value"])
    assert tracing.installed_sites() == []


def test_spans_nest_and_self_times_are_not_negative():
    ops, _, _ = wl.build("trials-barrel", 1, SMALLEST)
    tracer = tracing.Tracer()
    with tracer:
        wl.closed_loop(ops, 0.0)
    assert tracing.installed_sites() == []
    tracing.check_nesting(tracer.spans)
    # Children are summed in floating point; allow rounding, nothing more.
    assert min(tracing.self_times(tracer.spans)) >= -1e-9


def test_missed_import_site_is_reported():
    tracer = tracing.Tracer()
    with tracer:
        # Undo one import site, as a tracer wrapping only
        # distortion.shape_check would leave calib's own name unwrapped.
        wrapped = wl.calib.shape_check
        wl.calib.shape_check = wrapped.__wrapped__
        try:
            ops, _, _ = wl.build("fit-small", 1, SMALLEST)
            wl.closed_loop(ops, 0.0)
        finally:
            wl.calib.shape_check = wrapped
    assert tracing.missing_reach(tracer, "fit-small") == ["calib.shape_check"]


def test_digest_disagreement_counts_as_failure():
    assert bench.check_digest("w/1", "a") is None
    assert bench.check_digest("w/1", "a") is None
    assert bench.check_digest("w/1", "b") is not None
