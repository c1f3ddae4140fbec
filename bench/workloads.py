"""The three benchmark workloads: inputs from a seed, operations, checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  An operation is one fit (assemble the
cost, then ``calib.solve_shape``) on the fit workloads and one
``pipeline.run_experiment`` call on trials-barrel.  The program is always
called through module attributes, so the tracer in ``tracing.py`` sees every
call the benchmark makes.

* ``fit-small``: the ``shapecal synth`` -> ``calibrate`` path for the shapes
  none, barrel and positivity on 2304-correspondence sets at true poses.
  Many programs of 10-20 variables; ``sdp.solve`` takes almost all the time
  and the barrel solve's stall shows in its tail.  Not listed in
  BENCHMARK.json: on a VM whose speed drifts, its throughput spread
  exceeded the largest bound allowed there (bench/NOTES.md).
* ``fit-pincushion``: pincushion fits on correspondences induced by
  division-kind ``ba_full`` poses, the SO input of the experiment.  The
  only workload that runs the relaxation hierarchy.  A set either
  certifies at order 1 or the structured pass in under a second, or
  escalates to the full order-2 relaxation (1365 moment variables, about
  half a minute, over 600 MB).  Which sets escalate depends on the seed,
  about a third of them do, and a single escalation outweighs every other
  fit; so each run fits a fixed mix, the first ``escalating`` and the first
  ``certifying`` sets of the seed's candidate stream, and every seed
  measures the same kinds of work.
* ``trials-barrel``: the BA/SO/ASO experiment (criterion 8 scaled down),
  with the thread pool at one worker per available CPU.  Levenberg-Marquardt
  with numeric Jacobians and the barrel SDPs share each trial.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from shapecal import calib, pipeline, relax
from tracing import MARK, BenchError

SMALL_SHAPES = ("none", "barrel", "positivity")
SMALL_SIGMAS = (0.0, 0.5, 1.0, 2.0)
PINCUSHION_SIGMAS = (0.5, 1.0, 1.5, 2.0)
TRIAL_SIGMAS = (1.0, 2.0)
RBAR = 1.0
MARGIN_P = 0.1
# Shape reports above this violation fail a fit (the acceptance gate's
# tolerance for a certified shape).
MAX_VIOLATION = 1e-6
# Candidate pincushion sets tried before the seed counts as lacking an
# escalating set.  About a third escalate, so 40 misses are not expected.
MAX_CANDIDATES = 40


@dataclass(frozen=True)
class Size:
    """How much input a run builds; the defaults are the benchmark."""

    fits_per_shape: int = 100      # fit-small
    certifying: int = 2            # fit-pincushion
    escalating: int = 1            # fit-pincushion
    trials: int = 6                # trials-barrel, per sigma
    scene: pipeline.SceneConfig = field(default_factory=pipeline.SceneConfig)


@dataclass
class Op:
    """One operation of the closed loop.

    ``run`` returns (failure reasons, output digest) with one reason per
    failed job; a fit is one job, an experiment call one job per sigma and
    trial.  ``last`` keeps the latest output where the caller needs it.
    """

    label: str
    run: object = None
    jobs: int = 1
    last: object = None


def derive_seed(seed, *tags):
    sequence = np.random.SeedSequence((int(seed),) + tags)
    return int(sequence.generate_state(1)[0])


def k_digest(model):
    return "none" if model is None else ",".join("%.17g" % v for v in model.k)


def fit_failures(shape, result):
    """Reasons a fit result is wrong; empty when it passes every check."""
    reasons = []
    if result.solver_status != "optimal":
        reasons.append(f"{shape}: status {result.solver_status}")
    if result.model is None:
        reasons.append(f"{shape}: no model")
    report = result.shape_report
    if report is not None and report.max_violation > MAX_VIOLATION:
        reasons.append(f"{shape}: shape violation {report.max_violation:.3g}")
    if shape == "pincushion" and not result.certified:
        reasons.append("pincushion: not certified")
    return reasons


def fit(shape, data):
    cfg = calib.CalibConfig(rbar=RBAR, margin_p=MARGIN_P, shape=shape,
                            delta_max=2)
    cost = calib.assemble_cost(data)
    return calib.solve_shape(cost, cfg)


def fit_op(shape, data):
    def run():
        result = fit(shape, data)
        reasons = fit_failures(shape, result)
        return ["; ".join(reasons)] if reasons else [], k_digest(result.model)
    return Op(shape, run)


def synth_data(cfg, model, seed, sigma):
    """Correspondences exactly as ``shapecal synth`` writes them."""
    scene = pipeline.generate_scene(cfg, model, seed)
    if sigma > 0:
        scene = pipeline.add_noise(scene, sigma)
    return pipeline.correspondences(scene, scene.cameras)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def fit_small_ops(seed, size, _plan):
    """Fits interleaved by shape; set i has sigma SMALL_SIGMAS[i % 4].

    Barrel fits use data from the barrel true model; none and positivity
    fit the same rational-model set.
    """
    ops = []
    for i in range(size.fits_per_shape):
        scene_seed = derive_seed(seed, 1, i)
        sigma = SMALL_SIGMAS[i % len(SMALL_SIGMAS)]
        rational = synth_data(size.scene,
                              pipeline.DEFAULT_TRUE_MODELS["positivity"],
                              scene_seed, sigma)
        barrel = synth_data(size.scene, pipeline.DEFAULT_TRUE_MODELS["barrel"],
                            scene_seed, sigma)
        ops += [fit_op("none", rational), fit_op("barrel", barrel),
                fit_op("positivity", rational)]
    return ops


class _Escalates(Exception):
    pass


def _escalates(data):
    """Fit a pincushion set, stopping where it would enter full order 2.

    ``relax.solve_order`` is replaced for the duration of the fit by a
    stand-in that lets order 1 through and raises on any higher order.
    """
    original = relax.__dict__["solve_order"]

    def stop_at_order2(pmi, delta, options=None):
        if delta >= 2:
            raise _Escalates
        return original(pmi, delta, options)

    setattr(stop_at_order2, MARK, True)
    relax.solve_order = stop_at_order2
    try:
        fit("pincushion", data)
    except _Escalates:
        return True
    finally:
        relax.solve_order = original
    return False


def pincushion_set(cfg, seed, sigma):
    """SO input of one experiment trial: correspondences at ba_full poses."""
    scene = pipeline.generate_scene(
        cfg, pipeline.DEFAULT_TRUE_MODELS["pincushion"], seed)
    noisy = pipeline.add_noise(scene, sigma)
    cams0 = pipeline.bootstrap_poses(noisy, seed)
    cams, _, _ = pipeline.ba_full(noisy, cams0, "division")
    return pipeline.correspondences(noisy, cams)


def pincushion_candidate(cfg, seed, i):
    return pincushion_set(cfg, derive_seed(seed, 2, i),
                          PINCUSHION_SIGMAS[i % len(PINCUSHION_SIGMAS)])


def select_pincushion(seed, size):
    """Indices of the first certifying and escalating candidate sets.

    Candidate i of the seed's stream uses sigma PINCUSHION_SIGMAS[i % 4].
    Each candidate is classified by fitting it; the escalating sets come
    last.
    """
    certifying, escalating = [], []
    for i in range(MAX_CANDIDATES):
        if len(certifying) >= size.certifying and \
                len(escalating) >= size.escalating:
            return certifying[:size.certifying] + escalating[:size.escalating]
        data = pincushion_candidate(size.scene, seed, i)
        (escalating if _escalates(data) else certifying).append(i)
    raise BenchError(f"seed {seed}: fewer than {size.escalating} escalating "
                     f"or {size.certifying} certifying sets among "
                     f"{MAX_CANDIDATES} candidates")


def fit_pincushion_ops(seed, size, chosen):
    return [fit_op("pincushion", pincushion_candidate(size.scene, seed, i))
            for i in chosen]


def trial_failures(report, sigmas, trials):
    """Reasons an experiment report is wrong, one per failed job."""
    errors = {(e["sigma"], e["trial"]): e["error"]
              for e in report.config["errors"]}
    reasons = []
    for sigma in sigmas:
        for trial in range(trials):
            if (sigma, trial) in errors:
                reasons.append(f"sigma {sigma} trial {trial}: error "
                               f"{errors[(sigma, trial)]}")
                continue
            recs = {r["method"]: r for r in report.records
                    if r["sigma"] == sigma and r["trial"] == trial}
            bad = [m for m in ("BA", "SO", "ASO") if m not in recs]
            bad += [f"{m} shape violations" for m in ("SO", "ASO")
                    if m in recs and recs[m]["shape_violations"]]
            if bad:
                reasons.append(f"sigma {sigma} trial {trial}: "
                               + ", ".join(bad))
    return reasons


def trials_barrel_ops(seed, size, _plan):
    cfg = pipeline.ExperimentConfig(
        shape="barrel", sigmas=TRIAL_SIGMAS, trials=size.trials,
        seed=derive_seed(seed, 3), scene=size.scene)
    op = Op("experiment", jobs=len(cfg.sigmas) * cfg.trials)

    def run():
        op.last = pipeline.run_experiment(cfg)
        digest = hashlib.sha256(op.last.to_json().encode()).hexdigest()
        return trial_failures(op.last, cfg.sigmas, cfg.trials), digest

    op.run = run
    return [op]


BUILDERS = {"fit-small": fit_small_ops, "fit-pincushion": fit_pincushion_ops,
            "trials-barrel": trials_barrel_ops}
WORKLOADS = tuple(BUILDERS)


def plan(workload, seed, size):
    """Choices a run makes once, before its set-ups: the pincushion sets.

    Selecting them fits every candidate, which is the benchmark's way of
    fixing the mix rather than input generation, so it is not part of
    ``setup_s``.
    """
    if workload == "fit-pincushion":
        return select_pincushion(seed, size)
    return None


def build(workload, seed, size, chosen=None):
    """Inputs for one run plus the warm-up fits.

    Returns (ops, warm-up fits checked, warm-up failure reasons).  The
    first fit in a process costs several times a later one, so it stays out
    of the measurement: one fit per shape on the fit workloads, and one
    barrel fit, not a whole experiment, on trials-barrel.
    """
    ops = BUILDERS[workload](seed, size, chosen)
    if workload == "trials-barrel":
        data = synth_data(size.scene, pipeline.DEFAULT_TRUE_MODELS["barrel"],
                          derive_seed(seed, 4), 1.0)
        reasons = fit_failures("barrel", fit("barrel", data))
        warm, failures = 1, ["; ".join(reasons)] if reasons else []
    else:
        shapes = SMALL_SHAPES if workload == "fit-small" else ("pincushion",)
        warm_ops = ops[:len(shapes)]
        warm = len(warm_ops)
        failures = [r for op in warm_ops for r in op.run()[0]]
    return ops, warm, failures


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    elapsed: float         # seconds spent in untraced operations
    traced_elapsed: float  # seconds spent in the traced repeats
    jobs_attempted: int
    latencies: dict        # label -> seconds of each successful operation
    op_seconds: list       # seconds per job of each operation
    failures: list         # one reason per failed job
    pass_digest: str       # digest of the outputs of the first full pass


def _timed(op, j):
    """Run one operation; returns (failure reasons, digest, seconds)."""
    t0 = time.perf_counter()
    try:
        reasons, digest = op.run()
    except Exception as exc:  # a raising operation fails all its jobs
        reasons, digest = [f"{op.label} #{j}: raised "
                           f"{type(exc).__name__}: {exc}"] * op.jobs, None
    return reasons, digest, time.perf_counter() - t0


def closed_loop(ops, seconds, tracer=None):
    """Run ``ops`` in order, cycling, until one full pass is done and
    ``seconds`` have passed.  A repeated operation must give the output it
    gave in the first pass; one that differs fails all its jobs.

    With ``tracer``, every operation runs a second time right away with the
    tracer installed and must give the same output.  Traced and untraced
    runs of an operation then see the same state of a machine whose speed
    drifts, which keeps the overhead estimate from measuring the drift.
    """
    first = [None] * len(ops)
    latencies = {op.label: [] for op in ops}
    op_seconds, failures = [], []
    elapsed = traced_elapsed = 0.0
    jobs_attempted = i = 0
    start = time.perf_counter()
    while i < len(ops) or time.perf_counter() - start < seconds:
        j = i % len(ops)
        op = ops[j]
        reasons, digest, dt = _timed(op, j)
        if tracer is not None:
            with tracer:
                _, traced_digest, traced_dt = _timed(op, j)
            traced_elapsed += traced_dt
            if traced_digest != digest:
                reasons = [f"{op.label} #{j}: traced output differs"] * op.jobs
        if i < len(ops):
            first[j] = digest
        elif digest != first[j]:
            reasons = [f"{op.label} #{j}: output differs from the first "
                       f"pass"] * op.jobs
        elapsed += dt
        jobs_attempted += op.jobs
        op_seconds.append(dt / op.jobs)
        if not reasons:
            latencies[op.label].append(dt)
        failures += reasons
        i += 1
    digest = hashlib.sha256("\n".join(map(str, first)).encode()).hexdigest()
    return LoopResult(elapsed, traced_elapsed, jobs_attempted, latencies,
                      op_seconds, failures, digest)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else math.nan
