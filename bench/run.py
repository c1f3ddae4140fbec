"""shapecal benchmark: one workload per process, metrics as JSON.

    python3 bench/run.py --workload fit-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run sets up its inputs several times
(``setup_s`` is import time plus the median set-up), then runs a closed loop
of operations for ``--seconds`` (at least one full pass over the inputs)
with no wrapper installed, and prints the end-to-end metrics.  With
``--trace 1`` it sets up once under the tracer, then runs one pass in which
every operation runs untraced and right after traced, and prints the
per-layer metrics and the tracing overhead (traced time over untraced time,
minus one).

The last line of standard output is the result object; the line before
it holds the detailed report: every metric of the workload with its unit
and sample count, the environment and the output digest.  Outputs are
checked on every operation; a failed check counts as a failed job.  The
digest of the first pass is kept in ``.bench_state/`` of the checkout, and
a later run of the same workload and seed that disagrees counts as one
more failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))

# BLAS runs single-threaded so that experiment workers times BLAS threads
# stay within the CPUs; this must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("SHAPECAL_THREADS", str(NPROC))
sys.path.insert(0, SRC)

SETUP_REPEATS = 3
STATE_FILE = os.path.join(ROOT, ".bench_state", "digests.json")


def git_commit(root):
    """Commit of the checkout read from .git, or None outside a git tree."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln
                           and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "SHAPECAL_THREADS": int(os.environ["SHAPECAL_THREADS"]),
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }
    threads = env["blas_threads"] or int(env["OPENBLAS_NUM_THREADS"])
    if env["SHAPECAL_THREADS"] * threads > NPROC:
        from tracing import BenchError
        raise BenchError(f"SHAPECAL_THREADS={env['SHAPECAL_THREADS']} times "
                         f"{threads} BLAS threads exceeds {NPROC} CPUs")
    return env


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_digest(key, digest):
    """Compare with the digest an earlier run of ``key`` stored.

    Returns a failure reason, or None when they agree or this is the first
    run of ``key`` in the checkout (its digest is then stored).
    """
    try:
        with open(STATE_FILE) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != digest:
            return f"{key}: output digest differs from an earlier run"
        return None
    known[key] = digest
    os.makedirs(os.path.dirname(STATE_FILE), exist_ok=True)
    tmp = f"{STATE_FILE}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, STATE_FILE)
    return None


def metric(value, unit, samples=None):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(workload, loop, ops, setup_s, failed, attempted):
    """Every end-to-end metric of the workload, by name: the generic ones
    BENCHMARK.json gates and the per-workload ones next to them."""
    import workloads as wl
    rate = (loop.jobs_attempted - len(loop.failures)) / loop.elapsed
    out = {
        "setup_s": metric(setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "failed_ratio": metric(failed / attempted, "ratio", attempted),
        "ops_per_s": metric(rate, "1/s", loop.jobs_attempted),
        "op_p50_ms": metric(1000.0 * wl.median(loop.op_seconds), "ms",
                            len(loop.op_seconds)),
    }
    if workload == "trials-barrel":
        out["trials_per_s"] = out["ops_per_s"]
        records = ops[0].last.records
        for method in ("BA", "SO", "ASO"):
            vals = [r["valid_rms"] for r in records if r["method"] == method]
            out[f"valid_rms_px.{method}"] = metric(wl.median(vals), "px",
                                                   len(vals))
        return out
    out["fits_per_s"] = out["ops_per_s"]
    for label, lat in loop.latencies.items():
        ms = [1000.0 * t for t in lat]
        out[f"fit_p50_ms.{label}"] = metric(wl.median(ms), "ms", len(ms))
        # A tail percentile is reported only with ten samples beyond it.
        if len(ms) >= 100:
            out[f"fit_p90_ms.{label}"] = metric(wl.percentile(ms, 90), "ms",
                                                len(ms))
    return out


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace, size=None, import_s=0.0):
    """One benchmark run; returns (detail, result metrics, failures,
    attempted)."""
    import tracing
    import workloads as wl
    size = size or wl.Size()
    env = environment(seed)
    if tracing.installed_sites():
        raise wl.BenchError(f"wrappers installed before the run: "
                            f"{tracing.installed_sites()}")

    setups = []
    if trace:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracer:
            chosen = wl.plan(workload, seed, size)
            t1 = time.perf_counter()
            ops, warm_ups, failures = wl.build(workload, seed, size, chosen)
        plan_s = t1 - t0
        setups.append(time.perf_counter() - t1)
        first_traced = len(tracer.spans)
        loop = wl.closed_loop(ops, 0.0, tracer)
        tracing.check_nesting(tracer.spans)
        missing = tracing.missing_reach(tracer, workload)
        if missing:
            raise wl.BenchError(f"{workload}: wrapped sites saw no call: "
                                f"{missing}")
        layers = {name: metric(v, unit) for name, (v, unit)
                  in tracing.per_layer(tracer.spans).items()}
        layers["trace.overhead_ratio"] = metric(
            loop.traced_elapsed / loop.elapsed - 1.0, "ratio")
        layers["trace.spans"] = metric(len(tracer.spans) - first_traced,
                                       "count")
        by_name = {name: {"calls": agg["calls"], "s": agg["s"],
                          "self_s": agg["self_s"]} for name, agg
                   in tracing.layer_metrics(tracer.spans).items()}
    else:
        t0 = time.perf_counter()
        chosen = wl.plan(workload, seed, size)
        plan_s = time.perf_counter() - t0
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops, warm_ups, failures = wl.build(workload, seed, size, chosen)
            setups.append(time.perf_counter() - t0)
        loop = wl.closed_loop(ops, seconds)
        if tracing.installed_sites():
            raise wl.BenchError("a wrapper was installed during a timed run")

    failures += loop.failures
    mismatch = check_digest(f"{workload}/{seed}/{size!r}", loop.pass_digest)
    if mismatch:
        failures.append(mismatch)
    # Attempted: every job of the loop, the checked warm-up fits and the
    # comparison with earlier runs.
    attempted = loop.jobs_attempted + warm_ups + 1

    e2e = end_to_end(workload, loop, ops, import_s + wl.median(setups),
                     len(failures), attempted)
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "env": env, "digest": loop.pass_digest,
              "failures": failures[:20], "setup_runs_s": setups,
              "import_s": import_s, "plan_s": plan_s, "metrics": e2e}
    if trace:
        detail["per_layer"] = layers
        detail["spans_by_name"] = by_name
    return detail, (layers if trace else e2e), failures, attempted


def main(argv=None, import_s=0.0):
    import workloads as wl
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = declared_metrics(args.trace)
    try:
        detail, metrics, failures, attempted = run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            import_s=import_s)
    except wl.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}",
              file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {n: {"value": metrics[n]["value"],
                                      "unit": metrics[n]["unit"]}
                                  for n in names}}))
    return 0


if __name__ == "__main__":
    _t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import shapecal
    if os.path.dirname(os.path.abspath(shapecal.__file__)) != \
            os.path.join(SRC, "shapecal"):
        sys.exit(f"shapecal imported from {shapecal.__file__}, "
                 f"not from {SRC}")
    import tracing  # noqa: F401
    import workloads  # noqa: F401
    sys.exit(main(import_s=time.perf_counter() - _t0))
