"""Command-line front end.

Subcommands: synth | calibrate | undistort | experiment | curve.
Exit codes: 0 success, 2 usage error, 3 data error, 4 solver or
uncertified result, 5 I/O error.  All numeric output uses 17 significant
digits so written files are byte-reproducible and usable as test fixtures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import calib, pipeline, sdp
from .calib import CalibDataError, CalibrationError
from .distortion import (NoRootError, load_model, save_model,
                         undistort_points)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _fmt(x):
    return "%.17g" % float(x)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapecal",
        description="Shape-constrained radial distortion calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--out", required=True, help="scene JSON path")
    p.add_argument("--corr", help="correspondence CSV path "
                   "(default: <out stem>_corr.csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cameras", type=int, default=9)
    p.add_argument("--target", default="16x16", help="grid as ROWSxCOLS")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="pixel noise standard deviation")
    p.add_argument("--shape", default="barrel",
                   choices=sorted(pipeline.DEFAULT_TRUE_MODELS),
                   help="true-model family")
    p.add_argument("--model", help="JSON file overriding the true model")
    p.add_argument("--coverage", type=float, default=0.5)

    p = sub.add_parser("calibrate", help="fit a distortion model to a CSV")
    p.add_argument("data", help="correspondence CSV (x,y,xhat,yhat)")
    p.add_argument("--shape", default="none",
                   choices=list(calib.SHAPE_KINDS))
    p.add_argument("--rbar", type=float,
                   help="field-of-view radius bound (required for shapes)")
    p.add_argument("--p", type=float, default=0.1, dest="margin_p",
                   help="denominator positivity margin")
    p.add_argument("--delta-max", type=int, default=2)
    p.add_argument("--out", help="model JSON output path")
    p.add_argument("--dump-sdp", help="write the assembled program as JSON "
                   "for external cross-checking (barrel and positivity "
                   "only)")

    p = sub.add_parser("undistort", help="invert a model over a point CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True,
                   help="CSV with header x,y (distorted, normalized)")
    p.add_argument("--out", required=True)
    p.add_argument("--search-max", type=float, default=2.0)

    p = sub.add_parser("experiment", help="run the BA/SO/ASO comparison")
    p.add_argument("--out", required=True, help="output stem "
                   "(writes <stem>.json and <stem>.csv)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--sigmas", default="0,0.5,1,1.5,2")
    p.add_argument("--shape", default="barrel",
                   choices=sorted(pipeline.DEFAULT_TRUE_MODELS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rbar", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.1, dest="margin_p")
    p.add_argument("--cameras", type=int, default=9)
    p.add_argument("--target", default="16x16")

    p = sub.add_parser("curve", help="export r, L, L', L'' samples")
    p.add_argument("--model", required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", required=True)
    return parser


def _parse_target(text):
    try:
        rows, cols = text.lower().split("x")
        rows, cols = int(rows), int(cols)
    except ValueError as exc:
        raise CalibDataError(f"bad --target {text!r}, expected ROWSxCOLS") \
            from exc
    if rows < 2 or cols < 2:
        raise CalibDataError(f"bad --target {text!r}, need at least 2x2")
    return rows, cols


def _require_at_least(option, value, low):
    if value < low:
        raise CalibDataError(f"bad {option} {value}, need at least {low}")


def _require_positive(option, value, zero_ok=False):
    """Refuse NaN, infinities, negatives, and zero unless ``zero_ok``."""
    if not (0 <= value if zero_ok else 0 < value) or math.isinf(value):
        sign = "non-negative" if zero_ok else "positive"
        raise CalibDataError(f"bad {option} {value}, need a {sign} value "
                             f"that is finite")


def _load_model(path):
    """A model file's model; a file that holds no model is a data error."""
    try:
        return load_model(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise CalibDataError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _require_margin(value):
    if not 0 < value < 1:
        raise CalibDataError(f"bad --p {value}, need 0 < p < 1")


def _parse_sigmas(text):
    try:
        sigmas = tuple(float(s) for s in text.split(","))
    except ValueError as exc:
        raise CalibDataError(f"bad --sigmas {text!r}, expected comma-"
                             f"separated numbers") from exc
    for sigma in sigmas:
        _require_positive("--sigmas", sigma, zero_ok=True)
    return sigmas


def cmd_synth(args):
    rows, cols = _parse_target(args.target)
    _require_at_least("--cameras", args.cameras, 1)
    _require_at_least("--seed", args.seed, 0)
    _require_positive("--coverage", args.coverage)
    _require_positive("--sigma", args.sigma, zero_ok=True)
    cfg = pipeline.SceneConfig(target_rows=rows, target_cols=cols,
                               cameras=args.cameras,
                               coverage=args.coverage)
    model = (_load_model(args.model) if args.model
             else pipeline.DEFAULT_TRUE_MODELS[args.shape])
    scene = pipeline.generate_scene(cfg, model, args.seed)
    if args.sigma > 0:
        scene = pipeline.add_noise(scene, args.sigma)
    corr_path = args.corr or (os.path.splitext(args.out)[0] + "_corr.csv")
    with open(args.out, "w") as fh:
        fh.write(pipeline.scene_to_json(scene))
        fh.write("\n")
    data = pipeline.correspondences(scene, scene.cameras)
    calib.write_correspondences(corr_path, data)
    print(f"scene: {len(scene.target)} points, {len(scene.cameras)} cameras, "
          f"sigma={_fmt(args.sigma)}, seed={args.seed}")
    print(f"wrote {args.out} and {corr_path} ({len(data)} correspondences)")
    return EXIT_OK


def cmd_calibrate(args):
    if args.shape != "none" and args.rbar is None:
        print("error: --rbar is required for shaped calibration",
              file=sys.stderr)
        return EXIT_USAGE
    if args.dump_sdp and args.shape not in calib._AFFINE_SHAPES:
        print("error: --dump-sdp covers only the barrel and positivity "
              "shapes", file=sys.stderr)
        return EXIT_USAGE
    if args.rbar is not None:
        _require_positive("--rbar", args.rbar)
    _require_margin(args.margin_p)
    if args.delta_max not in (1, 2):
        raise CalibDataError(f"bad --delta-max {args.delta_max}, need 1 or 2")
    data = calib.read_correspondences(args.data)
    cost = calib.assemble_cost(data)
    if args.shape == "none":
        result = calib.solve_unconstrained(cost)
    else:
        cfg = calib.CalibConfig(rbar=args.rbar, margin_p=args.margin_p,
                                delta_max=args.delta_max, shape=args.shape)
        if args.dump_sdp:
            built = calib.shape_program(cost, args.shape, cfg)
            with open(args.dump_sdp, "w") as fh:
                fh.write(sdp.program_to_json(built[0]))
                fh.write("\n")
            result = calib._solve_affine(cost, args.shape, cfg, built)
        else:
            result = calib.solve_shape(cost, cfg)

    print(f"status: {result.solver_status}")
    if result.model is not None:
        print("kind:", result.model.kind)
        print("k:", " ".join(_fmt(v) for v in result.model.k))
        print("objective:", _fmt(result.objective))
        print("reprojection_rms:", _fmt(calib.residual_rms(data,
                                                           result.model)))
    if result.shape_report is not None:
        print("shape_max_violation:", _fmt(result.shape_report.max_violation))
    if result.relaxation_order is not None:
        print("relaxation_order:", result.relaxation_order)
        print("relaxation_pass:", result.relaxation_pass)
        print("certified:", result.certified)
    if result.lower_bound is not None:
        print("lower_bound:", _fmt(result.lower_bound))
    for w in result.warnings:
        print("warning:", w)
    if result.solver_status != "optimal":
        print(json.dumps({"reason": result.solver_status,
                          "lower_bound": result.lower_bound}),
              file=sys.stderr)
        return EXIT_SOLVER
    if args.out:
        save_model(result.model, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_undistort(args):
    _require_positive("--search-max", args.search_max)
    model = _load_model(args.model)
    pts, ok = undistort_points(
        model, calib.read_rows(args.points, ("x,y", "xhat,yhat"), 2),
        args.search_max)
    out_lines = ["x,y,error"] + [
        f"{_fmt(x)},{_fmt(y)}," if good else f",,{NoRootError.__name__}"
        for (x, y), good in zip(pts, ok)]
    with open(args.out, "w") as fh:
        fh.write("\n".join(out_lines) + "\n")
    print(f"wrote {args.out} ({len(pts)} rows, {int((~ok).sum())} failed)")
    return EXIT_OK


def cmd_experiment(args):
    rows, cols = _parse_target(args.target)
    sigmas = _parse_sigmas(args.sigmas)
    _require_at_least("--trials", args.trials, 1)
    _require_at_least("--cameras", args.cameras, 1)
    _require_at_least("--seed", args.seed, 0)
    _require_positive("--rbar", args.rbar)
    _require_margin(args.margin_p)
    cfg = pipeline.ExperimentConfig(
        shape=args.shape, sigmas=sigmas, trials=args.trials, seed=args.seed,
        scene=pipeline.SceneConfig(target_rows=rows, target_cols=cols,
                                   cameras=args.cameras),
        rbar=args.rbar, margin_p=args.margin_p)
    report = pipeline.run_experiment(cfg)
    with open(args.out + ".json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    with open(args.out + ".csv", "w") as fh:
        fh.write(report.to_csv())
    print(f"wrote {args.out}.json and {args.out}.csv "
          f"({len(report.records)} records)")
    errors = report.config.get("errors", [])
    if errors:
        print(f"{len(errors)} trial(s) failed:", file=sys.stderr)
        for e in errors:
            print(json.dumps(e), file=sys.stderr)
    return EXIT_OK


def cmd_curve(args):
    _require_at_least("--samples", args.samples, 1)
    _require_positive("--rmax", args.rmax)
    model = _load_model(args.model)
    rs = np.linspace(0.0, args.rmax, args.samples)
    Ls, _, pole = model.evaluate(rs, 2)
    values = np.column_stack(Ls)
    lines = ["r,L,L1,L2"] + [
        f"{_fmt(r)},pole,pole,pole" if at_pole
        else ",".join(map(_fmt, (r, *v)))
        for r, at_pole, v in zip(rs, pole, values)]
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({args.samples} samples)")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "calibrate": cmd_calibrate,
    "undistort": cmd_undistort,
    "experiment": cmd_experiment,
    "curve": cmd_curve,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CalibDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        print(json.dumps({"reason": exc.status}), file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
