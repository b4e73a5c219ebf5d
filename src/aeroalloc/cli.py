"""Command-line front end.

Subcommands cover the full pipeline: synthetic data generation, probe
calibration training, wrench-model training, evaluation across speeds,
closed-loop tracking, and ablation reports. All artifacts land under one
output root, resolved from --out, then the AEROALLOC_OUT environment
variable, then ./aeroalloc_out:

    <root>/datasets/   generated CSVs
    <root>/models/     trained model JSONs
    <root>/reports/    metric reports (json, csv, txt)
    <root>/tracking/   closed-loop logs

Every artifact is a pure function of flags and seed; re-running a command
with the same arguments rewrites byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import allocator, dynamics, harness, nncore, plant, probe

log = logging.getLogger(__name__)


def _speeds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad speed list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("speed list is empty")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"speed list {text!r} repeats a speed")
    return values


def _file_name(text: str) -> str:
    if not plant._is_file_name(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a plain file name")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeroalloc",
        description="Probe calibration, wrench-model learning, and control allocation "
        "against a synthetic wind-tunnel plant.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, params=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, default=None, help="output root directory")
        if params:
            p.add_argument("--params", type=Path, default=None, help="plant parameter JSON")

    p = sub.add_parser("gen-data", help="generate calibration or dynamics CSVs from the plant")
    p.add_argument("--protocol", type=Path, required=True, help="protocol JSON file")
    p.add_argument(
        "--calib", type=Path, nargs=2, metavar=("PROBE0", "PROBE1"), default=None,
        help="calibration model JSONs; route probe features through them",
    )
    add_common(p)

    p = sub.add_parser("train-calib", help="train a probe calibration network from a CSV")
    p.add_argument("--data", type=Path, required=True, help="calibration CSV")
    p.add_argument("--name", type=_file_name, default=None,
                   help="model name (default: data file stem)")
    p.add_argument("--epochs", type=int, default=None)
    add_common(p)

    p = sub.add_parser("train-dyn", help="train one wrench-model variant from a dynamics CSV")
    p.add_argument("--data", type=Path, required=True, nargs="+", help="dynamics CSV(s)")
    p.add_argument("--variant", choices=harness.VARIANTS, default="affine_sym")
    p.add_argument("--lambda-sym", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    add_common(p, params=False)  # the plant is already in the data

    p = sub.add_parser("eval", help="evaluate a trained model across airspeeds or CSVs")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, nargs="+", default=None, help="explicit dynamics CSVs")
    p.add_argument(
        "--speeds", type=_speeds, default=None,
        help="comma list; scores the suite's fresh eval sets, <root>/datasets/dyn_va<S>_eval.csv",
    )
    add_common(p)

    p = sub.add_parser("track", help="closed-loop tracking of a target wrench on the plant")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--speed", type=float, default=10.0)
    p.add_argument("--duration", type=float, default=20.0, help="seconds")
    p.add_argument("--gust", choices=harness.GUST_MODES, default=None)
    p.add_argument("--lambda0", type=float, default=None)
    p.add_argument("--lambda1", type=float, default=None)
    add_common(p)

    p = sub.add_parser("report", help="run or reformat the five-variant ablation suite")
    p.add_argument("--run", action="store_true", help="train all variants and write the suite report")
    p.add_argument("--suite", type=Path, default=None, help="existing suite_report.json to format")
    p.add_argument("--compare", default=None, help="comma list of variants to tabulate")
    p.add_argument("--speeds", type=_speeds, default=None, help="comma list of test speeds")
    p.add_argument("--lambda-sym", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    add_common(p)

    return parser


def _given(**flags) -> dict:
    """The flags that were given; the others fall through to the config's defaults."""
    return {name: value for name, value in flags.items() if value is not None}


def _experiment(args, **flags) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(seed=args.seed, **_given(**flags))


def _load_params(path: Path | None) -> plant.PlantParams:
    return plant.plant_params_from_json(path) if path else plant.PlantParams()


def _new_file(path: Path) -> Path:
    """`path` with its directory made; called just before the file is written,
    so a command that fails earlier leaves nothing behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gen_data(args) -> int:
    root = harness.resolve_out_root(args.out)
    params = _load_params(args.params)
    probe_models = None
    if args.calib:
        probe_models = [nncore.load_network(p) for p in args.calib]
    paths = plant.generate_dataset(
        args.protocol, params, args.seed, root / "datasets", probe_models=probe_models
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_train_calib(args) -> int:
    root = harness.resolve_out_root(args.out)
    rho = _load_params(args.params).rho  # the density the taps were read in
    cfg = probe.CalibrationTrainConfig(seed=args.seed, rho=rho, **_given(epochs=args.epochs))
    rows = probe.load_calibration_csv(args.data)
    model = probe.train_calibration(rows, cfg)
    name = args.name or args.data.stem
    out_path = _new_file(root / "models" / f"calib_{name}.json")
    nncore.save_network(model, out_path)
    print(f"wrote {out_path}")
    return 0


def _cmd_train_dyn(args) -> int:
    root = harness.resolve_out_root(args.out)
    cfg = _experiment(args, lambda_sym=args.lambda_sym, epochs=args.epochs)
    full = harness._concat_datasets([dynamics.load_dynamics_csv(p) for p in args.data])
    model = harness.train_variant(args.variant, full, cfg)
    out_path = _new_file(root / "models" / f"{args.variant}_seed{args.seed}.json")
    dynamics.save_dynamics_model(model, out_path)
    print(f"wrote {out_path}")
    return 0


def _cmd_eval(args) -> int:
    root = harness.resolve_out_root(args.out)
    params = _load_params(args.params)
    model = dynamics.load_dynamics_model(args.model)
    if not args.data and not args.speeds:
        print("eval needs --data or --speeds", file=sys.stderr)
        return 2
    # the eval sets that `report --run --speeds` writes for the same list
    cfg = _experiment(args, test_speeds=args.speeds) if args.speeds else None

    results = {}
    if args.data:
        for path in args.data:
            results[path.stem] = dynamics.eval_rmse(model, dynamics.load_dynamics_csv(path))
    if cfg is not None:
        for speed in args.speeds:
            eval_set = harness.generate_eval_set(cfg, speed, params, root / "datasets")
            results[f"va{speed:g}"] = dynamics.eval_rmse(model, eval_set)

    doc = {"model": args.model.name, "rmse": results}
    out_path = _new_file(root / "reports" / f"eval_{args.model.stem}.json")
    out_path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    width = max(len(k) for k in ["dataset", *results])
    print(f"{'dataset':<{width + 2}}rmse")
    for key in sorted(results):
        print(f"{key:<{width + 2}}{results[key]:.4f}")
    print(f"wrote {out_path}")
    return 0


def _cmd_track(args) -> int:
    root = harness.resolve_out_root(args.out)
    params = _load_params(args.params)
    model = dynamics.load_dynamics_model(args.model)
    cfg = _experiment(args, lambda0=args.lambda0, lambda1=args.lambda1,
                      gust_mode=args.gust, duration_s=args.duration)
    tlog = harness.closed_loop_run(model, cfg, args.speed, params=params)
    metrics = harness.closed_loop_metrics(tlog)  # raises before either file is written
    stem = f"track_{args.model.stem}_va{args.speed:g}_seed{args.seed}"
    out_path = _new_file(root / "tracking" / f"{stem}.csv")
    allocator.save_tracking_csv(out_path, tlog)
    metrics_path = out_path.with_name(f"{stem}_metrics.json")
    metrics_path.write_text(json.dumps(metrics, sort_keys=True, indent=1))
    print(f"tracking rmse {metrics['tracking_rmse']:.4f}")
    per_input = np.asarray(metrics["rmssd"]["per_input"])
    print(
        f"rmssd per input {np.array2string(per_input, precision=4)} "
        f"avg {metrics['rmssd']['average']:.4f}"
    )
    print(f"wrote {out_path}")
    print(f"wrote {metrics_path}")
    return 0


def _cmd_report(args) -> int:
    root = harness.resolve_out_root(args.out)
    compare = [v.strip() for v in args.compare.split(",")] if args.compare else None
    if args.run:
        # the suite trains harness.VARIANTS, so a typo is known before it runs
        harness._check_variants(compare or (), harness.VARIANTS)
        cfg = _experiment(args, test_speeds=args.speeds, lambda_sym=args.lambda_sym,
                          epochs=args.epochs)
        report = harness.run_ablation_suite(cfg, root, params=_load_params(args.params))
        print(f"wrote {root / 'reports' / 'suite_report.json'}")
    elif args.suite:
        report = harness.load_report_json(args.suite)
    else:
        print("report needs --run or --suite", file=sys.stderr)
        return 2
    print(harness.format_report_text(report, compare=compare))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-calib": _cmd_train_calib,
    "train-dyn": _cmd_train_dyn,
    "eval": _cmd_eval,
    "track": _cmd_track,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # small matrices: on 2 vCPUs a 300-epoch affine_sym training took 3.5 s on one
        # thread and 3.7 s on two (medians of 3)
        with harness._one_blas_thread():
            return _COMMANDS[args.command](args)
    except (OSError, ValueError, ArithmeticError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
