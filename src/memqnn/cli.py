"""Command-line front end: fetch-data, train, sweep, hist-ops, eval."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import DATASETS, fetch_dataset
from .errors import ConfigError, IdxFormatError
from .harness import (
    ExperimentConfig,
    evaluate,
    load_task_splits,
    ops_histogram,
    preset,
    restore_run,
    run_repeated,
    run_sequential,
    run_sweep,
    write_ops_histogram_csv,
)


def _load_config(args):
    """The --config file (or preset) with every run option that was given applied."""
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_bytes())
    else:
        cfg = preset(args.preset)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.weight_source == "crossbar":
        overrides["grid_source"] = "device"
    return dataclasses.replace(cfg, **overrides).validate()


def _add_run_options(p):
    """Options besides --config/--preset are stored under their config field's name."""
    p.add_argument("--config", help="experiment config JSON (overrides the preset)")
    p.add_argument("--preset", choices=("desk", "full"), default="desk")
    p.add_argument("--m-star", type=float, default=None, dest="m_star")
    p.add_argument("--mode", choices=("exact", "crossbar"), default=None, dest="weight_source")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--out", default=None, dest="out_dir")
    p.add_argument("--dtype", choices=("float32", "float64"), default=None)


def cmd_fetch_data(args):
    names = sorted(DATASETS) if args.dataset == "all" else [args.dataset]
    for name in names:
        paths = fetch_dataset(name, Path(args.dest) / name, base_url=args.base_url,
                              verify_only=args.verify_only)
        print(f"{name}: {len(paths)} files verified in {Path(args.dest) / name}")
    return 0


def cmd_train(args):
    cfg = _load_config(args)
    if args.repeats != 1:
        results = run_repeated(cfg, args.repeats, log=print)
        print(f"wrote {len(results)} runs under {cfg.out_dir} (summary.csv has mean/std)")
        return 0
    res = run_sequential(cfg, log=print)
    for task in (t.name for t in cfg.tasks):
        print(f"final {task}: {res.final_accuracy(task):.2f}%  "
              f"(max {res.max_accuracy(task):.2f}%)")
    print(f"outputs in {res.out_dir}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.m_stars.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--m-stars takes numbers, got {args.m_stars!r}") from None
    results = run_sweep(cfg, values, log=print if args.verbose else None)
    for m, res in zip(values, results):
        finals = " ".join(f"{t.name}={res.final_accuracy(t.name):.2f}" for t in cfg.tasks)
        print(f"m*={m:g}: {finals}")
    print(f"sweep table: {Path(cfg.out_dir) / 'sweep.csv'}")
    return 0


def cmd_hist_ops(args):
    rows = ops_histogram(args.run_dir, bucket_width=args.bucket)
    out = Path(args.out) if args.out else Path(args.run_dir) / "ops_histogram.csv"
    write_ops_histogram_csv(out, rows)
    for lo, hi, pct in rows:
        if pct > 0:
            print(f"[{lo:4d},{hi:4d}) {pct:6.2f}%")
    print(f"histogram: {out}")
    return 0


def cmd_eval(args):
    config, mlp, *_, snapshots = restore_run(args.checkpoint)
    data_dir = args.data_dir or config.data_dir
    tests = load_task_splits(dataclasses.replace(config, data_dir=data_dir), ("test",))["test"]
    for name, split in tests.items():
        acc = evaluate(mlp, split, config.eval_batch, bn_state=snapshots.get(name))
        print(f"{name}: {acc:.2f}%")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="memqnn",
        description="Metaplastic quantized-network training and crossbar simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch-data", help="download or verify the IDX datasets")
    p.add_argument("--dataset", choices=sorted(DATASETS) + ["all"], default="all")
    p.add_argument("--dest", default="data")
    p.add_argument("--base-url", default=None)
    p.add_argument("--verify-only", action="store_true")
    p.set_defaults(func=cmd_fetch_data)

    p = sub.add_parser("train", help="run the sequential-task experiment")
    _add_run_options(p)
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run a consolidation-strength sweep")
    _add_run_options(p)
    p.add_argument("--m-stars", default="0,1,3,5", dest="m_stars")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hist-ops", help="programming-op histogram from a crossbar run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--bucket", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hist_ops)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its tasks' test sets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IdxFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
