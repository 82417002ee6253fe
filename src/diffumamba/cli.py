"""Command-line front end.

Subcommands and the run flags each takes (``--help`` lists the rest):
gen-data, perturb, analyze: --seed N, --out DIR;
train: --seed N, --out DIR, --config PATH, --f64;
eval: --out DIR;
selfcheck: --seed N, --out DIR (optional).
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure,
4 selfcheck failure.
"""

from __future__ import annotations

import argparse
import contextvars
import os
import sys
from dataclasses import replace

from . import tensor as T
from .analysis import (DEFAULT_K_RANGE, analyze_model, read_lambda_trace_csv,
                       write_analysis_csv)
from .data import (DataError, NOISE_FAMILIES, PhantomConfig, check_label_classes,
                   gen_phantoms, load_dataset, save_dataset)
from .metrics import evaluate_model, perturbation_grid, write_perturb_csv
from .network import Network, load_checkpoint
from .oracles import SELFCHECKS
from .recordio import ContainerError
from .tensor import NumericError, ShapeError
from .train import ExperimentConfig, train_run
from .util import atomic_write, build_id, read_json, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_SELFCHECK = 4


def build_parser():
    parser = argparse.ArgumentParser(prog="diffumamba",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic phantom volumes")
    p.add_argument("--seed", type=int, default=0, help="run seed (u64)")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--n", type=int, default=8, help="number of samples")
    p.add_argument("--size", type=int, nargs=3, default=[32, 32, 32],
                   metavar=("D", "H", "W"))
    p.add_argument("--blobs", type=int, nargs=2, default=None, metavar=("MIN", "MAX"))
    p.add_argument("--radius", type=float, nargs=2, default=None, metavar=("MIN", "MAX"))
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides train.seed and model.seed (default: the config's, else 0)")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file, e.g. a run's config.json")
    p.add_argument("--f64", action="store_true", help="64-bit float test mode")
    p.add_argument("--train-manifest", type=str, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--no-nrm", action="store_true",
                   help="train the baseline without the noise reduction module")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--manifest", type=str, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("perturb", help="noise-robustness grid on a checkpoint")
    p.add_argument("--seed", type=int, default=0, help="run seed (u64)")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--families", type=str, nargs="+", default=list(NOISE_FAMILIES),
                   choices=list(NOISE_FAMILIES))
    p.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("analyze", help="latent-space analysis of a checkpoint")
    p.add_argument("--seed", type=int, default=0, help="run seed (u64)")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--lambda-trace", type=str, default=None,
                   help="lambda_trace.csv from training (optional)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("selfcheck", help="run built-in verification oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None,
                   help="optional directory for the written report")
    p.add_argument("--corrupt-adjoint", action="store_true",
                   help="testing hook: inject a matmul adjoint fault")
    p.set_defaults(func=cmd_selfcheck)
    return parser


# ----------------------------------------------------------------------
# commands


def _echo(args, **fields):
    """Write ``run.json``: the command, the build id and ``fields``."""
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "run.json"),
               {"command": args.command, "build_id": build_id(), **fields})


def _check_volumes(samples, cfg):
    """Raise DataError unless every sample's volume fits ``cfg``'s model."""
    for s in samples:
        try:
            cfg.check_volume_shape(s.image.shape)
        except ShapeError as err:
            raise DataError(f"sample {s.id}: {err}") from err


def cmd_gen_data(args):
    given = {"n_blobs": args.blobs, "radius": args.radius}
    cfg = PhantomConfig(shape=tuple(args.size), **{k: tuple(v) for k, v in given.items() if v})
    samples = gen_phantoms(args.n, args.seed, cfg)
    manifest = save_dataset(samples, args.out)
    _echo(args, seed=args.seed, n=args.n, manifest=manifest, shape=list(cfg.shape),
          n_blobs=list(cfg.n_blobs))
    print(f"wrote {args.n} samples; manifest: {manifest}")
    return EXIT_OK


def cmd_train(args):
    if args.f64:        # main runs each command in its own context, so this ends with it
        T.set_default_dtype("f64")
    try:
        cfg = ExperimentConfig.from_dict(read_json(args.config) if args.config else {})
    except (AttributeError, TypeError, ValueError) as err:   # incl. JSONDecodeError
        raise DataError(f"bad config {args.config}: {err}") from err
    # the flags given win over the config file
    train = {k: v for k, v in [("epochs", args.epochs), ("lr", args.lr),
                               ("batch_size", args.batch_size), ("seed", args.seed)]
             if v is not None}
    model = {"seed": args.seed} if args.seed is not None else {}
    if args.no_nrm:
        model["nrm_enabled"] = False
    try:
        cfg = replace(cfg, model=replace(cfg.model, **model), train=replace(cfg.train, **train),
                      train_manifest=args.train_manifest or cfg.train_manifest)
    except ValueError as err:
        raise DataError(f"bad flag value: {err}") from err
    if not cfg.train_manifest:
        raise DataError("no training manifest given (--train-manifest or config)")
    samples = load_dataset(cfg.train_manifest)
    check_label_classes(samples, cfg.model.n_classes)
    _check_volumes(samples, cfg.model)
    _echo(args, seed=cfg.train.seed)
    write_json(os.path.join(args.out, "config.json"), cfg.to_dict())
    result = train_run(Network(cfg.model), samples, cfg.train, args.out)
    print(f"final checkpoint: {result.final_path}")
    return EXIT_OK


def cmd_eval(args):
    model, aux = load_checkpoint(args.checkpoint)
    samples = load_dataset(args.manifest)
    check_label_classes(samples, model.cfg.n_classes)
    _check_volumes(samples, model.cfg)
    meta = {"build_id": build_id(), "checkpoint": args.checkpoint, "step": aux.get("step", 0)}
    report = evaluate_model(model, samples, meta=meta)
    _echo(args, checkpoint=args.checkpoint, n_samples=len(samples))
    report.write_csv(os.path.join(args.out, "metrics.csv"))
    report.write_json(os.path.join(args.out, "metrics.json"))
    s = report.summary()
    print(f"mean DSC {s['dsc']['mean']:.4f}  mean IoU {s['iou']['mean']:.4f}  "
          f"HD95 {s['hd95']['mean'] if s['hd95']['mean'] is not None else 'n/a'}")
    return EXIT_OK


def cmd_perturb(args):
    model, _ = load_checkpoint(args.checkpoint)
    samples = load_dataset(args.manifest)
    check_label_classes(samples, model.cfg.n_classes)
    _check_volumes(samples, model.cfg)
    for lv in args.levels:
        if not 1 <= lv <= 6:
            raise DataError(f"noise level {lv} outside 1..6")
    cells = perturbation_grid(model, samples, args.families, args.levels, seed=args.seed)
    _echo(args, seed=args.seed, checkpoint=args.checkpoint, families=args.families,
          levels=args.levels)
    write_perturb_csv(cells, os.path.join(args.out, "perturbation.csv"),
                      meta={"seed": args.seed, "build_id": build_id()})
    for c in cells:
        print(f"{c.family:12s} level {c.level}  param {c.param:<7g} "
              f"DSC {c.mean_dsc:.4f}  |delta| {c.mean_perturbation:.4f}")
    return EXIT_OK


def cmd_analyze(args):
    model, _ = load_checkpoint(args.checkpoint)
    samples = load_dataset(args.manifest)
    _check_volumes(samples, model.cfg)
    trace = None
    if args.lambda_trace:
        trace = read_lambda_trace_csv(args.lambda_trace)
    _echo(args, seed=args.seed, checkpoint=args.checkpoint)
    meta = {"seed": args.seed, "build_id": build_id()}
    rows, summary = analyze_model(model, samples, k_range=DEFAULT_K_RANGE,
                                  seed=args.seed, out_dir=args.out,
                                  lambda_trace=trace, meta=meta)
    write_analysis_csv(rows, os.path.join(args.out, "analysis.csv"), meta=meta)
    write_json(os.path.join(args.out, "analysis.json"), summary)
    mp = summary.get("mean_pearson_m1_m2")
    print(f"samples {summary['n_samples']}  mean silhouette "
          f"{summary['mean_silhouette']:.4f}  mean pearson(m1,m2) "
          f"{mp if mp is not None else 'n/a'}")
    return EXIT_OK


# ----------------------------------------------------------------------
# selfcheck


def run_selfcheck(seed=0, corrupt_adjoint=False, print_fn=print) -> bool:
    """Run every check in ``oracles.SELFCHECKS``; print one line per check."""
    ok = True
    if corrupt_adjoint:
        T.set_gradient_fault(1.02)
    try:
        for name, tol, fn in SELFCHECKS:
            detail = None
            try:
                measured = fn(seed)
            except AssertionError as err:      # a failed gradient check
                measured, detail = float("nan"), err
            passed = measured <= tol
            ok &= passed
            print_fn(f"[{'PASS' if passed else 'FAIL'}] {name:40s} "
                     f"measured={measured:.3e}  tol={tol:g}")
            if detail is not None:
                print_fn(f"       {detail}")
    finally:
        T.set_gradient_fault(None)
    print_fn(f"selfcheck: {'all checks passed' if ok else 'FAILURES detected'}")
    return bool(ok)


def cmd_selfcheck(args):
    lines = []

    def tee(msg):
        print(msg)
        lines.append(msg)

    ok = run_selfcheck(seed=args.seed, corrupt_adjoint=args.corrupt_adjoint,
                       print_fn=tee)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_write(os.path.join(args.out, "selfcheck.txt")) as fh:
            fh.write(f"# seed={args.seed} build_id={build_id()}\n")
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_SELFCHECK


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return contextvars.copy_context().run(args.func, args)
    except (DataError, ContainerError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
