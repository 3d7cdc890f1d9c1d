"""Command-line interface: synth, train, eval, ablate, gradcheck."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from . import gradcheck, motion
from .data import FeatureDims, load_manifest, synth_dataset, synced_open
from .errors import AvlocError, ConfigError
from .model import MODES, Dims, ModelConfig
from .training import TrainConfig, ablate, check_ablation, evaluate, load_checkpoint, train

ABLATE_EPOCHS = 80  # per-variant training budget used by the ablate subcommand


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avloc",
        description="Audio-visual event localization: synthetic data, "
                    "training, evaluation, ablation, gradient checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-event dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int, default=64)
    for f in fields(FeatureDims):
        p.add_argument("--" + f.name.replace("_", ""), dest=f.name, type=int, default=f.default)
    p.add_argument("--snr", type=float, default=synth_dataset.__kwdefaults__["snr"])

    train_cfg, model_cfg = TrainConfig(), ModelConfig()
    p = sub.add_parser("train", help="train on a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=MODES, default=model_cfg.mode)
    p.add_argument("--epochs", type=int, default=train_cfg.epochs)
    p.add_argument("--batch", type=int, default=train_cfg.batch_size)
    p.add_argument("--lr", type=float, default=train_cfg.learning_rate)
    p.add_argument("--seed", type=int, default=train_cfg.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--motion", choices=[m.replace("_", "-") for m in motion.VARIANTS],
                   default=model_cfg.motion.replace("_", "-"))
    p.add_argument("--temporal-attention", choices=["on", "off"],
                   default="on" if model_cfg.temporal_attention else "off")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("ablate", help="run the motion/attention ablation grid")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5",
                   help="comma-separated training seeds")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--module", default=None,
                   help=f"one of {sorted(gradcheck.SUITES)}; default all")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--seeds" in argv[:-1]:  # argparse reads a separate value like -1,2 as an option
        i = argv.index("--seeds")
        argv[i:i + 2] = [f"--seeds={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (AvlocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "synth":
        manifest, _ = synth_dataset(
            args.out, args.seed, args.videos, snr=args.snr,
            **{f.name: getattr(args, f.name) for f in fields(FeatureDims)})
        print(f"wrote {len(manifest.entries)} videos to "
              f"{os.path.join(args.out, 'manifest.json')}")
        return 0

    if args.command in ("train", "eval", "ablate"):
        manifest = load_manifest(args.manifest)
        base_dir = os.path.dirname(os.path.abspath(args.manifest))
        dims = Dims(**manifest.feature_dims())

    if args.command == "train":
        model_cfg = ModelConfig(dims=dims, mode=args.mode,
                                motion=args.motion.replace("-", "_"),
                                temporal_attention=args.temporal_attention == "on")
        cfg = TrainConfig(model=model_cfg, epochs=args.epochs,
                          batch_size=args.batch, learning_rate=args.lr,
                          seed=args.seed)
        _, report = train(cfg, manifest, base_dir, out_dir=args.out)
        print(f"final loss {report.losses[-1]:.6f}, "
              f"segment accuracy {report.accuracy:.4f}, "
              f"checkpoint in {os.path.join(args.out, 'checkpoint')}")
        return 0

    if args.command == "eval":
        if not args.report:
            raise ConfigError("--report is empty: it must name a file")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.report))):
            raise ConfigError(f"--report {args.report}: its directory does not exist")
        if os.path.isdir(args.report):
            raise ConfigError(f"--report {args.report}: is a directory")
        params, model_cfg = load_checkpoint(args.checkpoint)
        accuracy, per_class, predictions = evaluate(params, model_cfg,
                                                    manifest, base_dir)
        report = {
            "accuracy": accuracy,
            "per_class": per_class,
            "config": asdict(model_cfg),
            "predictions": [p.to_record() for p in predictions],
        }
        with synced_open(args.report) as f:
            json.dump(report, f, indent=1)
        print(f"segment accuracy {accuracy:.4f} over "
              f"{len(predictions)} videos -> {args.report}")
        return 0

    if args.command == "ablate":
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError as exc:
            raise ConfigError(f"--seeds must be integers, got {args.seeds!r}") from exc
        base = TrainConfig(model=ModelConfig(dims=dims), epochs=ABLATE_EPOCHS)
        check_ablation(base, manifest, seeds)
        os.makedirs(args.out, exist_ok=True)  # before the grid, which writes only at the end
        table = ablate(base, manifest, base_dir, seeds)
        json_path = os.path.join(args.out, "ablation.json")
        csv_path = os.path.join(args.out, "ablation.csv")
        with synced_open(json_path) as f:
            f.write(table.to_json())
        with synced_open(csv_path) as f:
            f.write(table.to_csv())
        for variant, stats in table.summary().items():
            print(f"{variant}: {stats['mean']:.4f} +/- {stats['sd']:.4f}")
        print(f"wrote {json_path} and {csv_path}")
        return 0

    if args.command == "gradcheck":
        results = gradcheck.run(args.module)
        failed = 0
        for r in results:
            print(r.line())
            failed += not r.passed
        print(f"{len(results) - failed}/{len(results)} gradient checks passed")
        return 1 if failed else 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
