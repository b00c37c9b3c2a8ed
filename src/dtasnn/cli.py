"""Command-line entry point: train, eval, gradcheck, ablate, synth-data.

Exit codes: 0 success, 1 gradcheck tolerance breach, 2 configuration or
format error, 3 numeric abort during training. Metrics are emitted as JSON
lines; the ablation command additionally prints an aligned text table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .data import FormatError, Sample, augment, direct_code, gen_synthetic, load_cifar10_binary, load_idx, save_synthetic
from .gradcheck import CHECK_NAMES, run_suite
from .network import CheckpointError, build, load_checkpoint, spec_mismatch
from .ops import MissingStatisticsError
from .training import NumericsError, evaluate, train


def _static_samples(images, labels, time_steps):
    return [Sample(input=direct_code(images[i], time_steps), label=int(labels[i]))
            for i in range(len(images))]


def _load_split(cfg: RunConfig, train: bool):
    """(images, labels) of the samples a run uses from the training or test
    split of a dataset on disk; a sample count of 0 keeps the whole split."""
    if not cfg.data_dir:
        raise ConfigError(f"data_dir is required for dataset = {cfg.dataset}")
    if cfg.dataset == "cifar10":
        x, y = load_cifar10_binary(cfg.data_dir, train)
    else:
        prefix = os.path.join(cfg.data_dir, "train" if train else "t10k")
        x, y = load_idx(f"{prefix}-images-idx3-ubyte", f"{prefix}-labels-idx1-ubyte")
    if x.shape[1] != cfg.in_channels:
        raise ConfigError(f"in_channels = {cfg.in_channels} but {cfg.dataset} "
                          f"provides {x.shape[1]} channels")
    cap = cfg.train_samples if train else cfg.test_samples
    if cap > 0:
        x, y = x[:cap], y[:cap]
    top = int(y.max(initial=-1))
    if top >= cfg.num_classes:
        raise ConfigError(f"num_classes = {cfg.num_classes} but the "
                          f"{'training' if train else 'test'} split of {cfg.dataset} "
                          f"has label {top}")
    return x, y


def build_test_set(cfg: RunConfig):
    """The test samples for cfg; the training split is never read."""
    if cfg.dataset == "synthetic":
        return gen_synthetic(cfg.synth_spec(1), cfg.test_samples)
    vx, vy = _load_split(cfg, train=False)
    return _static_samples(vx, vy, cfg.time_steps)


def build_datasets(cfg: RunConfig):
    """(train samples, test samples, per-epoch transform or None) for cfg."""
    if cfg.dataset == "synthetic":
        return gen_synthetic(cfg.synth_spec(0), cfg.train_samples), build_test_set(cfg), None

    tx, ty = _load_split(cfg, train=True)
    test_set = build_test_set(cfg)
    if not cfg.augment:
        return _static_samples(tx, ty, cfg.time_steps), test_set, None

    def epoch_transform(_, rng):
        return [Sample(input=direct_code(
                    augment(tx[i], cfg.augment_pad, cfg.augment_flip, rng),
                    cfg.time_steps), label=int(ty[i]))
                for i in range(len(tx))]

    base = _static_samples(tx, ty, cfg.time_steps)
    return base, test_set, epoch_transform


def cmd_train(cfg: RunConfig) -> int:
    train_set, test_set, transform = build_datasets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    net = build(cfg.network_spec(), cfg.seed)
    ckpt = os.path.join(cfg.out_dir, "checkpoint.dtasnn")
    tcfg = cfg.train_config(checkpoint_path=ckpt)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        def tee(rec):
            # the file gets every record; stdout echoes every log_every epochs
            line = rec.to_json() + "\n"
            fh.write(line)
            fh.flush()
            if rec.epoch % cfg.log_every == 0:
                sys.stdout.write(line)
            sys.stdout.flush()

        train(net, train_set, test_set, tcfg, epoch_transform=transform, on_metrics=tee)
    return 0


def cmd_eval(cfg: RunConfig, checkpoint: str) -> int:
    net = load_checkpoint(checkpoint)
    expected = cfg.network_spec()
    differing = spec_mismatch(net.spec, expected)
    if differing is not None:
        raise ConfigError(f"checkpoint spec differs from configuration in "
                          f"field {differing!r}")
    rec = evaluate(net, build_test_set(cfg), cfg.batch_size)
    print(rec.to_json())
    return 0


def cmd_gradcheck(cfg: RunConfig, break_op: str | None) -> int:
    if break_op is not None and break_op not in CHECK_NAMES:
        raise ConfigError(f"unknown --break name {break_op!r}; valid names: "
                          f"{', '.join(CHECK_NAMES)}")
    results = run_suite(break_op=break_op, seed=cfg.seed)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<16} max_rel_err={r.max_error:.3e}  tol={r.tolerance:.0e}  {status}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"gradcheck failed for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


ABLATION_ROWS = [("baseline", False, False), ("txa", True, False),
                 ("tna", False, True), ("dta", True, True)]


def run_ablation(cfg: RunConfig) -> list[dict]:
    """Train every branch combination on the synthetic task, several seeds each."""
    from dataclasses import replace

    if cfg.epochs < 1 or cfg.test_samples < 1:
        raise ConfigError(f"ablate scores each variant by its last epoch's validation "
                          f"accuracy: it needs epochs >= 1 and test_samples >= 1, got "
                          f"{cfg.epochs} and {cfg.test_samples}")
    rows = []
    for name, en_txa, en_tna in ABLATION_ROWS:
        accs = []
        for s in range(cfg.ablate_seeds):
            run_cfg = replace(cfg, dataset="synthetic", enable_txa=en_txa,
                              enable_tna=en_tna, seed=cfg.seed + 1000 * s)
            train_set, test_set, _ = build_datasets(run_cfg)
            net = build(run_cfg.network_spec(), run_cfg.seed)
            tcfg = run_cfg.train_config()
            accs.append(train(net, train_set, test_set, tcfg)[-1].accuracy)
        rows.append({"name": name, "enable_txa": en_txa, "enable_tna": en_tna,
                     "accuracies": accs, "mean": float(np.mean(accs)),
                     "std": float(np.std(accs))})
    return rows


def format_ablation_table(rows: list[dict]) -> str:
    lines = [f"{'variant':<10} {'T-XA':<6} {'T-NA':<6} {'mean acc':<10} {'std':<8}"]
    for r in rows:
        lines.append(f"{r['name']:<10} {str(r['enable_txa']):<6} "
                     f"{str(r['enable_tna']):<6} {r['mean']:<10.4f} {r['std']:<8.4f}")
    return "\n".join(lines)


def ablation_warnings(rows: list[dict]) -> list[str]:
    by_name = {r["name"]: r["mean"] for r in rows}
    warnings = []
    if by_name["dta"] < by_name["baseline"]:
        warnings.append(f"dta mean {by_name['dta']:.4f} fell below baseline "
                        f"{by_name['baseline']:.4f}")
    for single in ("txa", "tna"):
        if by_name["dta"] < by_name[single] - 0.01:
            warnings.append(f"dta mean {by_name['dta']:.4f} more than 1 point below "
                            f"{single} {by_name[single]:.4f}")
    return warnings


def cmd_ablate(cfg: RunConfig) -> int:
    rows = run_ablation(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    print(format_ablation_table(rows))
    for msg in ablation_warnings(rows):
        print(f"warning: {msg}", file=sys.stderr)
    return 0


def cmd_synth_data(cfg: RunConfig) -> int:
    spec = cfg.synth_spec(0)
    samples = gen_synthetic(spec, cfg.train_samples)
    if not samples:  # whatever dataset names, synth-data makes the synthetic task
        raise ConfigError(f"synth-data needs train_samples >= 1, got {cfg.train_samples}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "synthetic.dtasnn")
    save_synthetic(path, spec, samples)
    print(f"wrote {len(samples)} samples "
          f"({spec.time_steps}x{spec.channels}x{spec.height}x{spec.width}) to {path}")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="path to a key = value config file")
    p.add_argument("--out", default=None, help="output directory")


def _collect_overrides(args, extras) -> dict:
    overrides = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--") or i + 1 >= len(extras):
            raise ConfigError(f"unrecognized argument {tok!r} (expected --key value)")
        overrides[tok[2:]] = extras[i + 1]
        i += 2
    if args.out is not None:
        overrides["out_dir"] = args.out
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dtasnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "eval", "gradcheck", "ablate", "synth-data"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
        if name == "gradcheck":
            p.add_argument("--break", dest="break_op", default=None,
                           help="fault-injection self-test: flip this op's gradient sign")
    args, extras = parser.parse_known_args(argv)

    try:
        cfg = load_config(args.config, _collect_overrides(args, extras))
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.break_op)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "synth-data":
            return cmd_synth_data(cfg)
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FormatError, CheckpointError, MissingStatisticsError,
            ValueError, OSError) as exc:
        # domain validation (NetworkSpec, TrainConfig, ...) raises ValueError;
        # a checkpoint saved before the first training step has no batch-norm
        # statistics to evaluate with; an OSError here is a file or directory
        # that cannot be made, read or written, such as the output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
