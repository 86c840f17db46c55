"""Command-line entry point: train, infer, eval, bench, synth.

Config precedence is built-in defaults < config file < flags; the effective
config is echoed into every output artifact. Exit codes: 0 success, 2 config
or usage error, 3 data error, 4 numeric divergence.
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .checkpoint import (CheckpointError, metadata_value, pack_state, save_checkpoint,
                         restore_model, restore_optimizer)
from .data import (DataError, load_manifest_pairs, synth_split, synth_scene,
                   DatasetSplit)
from .imageio import (ImageFormatError, atomic_write, load_pgm16, load_ppm,
                      save_pfm, save_pgm16, save_ppm)
from .model import (BACKBONES, ConfigError, DmsrModel, ModelConfig, identity_field,
                    apply_joint_filter, parse, upsample_lr)
from .tensor import ShapeError, Tensor
from .train import (ADAM_SETTINGS, Adam, TrainingDivergedError, bench, evaluate, psnr,
                    train_epochs, worker_count)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# data.* and train.* keys: default, valid range and its check. The model.*
# keys are the fields of ModelConfig, which holds their defaults and checks.
SETTINGS = {
    "data.noise_sigma": (0.0, ">= 0 and finite", lambda v: 0 <= v < math.inf),
    "data.synth_height": (64, ">= 1", lambda v: v >= 1),
    "data.synth_width": (64, ">= 1", lambda v: v >= 1),
    "train.epochs": (20, ">= 1", lambda v: v >= 1),
    "train.seed": (0, ">= 0", lambda v: v >= 0),
    **{f"train.{name}": setting for name, setting in ADAM_SETTINGS.items()},
}
# the field defaults, not a ModelConfig() instance: num_blocks 0 must stay
# unresolved until the backbone is known
DEFAULTS = {**{f"model.{f.name}": f.default for f in fields(ModelConfig)},
            **{key: default for key, (default, _, _) in SETTINGS.items()}}


def parse_config_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = parse(type(DEFAULTS[key]), value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: {key}: {e}")
    return out


def effective_config(args):
    """defaults < config file < command-line flags; data.* and train.*
    values are checked here, model.* values by ModelConfig."""
    flat = dict(DEFAULTS)
    if args.config:
        flat.update(parse_config_file(args.config))
    flat.update((k, v) for k, v in vars(args).items() if k in DEFAULTS and v is not None)
    for key, (_, valid, ok) in SETTINGS.items():
        if not ok(flat[key]):
            raise ConfigError(f"{key} must be {valid}, got {flat[key]!r}")
    return flat


def _csv_head(header, flat):
    """The effective config as comment lines, then the column header."""
    return "".join(f"# {k} = {flat[k]}\n" for k in sorted(flat)) + header + "\n"


def _csv_row(row):
    return ",".join(_csv_cell(c) for c in row) + "\n"


def _write_csv(path, header, rows, flat):
    atomic_write(path, [(_csv_head(header, flat) + "".join(map(_csv_row, rows))).encode()])


def _csv_cell(c):
    if isinstance(c, float):
        return "inf" if math.isinf(c) else repr(c)
    return str(c)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args):
    flat = effective_config(args)
    cfg = ModelConfig.from_flat(flat)
    seed = flat["train.seed"]
    if not (args.synthetic or args.data):
        raise ConfigError("train needs --synthetic N or --data MANIFEST")

    if args.resume:
        model, arrays, metadata = restore_model(args.resume)
        optimizer = restore_optimizer(model, arrays, metadata)
        start_epoch = metadata_value(metadata, "train.epoch", int, -1) + 1
    else:
        model = DmsrModel(cfg, seed=seed)
        optimizer = Adam(model.named_parameters(), lr=flat["train.lr"],
                         beta1=flat["train.beta1"], beta2=flat["train.beta2"],
                         eps=flat["train.eps"])
        start_epoch = 0
    flat.update(model.cfg.to_flat_dict())

    # the data follow the model's scale, which a resumed checkpoint sets
    scale, noise = model.cfg.scale, flat["data.noise_sigma"]
    if args.synthetic:
        n_eval = max(1, round(args.synthetic * 449 / 1000))  # published split ratio
        split = synth_split(args.synthetic, n_eval, flat["data.synth_height"],
                            flat["data.synth_width"], scale, noise, seed)
    else:
        train_pairs = load_manifest_pairs(args.data, scale, noise, seed)
        eval_pairs = (load_manifest_pairs(args.eval_data, scale, noise, seed)
                      if args.eval_data else [])
        split = DatasetSplit(train_pairs, eval_pairs, seed)

    # divisibility must fail before step 0, not mid-epoch
    for pair in list(split.train) + list(split.eval):
        H, W = pair.guidance.shape[1], pair.guidance.shape[2]
        try:
            model.check_extents(H, W, pair.depth_lr.shape[1], pair.depth_lr.shape[2])
        except ShapeError as e:
            raise DataError(f"pair {pair.pair_id}: {e}")

    base_meta = {
        "train.seed": seed,
        "data.noise_sigma": repr(float(flat["data.noise_sigma"])),
        "data.source": "synthetic" if args.synthetic else args.data,
        "data.n_train": len(split.train),
        "data.n_eval": len(split.eval),
    }
    if args.data:
        with open(args.data, "rb") as f:
            base_meta["data.manifest_sha256"] = hashlib.sha256(f.read()).hexdigest()

    # created only now: a run that fails on its inputs leaves no directory
    os.makedirs(args.out, exist_ok=True)

    def on_epoch(epoch, model_, opt_, psnr_db, ms):
        arrays, meta = pack_state(model_, opt_, dict(base_meta, **{"train.epoch": epoch}))
        save_checkpoint(os.path.join(args.out, f"checkpoint_epoch{epoch:03d}.dmsr"),
                        arrays, meta)

    # written as training goes, so a diverged or killed run keeps its steps
    with open(os.path.join(args.out, "steps.csv"), "w", encoding="utf-8") as steps:
        steps.write(_csv_head("step,loss", flat))

        def on_step(step, loss):
            steps.write(_csv_row((step, loss)))
            steps.flush()

        log = train_epochs(model, optimizer, split, flat["train.epochs"], seed,
                           start_epoch=start_epoch, on_epoch=on_epoch, on_step=on_step)

    arrays, meta = pack_state(model, optimizer,
                              dict(base_meta, **{"train.epoch": flat["train.epochs"] - 1}))
    final = os.path.join(args.out, "checkpoint.dmsr")
    save_checkpoint(final, arrays, meta)
    _write_csv(os.path.join(args.out, "epochs.csv"), "epoch,psnr_db,ms_per_image",
               log.epoch_metrics, flat)
    print(f"checkpoint={final}")
    return 0


def cmd_infer(args):
    model, _, metadata = restore_model(args.checkpoint)
    guidance = load_ppm(args.guidance)
    depth_lr = load_pgm16(args.depth_lr)
    H, W = guidance.shape[1], guidance.shape[2]
    lr_h, lr_w = depth_lr.shape[1], depth_lr.shape[2]
    try:
        model.check_extents(H, W, lr_h, lr_w)
    except ShapeError as e:
        raise DataError(f"{e} (guidance {H}x{W}, depth_lr {lr_h}x{lr_w})")

    g, d = Tensor(guidance[None]), Tensor(depth_lr[None])
    if args.identity_head:
        target_up = upsample_lr(d, model.cfg.scale)
        pred = apply_joint_filter(target_up, identity_field(1, H, W, model.cfg.k),
                                  model.cfg.k)
    else:
        pred = model.forward(g, d)
    sr = pred.data[0]
    save_pfm(args.out, sr)
    if args.out_preview:
        save_pgm16(args.out_preview, sr)
    if args.gt:
        gt = load_pgm16(args.gt)
        print(f"psnr_db={_csv_cell(psnr(sr, gt))}")
    print(f"out={args.out}")
    return 0


def cmd_eval(args):
    flat = effective_config(args)
    model, _, metadata = restore_model(args.checkpoint)
    flat.update(model.cfg.to_flat_dict())
    pairs = load_manifest_pairs(args.manifest, model.cfg.scale,
                                flat["data.noise_sigma"], flat["train.seed"])
    per_pair, mean, ms = evaluate(model, pairs)
    if args.csv:
        _write_csv(args.csv, "pair_id,psnr_db", per_pair, flat)
    for pid, score in per_pair:
        print(f"{pid},{_csv_cell(score)}")
    print(f"mean_psnr_db={_csv_cell(mean)}")
    print(f"ms_per_image={ms:.3f}")
    return 0


def cmd_bench(args):
    flat = effective_config(args)
    if args.checkpoint:
        model, _, _ = restore_model(args.checkpoint)
    else:
        model = DmsrModel(ModelConfig.from_flat(flat), seed=flat["train.seed"])
    cfg = model.cfg
    flat.update(cfg.to_flat_dict())
    try:
        model.check_extents(args.height, args.width,
                            args.height // cfg.scale, args.width // cfg.scale)
    except ShapeError as e:
        raise ConfigError(f"bench: {e}")
    samples, stats = bench(model, args.height, args.width, args.repeats,
                           seed=flat["train.seed"])
    print(f"backbone={cfg.backbone} B={cfg.num_blocks} k={cfg.k} scale={cfg.scale} "
          f"size={args.width}x{args.height}")
    print(f"host={stats['host']}")
    print(f"min_ms={stats['min_ms']:.3f} median_ms={stats['median_ms']:.3f} "
          f"mean_ms={stats['mean_ms']:.3f} repeats={len(samples)}")
    if args.csv:
        _write_csv(args.csv, "repeat,ms",
                   [(i, s) for i, s in enumerate(samples)], flat)
    return 0


def cmd_synth(args):
    flat = effective_config(args)
    os.makedirs(args.out, exist_ok=True)
    seed = flat["train.seed"]
    scale = ModelConfig.from_flat(flat).scale
    children = np.random.SeedSequence(seed).spawn(args.count)
    lines = ["# pair_id guidance_path depth_path"]
    for i in range(args.count):
        pid = f"scene{i:03d}"
        pair = synth_scene(children[i], flat["data.synth_height"],
                           flat["data.synth_width"], scale,
                           flat["data.noise_sigma"], pair_id=pid)
        save_ppm(os.path.join(args.out, f"{pid}_rgb.ppm"), pair.guidance)
        save_pgm16(os.path.join(args.out, f"{pid}_depth.pgm"), pair.depth_hr)
        lines.append(f"{pid} {pid}_rgb.ppm {pid}_depth.pgm")
    manifest = os.path.join(args.out, "manifest.txt")
    atomic_write(manifest, [("\n".join(lines) + "\n").encode()])
    print(f"manifest={manifest}")
    return 0


# ---------------------------------------------------------------------------


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser():
    p = argparse.ArgumentParser(prog="dmsr",
                                description="joint-filter depth map super-resolution")
    sub = p.add_subparsers(dest="command", required=True)

    def key_flag(sp, flag, key, **kw):     # typed like the key's default
        sp.add_argument(flag, dest=key, type=type(DEFAULTS[key]), **kw)

    def common(sp):
        sp.add_argument("--config", help="flat key = value config file")
        key_flag(sp, "--seed", "train.seed", help="master RNG seed")
        key_flag(sp, "--noise-sigma", "data.noise_sigma",
                 help="LR depth noise std in [0,1] units")

    t = sub.add_parser("train", help="train a model")
    common(t)
    t.add_argument("--synthetic", type=positive_int, metavar="N",
                   help="train on N generated scenes")
    t.add_argument("--data", help="training manifest")
    t.add_argument("--eval-data", dest="eval_data", help="evaluation manifest")
    key_flag(t, "--backbone", "model.backbone", help=" or ".join(BACKBONES))
    key_flag(t, "--blocks", "model.num_blocks", help="override block count")
    key_flag(t, "--embed-dim", "model.embed_dim")
    key_flag(t, "--window", "model.window")
    key_flag(t, "--heads", "model.heads")
    key_flag(t, "--k", "model.k", help="filter size (odd)")
    key_flag(t, "--scale", "model.scale")
    key_flag(t, "--height", "data.synth_height", help="synthetic scene height")
    key_flag(t, "--width", "data.synth_width", help="synthetic scene width")
    key_flag(t, "--epochs", "train.epochs")
    key_flag(t, "--lr", "train.lr")
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--out", default="runs/latest", help="output directory")
    t.set_defaults(func=cmd_train)

    i = sub.add_parser("infer", help="super-resolve one depth map")
    i.add_argument("checkpoint")
    i.add_argument("guidance", help="guidance RGB (PPM)")
    i.add_argument("depth_lr", help="low-resolution depth (16-bit PGM)")
    i.add_argument("--out", required=True, help="SR output (PFM)")
    i.add_argument("--out-preview", dest="out_preview", help="16-bit PGM preview")
    i.add_argument("--gt", help="ground-truth depth (PGM) for PSNR")
    i.add_argument("--identity-head", dest="identity_head", action="store_true",
                   help="debug: delta kernel, output equals bicubic upsample")
    i.set_defaults(func=cmd_infer)

    e = sub.add_parser("eval", help="evaluate a checkpoint over a manifest")
    common(e)
    e.add_argument("checkpoint")
    e.add_argument("manifest")
    e.add_argument("--csv", help="per-pair CSV path")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="forward-pass latency")
    common(b)
    b.add_argument("--checkpoint")
    key_flag(b, "--backbone", "model.backbone", help=" or ".join(BACKBONES))
    key_flag(b, "--blocks", "model.num_blocks")
    key_flag(b, "--k", "model.k")
    key_flag(b, "--scale", "model.scale")
    b.add_argument("--width", type=positive_int, default=128)
    b.add_argument("--height", type=positive_int, default=128)
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--csv", help="repeat,ms CSV path")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("synth", help="generate a synthetic dataset")
    common(s)
    s.add_argument("count", type=positive_int)
    key_flag(s, "--scale", "model.scale")
    key_flag(s, "--height", "data.synth_height")
    key_flag(s, "--width", "data.synth_width")
    s.add_argument("--out", default="data/synth")
    s.set_defaults(func=cmd_synth)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        worker_count()      # a bad DMSR_THREADS fails before any work starts
        return args.func(args)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ImageFormatError, CheckpointError, ShapeError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:    # a missing input, or an output path that cannot be written
        where = e.filename2 or e.filename
        print(f"error: data: {where}: {e.strerror}" if where else f"error: data: {e}",
              file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as e:
        print(f"error: diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
