"""Training and evaluation harness: Adam, L1 loss, PSNR, timing.

Training is batch-1 and fully deterministic under (seed, config, data): the
per-epoch visitation order is derived from the seed and epoch index, so an
interrupted run resumed from a checkpoint retraces the original trajectory
bit for bit.
"""

import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field

import numpy as np

from .data import ScenePair, to_tensors
from .model import ConfigError
from .tensor import ShapeError, Tape, Tensor, absolute, sub, tmean

# Published comparison-table numbers for x8 noisy upsampling on the full
# sensor dataset; documentation constants, not desk-scale expectations.
REFERENCE_RESULTS = {
    "FDKN": {"psnr_db": 22.73, "time_ms": 53},
    "DKN": {"psnr_db": 23.88, "time_ms": 217},
    "Swin-DMSR": {"psnr_db": 24.29, "time_ms": 55},
    "NAF-DMSR": {"psnr_db": 24.01, "time_ms": 54},
}


class TrainingDivergedError(RuntimeError):
    """Training loss or held-out error became non-finite."""


def l1_loss(pred, gt):
    """Mean absolute error; subgradient 0 at exact ties."""
    if pred.shape != gt.shape:
        raise ShapeError(f"l1_loss: shapes {pred.shape} vs {gt.shape}")
    return tmean(absolute(sub(pred, gt)))


def psnr(pred, gt, x_max=1.0):
    """20*log10(x_max / RMSE) in dB; +inf when the images are identical."""
    a = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    b = gt.data if isinstance(gt, Tensor) else np.asarray(gt, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr: shapes {a.shape} vs {b.shape}")
    if x_max <= 0:
        raise ValueError("psnr: x_max must be positive")
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(x_max / math.sqrt(mse))


# Adam settings as (default, valid range, its check). The train.<name> config
# keys and the optim.<name> checkpoint metadata are both checked against them.
ADAM_SETTINGS = {
    "lr": (0.001, "> 0 and finite", lambda v: 0 < v < math.inf),
    "beta1": (0.9, "in [0, 1)", lambda v: 0 <= v < 1),
    "beta2": (0.999, "in [0, 1)", lambda v: 0 <= v < 1),
    "eps": (1e-8, "> 0 and finite", lambda v: 0 < v < math.inf),
}


class Adam:
    """Bias-corrected Adam over named parameters; moments keyed by name so
    optimizer state survives checkpointing."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, grads):
        """Apply one update from a {tensor: gradient} map (missing -> zero)."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.named_params:
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ShapeError(f"adam: gradient {g.shape} vs parameter "
                                 f"{p.data.shape} for {name}")
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _order_rng(seed, epoch):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch,)))


def worker_count():
    """Evaluation fan-out: DMSR_THREADS, a positive integer (unset: 1)."""
    text = os.environ.get("DMSR_THREADS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ConfigError(f"DMSR_THREADS must be a positive integer, got {text!r}")
    return int(text)


def evaluate(model, pairs):
    """PSNR per pair plus mean and per-image wall time; results reduced in
    pair-id order regardless of worker fan-out."""
    def one(pair):
        guidance, depth_lr, depth_hr = to_tensors(pair)
        pred = model.forward(guidance, depth_lr)
        return psnr(pred.data, depth_hr.data)

    ordered = sorted(pairs, key=lambda p: p.pair_id)
    start = time.perf_counter()
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # each pair runs in a copy of this thread's context: numpy's error state
            futures = [pool.submit(copy_context().run, one, p) for p in ordered]
        scores = [f.result() for f in futures]
    else:
        scores = [one(p) for p in ordered]
    elapsed = time.perf_counter() - start
    per_pair = [(p.pair_id, s) for p, s in zip(ordered, scores)]
    mean = sum(scores) / len(scores) if scores else math.nan
    return per_pair, mean, 1000.0 * elapsed / max(len(ordered), 1)


@dataclass
class TrainLog:
    step_losses: list = field(default_factory=list)     # (step, loss)
    epoch_metrics: list = field(default_factory=list)   # (epoch, psnr_db, ms)


@np.errstate(all="ignore")   # a divergence is reported once, as TrainingDivergedError
def train_epochs(model, optimizer, split, epochs, seed, start_epoch=0,
                 on_epoch=None, log=None):
    """Run `epochs` total epochs (resuming at start_epoch) of batch-1 L1
    training; evaluates after each epoch and invokes on_epoch(epoch, model,
    optimizer, psnr_db, ms). Raises TrainingDivergedError on a non-finite
    training loss, or on a NaN mean held-out PSNR before on_epoch."""
    log = log if log is not None else TrainLog()
    step = optimizer.step_count
    for epoch in range(start_epoch, epochs):
        order = _order_rng(seed, epoch).permutation(len(split.train))
        for idx in order:
            guidance, depth_lr, depth_hr = to_tensors(split.train[idx])
            with Tape() as tape:
                pred = model.forward(guidance, depth_lr)
                loss = l1_loss(pred, depth_hr)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(f"non-finite loss {value} at step {step}")
            grads = tape.backward(loss)
            optimizer.step(grads)
            step += 1
            log.step_losses.append((step, value))
        if split.eval:
            _, mean_psnr, ms = evaluate(model, split.eval)
            if math.isnan(mean_psnr):
                raise TrainingDivergedError(f"non-finite loss on the held-out scenes "
                                            f"after epoch {epoch} (PSNR {mean_psnr} dB)")
        else:
            mean_psnr, ms = math.nan, math.nan
        log.epoch_metrics.append((epoch, mean_psnr, ms))
        if on_epoch is not None:
            on_epoch(epoch, model, optimizer, mean_psnr, ms)
    return log


def host_description():
    return f"{platform.platform()} / {platform.processor() or 'unknown-cpu'}"


def bench(model, height, width, repeats, seed=0):
    """Per-image forward latency: one discarded warm-up then `repeats` timed
    runs on a fixed random input. Returns sample list and summary stats."""
    if repeats < 3:
        raise ConfigError(f"bench: need repeats >= 3, got {repeats}")
    rng = np.random.default_rng(seed)
    s = model.cfg.scale
    guidance, depth_lr, _ = to_tensors(_bench_pair(rng, height, width, s))
    model.forward(guidance, depth_lr)  # warm-up, discarded
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.forward(guidance, depth_lr)
        samples.append(1000.0 * (time.perf_counter() - t0))
    stats = {
        "min_ms": min(samples),
        "median_ms": float(np.median(samples)),
        "mean_ms": float(np.mean(samples)),
        "host": host_description(),
    }
    return samples, stats


def _bench_pair(rng, height, width, scale):
    return ScenePair("bench", rng.random((3, height, width)),
                     rng.random((1, height, width)),
                     rng.random((1, height // scale, width // scale)))
