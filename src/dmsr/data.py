"""Scene data: bicubic resampling, LR degradation, and synthetic RGB/depth
pair generation standing in for a full sensor dataset at desk scale.

All generators are deterministic under a fixed seed; values live in [0, 1].
"""

import os
from dataclasses import dataclass

import numpy as np

from .imageio import load_pgm16, load_ppm
from .tensor import Tensor

BICUBIC_A = -0.5  # Catmull-Rom


class DataError(Exception):
    """Dataset/manifest problems (missing files, bad geometry, bad lines)."""


@dataclass
class ScenePair:
    """Aligned guidance RGB (3,H,W), HR depth (1,H,W), derived LR depth."""

    pair_id: str
    guidance: np.ndarray
    depth_hr: np.ndarray
    depth_lr: np.ndarray


@dataclass
class DatasetSplit:
    train: list
    eval: list


def _cubic_kernel(t):
    at = np.abs(t)
    a = BICUBIC_A
    w = np.where(at <= 1.0, (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0,
                 np.where(at < 2.0, a * (at**3 - 5.0 * at**2 + 8.0 * at - 4.0), 0.0))
    return w


def resize_matrix(n_in, n_out):
    """Row-stochastic (n_out, n_in) resampling matrix: Catmull-Rom taps with
    support stretched by the scale when shrinking, clamped at the borders."""
    scale = n_in / n_out
    s = max(scale, 1.0)
    centers = (np.arange(n_out) + 0.5) * scale - 0.5
    width = int(np.ceil(4.0 * s)) + 2
    left = np.floor(centers - 2.0 * s).astype(int) + 1
    js = left[:, None] + np.arange(width)                    # (n_out, width) taps
    w = _cubic_kernel((js - centers[:, None]) / s)
    m = np.zeros((n_out, n_in))
    np.add.at(m, (np.arange(n_out)[:, None], np.clip(js, 0, n_in - 1)),
              w / w.sum(axis=1, keepdims=True))
    return m


def bicubic_resize(x, out_h, out_w):
    """Resize (C, H, W) with the Catmull-Rom kernel, border clamp; the same
    kernel serves both directions with scale-adjusted support."""
    x = np.asarray(x, dtype=np.float64)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bicubic_resize: bad output extents {out_h}x{out_w}")
    C, H, W = x.shape
    my = resize_matrix(H, out_h) if out_h != H else None
    mx = resize_matrix(W, out_w) if out_w != W else None
    y = x
    if my is not None:
        y = np.einsum("oh,chw->cow", my, y)
    if mx is not None:
        y = np.einsum("ow,chw->cho", mx, y)
    return y


def degrade(depth_hr, scale, noise_sigma, rng_seed):
    """Bicubic-downsample HR depth (1,H,W) by `scale`, then add clamped
    i.i.d. Gaussian noise. Deterministic under the seed."""
    _, H, W = depth_hr.shape
    if H % scale or W % scale:
        raise DataError(f"degrade: scale {scale} does not divide {H}x{W}")
    lr = bicubic_resize(depth_hr, H // scale, W // scale)
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        lr = lr + rng.normal(0.0, noise_sigma, size=lr.shape)
    return np.clip(lr, 0.0, 1.0)


# ---------------------------------------------------------------------------
# synthetic scenes


def _paint_shapes(rng, H, W):
    """Region-id map from random overlapping rectangles and ellipses."""
    ids = np.zeros((H, W), dtype=np.intp)
    yy, xx = np.mgrid[0:H, 0:W]
    n_shapes = int(rng.integers(3, 7))
    for sid in range(1, n_shapes + 1):
        cy, cx = rng.uniform(0.15, 0.85) * H, rng.uniform(0.15, 0.85) * W
        ry = rng.uniform(0.12, 0.35) * H
        rx = rng.uniform(0.12, 0.35) * W
        if rng.random() < 0.5:
            mask = (np.abs(yy - cy) < ry) & (np.abs(xx - cx) < rx)
        else:
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
        ids[mask] = sid
    return ids, n_shapes


def _separated_colors(rng, n, min_dist=0.45):
    """Random RGB palette with pairwise separation, so every region boundary
    is visible in the guidance image."""
    colors = [rng.uniform(0.1, 0.9, size=3)]
    while len(colors) < n:
        c = rng.uniform(0.1, 0.9, size=3)
        if min(np.linalg.norm(c - prev) for prev in colors) >= min_dist:
            colors.append(c)
    return np.asarray(colors)


def _gaussian_blur(x, sigmas):
    """scipy.ndimage.gaussian_filter(x, sigmas, mode="nearest") to the bit:
    per axis with sigma > 1e-15, in order, a normalized kernel of radius
    int(4 sigma + 0.5) over the edge-padded axis, summed as scipy's
    symmetric-kernel loop sums it: centre first, then the outermost pair
    inwards."""
    out = x
    for axis, sigma in enumerate(sigmas):
        if sigma <= 1e-15:
            continue
        r = int(4.0 * sigma + 0.5)
        k = np.arange(-r, r + 1)
        w = np.exp(-0.5 / (sigma * sigma) * (k * k))
        w = w / w.sum()
        pad = [(0, 0)] * out.ndim
        pad[axis] = (r, r)
        padded = np.moveaxis(np.pad(out, pad, mode="edge"), axis, 0)
        n = out.shape[axis]
        acc = padded[r:r + n] * w[r]
        for j in range(r, 0, -1):
            acc += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * w[r - j]
        out = np.moveaxis(acc, 0, axis)
    return out


def synth_scene(seed, H, W, scale=8, noise_sigma=0.0, pair_id=None):
    """Piecewise-smooth depth plus a guidance RGB rendered from the same
    geometry, so guidance edges line up with depth discontinuities."""
    rng = np.random.default_rng(seed)
    ids, n_shapes = _paint_shapes(rng, H, W)

    # well separated depth planes, shuffled so ordering is not monotone
    levels = np.linspace(0.08, 0.92, n_shapes + 1)
    rng.shuffle(levels)
    depth = levels[ids]
    depth = _gaussian_blur(depth, (0.6, 0.6))

    colors = _separated_colors(rng, n_shapes + 1)
    guidance = colors[ids].transpose(2, 0, 1)
    texture = _gaussian_blur(rng.normal(0.0, 1.0, size=(3, H, W)), (0, 2.0, 2.0))
    guidance = guidance + 0.06 * texture
    guidance = _gaussian_blur(guidance, (0, 0.4, 0.4))

    depth_hr = np.clip(depth, 0.0, 1.0)[None]
    guidance = np.clip(guidance, 0.0, 1.0)
    noise_seed = int(rng.integers(0, 2**63 - 1))
    depth_lr = degrade(depth_hr, scale, noise_sigma, noise_seed)
    return ScenePair(pair_id or f"synth{seed}", guidance, depth_hr, depth_lr)


def synth_split(n_train, n_eval, H, W, scale=8, noise_sigma=0.0, seed=0):
    """Disjoint train/eval ScenePair lists from per-pair child seeds."""
    children = np.random.SeedSequence(seed).spawn(n_train + n_eval)
    pairs = [synth_scene(children[i], H, W, scale, noise_sigma,
                         pair_id=f"synth{seed}_{i:03d}")
             for i in range(n_train + n_eval)]
    return DatasetSplit(pairs[:n_train], pairs[n_train:])


# ---------------------------------------------------------------------------
# manifest-driven datasets (pre-converted image pairs on disk)


def parse_manifest(path):
    """`pair_id guidance_path depth_path` per line, '#' comments; paths are
    relative to the manifest. Returns entries sorted by pair id, each id once."""
    entries, first_line = [], {}
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read manifest {path}: {e}")
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected "
                            f"'pair_id guidance_path depth_path', got {line!r}")
        pid, gpath, dpath = parts
        if pid in first_line:
            raise DataError(f"{path}:{lineno}: pair id {pid!r} repeats line {first_line[pid]}")
        first_line[pid] = lineno
        entries.append((pid, os.path.join(base, gpath), os.path.join(base, dpath)))
    entries.sort(key=lambda e: e[0])
    return entries


def load_manifest_pairs(path, scale, noise_sigma=0.0, seed=0):
    """Load every manifest pair, degrading HR depth to LR. A manifest with no
    pair and missing files (all of them, named) are data errors. LR depth is
    snapped to the 16-bit grid so that on-disk LR files reproduce in-memory
    evaluation exactly."""
    entries = parse_manifest(path)
    if not entries:
        raise DataError(f"manifest {path} lists no pairs")
    missing = [p for _, g, d in entries for p in (g, d) if not os.path.exists(p)]
    if missing:
        raise DataError("missing files: " + ", ".join(sorted(set(missing))))
    pairs = []
    for i, (pid, gpath, dpath) in enumerate(entries):
        guidance = load_ppm(gpath)
        depth_hr = load_pgm16(dpath)
        lr = degrade(depth_hr, scale, noise_sigma,
                     np.random.SeedSequence((seed, i)))
        lr = quantize16(lr)
        pairs.append(ScenePair(pid, guidance, depth_hr, lr))
    return pairs


def quantize16(x):
    """Snap [0,1] values to the 16-bit integer grid (what a PGM round trip does)."""
    return np.round(np.clip(x, 0.0, 1.0) * 65535.0) / 65535.0


def to_tensors(pair):
    """Batched constant tensors (guidance, depth_lr, depth_hr) for one pair."""
    return (Tensor(pair.guidance[None]), Tensor(pair.depth_lr[None]),
            Tensor(pair.depth_hr[None]))
