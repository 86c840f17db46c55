"""Joint-filter head and the full two-path super-resolution model.

Backbone features from the guidance and target branches become per-pixel
kernel fields: k*k normalized weights plus 2*k*k sampling offsets, each the
product of a guidance and a target factor in the heads' sub-pixel layout.
The SR depth map is the offset-displaced weighted average of the
bicubic-upsampled target.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import naf as naf_mod
from . import swin as swin_mod
from .data import bicubic_resize
from .ops import (Module, param_conv, zeros_param, conv2d, joint_filter, pixel_shuffle,
                  pixel_unshuffle, tap_mean, tap_weight)
from .tensor import Tensor, ShapeError, sigmoid

BACKBONES = ("swin", "naf")
DEFAULT_BLOCKS = {"swin": 4, "naf": 6}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ConfigError(ValueError):
    """An invalid config value, flag or environment setting (CLI exit 2)."""


def parse(kind, text):
    """A config-file or checkpoint-metadata value as `kind` (str, int, float
    or bool); raises ValueError when it does not parse."""
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse {text!r} as {kind.__name__}") from None


def _require(ok, message):
    if not ok:
        raise ConfigError(message)


@dataclass
class ModelConfig:
    """Architecture hyperparameters for either backbone. Each field is the
    config key `model.<field>`: its default, type and valid range live here
    and nowhere else."""

    backbone: str = "swin"
    num_blocks: int = 0          # 0 -> backbone default (swin 4, naf 6)
    embed_dim: int = 32
    window: int = 4
    heads: int = 2
    layers_per_block: int = 2    # STLs per residual swin block
    mlp_ratio: float = 2.0
    k: int = 3                   # filter size; k*k taps per output pixel
    scale: int = 8               # super-resolution factor
    resample_factor: int = 4     # input resampled into resample_factor**2 sub-images
    position_bias: bool = False  # learned relative position bias in attention

    def __post_init__(self):
        _require(self.backbone in BACKBONES,
                 f"model.backbone must be one of {BACKBONES}, got {self.backbone!r}")
        _require(self.num_blocks >= 0, f"model.num_blocks must be >= 0, got {self.num_blocks}")
        if self.num_blocks == 0:
            self.num_blocks = DEFAULT_BLOCKS[self.backbone]
        for name in ("embed_dim", "window", "heads", "layers_per_block", "resample_factor"):
            value = getattr(self, name)
            _require(value >= 1, f"model.{name} must be >= 1, got {value}")
        _require(self.embed_dim % self.heads == 0,
                 f"model.embed_dim {self.embed_dim} not divisible by {self.heads} heads")
        _require(math.isfinite(self.mlp_ratio),
                 f"model.mlp_ratio must be finite, got {self.mlp_ratio}")
        _require(self.embed_dim * self.mlp_ratio >= 1, f"model.mlp_ratio {self.mlp_ratio} "
                 f"leaves no MLP channel at embed_dim {self.embed_dim}")
        _require(self.k >= 1 and self.k % 2 == 1,
                 f"model.k must be odd and positive, got {self.k}")
        _require(self.scale in (4, 8, 16), f"model.scale must be 4, 8 or 16, got {self.scale}")
        # the widest parameter dimensions; a checkpoint stores each as a u32
        r = self.resample_factor
        for name, dim in (("3 * model.embed_dim", 3 * self.embed_dim),
                          ("model.embed_dim * model.mlp_ratio",
                           int(self.embed_dim * self.mlp_ratio)),
                          ("2 * model.k^2 * model.resample_factor^2", 2 * self.k ** 2 * r * r),
                          ("3 * model.resample_factor^2", 3 * r * r),
                          ("(2 * model.window - 1)^2", (2 * self.window - 1) ** 2
                           if self.position_bias else 1)):
            _require(dim < 2 ** 32, f"{name} is {dim:.4g}: a checkpoint holds no "
                     f"parameter dimension of 2^32 or more")

    @classmethod
    def from_flat(cls, flat, convert=lambda kind, value: value):
        """Build from the `model.<field>` keys of `flat`, each value passed
        through convert(field type, value); KeyError names a missing key."""
        kwargs = {}
        for f in fields(cls):
            try:
                kwargs[f.name] = convert(f.type, flat[f"model.{f.name}"])
            except ValueError as e:
                raise ConfigError(f"model.{f.name}: {e}")
        return cls(**kwargs)

    def to_flat_dict(self):
        return {f"model.{f.name}": getattr(self, f.name) for f in fields(self)}


@dataclass
class KernelField:
    """The per-pixel filter as the heads predict it, in the sub-pixel layout
    of factor r: the sigmoid weight factors w_guide and w_target
    (B, k*k*r*r, H/r, W/r) and the raw offset factors o_guide and o_target
    (B, 2*k*k*r*r, H/r, W/r). The joint filter forms each tap's weight and
    displacement from them in that layout; `weights` (B, k*k, H, W), summing
    to one over the taps, and `offsets` (B, 2*k*k, H, W), (dy, dx) pixel
    displacements per tap, pixel_shuffle the whole field to full resolution."""

    w_guide: Tensor
    w_target: Tensor
    o_guide: Tensor
    o_target: Tensor
    r: int

    @property
    def weights(self):
        wg, wt = self.w_guide.data, self.w_target.data
        k = math.isqrt(wg.shape[1] // (self.r * self.r))
        mean = tap_mean(wg, wt, k)
        return pixel_shuffle(Tensor(np.concatenate([tap_weight(wg, wt, mean, t, k)
                                                    for t in range(k * k)], axis=1)), self.r)

    @property
    def offsets(self):
        return pixel_shuffle(Tensor(self.o_guide.data * self.o_target.data), self.r)


class HeadConvs(Module):
    """Two independent 3x3 conv stacks turning backbone features into raw
    weight and offset tensors; channel counts carry the subpixel factor r*r.

    The offset stack's last conv starts near-constant with bias sqrt(1/2):
    the guide*target product then opens at half-pixel displacements, the
    farthest point from the bilinear kernel's derivative kinks, which keeps
    early offset gradients well defined.
    """

    OFFSET_BIAS_INIT = float(np.sqrt(0.5))

    def __init__(self, rng, feat_ch, k, r):
        n_sub = r * r
        self.w1 = param_conv(rng, feat_ch, feat_ch, 3, 3)
        self.b1 = zeros_param((feat_ch,))
        self.w2 = param_conv(rng, k * k * n_sub, feat_ch, 3, 3)
        self.b2 = zeros_param((k * k * n_sub,))
        self.w3 = param_conv(rng, feat_ch, feat_ch, 3, 3)
        self.b3 = zeros_param((feat_ch,))
        self.w4 = Tensor(rng.normal(0.0, 0.001, (2 * k * k * n_sub, feat_ch, 3, 3)),
                         requires_grad=True)
        self.b4 = Tensor(np.full((2 * k * k * n_sub,), self.OFFSET_BIAS_INIT),
                         requires_grad=True)

    def forward(self, features):
        w = conv2d(features, self.w1, self.b1, padding=1)
        w = conv2d(w, self.w2, self.b2, padding=1)
        o = conv2d(features, self.w3, self.b3, padding=1)
        o = conv2d(o, self.w4, self.b4, padding=1)
        return w, o


def _check_factors(name, a, b, channels):
    if a.shape[1] != channels or b.shape != a.shape:
        raise ShapeError(f"{name}: expected {channels} channels, got {a.shape} and {b.shape}")


def combine_weights(w_guide, w_target, k, r):
    """The weight factors: both raw (B, k*k*r*r, h, w) tensors, tap-major,
    through a sigmoid. The joint filter multiplies them tap by tap and
    subtracts the tap mean and adds 1/k^2, so the taps sum to one exactly."""
    _check_factors("combine_weights", w_guide, w_target, k * k * r * r)
    return sigmoid(w_guide), sigmoid(w_target)


def combine_offsets(o_guide, o_target, k, r):
    """The offset factors: the raw (B, 2*k*k*r*r, h, w) tensors as they are,
    their channels checked. The joint filter multiplies them tap by tap; no
    sigmoid and no normalization."""
    _check_factors("combine_offsets", o_guide, o_target, 2 * k * k * r * r)
    return o_guide, o_target


def apply_joint_filter(target_up, kernel_field, k):
    """Weighted average of the target over a k x k neighborhood whose taps are
    displaced by the learned offsets and fetched with border-clamped bilinear
    sampling: one ops.joint_filter node over the field's factors.
    Differentiable end to end."""
    f = kernel_field
    return joint_filter(target_up, f.w_guide, f.w_target, f.o_guide, f.o_target, k, f.r)


def identity_field(B, H, W, k):
    """Delta kernel in factor form at r = 1: a one-hot weight factor times
    ones, whose normalised taps are exactly one on the center and zero
    elsewhere, and a zero offset factor times ones. Applying it reproduces
    the upsampled target exactly."""
    kk = k * k
    w = np.zeros((B, kk, H, W))
    w[:, kk // 2] = 1.0
    return KernelField(Tensor(w), Tensor(np.ones((B, kk, H, W))),
                       Tensor(np.zeros((B, 2 * kk, H, W))), Tensor(np.ones((B, 2 * kk, H, W))),
                       1)


def make_backbone(rng, cfg, in_ch):
    if cfg.backbone == "swin":
        return swin_mod.SwinBackbone(rng, in_ch, cfg.embed_dim, cfg.window,
                                     cfg.heads, cfg.num_blocks,
                                     cfg.layers_per_block, cfg.mlp_ratio,
                                     cfg.position_bias)
    return naf_mod.NafBackbone(rng, in_ch, cfg.embed_dim, cfg.num_blocks)


class DmsrModel(Module):
    """Two-path joint-filtering network: guidance RGB + low-res depth in,
    super-resolved depth out."""

    def __init__(self, cfg, seed=0, rng=None):
        """`rng`, when given, draws the initial weights in place of the
        generator seeded with `seed`. A model whose weights cannot be
        allocated raises ConfigError."""
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
        r = cfg.resample_factor
        self.cfg = cfg
        # numpy raises MemoryError for a weight the host cannot hold, and
        # ValueError for one larger than any array can be
        try:
            self.guide_backbone = make_backbone(rng, cfg, 3 * r * r)
            self.target_backbone = make_backbone(rng, cfg, r * r)
            self.guide_head = HeadConvs(rng, cfg.embed_dim, cfg.k, r)
            self.target_head = HeadConvs(rng, cfg.embed_dim, cfg.k, r)
        except (MemoryError, ValueError) as e:
            raise ConfigError(f"the model does not fit in memory: {e}")

    def check_extents(self, H, W, lr_h, lr_w):
        cfg = self.cfg
        s, r = cfg.scale, cfg.resample_factor
        if H % s or W % s:
            raise ShapeError(f"guidance extents {H}x{W} not divisible by scale {s}")
        if lr_h * s != H or lr_w * s != W:
            raise ShapeError(f"LR depth {lr_h}x{lr_w} does not match "
                             f"guidance {H}x{W} at scale {s}")
        div = r * cfg.window if cfg.backbone == "swin" else r
        if H % div or W % div:
            raise ShapeError(f"extents {H}x{W} not divisible by {div} "
                             f"(resample factor x window)")

    def forward(self, guidance, depth_lr):
        """guidance (B, 3, H, W) and depth_lr (B, 1, H/s, W/s) -> (B, 1, H, W)."""
        B, _, H, W = guidance.shape
        self.check_extents(H, W, depth_lr.shape[2], depth_lr.shape[3])
        target_up = upsample_lr(depth_lr, self.cfg.scale)
        field = self.kernel_field(guidance, target_up)
        return apply_joint_filter(target_up, field, self.cfg.k)

    def kernel_field(self, guidance, target_up):
        """Run both branches; their heads' raw tensors become the field's factors."""
        cfg = self.cfg
        r = cfg.resample_factor
        g_sub = pixel_unshuffle(guidance, r)
        t_sub = pixel_unshuffle(target_up, r)
        f_guide = self.guide_backbone.forward(g_sub)
        f_target = self.target_backbone.forward(t_sub)
        w_g, o_g = self.guide_head.forward(f_guide)
        w_t, o_t = self.target_head.forward(f_target)
        return KernelField(*combine_weights(w_g, w_t, cfg.k, r),
                           *combine_offsets(o_g, o_t, cfg.k, r), r)


def upsample_lr(depth_lr, scale):
    """Bicubic-upsample the LR depth to full resolution as a constant tensor
    (the upsample is input preprocessing, not a trained stage)."""
    x = depth_lr.data
    B, C, h, w = x.shape
    up = np.stack([bicubic_resize(x[b], h * scale, w * scale) for b in range(B)])
    return Tensor(up)
