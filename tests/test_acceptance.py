"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import subprocess
import sys
import time
from functools import wraps

import numpy as np

from dmsr import naf as naf_mod
from dmsr import swin as swin_mod
from dmsr import tensor as T
from dmsr.data import (DatasetSplit, bicubic_resize, synth_split)
from dmsr.imageio import load_pgm16, save_pfm, save_pgm16
from dmsr.model import (DmsrModel, KernelField, ModelConfig, apply_joint_filter,
                        combine_offsets, combine_weights, identity_field)
from dmsr.ops import (AttentionParams, bilinear_sample, conv2d, layer_norm,
                      multi_head_attention, pixel_shuffle, pixel_unshuffle,
                      window_merge, window_partition)
from dmsr.tensor import Tensor, mul
from dmsr.train import Adam, evaluate, psnr, train_epochs

from helpers import (check_gradients, gelu, load_pfm, naf_block_chain, weighted_sum_loss,
                     zero_naf_residual_branches, zero_swin_residual_branches)

TINY = dict(embed_dim=8, window=4, heads=1, num_blocks=1, layers_per_block=1,
            k=3, scale=4)


def criterion(n, label):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL - {label}", flush=True)
                raise
            print(f"ACCEPTANCE {n}: PASS - {label}", flush=True)
        return wrapper
    return deco


# -----------------------------------------------------------------------------


@criterion(1, "finite-difference gradient suite (< 2 min, rel err 1e-4 / 1e-3)")
def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    x = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, (4,)), requires_grad=True)
    for fn in (T.add, T.sub, mul):
        check_gradients(lambda: weighted_sum_loss(fn(x, y)), [x, y], n_coords=4)
    for fn in (T.sigmoid, T.absolute, gelu):
        check_gradients(lambda: weighted_sum_loss(fn(x)), [x], n_coords=4)

    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(T.matmul(a, b)), [a, b], n_coords=6)

    xc = Tensor(rng.uniform(-1, 1, (1, 2, 5, 5)), requires_grad=True)
    wc = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
    bc = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(conv2d(xc, wc, bc, padding=1)),
                    [xc, wc, bc], n_coords=5)

    xl = Tensor(rng.uniform(-2, 2, (4, 8)), requires_grad=True)
    gl = Tensor(rng.uniform(0.5, 1.5, (8,)), requires_grad=True)
    bl = Tensor(rng.uniform(-0.5, 0.5, (8,)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(layer_norm(xl, gl, bl)),
                    [xl, gl, bl], n_coords=6)

    # the swin attention node: layer norm, 2x2 windows shifted by 1, attention
    arng = np.random.default_rng(101)
    ap = AttentionParams(arng, 4, 2, None, False)
    ga, ba = (Tensor(arng.uniform(0.5, 1.5, (4,)), requires_grad=True) for _ in range(2))
    xa = Tensor(rng.uniform(-1, 1, (1, 2, 6, 4)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(multi_head_attention(xa, ga, ba, ap, 2, 1)),
                    [xa, ga, ba] + ap.parameters(), n_coords=3)

    # the swin MLP node: layer norm, fc1, exact GELU and fc2 over the last
    # axis of a 4-D input
    mrng = np.random.default_rng(104)
    mp = swin_mod.Mlp(mrng, 4, 8)
    for t in mp.parameters():
        t.data[...] = mrng.uniform(-1, 1, t.shape)
    gm, bm = (Tensor(mrng.uniform(0.5, 1.5, (4,)), requires_grad=True) for _ in range(2))
    xm = Tensor(mrng.uniform(-1, 1, (2, 2, 3, 4)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(mp.forward(xm, gm, bm)),
                    [xm, gm, bm] + mp.parameters(), n_coords=3)

    xs = Tensor(rng.uniform(-1, 1, (1, 2, 6, 6)))             # data: the image takes no gradient
    coords = rng.uniform(0.8, 4.2, (1, 3, 3, 2))
    coords += np.where(np.abs(coords - np.round(coords)) < 0.15, 0.2, 0.0)
    cs = Tensor(coords, requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(bilinear_sample(xs, cs)),
                    [cs], rel_tol=1e-3, n_coords=6)

    # the NAF block node: its SimpleGates and SCA, with both residual branches live
    nb = naf_mod.NafBlock(np.random.default_rng(102), 4)
    nb.beta.data[...], nb.gamma.data[...] = 0.4, -0.3
    xn = Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(nb.forward(xn)),
                    [xn] + nb.parameters(), n_coords=2)

    # the factor-form joint filter at r = 2: the raw weight tensors through
    # combine_weights' sigmoids, each tap's weight normalised over the taps,
    # each displacement a product of offset factors (0.16 to 0.45 pixels,
    # clear of the bilinear kernel's kinks)
    wg = Tensor(rng.uniform(-2, 2, (1, 9 * 4, 3, 3)), requires_grad=True)
    wt = Tensor(rng.uniform(-2, 2, (1, 9 * 4, 3, 3)), requires_grad=True)
    tu = Tensor(rng.random((1, 1, 6, 6)))                  # data: the filter takes no gradient
    mag = rng.uniform(0.2, 0.45, (1, 18 * 4, 3, 3))
    og = Tensor(mag * np.where(rng.random((1, 18 * 4, 3, 3)) < 0.5, -1, 1),
                requires_grad=True)
    ot = Tensor(rng.uniform(0.8, 1.0, (1, 18 * 4, 3, 3)), requires_grad=True)
    check_gradients(
        lambda: weighted_sum_loss(apply_joint_filter(
            tu, KernelField(*combine_weights(wg, wt, 3, 2), og, ot, 2), 3)),
        [wg, wt, og, ot], rel_tol=1e-3, n_coords=5)

    # full pipeline at 16x16, tiny config, both backbones
    for backbone in ("swin", "naf"):
        cfg = ModelConfig(backbone=backbone, **TINY)
        model = DmsrModel(cfg, seed=2)
        if backbone == "naf":
            for bb in (model.guide_backbone, model.target_backbone):
                for block in bb.blocks:
                    block.beta.data[...] = 0.3
                    block.gamma.data[...] = 0.3
        g = Tensor(rng.random((1, 3, 16, 16)))
        d = Tensor(rng.random((1, 1, 4, 4)))
        named = model.named_parameters()
        sel = np.random.default_rng(103).choice(len(named), size=10, replace=False)
        leaves = [named[i][1] for i in sel]
        check_gradients(lambda: weighted_sum_loss(model.forward(g, d)),
                        leaves, rel_tol=1e-3, n_coords=2)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


@criterion(2, "weight normalization: channel sums equal one (100 random inputs)")
def test_criterion_2_weight_normalization():
    rng = np.random.default_rng(200)
    for _ in range(100):
        h, w = rng.integers(1, 5), rng.integers(1, 5)
        wg = Tensor(rng.uniform(-4, 4, (1, 9 * 16, h, w)))
        wt = Tensor(rng.uniform(-4, 4, (1, 9 * 16, h, w)))
        zero = Tensor(np.zeros((1, 18 * 16, h, w)))
        field = KernelField(*combine_weights(wg, wt, 3, 4), *combine_offsets(zero, zero, 3, 4), 4)
        sums = field.weights.data.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6


@criterion(3, "identity chain: delta kernel and zero-residual backbones")
def test_criterion_3_identity_chain():
    rng = np.random.default_rng(300)
    target = Tensor(rng.random((2, 1, 12, 12)))
    out = apply_joint_filter(target, identity_field(2, 12, 12, 3), 3)
    assert np.abs(out.data - target.data).max() < 1e-6

    swin_bb = swin_mod.SwinBackbone(np.random.default_rng(301), 8, 8, 4, 2, 4, 2, 2.0, False)
    zero_swin_residual_branches(swin_bb)
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 8)))
    np.testing.assert_allclose(swin_bb.forward_blocks(x).data, x.data, atol=1e-12)

    naf_bb = naf_mod.NafBackbone(np.random.default_rng(302), 8, 8, 6)
    zero_naf_residual_branches(naf_bb)
    np.testing.assert_allclose(naf_bb.forward_blocks(x).data, x.data, atol=1e-12)


@criterion(4, "tanh GELU within 1e-3 of exact on [-5, 5]")
def test_criterion_4_gelu_fidelity():
    grid = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    exact = gelu(Tensor(grid), mode="exact").data
    approx = gelu(Tensor(grid), mode="tanh_approx").data
    assert np.max(np.abs(exact - approx)) < 1e-3


@criterion(5, "round trips: rearrangement bit-exact, files within quantization")
def test_criterion_5_round_trips(tmp_path):
    rng = np.random.default_rng(500)
    x = rng.random((2, 3, 8, 8))
    assert (pixel_shuffle(pixel_unshuffle(Tensor(x), 4), 4).data == x).all()
    xw = rng.random((2, 8, 8, 5))
    wins = window_partition(Tensor(xw), 4)
    assert (window_merge(wins, 4, 8, 8).data == xw).all()

    depth = rng.random((1, 9, 13))
    p = str(tmp_path / "d.pgm")
    save_pgm16(p, depth)
    assert np.abs(load_pgm16(p) - depth).max() <= 1.0 / 65535.0

    img = rng.standard_normal((1, 7, 5))
    p = str(tmp_path / "s.pfm")
    save_pfm(p, img)
    np.testing.assert_array_equal(load_pfm(p).astype(np.float32),
                                  img.astype(np.float32))


@criterion(6, "PSNR matches the direct formula and decreases with noise")
def test_criterion_6_psnr_oracle():
    rng = np.random.default_rng(600)
    for _ in range(50):
        a, b = rng.random((8, 8)), rng.random((8, 8))
        direct = 20.0 * math.log10(1.0 / math.sqrt(np.mean((a - b) ** 2)))
        assert abs(psnr(a, b) - direct) < 1e-9
    gt = rng.random((64, 64))
    noise = np.random.default_rng(601).standard_normal(gt.shape)
    scores = [psnr(gt + s * noise, gt) for s in (0.01, 0.02, 0.04)]
    assert scores[0] > scores[1] > scores[2]


@criterion(7, "tiny-overfit beats the bicubic baseline by 1.5 dB per backbone")
def test_criterion_7_tiny_overfit():
    split = synth_split(8, 0, 64, 64, scale=8, noise_sigma=0.0, seed=7)
    train_set = DatasetSplit(split.train, [])
    baseline = np.mean([psnr(bicubic_resize(p.depth_lr, 64, 64), p.depth_hr)
                        for p in split.train])
    epochs = 30  # 240 steps of batch-1 training, well under the 500 cap
    for backbone in ("swin", "naf"):
        cfg = ModelConfig(backbone=backbone, scale=8, k=3)
        model = DmsrModel(cfg, seed=7)
        opt = Adam(model.named_parameters())
        start = time.perf_counter()
        log = train_epochs(model, opt, train_set, epochs=epochs, seed=7)
        steps = len(log.step_losses)
        assert steps <= 500
        _, final, _ = evaluate(model, split.train)
        gain = final - baseline
        print(f"  {backbone}: {steps} steps, {time.perf_counter() - start:.0f}s, "
              f"train PSNR {final:.2f} dB vs bicubic {baseline:.2f} dB "
              f"(gain {gain:+.2f} dB)", flush=True)
        assert gain >= 1.5, f"{backbone}: gain {gain:.2f} dB < 1.5 dB"


def _run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "dmsr.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _epoch_psnrs(path):
    rows = [l for l in open(path) if not l.startswith("#")][1:]
    return {int(r.split(",")[0]): r.split(",")[1] for r in rows}


@criterion(8, "byte-identical checkpoints and bit-exact resume")
def test_criterion_8_determinism(tmp_path):
    base = ["train", "--synthetic", "8", "--seed", "7", "--epochs", "2"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _run_cli(base + ["--out", a])
    _run_cli(base + ["--out", b])
    blob_a = open(os.path.join(a, "checkpoint.dmsr"), "rb").read()
    blob_b = open(os.path.join(b, "checkpoint.dmsr"), "rb").read()
    assert blob_a == blob_b

    # interrupt after epoch 0, resume, and compare against the straight run
    c = str(tmp_path / "c")
    _run_cli(["train", "--synthetic", "8", "--seed", "7", "--epochs", "1",
              "--out", c])
    d = str(tmp_path / "d")
    _run_cli(["train", "--synthetic", "8", "--seed", "7", "--epochs", "2",
              "--resume", os.path.join(c, "checkpoint_epoch000.dmsr"),
              "--out", d])
    blob_d = open(os.path.join(d, "checkpoint.dmsr"), "rb").read()
    assert blob_d == blob_a
    psnr_a = _epoch_psnrs(os.path.join(a, "epochs.csv"))
    psnr_d = _epoch_psnrs(os.path.join(d, "epochs.csv"))
    assert psnr_d[1] == psnr_a[1]


@criterion(9, "block-count audit and activation-free NAF tape")
def test_criterion_9_block_audit():
    for backbone, expected in (("swin", 4), ("naf", 6)):
        cfg = ModelConfig(backbone=backbone, scale=8)
        model = DmsrModel(cfg, seed=1)
        for branch in (model.guide_backbone, model.target_backbone):
            calls = []
            for block in branch.blocks:
                orig = block.forward
                block.forward = (lambda f: lambda x: calls.append(1) or f(x))(orig)
            rng = np.random.default_rng(0)
            branch.forward(Tensor(rng.random((1,
                3 * 16 if branch is model.guide_backbone else 16, 8, 8))))
            assert len(calls) == expected, f"{backbone}: {len(calls)} blocks ran"

    # A block records one "naf_block" node, so the audit reads the chain of
    # nodes that node is bit-equal to
    rng = np.random.default_rng(901)
    naf_bb = naf_mod.NafBackbone(rng, 8, 8, 6)
    for block in naf_bb.blocks:
        block.beta.data[...] = 0.5
        block.gamma.data[...] = 0.5
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 8)), requires_grad=True)
    chain = node = x
    with T.Tape() as tape:
        for block in naf_bb.blocks:
            chain = naf_block_chain(block, chain)
    forbidden = {"gelu", "sigmoid", "tanh", "softmax", "relu", "erf", "exp"}
    used = {node.op for node in tape.nodes}
    assert used & forbidden == set(), f"activation nodes on tape: {used & forbidden}"
    assert {"conv2d", "depthwise_conv2d", "mul", "layer_norm"} <= used
    with T.Tape() as tape:
        for block in naf_bb.blocks:
            node = block.forward(node)
    assert [n.op for n in tape.nodes] == ["naf_block"] * 6
    assert node.data.tobytes() == chain.data.tobytes()
