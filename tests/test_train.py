"""Optimizer, loss, metric and training-loop behavior."""

import math

import numpy as np
import pytest

from dmsr.data import synth_split
from dmsr.model import DmsrModel, ModelConfig
from dmsr.tensor import ShapeError, Tape, Tensor
from dmsr.train import (Adam, TrainingDivergedError, bench, evaluate, l1_loss,
                        psnr, train_epochs)

TINY = dict(embed_dim=8, window=4, heads=1, num_blocks=1, layers_per_block=1,
            k=3, scale=8)


def _params(rng, shapes):
    return [(f"p{i}", Tensor(rng.uniform(-1, 1, s), requires_grad=True))
            for i, s in enumerate(shapes)]


# Adam ------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    rng = np.random.default_rng(0)
    named = _params(rng, [(3, 2), (4,)])
    before = [p.data.copy() for _, p in named]
    opt = Adam(named)
    opt.step({p: np.zeros_like(p.data) for _, p in named})
    for (_, p), b in zip(named, before):
        np.testing.assert_array_equal(p.data, b)


def test_adam_first_step_magnitude_closed_form():
    rng = np.random.default_rng(1)
    named = _params(rng, [(5, 5)])
    p = named[0][1]
    before = p.data.copy()
    lr = 1e-3
    opt = Adam(named, lr=lr)
    g = np.full_like(p.data, 0.37)
    opt.step({p: g})
    delta = np.abs(p.data - before)
    # first bias-corrected step is lr * g / (|g| + eps) ~= lr exactly
    assert np.abs(delta - lr).max() < 1e-6 * lr


def test_adam_deterministic():
    rng = np.random.default_rng(2)
    results = []
    for _ in range(2):
        named = _params(np.random.default_rng(7), [(4, 4)])
        opt = Adam(named)
        g = np.random.default_rng(8).normal(size=(4, 4))
        for _ in range(5):
            opt.step({named[0][1]: g})
        results.append(named[0][1].data.copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_adam_rejects_shape_mismatch():
    named = _params(np.random.default_rng(3), [(2, 2)])
    opt = Adam(named)
    with pytest.raises(ShapeError):
        opt.step({named[0][1]: np.zeros((3, 3))})


def test_adam_missing_gradient_is_zero():
    named = _params(np.random.default_rng(4), [(2, 2)])
    before = named[0][1].data.copy()
    Adam(named).step({})
    np.testing.assert_array_equal(named[0][1].data, before)


# L1 loss -----------------------------------------------------------------------


def test_l1_identical_inputs_zero():
    x = Tensor(np.random.default_rng(5).random((3, 3)))
    assert l1_loss(x, x).item() == 0.0


def test_l1_constant_offset():
    rng = np.random.default_rng(6)
    gt = Tensor(rng.random((4, 4)))
    pred = Tensor(gt.data + 0.25)
    assert l1_loss(pred, gt).item() == pytest.approx(0.25)


def test_l1_gradient_is_sign_over_n():
    rng = np.random.default_rng(7)
    gt = Tensor(rng.random((3, 4)))
    pred = Tensor(gt.data + rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = l1_loss(pred, gt)
    g = tape.backward(loss)[pred]
    want = np.sign(pred.data - gt.data) / pred.data.size
    np.testing.assert_allclose(g, want)


def test_l1_shape_mismatch():
    with pytest.raises(ShapeError):
        l1_loss(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))


# PSNR ----------------------------------------------------------------------------


def test_psnr_identical_is_inf():
    x = np.random.default_rng(8).random((5, 5))
    assert psnr(x, x) == math.inf


def test_psnr_full_scale_error_is_zero_db():
    gt = np.zeros((4, 4))
    pred = np.ones((4, 4))
    assert psnr(pred, gt) == pytest.approx(0.0)


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.random((6, 6))
        b = rng.random((6, 6))
        want = 20 * math.log10(1.0 / math.sqrt(np.mean((a - b) ** 2)))
        assert abs(psnr(a, b) - want) < 1e-9


def test_psnr_symmetry():
    rng = np.random.default_rng(10)
    a, b = rng.random((8, 8)), rng.random((8, 8))
    assert psnr(a, b) == psnr(b, a)


def test_psnr_monotone_in_noise():
    rng = np.random.default_rng(11)
    gt = rng.random((64, 64))
    scores = []
    for sigma in (0.01, 0.02, 0.04):
        noisy = gt + np.random.default_rng(12).normal(0, sigma, gt.shape)
        scores.append(psnr(noisy, gt))
    assert scores[0] > scores[1] > scores[2]


# training loop --------------------------------------------------------------------


def _tiny_fixture(backbone, n_train=1, n_eval=0, seed=3):
    cfg = ModelConfig(backbone=backbone, **TINY)
    split = synth_split(n_train, n_eval, 32, 32, scale=8, noise_sigma=0.0,
                        seed=seed)
    model = DmsrModel(cfg, seed=seed)
    opt = Adam(model.named_parameters())
    return model, opt, split


@pytest.mark.parametrize("backbone", ["swin", "naf"])
def test_fixed_batch_loss_decreases_monotone_moving_average(backbone):
    model, opt, split = _tiny_fixture(backbone, n_train=1)
    log = train_epochs(model, opt, split, epochs=50, seed=3)
    losses = [l for _, l in log.step_losses][:50]
    ma = np.convolve(losses, np.ones(5) / 5.0, mode="valid")
    assert ma[-1] < ma[0]
    assert np.all(np.diff(ma) < 1e-4), "moving average must not tick upward"


def test_training_deterministic_same_seed():
    finals = []
    for _ in range(2):
        model, opt, split = _tiny_fixture("swin", n_train=2)
        train_epochs(model, opt, split, epochs=2, seed=3)
        finals.append(np.concatenate([p.data.ravel()
                                      for _, p in model.named_parameters()]))
    np.testing.assert_array_equal(finals[0], finals[1])


def test_training_diverged_raises():
    model, opt, split = _tiny_fixture("swin", n_train=1)
    model.guide_head.b2.data[:] = np.nan
    with pytest.raises(TrainingDivergedError):
        train_epochs(model, opt, split, epochs=1, seed=3)


def test_nan_held_out_psnr_raises_before_on_epoch():
    model, _, split = _tiny_fixture("swin", n_train=1, n_eval=1)
    opt = Adam(model.named_parameters(), lr=1e300)
    epochs = []
    with pytest.raises(TrainingDivergedError, match="held-out"):
        train_epochs(model, opt, split, epochs=2, seed=3,
                     on_epoch=lambda epoch, *_: epochs.append(epoch))
    assert opt.step_count == 1 and epochs == []


def test_resume_reproduces_uninterrupted_run():
    # uninterrupted: 3 epochs; interrupted: 2 epochs, snapshot, 1 more epoch
    model_a, opt_a, split = _tiny_fixture("swin", n_train=2, n_eval=1)
    log_a = train_epochs(model_a, opt_a, split, epochs=3, seed=3)

    model_b, opt_b, _ = _tiny_fixture("swin", n_train=2, n_eval=1)
    train_epochs(model_b, opt_b, split, epochs=2, seed=3)
    log_b2 = train_epochs(model_b, opt_b, split, epochs=3, seed=3, start_epoch=2)

    for (_, pa), (_, pb) in zip(model_a.named_parameters(),
                                model_b.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    # epoch-2 eval PSNR identical bit for bit
    assert log_a.epoch_metrics[2][1] == log_b2.epoch_metrics[0][1]


def test_evaluate_orders_by_pair_id():
    model, _, split = _tiny_fixture("swin", n_train=1, n_eval=3)
    per_pair, mean, ms = evaluate(model, split.eval[::-1])
    ids = [pid for pid, _ in per_pair]
    assert ids == sorted(ids)
    assert mean == pytest.approx(np.mean([s for _, s in per_pair]))
    assert ms > 0


def test_evaluate_thread_fanout_matches_serial(monkeypatch):
    model, _, split = _tiny_fixture("naf", n_train=1, n_eval=3)
    serial = evaluate(model, split.eval)[0]
    monkeypatch.setenv("DMSR_THREADS", "3")
    threaded = evaluate(model, split.eval)[0]
    assert serial == threaded


def test_bench_sample_count_and_stats():
    cfg = ModelConfig(backbone="naf", **TINY)
    model = DmsrModel(cfg, seed=0)
    samples, stats = bench(model, 32, 32, repeats=5, seed=0)
    assert len(samples) == 5
    assert stats["min_ms"] <= stats["median_ms"]
    assert stats["min_ms"] <= stats["mean_ms"]
    assert "host" in stats


def test_bench_needs_three_repeats():
    cfg = ModelConfig(backbone="naf", **TINY)
    model = DmsrModel(cfg, seed=0)
    with pytest.raises(ValueError):
        bench(model, 32, 32, repeats=2)


def test_reference_results_documented():
    from dmsr.train import REFERENCE_RESULTS
    assert REFERENCE_RESULTS["Swin-DMSR"]["psnr_db"] == 24.29
    assert REFERENCE_RESULTS["NAF-DMSR"]["psnr_db"] == 24.01
    assert REFERENCE_RESULTS["DKN"]["time_ms"] == 217
    assert REFERENCE_RESULTS["FDKN"]["time_ms"] == 53
