"""The names the benchmark's tracer binds in dmsr.

perfbench/tracing.py wraps dmsr functions, methods and the `record` hook by
name, from outside the package. A rename it does not follow would otherwise
fail only in a traced benchmark run; here it fails the test suite.
"""

import importlib
import os

import numpy as np

from dmsr import checkpoint, cli, data, imageio, model, naf, ops, swin, tensor, train
from dmsr.model import DmsrModel, ModelConfig
from dmsr.tensor import Tape, Tensor
from dmsr.train import l1_loss

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
MODULES = {"tensor": tensor, "ops": ops, "swin": swin, "naf": naf, "model": model,
           "data": data, "imageio": imageio, "train": train, "checkpoint": checkpoint,
           "cli": cli}


def _traced_step(cfg):
    """The span names of one tiny traced training step; asserts that the
    sweep consumed the tape and that the tracer, once uninstalled, has put
    every module and class attribute back."""
    tracing = importlib.import_module("tracing")
    owners = list(MODULES.values()) + [getattr(MODULES[m], c) for m, c, _, _ in tracing.METHODS]
    before = [dict(vars(owner)) for owner in owners]

    net = DmsrModel(cfg)
    rng = np.random.default_rng(0)
    guidance, depth_lr = Tensor(rng.random((1, 3, 16, 16))), Tensor(rng.random((1, 1, 4, 4)))
    tracer = tracing.Tracer(MODULES)
    with tracer:
        with Tape() as tape:
            loss = l1_loss(net.forward(guidance, depth_lr), Tensor(rng.random((1, 1, 16, 16))))
        tape.backward(loss)
    # the sweep consumed the tape, so the closures the tracer wraps, and the
    # input Tensors they hold, went with it
    assert tape.nodes == []

    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner
    return {span[tracing.NAME] for span in tracer.spans}


def test_tracer_binds_attention_and_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    names = _traced_step(ModelConfig(embed_dim=8, window=4, heads=1, num_blocks=1, k=3,
                                     scale=4))
    assert {"ops.multi_head_attention", "ops.bwd.multi_head_attention"} <= names
    # the MLP node records through tensor.record, which the tracer wraps
    assert "tensor.bwd.mlp" in names


def test_tracer_binds_the_naf_block_and_restores_every_original(monkeypatch):
    # the block records through tensor.record, which the tracer wraps; its
    # input conv still calls the conv2d that naf imports by name
    monkeypatch.syspath_prepend(PERFBENCH)
    names = _traced_step(ModelConfig(backbone="naf", embed_dim=8, num_blocks=1, k=3, scale=4))
    assert {"naf.block", "tensor.bwd.naf_block", "ops.conv2d"} <= names
