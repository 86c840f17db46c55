"""Tests of the dmsr benchmark itself.

    python3 -m pytest -q perfbench/tests

The smoke runs start `perfbench/run.py --workload ...` in its own process
for each workload, with a one-second measurement.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import tracing      # noqa: E402
import workloads    # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STAGES = ("model.upsample_lr_ms", "model.guide_backbone_ms", "model.target_backbone_ms",
          "model.heads_ms", "model.combine_ms", "model.joint_filter_fwd_ms")


def run_bench(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


_SMOKE = {}


def smoke(workload, trace):
    """One short run per (workload, trace), shared by the tests below."""
    key = (workload, trace)
    if key not in _SMOKE:
        proc = run_bench(["--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", str(trace)])
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
        _SMOKE[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _SMOKE[key]


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_follows_the_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_per_layer_list_matches_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        tracing.per_layer_names()


def test_layer_map_names_existing_metrics():
    with open(os.path.join(BENCH_DIR, "layer_map.json"), encoding="utf-8") as f:
        layer_map = json.load(f)
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    covered = set()
    for layer in layer_map["layers"]:
        for name in layer["metrics"]:
            assert name in per_layer, name
            covered.add(name)
        for move in layer["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in workloads.WORKLOADS
    assert per_layer - covered <= {n for n in per_layer if n.startswith("trace.")}


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_a_valid_result(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_model_stage_times_sum_to_the_forward(workload):
    m = {k: v["value"] for k, v in smoke(workload, 1)["metrics"].items()}
    total = sum(m[s] for s in STAGES)
    assert m["model.forward_ms"] > 0
    assert 0.95 * m["model.forward_ms"] <= total <= m["model.forward_ms"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_fanout_eval_gives_parallel_efficiency(workload):
    m = smoke(workload, 1)["metrics"]
    assert 0 < m["train.eval_parallel_efficiency"]["value"] <= 1


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_eval_only_layers_come_from_the_traced_fanout_eval(workload):
    m = {k: v["value"] for k, v in smoke(workload, 1)["metrics"].items()}
    for name in ("imageio.load_ms", "imageio.bytes_read", "checkpoint.restore_ms",
                 "data.load_manifest_pairs_ms", "cli.eval_self_ms"):
        assert m[name] > 0, name


def test_train_trace_attributes_backward_and_waste():
    m = {k: v["value"] for k, v in smoke("train-swin-64", 1)["metrics"].items()}
    assert m["tensor.nodes_per_step"] == 746
    assert m["tensor.discarded_grads"] > 0
    assert m["model.joint_filter_nodes"] > 0 and m["model.joint_filter_bwd_ms"] > 0
    assert m["data.resize_matrix.calls"] >= m["data.resize_matrix.distinct"] >= 1


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(["--workload", "train-swin-64", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=str(tmp_path), timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# in-process


def _bindings():
    """Every attribute of every dmsr module and of every class they define."""
    snap = {}
    for mod in workloads.MODULES.values():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = cvalue
    return snap


def test_tracer_restores_every_patched_attribute():
    from dmsr import naf, ops, tensor
    from dmsr.data import synth_scene, to_tensors
    from dmsr.model import DmsrModel, ModelConfig

    before = _bindings()
    model = DmsrModel(ModelConfig(backbone="swin", num_blocks=1), seed=0)
    g, d, h = to_tensors(synth_scene(0, 32, 32, scale=8))
    tracer = tracing.Tracer(workloads.MODULES)
    with pytest.raises(RuntimeError, match="inside"):
        with tracer:
            assert naf.conv2d is not before[("dmsr.naf", "conv2d")]
            assert ops.record is not before[("dmsr.ops", "record")]
            assert tensor.Tape.backward is not before[("dmsr.tensor", "Tape", "backward")]
            with tensor.Tape() as tape:
                loss = tensor.tmean(tensor.absolute(tensor.sub(model.forward(g, d), h)))
            tape.backward(loss)
            raise RuntimeError("inside")
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"model.forward", "swin.backbone", "ops.conv2d", "tensor.backward",
            "ops.bwd.bilinear_sample"} <= names


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail(list(range(1, 101))) == (90, 90)
    assert workloads.tail(list(range(1, 51))) == (80, 40)
    assert workloads.tail(list(range(1, 16))) == (50, 8)
    assert workloads.percentile(list(range(1, 101)), 10) == 10
