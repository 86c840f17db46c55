"""CLI contract: commands, exit codes, determinism, file artifacts."""

import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dmsr.cli import DEFAULTS, main
from dmsr.data import bicubic_resize, degrade
from dmsr.imageio import load_pgm16, save_pgm16, save_ppm
from dmsr.model import DmsrModel, identity_field

from helpers import load_pfm

TINY_FLAGS = ["--embed-dim", "8", "--window", "4", "--heads", "1",
              "--blocks", "1", "--height", "32", "--width", "32"]


def run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "dmsr.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


NO_SCIPY = """
import sys
import numpy as np
import dmsr, dmsr.cli, dmsr.train, dmsr.checkpoint
from dmsr.data import synth_scene
from dmsr.swin import SwinBackbone
from dmsr.tensor import Tensor
synth_scene(0, 32, 32)
rng = np.random.default_rng(0)
backbone = SwinBackbone(rng, 4, 8, 4, 1, 1, 2, 2.0, False)
out = backbone.forward(Tensor(rng.normal(size=(1, 4, 8, 8))))
assert np.isfinite(out.data).all()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_dmsr_process_loads_no_scipy():
    # synth_scene blurs and the swin MLP runs exact GELU, both without scipy
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    code = main(["train", "--synthetic", "2", "--seed", "3", "--epochs", "1",
                 *TINY_FLAGS, "--out", out])
    assert code == 0
    return os.path.join(out, "checkpoint.dmsr")


def test_train_determinism_across_invocations(tmp_path):
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    blobs = []
    for out in outs:
        code, stdout, stderr = run_cli(["train", "--synthetic", "2", "--seed", "7",
                                        "--epochs", "1", *TINY_FLAGS, "--out", out])
        assert code == 0, stderr
        blobs.append(open(os.path.join(out, "checkpoint.dmsr"), "rb").read())
    assert blobs[0] == blobs[1]


def test_unknown_flag_exits_2_naming_it():
    code, stdout, stderr = run_cli(["train", "--synthetic", "2", "--frobnicate", "1"])
    assert code == 2
    assert "--frobnicate" in stderr


def test_unknown_config_key_exits_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("model.k = 3\nmodel.bogus = 1\n")
    code = main(["train", "--synthetic", "2", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_data_exits_3(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_indivisible_synthetic_extents_exit_3(tmp_path):
    code = main(["train", "--synthetic", "1", "--height", "40", "--width", "40",
                 *TINY_FLAGS[:-4], "--out", str(tmp_path / "o")])
    assert code == 3


def test_diverged_training_exits_4(tmp_path, trained):
    # poison one parameter of a real checkpoint with the largest finite value,
    # so its forward overflows (a NaN entry is rejected on load, exit 3); the
    # resumed run must detect the non-finite loss before step 0 completes and
    # exit 4
    from dmsr.checkpoint import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(trained)
    name = next(k for k in arrays if not k.startswith("optim."))
    arrays[name] = np.full_like(arrays[name], np.finfo(np.float64).max)
    poisoned = str(tmp_path / "poisoned.dmsr")
    save_checkpoint(poisoned, arrays, meta)
    code = main(["train", "--synthetic", "2", "--epochs", "2", *TINY_FLAGS,
                 "--resume", poisoned, "--out", str(tmp_path / "o")])
    assert code == 4


# with one training scene the first epoch ends after one finite step, and its
# evaluation on the overflowed parameters reports the divergence
@pytest.mark.parametrize("scenes,threads", [("3", "1"), ("1", "1"), ("1", "2")])
def test_divergence_prints_one_stderr_line(tmp_path, scenes, threads):
    proc = subprocess.run(
        [sys.executable, "-m", "dmsr.cli", "train", "--synthetic", scenes, "--epochs", "3",
         "--lr", "1e300", *TINY_FLAGS, "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "DMSR_THREADS": threads})
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: diverged: non-finite loss")


def test_divergence_on_held_out_scenes_leaves_no_checkpoint(tmp_path):
    # one finite step leaves parameters near 1e300; the epoch-0 held-out PSNR
    # is NaN, and the run stops before it checkpoints that epoch
    code, _, stderr = run_cli(["train", "--synthetic", "1", "--epochs", "3", "--lr", "1e300",
                               *TINY_FLAGS, "--out", str(tmp_path)])
    assert code == 4
    assert stderr.splitlines() == [stderr.strip()]
    assert "held-out" in stderr
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".dmsr")]


def test_diverged_run_keeps_the_steps_before_the_divergence(tmp_path):
    # the second step's loss is non-finite; steps.csv was written as training went
    code, _, stderr = run_cli(["train", "--synthetic", "3", "--epochs", "3", "--lr", "1e300",
                               *TINY_FLAGS, "--out", str(tmp_path)])
    assert code == 4
    assert stderr.splitlines() == ["error: diverged: non-finite loss nan at step 1"]
    lines = (tmp_path / "steps.csv").read_text().splitlines()
    rows = lines[lines.index("step,loss") + 1:]
    assert [r.split(",")[0] for r in rows] == ["1"]
    assert np.isfinite(float(rows[0].split(",")[1]))


@pytest.mark.parametrize("flags,code", [([], 2),
                                        (["--synthetic", "1", "--resume", "missing.dmsr"], 3),
                                        (["--data", "missing.txt"], 3)],
                         ids=["no-data", "resume-missing", "manifest-missing"])
def test_train_failing_on_its_inputs_creates_no_out_directory(tmp_path, monkeypatch,
                                                              flags, code):
    monkeypatch.chdir(tmp_path)
    assert main(["train", *flags, "--out", "D"]) == code
    assert not (tmp_path / "D").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("# comment\nmodel.backbone = naf\ntrain.epochs = 1\n")
    out = str(tmp_path / "o")
    code = main(["train", "--synthetic", "1", "--config", str(cfgfile),
                 *TINY_FLAGS, "--out", out])
    assert code == 0
    header = open(os.path.join(out, "steps.csv")).read()
    assert "# model.backbone = naf" in header       # from file
    assert "# model.embed_dim = 8" in header        # from flag
    from dmsr.checkpoint import load_checkpoint
    _, meta = load_checkpoint(os.path.join(out, "checkpoint.dmsr"))
    assert meta["model.backbone"] == "naf"


@pytest.mark.parametrize("backbone,blocks", [("swin", "4"), ("naf", "6")])
def test_backbone_selects_default_block_count(tmp_path, backbone, blocks):
    out = str(tmp_path / "o")
    code = main(["train", "--synthetic", "1", "--epochs", "1",
                 "--backbone", backbone, "--embed-dim", "8", "--window", "4",
                 "--heads", "1", "--height", "32", "--width", "32",
                 "--out", out])
    assert code == 0
    from dmsr.checkpoint import load_checkpoint
    _, meta = load_checkpoint(os.path.join(out, "checkpoint.dmsr"))
    assert meta["model.num_blocks"] == blocks


def test_synth_then_train_then_eval(tmp_path, trained):
    data = str(tmp_path / "data")
    code = main(["synth", "3", "--height", "32", "--width", "32", "--seed", "5",
                 "--out", data])
    assert code == 0
    manifest = os.path.join(data, "manifest.txt")
    assert os.path.exists(manifest)

    # manifest-driven training records the dataset fingerprint
    import hashlib
    out = str(tmp_path / "mrun")
    code = main(["train", "--data", manifest, "--epochs", "1", *TINY_FLAGS[:8],
                 "--out", out])
    assert code == 0
    from dmsr.checkpoint import load_checkpoint
    _, meta = load_checkpoint(os.path.join(out, "checkpoint.dmsr"))
    want = hashlib.sha256(open(manifest, "rb").read()).hexdigest()
    assert meta["data.manifest_sha256"] == want

    csv_path = str(tmp_path / "eval.csv")
    code, stdout, stderr = run_cli(["eval", trained, manifest, "--csv", csv_path])
    assert code == 0, stderr
    rows = [l for l in open(csv_path) if not l.startswith("#")][1:]
    assert len(rows) == 3
    scores = [float(r.split(",")[1]) for r in rows]
    mean_line = [l for l in stdout.splitlines() if l.startswith("mean_psnr_db=")][0]
    assert float(mean_line.split("=")[1]) == pytest.approx(np.mean(scores))


def test_infer_identity_head_equals_bicubic(tmp_path, trained, monkeypatch):
    data = str(tmp_path / "data")
    main(["synth", "1", "--height", "32", "--width", "32", "--seed", "6",
          "--out", data])
    depth = load_pgm16(os.path.join(data, "scene000_depth.pgm"))
    lr = degrade(depth, 8, 0.0, 0)
    lr_path = str(tmp_path / "lr.pgm")
    save_pgm16(lr_path, lr)
    # swap the learned head for the delta kernel; the rest of infer is unchanged
    monkeypatch.setattr(DmsrModel, "kernel_field", lambda self, guidance, target_up:
                        identity_field(1, 32, 32, self.cfg.k))
    out_path = str(tmp_path / "sr.pfm")
    preview_path = str(tmp_path / "sr_preview.pgm")
    code = main(["infer", trained, os.path.join(data, "scene000_rgb.ppm"),
                 lr_path, "--out", out_path, "--out-preview", preview_path])
    assert code == 0
    sr = load_pfm(out_path)
    want = bicubic_resize(load_pgm16(lr_path), 32, 32)
    assert np.abs(sr - want).max() < 1e-6
    assert load_pgm16(preview_path).shape == (1, 32, 32)


def test_infer_psnr_matches_eval(tmp_path, trained, capsys):
    data = str(tmp_path / "data")
    main(["synth", "1", "--height", "32", "--width", "32", "--seed", "8",
          "--out", data])
    capsys.readouterr()
    manifest = os.path.join(data, "manifest.txt")
    code = main(["eval", trained, manifest])
    assert code == 0
    eval_out = capsys.readouterr().out
    eval_psnr = float(eval_out.splitlines()[0].split(",")[1])

    depth = load_pgm16(os.path.join(data, "scene000_depth.pgm"))
    lr_path = str(tmp_path / "lr.pgm")
    save_pgm16(lr_path, degrade(depth, 8, 0.0, 0))
    preview_path = str(tmp_path / "sr_preview.pgm")
    code = main(["infer", trained, os.path.join(data, "scene000_rgb.ppm"),
                 lr_path, "--out", str(tmp_path / "sr.pfm"),
                 "--gt", os.path.join(data, "scene000_depth.pgm"),
                 "--out-preview", preview_path])
    assert code == 0
    infer_out = capsys.readouterr().out
    infer_psnr = float([l for l in infer_out.splitlines()
                        if l.startswith("psnr_db=")][0].split("=")[1])
    assert abs(infer_psnr - eval_psnr) < 1e-9
    # the preview is the PFM output quantized to 16 bits
    sr = np.clip(load_pfm(str(tmp_path / "sr.pfm")), 0.0, 1.0)
    preview = load_pgm16(preview_path)
    assert preview.shape == (1, 32, 32)
    assert np.abs(preview - sr).max() <= 1.0 / 65535.0


def test_eval_inf_sentinel_on_zero_scene(tmp_path, trained, capsys):
    # an all-zero depth map survives resampling and joint filtering exactly
    # (every stage is a weighted sum of zeros), so pred == gt -> +inf PSNR
    from dmsr.imageio import save_ppm
    data = tmp_path / "flat"
    data.mkdir()
    rng = np.random.default_rng(0)
    save_ppm(str(data / "rgb.ppm"), rng.random((3, 32, 32)))
    save_pgm16(str(data / "depth.pgm"), np.zeros((1, 32, 32)))
    (data / "manifest.txt").write_text("flat rgb.ppm depth.pgm\n")
    capsys.readouterr()
    code = main(["eval", trained, str(data / "manifest.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "flat,inf"


def test_eval_noise_monotonicity(tmp_path, trained, capsys):
    data = str(tmp_path / "data")
    main(["synth", "3", "--height", "32", "--width", "32", "--seed", "9",
          "--out", data])
    manifest = os.path.join(data, "manifest.txt")
    means = {}
    for sigma in ("0.0", "0.04"):
        capsys.readouterr()
        assert main(["eval", trained, manifest, "--noise-sigma", sigma]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("mean_psnr_db=")][0]
        means[sigma] = float(line.split("=")[1])
    assert means["0.0"] >= means["0.04"]


def test_infer_extent_mismatch_reports_both(tmp_path, trained, capsys):
    rng = np.random.default_rng(1)
    from dmsr.imageio import save_ppm
    save_ppm(str(tmp_path / "g.ppm"), rng.random((3, 32, 32)))
    save_pgm16(str(tmp_path / "d.pgm"), rng.random((1, 8, 8)))  # wrong: 32/8=4
    code = main(["infer", trained, str(tmp_path / "g.ppm"), str(tmp_path / "d.pgm"),
                 "--out", str(tmp_path / "sr.pfm")])
    assert code == 3
    err = capsys.readouterr().err
    assert "32x32" in err and "8x8" in err


def test_bench_csv_rows_and_report(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    code = main(["bench", "--backbone", "naf", "--width", "32", "--height", "32",
                 "--repeats", "4", "--csv", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "backbone=naf" in out and "B=6" in out and "k=3" in out and "scale=8" in out
    assert "host=" in out
    rows = [l for l in open(csv_path) if not l.startswith("#")][1:]
    assert len(rows) == 4


def test_bench_from_checkpoint(trained, capsys, tmp_path):
    code = main(["bench", "--checkpoint", trained, "--width", "32",
                 "--height", "32", "--repeats", "3"])
    assert code == 0
    assert "backbone=swin" in capsys.readouterr().out


def test_argparse_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


TINY_TRAIN = ["train", "--synthetic", "1", "--epochs", "1", *TINY_FLAGS]
# a resume of `trained` that asks for the scene count it recorded
TINY_RESUME = ["train", "--synthetic", "2", "--epochs", "1", *TINY_FLAGS, "--resume"]


def _train_with_config(text):
    def argv(tmp_path, trained):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(text + "\n")
        return [*TINY_TRAIN, "--config", str(cfgfile), "--out", str(tmp_path / "o")]
    return argv


def _train_with_flags(*flags):
    return lambda tmp_path, trained: [*TINY_TRAIN, *flags, "--out", str(tmp_path / "o")]


def _with_metadata(tmp_path, trained, key, value):
    """The trained checkpoint with one metadata key changed (value None drops it)."""
    from dmsr.checkpoint import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(trained)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    path = str(tmp_path / "bad.dmsr")
    save_checkpoint(path, arrays, meta)
    return path


def _with_patched_bytes(tmp_path, trained, old, new):
    """The trained checkpoint with the first `old` bytes replaced by `new`."""
    blob = open(trained, "rb").read()
    assert old in blob and len(old) == len(new)
    path = tmp_path / "bad.dmsr"
    path.write_bytes(blob.replace(old, new, 1))
    return str(path)


def _with_first_dimension_grown(tmp_path, trained):
    """The trained checkpoint with the first shape dimension of its first entry
    one larger than its payload holds."""
    blob = bytearray(open(trained, "rb").read())
    (nlen,) = struct.unpack_from("<H", blob, 10)     # after magic, version, count
    at = 12 + nlen + 2                               # after name, dtype, ndim
    struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + 1)
    path = tmp_path / "bad.dmsr"
    path.write_bytes(bytes(blob))
    return str(path)


def _entry_ends(blob):
    """The offset just past each checkpoint entry, in file order."""
    (count,) = struct.unpack_from("<I", blob, 6)
    ends, at = [], 10
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, at)
        head = nlen + 4 + 4 * blob[at + nlen + 3] + 8
        at += head + struct.unpack_from("<Q", blob, at + head - 8)[0]
        ends.append(at)
    return ends


def _bench_with_first_entry_repeated(tmp_path, trained):
    """bench on the trained checkpoint with a copy of its first entry appended
    to the entry table and the entry count raised by one."""
    blob = open(trained, "rb").read()
    ends = _entry_ends(blob)
    path = tmp_path / "bad.dmsr"
    path.write_bytes(blob[:6] + struct.pack("<I", len(ends) + 1) + blob[10:ends[-1]]
                     + blob[10:ends[0]] + blob[ends[-1]:])
    return ["bench", "--checkpoint", str(path), "--width", "32", "--height", "32",
            "--repeats", "3"]


def _bench_with_metadata_line_repeated(tmp_path, trained):
    """bench on the trained checkpoint with a second `model.k` line, of another
    value, right after its first."""
    blob = open(trained, "rb").read()
    at = _entry_ends(blob)[-1]
    meta = blob[at + 4:]
    assert b"model.k = 3\n" in meta
    meta = meta.replace(b"model.k = 3\n", b"model.k = 3\nmodel.k = 5\n")
    path = tmp_path / "bad.dmsr"
    path.write_bytes(blob[:at] + struct.pack("<I", len(meta)) + meta)
    return ["bench", "--checkpoint", str(path), "--width", "32", "--height", "32",
            "--repeats", "3"]


def _with_entries(tmp_path, trained, changes):
    """The trained checkpoint with each entry of `changes` set to its array,
    or dropped where the array is None."""
    from dmsr.checkpoint import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(trained)
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    path = str(tmp_path / "bad.dmsr")
    save_checkpoint(path, arrays, meta)
    return path


def _resume_with_entries(changes):
    return lambda tmp_path, trained: [
        *TINY_RESUME, _with_entries(tmp_path, trained, changes), "--out", str(tmp_path / "o")]


def _with_entry_value(tmp_path, trained, name, value):
    """The trained checkpoint with the first value of entry `name` set to `value`."""
    from dmsr.checkpoint import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(trained)
    arrays[name].reshape(-1)[0] = value
    path = str(tmp_path / "bad.dmsr")
    save_checkpoint(path, arrays, meta)
    return path


def _infer_with_entry_value(name, value):
    def argv(tmp_path, trained):
        save_ppm(str(tmp_path / "g.ppm"), np.zeros((3, 32, 32)))
        save_pgm16(str(tmp_path / "d.pgm"), np.zeros((4, 4)))
        return ["infer", _with_entry_value(tmp_path, trained, name, value),
                str(tmp_path / "g.ppm"), str(tmp_path / "d.pgm"),
                "--out", str(tmp_path / "sr.pfm")]
    return argv


def _eval_with_metadata(key, value):
    return lambda tmp_path, trained: [
        "eval", _with_metadata(tmp_path, trained, key, value), str(tmp_path / "manifest.txt")]


def _resume_with_metadata(key, value):
    return lambda tmp_path, trained: [
        *TINY_RESUME, _with_metadata(tmp_path, trained, key, value),
        "--out", str(tmp_path / "o")]



def _bench_with_metadata(key, value):
    return lambda tmp_path, trained: [
        "bench", "--checkpoint", _with_metadata(tmp_path, trained, key, value),
        "--width", "32", "--height", "32", "--repeats", "3"]


def _infer_with_depth_header(header):
    """infer on a valid 32x32 guidance and a depth file holding `header`."""
    def argv(tmp_path, trained):
        save_ppm(str(tmp_path / "g.ppm"), np.zeros((3, 32, 32)))
        (tmp_path / "d.pgm").write_bytes(header)
        return ["infer", trained, str(tmp_path / "g.ppm"), str(tmp_path / "d.pgm"),
                "--out", str(tmp_path / "sr.pfm")]
    return argv


def _manifest_not_utf8(tmp_path):
    (tmp_path / "m.txt").write_bytes(b"a\xff b c\n")
    return str(tmp_path / "m.txt")


def _empty_manifest(tmp_path):
    """A manifest of a comment and blank lines: no pairs."""
    (tmp_path / "empty.txt").write_text("# no pairs yet\n\n   \n")
    return str(tmp_path / "empty.txt")


def _train_with_empty_eval_manifest(tmp_path, trained):
    assert main(["synth", "1", "--height", "32", "--width", "32",
                 "--out", str(tmp_path / "data")]) == 0
    return ["train", "--data", str(tmp_path / "data" / "manifest.txt"),
            "--eval-data", _empty_manifest(tmp_path), "--epochs", "1", *TINY_FLAGS,
            "--out", str(tmp_path / "o")]


def _eval_manifest_repeating_an_id(tmp_path, trained):
    assert main(["synth", "2", "--height", "32", "--width", "32",
                 "--out", str(tmp_path / "data")]) == 0
    manifest = tmp_path / "data" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("scene001 ", "scene000 "))
    return ["eval", trained, str(manifest)]


def _eval_manifest_naming_the_guidance_as_depth(tmp_path, trained):
    assert main(["synth", "1", "--height", "32", "--width", "32",
                 "--out", str(tmp_path / "data")]) == 0
    manifest = tmp_path / "data" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("_depth.pgm", "_rgb.ppm"))
    return ["eval", trained, str(manifest)]


def _eval_manifest_naming_a_directory(tmp_path, trained):
    (tmp_path / "m.txt").write_text("p0 . .\n")    # paths relative to tmp_path
    return ["eval", trained, str(tmp_path / "m.txt")]


def _train_out_is_a_file(tmp_path, trained):
    (tmp_path / "f").write_text("")
    return [*TINY_TRAIN, "--out", str(tmp_path / "f")]


def _eval_csv_is_a_directory(tmp_path, trained):
    assert main(["synth", "1", "--height", "32", "--width", "32",
                 "--out", str(tmp_path / "data")]) == 0
    return ["eval", trained, str(tmp_path / "data" / "manifest.txt"), "--csv", str(tmp_path)]


def _infer_out_is_a_directory(tmp_path, trained):
    save_ppm(str(tmp_path / "g.ppm"), np.zeros((3, 32, 32)))
    save_pgm16(str(tmp_path / "d.pgm"), np.zeros((4, 4)))
    return ["infer", trained, str(tmp_path / "g.ppm"), str(tmp_path / "d.pgm"),
            "--out", str(tmp_path)]

# (id, argv builder, DMSR_THREADS, exit code, the one stderr error line's start,
#  a text it must contain)
BAD_INPUTS = [
    ("heads-0", _train_with_flags("--heads", "0"), None, 2, "error: config:", "model.heads"),
    ("window-0", _train_with_flags("--window", "0"), None, 2, "error: config:",
     "model.window"),
    ("resample-factor-0", _train_with_config("model.resample_factor = 0"), None, 2,
     "error: config:", "model.resample_factor"),
    ("seed-negative", _train_with_flags("--seed", "-1"), None, 2, "error: config:",
     "train.seed"),
    ("config-key-repeats", _train_with_config("model.k = 3\nmodel.k = 5"), None, 2,
     "error: config:", "c.cfg:2: model.k repeats line 1"),
    ("mlp-ratio-0", _train_with_config("model.mlp_ratio = 0"), None, 2, "error: config:",
     "model.mlp_ratio"),
    ("blocks-negative", _train_with_flags("--blocks", "-2"), None, 2, "error: config:",
     "model.num_blocks"),
    # a model whose parameters the checkpoint format cannot hold is refused by
    # ModelConfig, before any parameter is allocated
    ("mlp-ratio-inf", _train_with_config("model.mlp_ratio = inf"), None, 2,
     "error: config:", "model.mlp_ratio must be finite"),
    ("mlp-ratio-1e300", _train_with_config("model.mlp_ratio = 1e300"), None, 2,
     "error: config:", "model.embed_dim * model.mlp_ratio is 8e+300"),
    ("mlp-ratio-1e18", _train_with_config("model.mlp_ratio = 1e18"), None, 2,
     "error: config:", "model.embed_dim * model.mlp_ratio is 8e+18"),
    ("metadata-mlp-ratio-inf", _bench_with_metadata("model.mlp_ratio", "inf"), None, 3,
     "error: data:", "model.mlp_ratio must be finite"),
    ("metadata-mlp-ratio-1e300", _bench_with_metadata("model.mlp_ratio", "1e300"), None, 3,
     "error: data:", "model.embed_dim * model.mlp_ratio is 8e+300"),
    ("metadata-mlp-ratio-1e18", _bench_with_metadata("model.mlp_ratio", "1e18"), None, 3,
     "error: data:", "model.embed_dim * model.mlp_ratio is 8e+18"),
    ("bench-k-99999",
     lambda tmp_path, trained: ["bench", "--k", "99999", "--width", "32", "--height", "32",
                                "--repeats", "3"],
     None, 2, "error: config:", "2 * model.k^2 * model.resample_factor^2 is 3.2e+11"),
    ("lr-negative", _train_with_flags("--lr", "-1"), None, 2, "error: config:", "train.lr"),
    ("lr-inf", _train_with_flags("--lr", "inf"), None, 2, "error: config:", "train.lr"),
    ("noise-sigma-negative", _train_with_flags("--noise-sigma", "-1"), None, 2,
     "error: config:", "data.noise_sigma"),
    ("noise-sigma-inf", _train_with_flags("--noise-sigma", "inf"), None, 2,
     "error: config:", "data.noise_sigma"),
    ("eps-0", _train_with_config("train.eps = 0"), None, 2, "error: config:", "train.eps"),
    ("beta1-above-1", _train_with_config("train.beta1 = 1.5"), None, 2, "error: config:",
     "train.beta1"),
    ("synthetic-negative", _train_with_flags("--synthetic", "-1"), None, 2,
     "dmsr train: error:", "--synthetic"),
    ("synthetic-and-data", _train_with_flags("--data", "m.txt"), None, 2,
     "dmsr train: error:", "--data: not allowed with argument --synthetic"),
    ("synthetic-and-eval-data", _train_with_flags("--eval-data", "m.txt"), None, 2,
     "error: config:", "--eval-data needs --data"),
    ("metadata-key-missing", _eval_with_metadata("model.k", None), None, 3, "error: data:",
     "model.k"),
    ("metadata-unparsable", _eval_with_metadata("model.embed_dim", "eight"), None, 3,
     "error: data:", "model.embed_dim"),
    ("metadata-heads-0", _eval_with_metadata("model.heads", "0"), None, 3, "error: data:",
     "model.heads"),
    ("resume-optim-lr-unparsable", _resume_with_metadata("optim.lr", "fast!"), None, 3,
     "error: data:", "optim.lr"),
    ("resume-optim-step-unparsable", _resume_with_metadata("optim.step", "x"), None, 3,
     "error: data:", "optim.step"),
    ("resume-optim-lr-negative", _resume_with_metadata("optim.lr", "-1"), None, 3,
     "error: data:", "optim.lr must be > 0"),
    ("resume-optim-beta1-7", _resume_with_metadata("optim.beta1", "7"), None, 3,
     "error: data:", "optim.beta1 must be in [0, 1)"),
    ("resume-epoch-unparsable", _resume_with_metadata("train.epoch", "x"), None, 3,
     "error: data:", "train.epoch"),
    ("resume-seed-unparsable", _resume_with_metadata("train.seed", "seven"), None, 3,
     "error: data:", "train.seed"),
    ("resume-seed-negative", _resume_with_metadata("train.seed", "-1"), None, 3,
     "error: data:", "train.seed must be >= 0"),
    ("resume-synth-height-0", _resume_with_metadata("data.synth_height", "0"), None, 3,
     "error: data:", "data.synth_height must be >= 1"),
    # `trained` recorded data.n_train = 2; TINY_TRAIN asks for 1 scene
    ("resume-scene-count-disagrees",
     lambda tmp_path, trained: [*TINY_TRAIN, "--resume", trained, "--out", str(tmp_path / "o")],
     None, 2, "error: config:", "--synthetic 1 gives data.n_train = 1, the resumed checkpoint "
     "has 2"),
    ("metadata-not-utf8",
     lambda tmp_path, trained: [
         "eval", _with_patched_bytes(tmp_path, trained, b"= swin", b"= \xffwin"),
         str(tmp_path / "manifest.txt")],
     None, 3, "error: data:", "metadata is not UTF-8"),
    ("entry-name-not-utf8",
     lambda tmp_path, trained: [
         "bench", "--checkpoint",
         _with_patched_bytes(tmp_path, trained, b"guide_", b"guide\xff"),
         "--width", "32", "--height", "32", "--repeats", "3"],
     None, 3, "error: data:", "name is not UTF-8"),
    ("entry-shape-disagrees-with-payload",
     lambda tmp_path, trained: [
         "eval", _with_first_dimension_grown(tmp_path, trained),
         str(tmp_path / "manifest.txt")],
     None, 3, "error: data:", "entry guide_backbone.conv_in_w has 27648 payload bytes"),
    ("entry-name-repeats", _bench_with_first_entry_repeated, None, 3, "error: data:",
     "entry guide_backbone.conv_in_w repeats"),
    ("metadata-key-repeats", _bench_with_metadata_line_repeated, None, 3, "error: data:",
     "metadata key model.k repeats"),
    ("resume-optim-moment-wrong-shape",
     _resume_with_entries({"optim.m.guide_backbone.conv_in_b": np.zeros(3)}), None, 3,
     "error: data:", "entry optim.m.guide_backbone.conv_in_b has shape (3,), expected (8,)"),
    ("resume-optim-moments-missing",
     _resume_with_entries({"optim.m.guide_backbone.conv_in_b": None,
                           "optim.v.guide_backbone.conv_in_b": None}), None, 3,
     "error: data:", "missing entry optim.m.guide_backbone.conv_in_b"),
    ("eval-entry-not-a-parameter",
     lambda tmp_path, trained: [
         "eval", _with_entries(tmp_path, trained, {
             "guide_backbone.blocks.0.layers.0.attn.pos_bias": np.zeros((49, 1))}),
         str(tmp_path / "manifest.txt")],
     None, 3, "error: data:",
     "entry guide_backbone.blocks.0.layers.0.attn.pos_bias is not a model parameter"),
    ("eval-parameter-nan",
     lambda tmp_path, trained: [
         "eval", _with_entry_value(tmp_path, trained, "target_head.w4", np.nan),
         str(tmp_path / "manifest.txt")],
     None, 3, "error: data:", "entry target_head.w4 holds NaN or inf"),
    ("infer-parameter-inf", _infer_with_entry_value("target_head.w4", np.inf), None, 3,
     "error: data:", "entry target_head.w4 holds NaN or inf"),
    ("resume-optim-moment-nan",
     lambda tmp_path, trained: [
         *TINY_RESUME,
         _with_entry_value(tmp_path, trained, "optim.m.guide_backbone.conv_in_b", np.nan),
         "--out", str(tmp_path / "o")],
     None, 3, "error: data:", "entry optim.m.guide_backbone.conv_in_b holds NaN or inf"),
    ("checkpoint-is-directory",
     lambda tmp_path, trained: ["eval", str(tmp_path), str(tmp_path / "manifest.txt")],
     None, 3, "error: data:", "checkpoint"),
    ("depth-negative-width", _infer_with_depth_header(b"P5 -4 4 65535\n"), None, 3,
     "error: data:", "bad width b'-4' (byte 3)"),
    ("depth-bad-width-names-the-file", _infer_with_depth_header(b"P5 -4 4 65535\n"), None,
     3, "error: data:", "d.pgm: bad width b'-4' (byte 3)"),
    ("manifest-depth-is-a-ppm", _eval_manifest_naming_the_guidance_as_depth, None, 3,
     "error: data:", "scene000_rgb.ppm: expected magic P5, got b'P6' (byte 0)"),
    ("guidance-is-directory",
     lambda tmp_path, trained: ["infer", trained, str(tmp_path), str(tmp_path),
                                "--out", str(tmp_path / "sr.pfm")],
     None, 3, "error: data:", "cannot read image"),
    ("manifest-names-directory", _eval_manifest_naming_a_directory, None, 3,
     "error: data:", "cannot read image"),
    ("manifest-not-utf8-train",
     lambda tmp_path, trained: ["train", "--data", _manifest_not_utf8(tmp_path), "--epochs", "1",
                                *TINY_FLAGS, "--out", str(tmp_path / "o")],
     None, 3, "error: data:", "m.txt: 'utf-8' codec can't decode"),
    ("manifest-not-utf8-eval",
     lambda tmp_path, trained: ["eval", trained, _manifest_not_utf8(tmp_path)],
     None, 3, "error: data:", "m.txt: 'utf-8' codec can't decode"),
    ("manifest-empty-train",
     lambda tmp_path, trained: ["train", "--data", _empty_manifest(tmp_path), "--epochs", "1",
                                *TINY_FLAGS, "--out", str(tmp_path / "o")],
     None, 3, "error: data:", "empty.txt lists no pairs"),
    ("manifest-empty-train-eval-data", _train_with_empty_eval_manifest, None, 3,
     "error: data:", "empty.txt lists no pairs"),
    ("manifest-repeats-a-pair-id", _eval_manifest_repeating_an_id, None, 3, "error: data:",
     "manifest.txt:3: pair id 'scene000' repeats line 2"),
    ("manifest-empty-eval",
     lambda tmp_path, trained: ["eval", trained, _empty_manifest(tmp_path)],
     None, 3, "error: data:", "empty.txt lists no pairs"),
    ("bench-repeats-1",
     lambda tmp_path, trained: ["bench", "--backbone", "naf", "--blocks", "1",
                                "--width", "32", "--height", "32", "--repeats", "1"],
     None, 2, "error: config:", "repeats"),
    ("bench-extents-indivisible",
     lambda tmp_path, trained: ["bench", "--blocks", "1", "--width", "40", "--height", "32",
                                "--repeats", "3"],
     None, 2, "error: config:", "not divisible by 16"),
    ("threads-not-a-number", _train_with_flags(), "abc", 2, "error: config:", "DMSR_THREADS"),
    ("threads-0", _train_with_flags(), "0", 2, "error: config:", "DMSR_THREADS"),
    ("train-out-is-a-file", _train_out_is_a_file, None, 3, "error: data:", "f: File exists"),
    ("eval-csv-is-a-directory", _eval_csv_is_a_directory, None, 3, "error: data:",
     "Is a directory"),
    ("bench-csv-is-a-directory",
     lambda tmp_path, trained: ["bench", "--checkpoint", trained, "--width", "32",
                                "--height", "32", "--repeats", "3", "--csv", str(tmp_path)],
     None, 3, "error: data:", "Is a directory"),
    ("infer-out-is-a-directory", _infer_out_is_a_directory, None, 3, "error: data:",
     "Is a directory"),
]


@pytest.mark.parametrize("builder,threads,code,prefix,names",
                         [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_exits_with_one_error_line(tmp_path, trained, builder, threads, code,
                                             prefix, names):
    env = dict(os.environ)
    env.pop("DMSR_THREADS", None)
    if threads is not None:
        env["DMSR_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-m", "dmsr.cli", *builder(tmp_path, trained)],
                          capture_output=True, text=True, env=env)
    errors = [l for l in proc.stderr.splitlines() if "error:" in l]
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(errors) == 1, proc.stderr
    assert errors[0].startswith(prefix) and names in errors[0], proc.stderr
    assert not (tmp_path / "o").exists()


def _structure_offsets(blob):
    """The offsets of every checkpoint byte outside an entry payload: the file
    header, each entry's header and the metadata block."""
    (count,) = struct.unpack_from("<I", blob, 6)
    spans, at = [range(0, 10)], 10
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, at)
        ndim = blob[at + nlen + 3]
        head = nlen + 4 + 4 * ndim + 8             # name length, name, dtype, ndim, shape, size
        spans.append(range(at, at + head))
        at += head + struct.unpack_from("<Q", blob, at + head - 8)[0]
    spans.append(range(at, len(blob)))
    return [i for span in spans for i in span]


def test_mutated_checkpoints_exit_0_or_3_with_at_most_one_line(tmp_path, capsys):
    # a seeded sweep over a tiny naf checkpoint: 200 single bytes flipped or
    # set, half of them in headers and metadata, and 20 truncations. A mutated
    # payload value may evaluate as another model (exit 0); anything else the
    # reader must reject with one error line (exit 3), never a traceback or
    # a numpy warning
    run, data = str(tmp_path / "run"), str(tmp_path / "data")
    assert main(["train", "--synthetic", "1", "--epochs", "1", "--backbone", "naf",
                 "--scale", "4", *TINY_FLAGS, "--out", run]) == 0
    assert main(["synth", "1", "--scale", "4", "--height", "32", "--width", "32",
                 "--out", data]) == 0
    blob = open(os.path.join(run, "checkpoint.dmsr"), "rb").read()
    rng, structure = np.random.default_rng(6), _structure_offsets(blob)
    offsets = np.concatenate([rng.integers(0, len(blob), 100), rng.choice(structure, 100)])
    cases = []
    for at in offsets:
        mutated = bytearray(blob)
        mutated[at] = (mutated[at] ^ 1 << rng.integers(8) if rng.random() < 0.5
                       else rng.integers(256))
        cases.append(bytes(mutated))
    cases += [blob[:n] for n in np.concatenate([rng.integers(0, len(blob), 10),
                                                rng.choice(structure, 10)])]
    path = tmp_path / "mutated.dmsr"
    capsys.readouterr()
    codes = []
    for i, case in enumerate(cases):
        path.write_bytes(case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes.append(main(["eval", str(path), os.path.join(data, "manifest.txt")]))
        err = capsys.readouterr().err.splitlines()
        assert codes[-1] in (0, 3) and len(err) <= 1 and not caught, (i, codes[-1], err,
                                                                      caught)
    assert 0 < codes.count(3) < len(cases)


def _mutations(rng, blob, header, flips, cuts):
    """`flips` copies of blob with one byte flipped or set, half of them in
    its first `header` bytes, and `cuts` truncations, half in the header."""
    at = np.concatenate([rng.integers(0, len(blob), flips - flips // 2),
                         rng.integers(0, header, flips // 2)])
    cases = []
    for i in at:
        mutated = bytearray(blob)
        mutated[i] = mutated[i] ^ 1 << rng.integers(8) if rng.random() < 0.5 else rng.integers(256)
        cases.append(bytes(mutated))
    ends = np.concatenate([rng.integers(0, len(blob), cuts - cuts // 2),
                           rng.integers(0, header, cuts // 2)])
    return cases + [blob[:n] for n in ends]


def test_mutated_images_and_manifests_exit_0_or_3_with_at_most_one_line(tmp_path, trained,
                                                                           capsys):
    # a seeded sweep over one pair's files: the 8-bit PPM guidance, the 16-bit
    # PGM depth and the manifest, each with single bytes flipped or set and
    # with truncations. A mutated pixel may evaluate as another scene (exit 0);
    # anything else the loaders must reject with one error line (exit 3), never
    # a traceback or a numpy warning
    data = tmp_path / "data"
    assert main(["synth", "1", "--height", "32", "--width", "32", "--out", str(data)]) == 0
    rng = np.random.default_rng(8)
    files = []
    for name, end_of_header in (("scene000_rgb.ppm", b"\n255\n"),
                                ("scene000_depth.pgm", b"\n65535\n"),
                                ("manifest.txt", None)):
        blob = (data / name).read_bytes()
        header = len(blob) if end_of_header is None else (blob.index(end_of_header)
                                                          + len(end_of_header))
        flips, cuts = (30, 6) if end_of_header else (24, 4)
        files += [(data / name, blob, case)
                  for case in _mutations(rng, blob, header, flips, cuts)]
    manifest = str(data / "manifest.txt")
    capsys.readouterr()
    codes = []
    for i, (path, blob, case) in enumerate(files):
        path.write_bytes(case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes.append(main(["eval", trained, manifest]))
        path.write_bytes(blob)
        err = capsys.readouterr().err.splitlines()
        assert codes[-1] in (0, 3) and len(err) <= 1 and not caught, (i, path.name,
                                                                      codes[-1], err, caught)
    assert 0 < codes.count(3) < len(files)


def test_mutated_config_files_exit_0_2_or_3_with_at_most_one_line(tmp_path, capsys):
    # a seeded sweep over a config file that lists every key at 32x32
    # synthetic extents: single bytes flipped or set, and truncations. synth
    # runs every ModelConfig check but builds no network, so no mutant
    # allocates a model. A mutated value may be another valid config (exit 0);
    # anything else must be rejected with one error line (exit 2, or 3 for
    # scenes the data cannot make), never a traceback or a numpy warning
    flat = dict(DEFAULTS, **{"data.synth_height": 32, "data.synth_width": 32})
    blob = "".join(f"{key} = {value}\n" for key, value in flat.items()).encode()
    cases = _mutations(np.random.default_rng(9), blob, len(blob), 100, 20)
    path, out = tmp_path / "mutated.cfg", str(tmp_path / "data")
    capsys.readouterr()
    codes = []
    for i, case in enumerate(cases):
        path.write_bytes(case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes.append(main(["synth", "1", "--config", str(path), "--out", out]))
        err = capsys.readouterr().err.splitlines()
        assert codes[-1] in (0, 2, 3) and len(err) <= 1 and not caught, (i, case, codes[-1],
                                                                         err, caught)
    assert 0 < codes.count(2) < len(cases)


def test_eval_with_a_huge_parameter_prints_no_numpy_warning(tmp_path, trained):
    # the layer norm's variance overflows to inf and its output stays finite;
    # numpy's overflow RuntimeWarning would add two stderr lines to a clean exit
    assert main(["synth", "1", "--height", "32", "--width", "32",
                 "--out", str(tmp_path / "data")]) == 0
    code, stdout, stderr = run_cli([
        "eval", _with_entry_value(tmp_path, trained, "guide_backbone.conv_in_w", 1e200),
        str(tmp_path / "data" / "manifest.txt")])
    assert code == 0 and stderr == "", stderr
    assert "mean_psnr_db=" in stdout


def test_resume_loads_data_at_the_checkpoint_scale(tmp_path):
    first = str(tmp_path / "a")
    assert main([*TINY_TRAIN, "--scale", "4", "--out", first]) == 0
    out = str(tmp_path / "b")
    # no --scale: the flags' default is 8, the checkpoint's model is 4
    assert main(["train", "--synthetic", "1", "--epochs", "2", *TINY_FLAGS,
                 "--resume", os.path.join(first, "checkpoint.dmsr"), "--out", out]) == 0
    from dmsr.checkpoint import load_checkpoint
    _, meta = load_checkpoint(os.path.join(out, "checkpoint.dmsr"))
    assert meta["model.scale"] == "4" and meta["optim.step"] == "2"


def test_resume_echoes_the_optimizer_settings_it_ran(tmp_path):
    first = str(tmp_path / "a")
    assert main([*TINY_TRAIN, "--lr", "0.002", "--out", first]) == 0
    out = str(tmp_path / "b")
    # --lr is overridden by the checkpoint's optim.lr, and the CSVs must say so
    assert main(["train", "--synthetic", "1", "--epochs", "2", *TINY_FLAGS, "--lr", "0.5",
                 "--resume", os.path.join(first, "checkpoint.dmsr"), "--out", out]) == 0
    from dmsr.checkpoint import load_checkpoint
    _, meta = load_checkpoint(os.path.join(out, "checkpoint.dmsr"))
    assert meta["optim.lr"] == "0.002"
    for name in ("steps.csv", "epochs.csv"):
        header = open(os.path.join(out, name)).read().splitlines()
        for key in ("lr", "beta1", "beta2", "eps"):
            assert f"# train.{key} = {meta[f'optim.{key}']}" in header, (name, key)


def test_resumed_run_writes_the_uninterrupted_runs_checkpoint(tmp_path):
    # the resume names no --seed and no --noise-sigma: it takes both from the
    # checkpoint, trains on the same scenes in the same order and says so
    run = ["train", "--synthetic", "2", *TINY_FLAGS]
    first, resumed, straight = (str(tmp_path / d) for d in "abc")
    data = ["--seed", "7", "--noise-sigma", "0.02"]
    assert main([*run, *data, "--epochs", "1", "--out", first]) == 0
    assert main([*run, "--epochs", "2", "--resume", os.path.join(first, "checkpoint.dmsr"),
                 "--out", resumed]) == 0
    assert main([*run, *data, "--epochs", "2", "--out", straight]) == 0
    ckpt = [open(os.path.join(d, "checkpoint.dmsr"), "rb").read() for d in (resumed, straight)]
    assert ckpt[0] == ckpt[1]
    header = open(os.path.join(resumed, "steps.csv")).read().splitlines()
    assert "# train.seed = 7" in header and "# data.noise_sigma = 0.02" in header


def test_resume_trains_on_the_checkpoint_scene_extents(tmp_path):
    # the resume names no --height and no --width: the checkpoint's 32x32
    # scenes win over the flags' default 64x64, and the CSVs say so
    first, out = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--synthetic", "2", "--seed", "7", *TINY_FLAGS, "--epochs", "1",
                 "--out", first]) == 0
    assert main(["train", "--synthetic", "2", "--epochs", "2",
                 "--resume", os.path.join(first, "checkpoint.dmsr"), "--out", out]) == 0
    from dmsr.checkpoint import load_checkpoint
    _, meta = load_checkpoint(os.path.join(out, "checkpoint.dmsr"))
    assert meta["data.synth_height"] == meta["data.synth_width"] == "32"
    header = open(os.path.join(out, "steps.csv")).read().splitlines()
    assert "# data.synth_height = 32" in header and "# data.synth_width = 32" in header


# What a default swin model trained with Adam writes: the checkpoint metadata
# block and the config header of its CSVs. A schema edit that changes either
# changes the on-disk format.
DEFAULT_SWIN_METADATA = """\
train.seed = 0
data.noise_sigma = 0.0
data.source = synthetic
data.n_train = 1
data.n_eval = 1
data.synth_height = 32
data.synth_width = 32
train.epoch = 0
model.backbone = swin
model.num_blocks = 4
model.embed_dim = 32
model.window = 4
model.heads = 2
model.layers_per_block = 2
model.mlp_ratio = 2.0
model.k = 3
model.scale = 8
model.resample_factor = 4
model.position_bias = False
optim.step = 1
optim.lr = 0.001
optim.beta1 = 0.9
optim.beta2 = 0.999
optim.eps = 1e-08
"""

DEFAULT_SWIN_CSV_HEADER = """\
# data.noise_sigma = 0.0
# data.synth_height = 32
# data.synth_width = 32
# model.backbone = swin
# model.embed_dim = 32
# model.heads = 2
# model.k = 3
# model.layers_per_block = 2
# model.mlp_ratio = 2.0
# model.num_blocks = 4
# model.position_bias = False
# model.resample_factor = 4
# model.scale = 8
# model.window = 4
# train.beta1 = 0.9
# train.beta2 = 0.999
# train.epochs = 1
# train.eps = 1e-08
# train.lr = 0.001
# train.seed = 0
"""


def test_default_swin_metadata_and_csv_header_are_pinned(tmp_path):
    import struct
    out = str(tmp_path / "o")
    assert main(["train", "--synthetic", "1", "--epochs", "1", "--height", "32",
                 "--width", "32", "--out", out]) == 0
    blob = open(os.path.join(out, "checkpoint.dmsr"), "rb").read()
    meta = DEFAULT_SWIN_METADATA.encode()
    assert blob.endswith(struct.pack("<I", len(meta)) + meta)
    for name in ("steps.csv", "epochs.csv"):
        lines = open(os.path.join(out, name)).read().splitlines(keepends=True)
        assert "".join(l for l in lines if l.startswith("#")) == DEFAULT_SWIN_CSV_HEADER
