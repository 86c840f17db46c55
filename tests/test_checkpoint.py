"""Checkpoint format: round trips, determinism, corruption handling."""

import struct
import tracemalloc

import numpy as np
import pytest

from dmsr.checkpoint import (CheckpointError, config_from_metadata,
                             load_checkpoint, pack_state, restore_model,
                             restore_optimizer, save_checkpoint)
from dmsr.model import DmsrModel, ModelConfig
from dmsr.train import Adam

TINY = dict(embed_dim=8, window=4, heads=1, num_blocks=1, layers_per_block=1,
            k=3, scale=8)


def test_array_table_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.standard_normal((3, 4)),
        "b.scalar": np.asarray(0.5),
        "c": rng.standard_normal((2,)).astype(np.float32),
    }
    path = str(tmp_path / "x.dmsr")
    save_checkpoint(path, arrays, {"k": "v", "n": 3, "f": 0.1})
    back, meta = load_checkpoint(path)
    assert list(back) == list(arrays)
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])
        assert back[name].dtype == arrays[name].dtype
    assert meta == {"k": "v", "n": "3", "f": "0.1"}


def test_model_round_trip_bit_identical(tmp_path):
    cfg = ModelConfig(backbone="naf", **TINY)
    model = DmsrModel(cfg, seed=4)
    opt = Adam(model.named_parameters())
    arrays, meta = pack_state(model, opt, {"train.seed": 4})
    path = str(tmp_path / "m.dmsr")
    save_checkpoint(path, arrays, meta)

    restored, r_arrays, r_meta = restore_model(path)
    for (name, p), (rname, rp) in zip(model.named_parameters(),
                                      restored.named_parameters()):
        assert name == rname
        np.testing.assert_array_equal(p.data, rp.data)
    r_opt = restore_optimizer(restored, r_arrays, r_meta)
    assert r_opt.step_count == opt.step_count
    assert r_opt.lr == opt.lr
    assert config_from_metadata(r_meta) == cfg


def test_position_bias_config_survives_round_trip(tmp_path):
    cfg = ModelConfig(backbone="swin", position_bias=True, **TINY)
    model = DmsrModel(cfg, seed=2)
    assert model.guide_backbone.blocks[0].layers[0].attn.pos_bias is not None
    arrays, meta = pack_state(model, Adam(model.named_parameters()), {})
    path = str(tmp_path / "pb.dmsr")
    save_checkpoint(path, arrays, meta)
    restored, _, r_meta = restore_model(path)
    assert config_from_metadata(r_meta).position_bias is True
    assert restored.guide_backbone.blocks[0].layers[0].attn.pos_bias is not None


def test_identical_states_produce_identical_bytes(tmp_path):
    paths = []
    for i in range(2):
        cfg = ModelConfig(backbone="swin", **TINY)
        model = DmsrModel(cfg, seed=9)
        opt = Adam(model.named_parameters())
        arrays, meta = pack_state(model, opt, {"train.seed": 9})
        p = str(tmp_path / f"run{i}.dmsr")
        save_checkpoint(p, arrays, meta)
        paths.append(p)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def joined_checkpoint_bytes(arrays, metadata):
    """The file as the writer that joined every entry's bytes built it: the
    reference the streamed writer must match byte for byte."""
    blob = [b"DMSR", struct.pack("<HI", 1, len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        nb = name.encode()
        code = {"float64": 0, "float32": 1}[str(arr.dtype)]
        payload = np.ascontiguousarray(arr, dtype=("<f8", "<f4")[code]).tobytes()
        head = struct.pack("<H", len(nb)) + nb + struct.pack("<BB", code, arr.ndim)
        head += struct.pack(f"<{arr.ndim}I", *arr.shape)
        head += struct.pack("<Q", len(payload))
        blob.append(head + payload)
    meta = "".join(f"{k} = {v}\n" for k, v in metadata.items()).encode()
    blob.append(struct.pack("<I", len(meta)))
    blob.append(meta)
    return b"".join(blob)


def test_streamed_writer_matches_the_joined_bytes(tmp_path):
    # naf's beta and gamma are 0-d; Adam's moments double the table
    model = DmsrModel(ModelConfig(backbone="naf", **TINY), seed=3)
    arrays, meta = pack_state(model, Adam(model.named_parameters()), {"train.seed": 3})
    assert any(np.ndim(a) == 0 for a in arrays.values())
    arrays["extra.f32"] = np.arange(6.0, dtype=np.float32).reshape(2, 3)
    arrays["extra.strided"] = np.arange(12.0).reshape(3, 4)[:, ::2]
    path = tmp_path / "s.dmsr"
    save_checkpoint(str(path), arrays, meta)
    assert path.read_bytes() == joined_checkpoint_bytes(arrays, meta)


@pytest.fixture(scope="module")
def default_swin_checkpoint(tmp_path_factory):
    """(path, arrays, metadata) of the default swin model with Adam state."""
    model = DmsrModel(ModelConfig(backbone="swin"), seed=0)
    arrays, meta = pack_state(model, Adam(model.named_parameters()), {"train.seed": 0})
    path = str(tmp_path_factory.mktemp("ckpt") / "swin.dmsr")
    save_checkpoint(path, arrays, meta)
    return path, arrays, meta


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_save_checkpoint_copies_no_payload(default_swin_checkpoint, tmp_path):
    # a 12.4 MB file; joining every entry's bytes peaked at 24.9 MB, streaming
    # each array's own buffer at 0.1
    _, arrays, meta = default_swin_checkpoint
    peak = _traced_peak_mb(lambda: save_checkpoint(str(tmp_path / "c.dmsr"), arrays, meta))
    assert peak <= 1, f"{peak:.1f} MB > 1 MB"


def test_restore_model_reads_each_payload_once(default_swin_checkpoint):
    # 16.8 MB: the 12.4 MB of entries read straight into their arrays, plus
    # the 4.1 MB of parameters the model is built with before they are
    # replaced. Reading the whole file, then copying each payload twice,
    # peaked at 25.6 MB.
    path = default_swin_checkpoint[0]
    peak = _traced_peak_mb(lambda: restore_model(path))
    assert peak <= 18, f"{peak:.1f} MB > 18 MB"


def test_restore_model_draws_no_random_numbers(default_swin_checkpoint, monkeypatch):
    # the checkpoint's arrays replace every parameter, so a seeded init drawn
    # first was thrown away: about 12 of a 27 ms restore at the default swin size
    def refuse(*args, **kwargs):
        raise AssertionError("restore_model drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    path, arrays, _ = default_swin_checkpoint
    model, *_ = restore_model(path)
    for name, p in model.named_parameters():
        assert p.data.tobytes() == arrays[name].tobytes(), name


def test_truncated_payload_rejected_before_it_is_read(default_swin_checkpoint, tmp_path):
    # the file ends 8 bytes into the first payload, whose size field is intact
    blob = open(default_swin_checkpoint[0], "rb").read()
    (nlen,) = struct.unpack_from("<H", blob, 10)
    (ndim,) = struct.unpack_from("<B", blob, 12 + nlen + 1)
    payload_at = 12 + nlen + 2 + 4 * ndim + 8
    (tmp_path / "cut.dmsr").write_bytes(blob[:payload_at + 8])
    with pytest.raises(CheckpointError, match=f"truncated checkpoint while reading "
                                              f"payload of .* at byte {payload_at}"):
        load_checkpoint(str(tmp_path / "cut.dmsr"))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.dmsr"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_truncated_checkpoint_rejected(tmp_path):
    cfg = ModelConfig(backbone="swin", **TINY)
    model = DmsrModel(cfg, seed=1)
    arrays, meta = pack_state(model, Adam(model.named_parameters()), {})
    p = str(tmp_path / "t.dmsr")
    save_checkpoint(p, arrays, meta)
    blob = open(p, "rb").read()
    (tmp_path / "cut.dmsr").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "cut.dmsr"))


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "v.dmsr"
    p.write_bytes(b"DMSR" + (99).to_bytes(2, "little") + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


@pytest.mark.parametrize("text,value", [("yes", True), ("no", False), ("True", True),
                                        ("0", False)])
def test_metadata_bool_parses_like_config_file(tmp_path, text, value):
    from dmsr.cli import parse_config_file
    meta = {k: str(v) for k, v in ModelConfig(**TINY).to_flat_dict().items()}
    meta["model.position_bias"] = text
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"model.position_bias = {text}\n")
    assert config_from_metadata(meta).position_bias is value
    assert parse_config_file(str(cfgfile))["model.position_bias"] is value


@pytest.mark.parametrize("key,text", [("optim.lr", "-1"), ("optim.lr", "nan"),
                                      ("optim.lr", "0"), ("optim.beta1", "7"),
                                      ("optim.beta2", "1.0"), ("optim.eps", "-1e-8"),
                                      ("optim.eps", "inf")])
def test_restore_optimizer_range_checks_settings(key, text):
    model = DmsrModel(ModelConfig(backbone="naf", **TINY), seed=1)
    with pytest.raises(CheckpointError, match=key):
        restore_optimizer(model, {}, {key: text})
