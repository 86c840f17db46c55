"""Image file round trips and the malformed-input error contract."""

import numpy as np
import pytest

from dmsr.imageio import (ImageFormatError, MalformedHeaderError, TruncatedPayloadError,
                          UnsupportedMagicError, load_pgm16, load_ppm, save_pfm,
                          save_pgm16, save_ppm)

from helpers import load_pfm


def test_pgm16_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    depth = rng.random((1, 12, 17))
    path = str(tmp_path / "d.pgm")
    save_pgm16(path, depth)
    back = load_pgm16(path)
    assert back.shape == depth.shape
    assert np.abs(back - depth).max() <= 1.0 / 65535.0


def test_pgm16_save_load_idempotent(tmp_path):
    rng = np.random.default_rng(1)
    depth = rng.random((1, 5, 5))
    p1, p2 = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
    save_pgm16(p1, depth)
    once = load_pgm16(p1)
    save_pgm16(p2, once)
    np.testing.assert_array_equal(load_pgm16(p2), once)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    rgb = rng.random((3, 6, 4))
    path = str(tmp_path / "g.ppm")
    save_ppm(path, rgb)
    back = load_ppm(path)
    assert back.shape == rgb.shape
    assert np.abs(back - rgb).max() <= 1.0 / 255.0


def test_pfm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.standard_normal((1, 9, 7))
    path = str(tmp_path / "s.pfm")
    save_pfm(path, img)
    back = load_pfm(path)
    np.testing.assert_array_equal(back.astype(np.float32),
                                  img.astype(np.float32))


def test_unsupported_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n65535\n....")
    with pytest.raises(UnsupportedMagicError):
        load_pgm16(str(path))


def test_malformed_header_reports_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nnotanumber 2\n65535\n")
    with pytest.raises(MalformedHeaderError) as err:
        load_pgm16(str(path))
    assert err.value.offset == 3
    assert "byte 3" in str(err.value)


def test_truncated_payload_names_byte_counts(tmp_path):
    path = tmp_path / "trunc.pgm"
    # header promises 4x4 16-bit pixels = 32 bytes, deliver 10
    path.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 10)
    with pytest.raises(TruncatedPayloadError) as err:
        load_pgm16(str(path))
    assert err.value.expected == 32
    assert err.value.actual == 10
    assert "32" in str(err.value) and "10" in str(err.value)


def test_pgm_header_comment_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    payload = np.zeros((2, 2), dtype=">u2").tobytes()
    path.write_bytes(b"P5\n# a comment\n2 2\n65535\n" + payload)
    img = load_pgm16(str(path))
    assert img.shape == (1, 2, 2)


def test_pfm_big_endian_scale_honored(tmp_path):
    data = np.arange(6, dtype=">f4").reshape(2, 3)
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n3 2\n1.0\n" + data[::-1].tobytes())
    img = load_pfm(str(path))
    np.testing.assert_array_equal(img[0], np.arange(6).reshape(2, 3))


@pytest.mark.parametrize("load,header,offset", [
    (load_pgm16, b"P5 -4 4 65535\n", 3),
    (load_pgm16, b"P5\n4 0\n65535\n", 5),
    (load_ppm, b"P6 2 -1 255\n", 5),
    (load_pfm, b"Pf\n0 2\n-1.0\n", 3),
])
def test_non_positive_extent_is_malformed_at_its_token(tmp_path, load, header, offset):
    path = tmp_path / "bad.img"
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(MalformedHeaderError) as err:
        load(str(path))
    assert err.value.offset == offset


@pytest.mark.parametrize("load", [load_pgm16, load_ppm, load_pfm])
def test_unreadable_path_is_an_image_format_error(tmp_path, load):
    for path in (tmp_path, tmp_path / "missing.img"):
        with pytest.raises(ImageFormatError, match="cannot read image"):
            load(str(path))
