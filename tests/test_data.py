"""Data pipeline: bicubic resampling, degradation, synthetic scenes, manifests."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, maximum_filter

from dmsr.data import (DataError, _cubic_kernel, _gaussian_blur, _paint_shapes,
                       _separated_colors, bicubic_resize, degrade,
                       parse_manifest, resize_matrix, synth_scene, synth_split)


def test_bicubic_identity_resize():
    rng = np.random.default_rng(0)
    x = rng.random((3, 7, 9))
    out = bicubic_resize(x, 7, 9)
    assert np.abs(out - x).max() < 1e-6


def test_bicubic_constant_preserved_any_scale():
    x = np.full((1, 8, 8), 0.63)
    for oh, ow in [(16, 16), (4, 4), (3, 11), (24, 2)]:
        out = bicubic_resize(x, oh, ow)
        assert np.abs(out - 0.63).max() < 1e-9


def test_bicubic_upsample_reproduces_linear_ramp_interior():
    H = 16
    ramp = np.linspace(0.0, 1.0, H)[None, :, None] * np.ones((1, 1, 4))
    up = bicubic_resize(ramp, 2 * H, 8)
    want = (np.arange(2 * H) + 0.5) / (2 * H) - 0.5 / H  # source-space positions
    want = want * (1.0 / (1.0 - 1.0 / H))                # ramp step normalization
    got = up[0, :, 4]
    interior = slice(4, -4)
    assert np.abs(got[interior] - want[interior]).max() < 1e-3


def test_bicubic_rows_partition_of_unity():
    for n_in, n_out in [(10, 10), (10, 37), (37, 10), (64, 8), (8, 64), (5, 3)]:
        m = resize_matrix(n_in, n_out)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-6)


def row_loop_resize_matrix(n_in, n_out):
    """resize_matrix built one output row at a time: the reference."""
    scale = n_in / n_out
    s = max(scale, 1.0)
    centers = (np.arange(n_out) + 0.5) * scale - 0.5
    left = np.floor(centers - 2.0 * s).astype(int) + 1
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        js = left[i] + np.arange(int(np.ceil(4.0 * s)) + 2)
        w = _cubic_kernel((js - centers[i]) / s)
        np.add.at(m[i], np.clip(js, 0, n_in - 1), w / w.sum())
    return m


@pytest.mark.parametrize("n_in,n_out", [(4, 4), (5, 3), (8, 64), (16, 128), (37, 10),
                                        (64, 8), (256, 4), (4, 256), (129, 200)])
def test_resize_matrix_matches_row_loop_bit_for_bit(n_in, n_out):
    assert resize_matrix(n_in, n_out).tobytes() == row_loop_resize_matrix(n_in, n_out).tobytes()


def test_degrade_zero_noise_is_pure_downsample():
    rng = np.random.default_rng(1)
    x = rng.random((1, 32, 32))
    np.testing.assert_array_equal(degrade(x, 4, 0.0, 0),
                                  np.clip(bicubic_resize(x, 8, 8), 0, 1))


def test_degrade_deterministic_under_seed():
    rng = np.random.default_rng(2)
    x = rng.random((1, 32, 32))
    a = degrade(x, 4, 0.05, 123)
    b = degrade(x, 4, 0.05, 123)
    np.testing.assert_array_equal(a, b)
    c = degrade(x, 4, 0.05, 124)
    assert np.any(a != c)


def test_degrade_noise_std_matches_sigma():
    x = np.full((1, 512, 512), 0.5)
    noisy = degrade(x, 2, 0.04, 7)
    clean = degrade(x, 2, 0.0, 7)
    measured = (noisy - clean).std()
    assert abs(measured - 0.04) / 0.04 < 0.05


def test_degrade_rejects_non_divisible():
    with pytest.raises(DataError):
        degrade(np.zeros((1, 30, 30)), 4, 0.0, 0)


def test_degrade_then_upsample_constant_exact():
    x = np.full((1, 16, 16), 0.4)
    lr = degrade(x, 4, 0.0, 0)
    up = bicubic_resize(lr, 16, 16)
    np.testing.assert_allclose(up, 0.4, atol=1e-9)


# synthetic scenes -------------------------------------------------------------


def test_synth_scene_value_ranges():
    pair = synth_scene(3, 64, 64)
    assert pair.depth_hr.min() >= 0.0 and pair.depth_hr.max() <= 1.0
    assert pair.guidance.min() >= 0.0 and pair.guidance.max() <= 1.0
    assert pair.guidance.shape == (3, 64, 64)
    assert pair.depth_hr.shape == (1, 64, 64)
    assert pair.depth_lr.shape == (1, 8, 8)


def test_synth_scene_deterministic():
    a = synth_scene(11, 64, 64, noise_sigma=0.04)
    b = synth_scene(11, 64, 64, noise_sigma=0.04)
    np.testing.assert_array_equal(a.guidance, b.guidance)
    np.testing.assert_array_equal(a.depth_hr, b.depth_hr)
    np.testing.assert_array_equal(a.depth_lr, b.depth_lr)


@pytest.mark.parametrize("shape,sigmas", [
    ((64, 64), (0.6, 0.6)), ((3, 64, 64), (0, 2.0, 2.0)), ((3, 64, 64), (0, 0.4, 0.4)),
    ((3, 4, 4), (2.0, 2.0, 2.0)), ((3, 4, 4), (0, 2.0, 2.0)), ((5, 5), (0.6, 0.6)),
    ((1, 2, 9), (0.4, 2.0, 0.6)), ((7,), (3.3,))])
def test_gaussian_blur_matches_scipy_bit_for_bit(shape, sigmas):
    # the synth_scene sigmas, and extents smaller than the radius (8 at sigma 2)
    x = np.random.default_rng(len(shape)).normal(size=shape)
    want = gaussian_filter(x, sigmas, mode="nearest")
    assert _gaussian_blur(x, sigmas).tobytes() == want.tobytes()


def scipy_synth_scene(seed, H, W, scale=8, noise_sigma=0.0):
    """synth_scene as it was written with scipy.ndimage.gaussian_filter: the
    reference. Returns (guidance, depth_hr, depth_lr)."""
    rng = np.random.default_rng(seed)
    ids, n_shapes = _paint_shapes(rng, H, W)
    levels = np.linspace(0.08, 0.92, n_shapes + 1)
    rng.shuffle(levels)
    depth = gaussian_filter(levels[ids], sigma=0.6, mode="nearest")
    colors = _separated_colors(rng, n_shapes + 1)
    texture = gaussian_filter(rng.normal(0.0, 1.0, size=(3, H, W)),
                              sigma=(0, 2.0, 2.0), mode="nearest")
    guidance = gaussian_filter(colors[ids].transpose(2, 0, 1) + 0.06 * texture,
                               sigma=(0, 0.4, 0.4), mode="nearest")
    depth_hr = np.clip(depth, 0.0, 1.0)[None]
    noise_seed = int(rng.integers(0, 2**63 - 1))
    return (np.clip(guidance, 0.0, 1.0), depth_hr,
            degrade(depth_hr, scale, noise_sigma, noise_seed))


@pytest.mark.parametrize("seed,size", [(0, 64), (3, 128), (7, 64)])
def test_synth_split_scenes_match_the_scipy_blur_bit_for_bit(seed, size):
    split = synth_split(2, 1, size, size, noise_sigma=0.02, seed=seed)
    children = np.random.SeedSequence(seed).spawn(3)
    for pair, child in zip(split.train + split.eval, children):
        want = scipy_synth_scene(child, size, size, noise_sigma=0.02)
        got = (pair.guidance, pair.depth_hr, pair.depth_lr)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def edge_alignment_score(pair, threshold=0.25):
    """Fraction of depth-gradient-maxima pixels lying within one pixel of a
    guidance-gradient maximum."""
    def grad_mag(img):
        gy, gx = np.gradient(img)
        return np.hypot(gy, gx)

    d = grad_mag(pair.depth_hr[0])
    g = np.max([grad_mag(pair.guidance[c]) for c in range(3)], axis=0)
    d_mask = d > threshold * d.max()
    g_mask = g > threshold * g.max()
    if not d_mask.any():
        return 1.0
    g_near = maximum_filter(g_mask.astype(np.uint8), size=3) > 0
    return float((d_mask & g_near).sum() / d_mask.sum())


def test_synth_scene_edge_alignment():
    for seed in range(12):
        score = edge_alignment_score(synth_scene(seed, 64, 64))
        assert score > 0.8, f"seed {seed}: alignment {score:.3f}"


def test_synth_split_disjoint_and_deterministic():
    s1 = synth_split(4, 2, 64, 64, seed=9)
    s2 = synth_split(4, 2, 64, 64, seed=9)
    assert len(s1.train) == 4 and len(s1.eval) == 2
    train_ids = {p.pair_id for p in s1.train}
    eval_ids = {p.pair_id for p in s1.eval}
    assert train_ids & eval_ids == set()
    for a, b in zip(s1.train + s1.eval, s2.train + s2.eval):
        np.testing.assert_array_equal(a.depth_hr, b.depth_hr)


# manifests ---------------------------------------------------------------------


def test_parse_manifest_sorted_and_commented(tmp_path):
    mf = tmp_path / "manifest.txt"
    mf.write_text("# comment line\n"
                  "b rgb_b.ppm d_b.pgm\n"
                  "\n"
                  "a rgb_a.ppm d_a.pgm  # trailing comment\n")
    entries = parse_manifest(str(mf))
    assert [e[0] for e in entries] == ["a", "b"]
    assert entries[0][1].endswith("rgb_a.ppm")


def test_parse_manifest_rejects_bad_line(tmp_path):
    mf = tmp_path / "manifest.txt"
    mf.write_text("pair_without_paths\n")
    with pytest.raises(DataError):
        parse_manifest(str(mf))


def test_load_manifest_reports_all_missing(tmp_path):
    mf = tmp_path / "manifest.txt"
    mf.write_text("a a.ppm a.pgm\nb b.ppm b.pgm\n")
    from dmsr.data import load_manifest_pairs
    with pytest.raises(DataError) as err:
        load_manifest_pairs(str(mf), scale=4)
    msg = str(err.value)
    for name in ("a.ppm", "a.pgm", "b.ppm", "b.pgm"):
        assert name in msg
