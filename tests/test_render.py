"""Pooled-PGM rendering tests."""

import numpy as np
import pytest
from conftest import read_pgm

from sparseattn.matrices import ApproxParams, generate
from sparseattn.render import pooled_pixels, render_pgm


def test_identity_pooling_saturates_unit_entry(tmp_path):
    m = np.zeros((4, 4))
    m[1, 2] = 1.0
    pix = pooled_pixels(m, pool=1, clip=1.0)
    assert pix[1, 2] == 255
    assert pix.sum() == 255


def test_fig3_shape_512_to_64(tmp_path):
    pix = pooled_pixels(np.zeros((512, 512)), pool=8, clip=0.05)
    assert pix.shape == (64, 64)
    assert np.all(pix == 0)


def test_quantization_rule():
    # pixel = round(255 * min(value, clip) / clip)
    m = np.array([[0.05, 0.025], [0.10, 0.0]])
    pix = pooled_pixels(m, pool=1, clip=0.05)
    assert pix[0, 0] == 255
    assert pix[0, 1] == 128  # 127.5 rounds to the even neighbor
    assert pix[1, 0] == 255  # clipped
    assert pix[1, 1] == 0


def test_block_max_pooling():
    m = np.zeros((4, 4))
    m[0, 0], m[0, 1], m[2, 3] = 0.2, 0.9, 0.5
    pix = pooled_pixels(m, pool=2, clip=1.0)
    assert pix[0, 0] == round(255 * 0.9)
    assert pix[1, 1] == round(255 * 0.5)
    assert pix[0, 1] == 0 and pix[1, 0] == 0


def test_pool_must_divide_L(tmp_path):
    with pytest.raises(ValueError, match="divide"):
        pooled_pixels(np.zeros((10, 10)), pool=3, clip=0.5)
    with pytest.raises(ValueError, match="pool"):
        pooled_pixels(np.zeros((10, 10)), pool=0, clip=0.5)
    with pytest.raises(ValueError, match="clip"):
        pooled_pixels(np.zeros((10, 10)), pool=1, clip=0.0)
    # render_pgm checks its options through pooled_pixels before it opens
    # the output, so a bad option leaves no file behind.
    for pool, clip in [(3, 0.5), (0, 0.5), (1, 0.0)]:
        out = tmp_path / f"bad-{pool}-{clip}.pgm"
        with pytest.raises(ValueError):
            render_pgm(np.zeros((10, 10)), out, pool=pool, clip=clip)
        assert not out.exists()


def test_pgm_round_trip(tmp_path):
    params = ApproxParams(L=32, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    A = generate(params, seed=6)
    out = tmp_path / "map.pgm"
    render_pgm(A.to_dense(), out, pool=4, clip=0.05)
    pixels = read_pgm(out)
    np.testing.assert_array_equal(pixels, pooled_pixels(A.to_dense(), 4, 0.05))


def test_pgm_is_plain_text_with_short_lines(tmp_path):
    out = tmp_path / "map.pgm"
    rng = np.random.default_rng(1)
    render_pgm(rng.uniform(0, 1, (64, 64)), out, pool=1, clip=0.5)
    text = out.read_text()
    assert text.startswith("P2\n64 64\n255\n")
    assert all(len(line) <= 70 for line in text.splitlines())
    # A row whose first 18 values pack to exactly 70 characters: the 19th
    # starts the next line.
    row = np.array([255] * 17 + [17, 0, 0]) / 255.0
    render_pgm(np.tile(row, (20, 1)), out, pool=1, clip=1.0)
    lines = out.read_text().splitlines()
    assert lines[3:5] == ["255 " * 17 + "17", "0 0"]
    assert len(lines[3]) == 70 and len(lines) == 3 + 2 * 20


def test_read_pgm_rejects_a_truncated_header(tmp_path):
    out = tmp_path / "short.pgm"
    out.write_text("P2\n4\n")
    with pytest.raises(ValueError, match="short.pgm"):
        read_pgm(out)


@pytest.mark.parametrize("pool", [0, -2])
def test_pooled_pixels_rejects_a_nonpositive_pool(pool):
    with pytest.raises(ValueError, match="pool"):
        pooled_pixels(np.zeros((4, 4)), pool=pool, clip=0.5)


@pytest.mark.parametrize("clip", [0.0, -0.1, 1.5, float("nan")])
def test_pooled_pixels_rejects_a_clip_outside_0_1(clip):
    with pytest.raises(ValueError, match="clip"):
        pooled_pixels(np.zeros((4, 4)), pool=2, clip=clip)
