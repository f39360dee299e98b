import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hadhaar.indexing import build_levels
from hadhaar.signals import (_BLOCK_ROWS, NoiseSpec, _norm, _position_order,
                             best_term_l1_error,
                             effective_sparsity, gaussian_bump, generate,
                             hard_threshold, load_signal_csv, make_noise,
                             noise_sigma, save_image_csv, save_pgm,
                             save_signal_csv, shepp_logan, sre_db,
                             sre_from_ratios)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gaussian_bump_peak_and_energy():
    x = generate("gaussian_bump", 512, sigma=16.0, center=256)
    assert x.shape == (512,)
    assert x[255] == 1.0 / (16.0 * math.sqrt(2.0 * math.pi))
    assert np.argmax(x) == 255
    l2 = float(np.linalg.norm(x))
    expected = (4.0 * math.pi * 16.0 ** 2) ** -0.25
    assert abs(l2 - expected) / expected < 0.02


def test_gaussian_bump_validation():
    with pytest.raises(ValueError):
        generate("gaussian_bump", 100, sigma=4.0, center=50)
    with pytest.raises(ValueError):
        generate("gaussian_bump", 64, sigma=0.0, center=32)
    for sigma in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="sigma must be finite"):
            gaussian_bump(64, sigma, 32.0)
    for center in (math.nan, math.inf, -math.inf, 0.5, 64.5, 1000.0):
        with pytest.raises(ValueError, match=r"center must lie in \[1, 64\]"):
            gaussian_bump(64, 2.0, center)
    assert gaussian_bump(64, 2.0, 1.0)[0] == gaussian_bump(64, 2.0, 64.0)[-1]


def test_gaussian_bump_batch_is_its_bumps():
    centers = 64.0 + 384.0 * np.random.default_rng(3).random(7)
    batch = gaussian_bump(512, 64.0, centers)
    assert batch.shape == (7, 512)
    for row, center in zip(batch, centers):
        assert row.tobytes() == gaussian_bump(512, 64.0, float(center)).tobytes()
    with pytest.raises(ValueError, match=r"center must lie in \[1, 64\]"):
        gaussian_bump(64, 2.0, np.array([3.0, 64.5]))


def test_piecewise_generators():
    for kind in ("blocks", "bumps", "heavisine", "doppler"):
        x = generate(kind, 256)
        assert x.shape == (256,) and np.all(np.isfinite(x))
    b = generate("blocks", 1024)
    # 11 breakpoints; a sample landing exactly on one adds one jump
    assert np.count_nonzero(np.diff(b)) <= 12
    assert generate("doppler", 256)[-1] == 0.0  # t = 1 endpoint
    h = generate("heavisine", 2048)
    assert -6.1 < h.min() and h.max() < 6.1


def test_generate_validation():
    with pytest.raises(ValueError):
        generate("blocks", 64, sigma=2.0)
    with pytest.raises(ValueError):
        generate("spikes", 64)


def test_shepp_logan():
    img = shepp_logan(64)
    assert img.shape == (64, 64)
    assert img[0, 0] == 0.0 and img[0, -1] == 0.0
    assert img[-1, 0] == 0.0 and img[-1, -1] == 0.0
    assert img[31, 31] == 2.0 + -0.98  # skull minus brain tissue
    assert img.max() <= 2.0
    assert img.min() >= -0.02
    # head points up: the topmost nonzero row is above the bottommost
    rows = np.nonzero(np.any(img != 0.0, axis=1))[0]
    assert rows[0] < 5 and rows[-1] > 58


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_noise_sigma_formula():
    x = np.full(16, 2.0)  # norm 8
    sigma = noise_sigma(20.0, x, 64)
    assert sigma == 8.0 / (8.0 * 10.0)
    assert noise_sigma(math.inf, x, 64) == 0.0


def test_make_noise_snr():
    x = generate("gaussian_bump", 512, sigma=24.0, center=200)
    draw = make_noise(NoiseSpec(20.0, seed=5), x, 4096)
    assert draw.vector.shape == (4096,)
    assert draw.sigma == noise_sigma(20.0, x, 4096)
    snr = 20.0 * math.log10(float(np.linalg.norm(x)) / draw.norm)
    assert abs(snr - 20.0) < 0.5


def test_make_noise_noiseless_and_weighted():
    x = np.ones(8)
    draw = make_noise(NoiseSpec(math.inf), x, 5)
    assert np.array_equal(draw.vector, np.zeros(5))
    assert draw.sigma == 0.0 and draw.norm == 0.0 and draw.weighted_norm is None
    w = np.arange(1.0, 6.0)
    draw = make_noise(NoiseSpec(10.0, seed=2), x, 5, weights=w)
    manual = float(np.linalg.norm(w * draw.vector)) / math.sqrt(5.0)
    assert draw.weighted_norm == manual
    with pytest.raises(ValueError):
        make_noise(NoiseSpec(10.0), x, 5, weights=np.ones(4))
    with pytest.raises(ValueError):
        make_noise(NoiseSpec(10.0), x, 0)


@pytest.mark.parametrize("shape", [(1,), (9_999,), (10_001,), (256, 256)])
def test_norm_matches_linalg_norm(shape):
    # np.linalg.norm runs BLAS ddot, threaded above 10,000 entries
    x = np.random.default_rng(shape[0]).standard_normal(shape)
    assert _norm(x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-15)


def test_noise_norms_match_their_vectors():
    x = generate("gaussian_bump", 512, sigma=24.0, center=200)
    w = np.random.default_rng(3).uniform(0.5, 2.0, 16_384)
    draw = make_noise(NoiseSpec(20.0, seed=4), x, w.size, weights=w)
    assert draw.norm == pytest.approx(float(np.linalg.norm(draw.vector)),
                                      rel=1e-15)
    assert draw.weighted_norm == pytest.approx(
        float(np.linalg.norm(w * draw.vector)) / math.sqrt(w.size),
        rel=1e-15)


def test_make_noise_deterministic():
    x = np.ones(8)
    a = make_noise(NoiseSpec(15.0, seed=9), x, 32)
    b = make_noise(NoiseSpec(15.0, seed=9), x, 32)
    assert np.array_equal(a.vector, b.vector)


# ---------------------------------------------------------------------------
# sparsity summaries
# ---------------------------------------------------------------------------

def test_hard_threshold():
    s = np.array([1.0, -1.0, 2.0])
    assert np.array_equal(hard_threshold(s, 2), [1.0, 0.0, 2.0])  # tie -> lower index
    assert np.array_equal(hard_threshold(s, 0), np.zeros(3))
    assert np.array_equal(hard_threshold(s, 3), s)
    with pytest.raises(ValueError):
        hard_threshold(s, 4)
    with pytest.raises(ValueError):
        hard_threshold(np.ones((2, 2)), 1)


def test_effective_sparsity_example():
    part = build_levels("dyadic1d", 2)
    out = effective_sparsity(np.array([3.0, 0.0, 1.0, 0.0]), 0.995, part)
    assert out.total == 2
    assert np.array_equal(out.per_level, [1, 0, 1])
    assert out.rho == 0.995


def test_effective_sparsity_boundary_rho_one():
    part = build_levels("dyadic1d", 2)
    out = effective_sparsity(np.array([3.0, 0.0, 1.0, 0.0]), 1.0, part)
    assert out.total == 2  # exact support, no extra index at rho = 1
    out = effective_sparsity(np.array([1.0, 1.0, 1.0, 1.0]), 1.0, part)
    assert out.total == 4


def test_effective_sparsity_validation():
    part = build_levels("dyadic1d", 2)
    with pytest.raises(ValueError):
        effective_sparsity(np.zeros(4), 0.9, part)
    with pytest.raises(ValueError):
        effective_sparsity(np.ones(4), 0.0, part)
    with pytest.raises(ValueError):
        effective_sparsity(np.ones(8), 0.9, part)


@pytest.mark.parametrize("kind,r", [("dyadic1d", 3), ("dyadic1d", 9),
                                    ("iso2d", 3), ("aniso2d", 2)])
def test_effective_sparsity_batch_is_its_rows(kind, r):
    # ties (rounded and repeated magnitudes, both signs), exact zeros and
    # rho = 1 come out as each row alone
    part = build_levels(kind, r)
    rng = np.random.default_rng(r)
    rows = rng.standard_normal((12, part.n_total)) * np.exp(
        3.0 * rng.standard_normal((12, part.n_total)))
    rows[:4] = np.round(rows[:4])
    rows[4:8, rng.random(part.n_total) < 0.5] = 0.0
    rows[8] = rng.choice([-1.0, 1.0], part.n_total)
    rows[9] = 0.0
    rows[9, -1] = 2.0
    rows[rows.any(axis=1) == 0] = 1.0
    for rho in (0.5, 0.995, 1.0):
        batch = effective_sparsity(rows, rho, part)
        assert batch.per_level.shape == (12, part.n_levels)
        for k, row in enumerate(rows):
            alone = effective_sparsity(row, rho, part)
            assert alone.total == batch.total[k]
            assert np.array_equal(alone.per_level, batch.per_level[k])
            assert alone.per_level.sum() == alone.total
    with pytest.raises(ValueError, match="zero vector"):
        effective_sparsity(np.vstack([rows[:2], np.zeros(part.n_total)]),
                           0.9, part)


def test_best_term_l1_error():
    u = np.array([3.0, 1.0, -2.0])
    assert best_term_l1_error(u, 1) == 3.0
    assert best_term_l1_error(u, 0) == 6.0
    assert best_term_l1_error(u, 3) == 0.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_sre_mean_inside_log():
    assert sre_from_ratios([10.0, 1000.0]) == 20.0 * math.log10(505.0)
    assert sre_from_ratios([np.inf, 10.0]) == math.inf
    with pytest.raises(ValueError):
        sre_from_ratios([])


def test_sre_db():
    x = np.array([3.0, 4.0])  # norm 5
    agg, per, errors = sre_db(x, [x + np.array([0.0, 0.5]), x])
    assert errors[0] == 0.5 and errors[1] == 0.0
    assert per[0] == 20.0 * math.log10(10.0)
    assert per[1] == math.inf and agg == math.inf
    agg, per, _ = sre_db(x, [x + np.array([0.0, 0.5])])
    assert agg == per[0]
    with pytest.raises(ValueError):
        sre_db(np.zeros(2), [np.zeros(2)])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_signal_csv_round_trip(tmp_path):
    x = generate("doppler", 64)
    path = tmp_path / "sig.csv"
    save_signal_csv(path, x)
    assert np.array_equal(load_signal_csv(path), x)
    header = path.read_text().splitlines()[0]
    assert header == "index,value"


def test_image_csv_round_trip(tmp_path):
    img = shepp_logan(16)
    path = tmp_path / "img.csv"
    save_image_csv(path, img)
    back = load_signal_csv(path)
    assert back.shape == (16, 16)
    assert np.array_equal(back, img)
    first = path.read_text().splitlines()[1]
    assert first == "1,1,0"


def test_load_csv_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_signal_csv(path)


@pytest.mark.parametrize("body,message", [
    ("index,value\n1,1.0\n1,2.0\n", "duplicate index 1"),
    ("index,value\n1,1.0\n3,2.0\n", "index 3 outside"),
    ("index,value\n0,1.0\n1,2.0\n", "index 0 outside"),
    ("index,value\n99999999999999999999,1.0\n", "index out of range"),
    ("index,value\n", "no data rows"),
    ("index,value\n\n \n", "no data rows"),
    ("row,col,value\n1,1,1\n\n1,2\n", "row '1,2' is not row,col,value"),
    ("index,value\n1,x\n", "a row is not index,value"),
    ("row,col,value\n1,1,1\n1,1,2\n2,1,3\n2,2,4\n", "duplicate row 1, col 1"),
    ("row,col,value\n1,1,1\n1,2,2\n2,1,3\n", "missing row 2, col 2"),
    ("row,col,value\n0,1,1\n1,1,2\n", "row 0 outside"),
    ("row,col,value\n1,2,1\n1,1,2\n1,-1,3\n", "col -1 outside"),
])
def test_load_csv_rejects_bad_indices(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_signal_csv(path)


def test_load_csv_accepts_any_row_order(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("index,value\n2,1.5\n1,-2\n")
    assert load_signal_csv(path).tolist() == [-2.0, 1.5]
    path.write_text("row,col,value\n2,1,3\n1,2,2\n1,1,1\n2,2,4\n")
    assert load_signal_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_in_order_keeps_the_rows(tmp_path):
    # rows in position order, as the writers leave them, are taken as they
    # are; the same rows shuffled are sorted to the same arrays
    img = np.random.default_rng(5).standard_normal((4, 8))
    path = tmp_path / "img.csv"
    save_image_csv(path, img)
    row, col = np.divmod(np.arange(img.size), 8)
    index = {"row": row + 1, "col": col + 1}
    assert _position_order(path, index, img.shape) == slice(None)
    back = load_signal_csv(path)
    assert back.flags.c_contiguous and back.tobytes() == img.tobytes()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    assert load_signal_csv(path).tobytes() == img.tobytes()
    reverse = {name: ix[::-1] for name, ix in index.items()}
    assert np.array_equal(_position_order(path, reverse, img.shape),
                          np.arange(img.size)[::-1])


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("index,value\n\n2,1.5\n \n1,-2\n\n")
    assert load_signal_csv(path).tolist() == [-2.0, 1.5]


def test_load_csv_reads_crlf(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_bytes(b"index,value\r\n2,1.5\r\n\r\n1,-2\r\n")
    assert load_signal_csv(path).tolist() == [-2.0, 1.5]
    path.write_bytes(b"row,col,value\r\n1,1,nan\r\n1,2,-inf\r\n")
    back = load_signal_csv(path)
    assert np.isnan(back[0, 0]) and back[0, 1] == -math.inf


@pytest.mark.parametrize("body,message", [
    ("index,value\n# values\n1,2\n", "row '# values' is not index,value"),
    ("index,value\n#1,2\n", "a row is not index,value"),
    ('index,value\n"1",2\n', "a row is not index,value"),
    ('index,value\n1,"2"\n', "a row is not index,value"),
    ("index,value\n1_0,2\n", "a row is not index,value"),
    ("index,value\n1,1_0\n", "a row is not index,value"),
    ("index,value\n1.0,2\n", "a row is not index,value"),
])
def test_load_csv_grammar_rejects(tmp_path, body, message):
    # no comments, quotes or digit separators: 1_0 is not read as 10
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_signal_csv(path)


def _long_signal(n):
    """``index,value`` lines of the signal 1.5 * index, for index 1..n."""
    return [f"{i},{1.5 * i}\n" for i in range(1, n + 1)]


# numpy counts the nonblank data rows from 0: data row 4,000 is its row 3999.
# Every bad row lies past the first 16 KiB of the file, and a row with the
# wrong number of cells is named before an earlier index outside int64.
@pytest.mark.parametrize("rows,message", [
    ({3999: "4000,x\n"}, "a row is not index,value: could not convert "
                         "string 'x' to float64 at row 3999, column 2."),
    ({3999: "4000,1,2\n"}, "row '4000,1,2' is not index,value"),
    ({3999: "4000\n"}, "row '4000' is not index,value"),
    ({3999: "99999999999999999999,1\n"},
     "index out of range: 99999999999999999999"),
    ({3999: "-9223372036854775809,1\n"},
     "index out of range: -9223372036854775809"),
    ({9: "99999999999999999999,1\n", 4499: "4500,1,2\n"},
     "row '4500,1,2' is not index,value"),
], ids=["grammar", "wide", "narrow", "above-int64", "below-int64",
        "width-first"])
def test_load_csv_names_a_bad_row_anywhere_in_the_file(tmp_path, rows,
                                                        message):
    lines = _long_signal(5000)
    for k, row in rows.items():
        lines[k] = row
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n" + "".join(lines))
    assert path.stat().st_size > 2 * (1 << 14)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_signal_csv(path)


def test_load_csv_skips_blank_lines_throughout_a_long_file(tmp_path):
    lines = _long_signal(5000)
    for k in range(4990, 0, -7):
        lines.insert(k, ("\n", " \n", "\t \r\n")[k % 3])
    path = tmp_path / "sig.csv"
    path.write_text("index,value\n\n" + "".join(lines) + "  \n")
    assert path.stat().st_size > 3 * (1 << 14)
    assert np.array_equal(load_signal_csv(path),
                          1.5 * np.arange(1, 5001))


def _fmt_reference(v):
    return format(float(v), ".17g")


def _signal_reference(x):
    return "index,value\n" + "".join(f"{i},{_fmt_reference(v)}\n"
                                     for i, v in enumerate(x, start=1))


def _image_reference(img):
    return "row,col,value\n" + "".join(
        f"{i + 1},{j + 1},{_fmt_reference(img[i, j])}\n"
        for i in range(img.shape[0]) for j in range(img.shape[1]))


_SPECIAL = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e22,
                     -1e22, 1.0 / 3.0, -2.5e-310, 2.0 ** 60, 1.0])


@pytest.mark.parametrize("n", [1, len(_SPECIAL), _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               2 * _BLOCK_ROWS + 3])
def test_save_signal_csv_matches_per_element_format(tmp_path, n):
    x = np.resize(_SPECIAL, n) * np.random.default_rng(n).choice([1.0, -7.5], n)
    path = tmp_path / "sig.csv"
    save_signal_csv(path, x)
    assert path.read_bytes() == _signal_reference(x).encode("ascii")


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (4, 3), (16, 16), (2, 517),
                                   (131, 5)])
def test_save_image_csv_matches_per_element_format(tmp_path, shape):
    img = (np.resize(_SPECIAL, math.prod(shape)).reshape(shape)
           * np.random.default_rng(shape[0]).choice([1.0, -7.5], shape))
    path = tmp_path / "img.csv"
    save_image_csv(path, img)
    assert path.read_bytes() == _image_reference(img).encode("ascii")


def test_save_pgm(tmp_path):
    img = np.array([[0, 128], [255, 64]], dtype=np.uint8)
    path = tmp_path / "img.pgm"
    save_pgm(path, img)
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
    with pytest.raises(ValueError):
        save_pgm(path, np.zeros((2, 2, 2)))


_FLOATS = st.floats()          # every double: +-0, +-inf and NaN included


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(
    arrays(np.float64, st.integers(1, 40), elements=_FLOATS),
    arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
           elements=_FLOATS)))
def test_csv_round_trip_is_bit_exact(x):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        (save_signal_csv if x.ndim == 1 else save_image_csv)(path, x)
        back = load_signal_csv(path)
    # a NaN is written as nan, so its sign and payload are not kept
    nan = np.isnan(x)
    assert back.shape == x.shape and np.array_equal(np.isnan(back), nan)
    assert back[~nan].tobytes() == x[~nan].tobytes()
