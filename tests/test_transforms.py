import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadhaar.indexing import build_levels
from hadhaar.transforms import (BasisKind, CoefficientLayout, _dhw_scales,
                                _half_exponents, _idhw_scales, _paley_factor,
                                _pow2_half_array, coefficient_layout,
                                dense_basis, dense_window_matrix, fwht,
                                haar_transform, unvec, vec)

RNG = np.random.default_rng(1234)


def pow2_half(k):
    """Independent 2^(k/2) with a single rounding, for frozen oracles."""
    if k % 2 == 0:
        return math.ldexp(1.0, k // 2)
    return math.ldexp(math.sqrt(2.0), (k - 1) // 2)


def haar_vector(r, kind, l, p):
    """Explicit window/wavelet vector h^(kind)_{l-1,p} of length 2^r.

    Level l in [1, r], position p in [1, 2^(l-1)]; the support is the p-th
    block of 2^(r-l+1) consecutive indices, constant for kind 0 and
    sign-split for kind 1, scaled by 2^((l-1-r)/2).
    """
    n = 2 ** r
    width = 2 ** (r - l + 1)
    out = np.zeros(n)
    start = (p - 1) * width
    scale = pow2_half(l - 1 - r)
    out[start:start + width // 2] = scale
    out[start + width // 2:start + width] = scale if kind == 0 else -scale
    return out


def hadamard_oracle(r):
    """Paley Hadamard by direct recursion on columns, scaled once."""
    signs = np.ones((1, 1))
    for _ in range(r):
        signs = np.hstack([np.kron(signs, [[1.0], [1.0]]),
                           np.kron(signs, [[1.0], [-1.0]])])
    return signs * pow2_half(-r)


# ---------------------------------------------------------------------------
# fwht
# ---------------------------------------------------------------------------

def test_fwht_length_two():
    out = fwht([1.0, 0.0])
    assert out[0] == math.sqrt(0.5) and out[1] == math.sqrt(0.5)
    np.testing.assert_allclose(out, [0.7071067811865475] * 2, rtol=1e-15)


def test_fwht_constant_is_exact():
    assert np.array_equal(fwht(np.ones(4)), [2.0, 0.0, 0.0, 0.0])
    assert np.array_equal(fwht(np.ones(64)), np.eye(64)[0] * 8.0)


def test_fwht_matches_dense():
    x = RNG.standard_normal(8)
    np.testing.assert_allclose(fwht(x), dense_basis("hadamard1d", 3).T @ x,
                               rtol=0, atol=1e-12)


def paley_radix2(x):
    """Paley-ordered Hadamard transform by radix-2 butterflies (sums and
    differences of even/odd pairs, sums first), scaled once at the end."""
    x = np.asarray(x, dtype=np.float64)
    arr = x.reshape(1, -1)
    while arr.shape[1] > 1:
        s = arr[:, 0::2] + arr[:, 1::2]
        d = arr[:, 0::2] - arr[:, 1::2]
        arr = np.stack([s, d], axis=1).reshape(-1, arr.shape[1] // 2)
    return arr.reshape(x.shape) * pow2_half(-(x.size.bit_length() - 1))


def test_fwht_columns_bit_equal_dense():
    # r = 5 is one Paley factor, r = 6 and r = 10 are two
    for r in (5, 6, 10):
        n = 2 ** r
        h = dense_basis("hadamard1d", r)
        eye = np.eye(n)
        for l in range(n):
            assert np.array_equal(fwht(eye[l]), h[:, l])


def test_fwht_2d_sampled_columns_bit_equal_dense():
    n = 64
    h = dense_basis("hadamard2d", 6)
    for k in np.random.default_rng(6).choice(n * n, size=48, replace=False):
        e = np.zeros(n * n)
        e[k] = 1.0
        assert np.array_equal(vec(fwht(unvec(e))), h[:, k])


@pytest.mark.parametrize("r", [11, 16])
def test_fwht_matches_radix2_reference(r):
    # three and four Paley factors, beyond the dense cap
    n = 2 ** r
    rng = np.random.default_rng(r)
    for _ in range(3):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fwht(x), paley_radix2(x), rtol=0, atol=1e-12)
    for k in rng.choice(n, size=24, replace=False):
        e = np.zeros(n)
        e[k] = 1.0
        assert np.array_equal(fwht(e), paley_radix2(e))


def test_cached_factors_and_scales_are_read_only():
    for arr in (_paley_factor(4), _dhw_scales(5), _idhw_scales(8)):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    assert _dhw_scales(5) is _dhw_scales(5)


def test_fwht_self_inverse():
    x = RNG.standard_normal(256)
    np.testing.assert_allclose(fwht(fwht(x)), x, rtol=0, atol=1e-12)
    img = RNG.standard_normal((16, 16))
    np.testing.assert_allclose(fwht(fwht(img)), img, rtol=0, atol=1e-12)


def test_fwht_2d_is_two_sided():
    img = RNG.standard_normal((8, 8))
    h = dense_basis("hadamard1d", 3)
    np.testing.assert_allclose(fwht(img), h.T @ img @ h, rtol=0, atol=1e-12)
    big = dense_basis("hadamard2d", 3)
    np.testing.assert_allclose(vec(fwht(img)), big.T @ vec(img),
                               rtol=0, atol=1e-12)


def test_fwht_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fwht(np.ones(3))
    with pytest.raises(ValueError):
        fwht(np.ones((4, 2)))
    with pytest.raises(ValueError):
        fwht(np.ones((2, 2, 2)))


# ---------------------------------------------------------------------------
# Haar transforms
# ---------------------------------------------------------------------------

def test_dhw_examples_exact():
    assert np.array_equal(haar_transform("dhw", "analysis", np.ones(4)),
                          [2.0, 0.0, 0.0, 0.0])
    out = haar_transform("dhw", "analysis", np.array([1.0, -1.0, 0.0, 0.0]))
    assert np.array_equal(out, [0.0, 0.0, math.sqrt(2.0), 0.0])
    np.testing.assert_allclose(out[2], 1.4142135623730951, rtol=0)


def test_idhw_constant_image():
    c = haar_transform("idhw", "analysis", np.ones((4, 4)))
    flat = vec(c)
    assert flat[0] == 4.0
    assert np.all(flat[1:] == 0.0)


@pytest.mark.parametrize("tag,r", [("dhw", 3), ("dhw", 6), ("adhw", 3),
                                   ("idhw", 3), ("idhw", 4)])
def test_haar_matches_dense(tag, r):
    basis = BasisKind(tag, r)
    dense = dense_basis(basis)
    for _ in range(25):
        if basis.is_2d:
            x = RNG.standard_normal((basis.side, basis.side))
            coef = haar_transform(tag, "analysis", x)
            np.testing.assert_allclose(vec(coef), dense.T @ vec(x),
                                       rtol=0, atol=1e-10)
        else:
            x = RNG.standard_normal(basis.side)
            np.testing.assert_allclose(haar_transform(tag, "analysis", x),
                                       dense.T @ x, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tag,r", [("dhw", 8), ("adhw", 4), ("idhw", 4),
                                   ("hadamard1d", 8), ("hadamard2d", 4)])
def test_round_trip(tag, r):
    basis = BasisKind(tag, r)
    shape = (basis.side, basis.side) if basis.is_2d else basis.side
    x = RNG.standard_normal(shape)
    coef = haar_transform(tag, "analysis", x)
    back = haar_transform(tag, "synthesis", coef)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-12 * max(1.0, np.abs(x).max()))


@pytest.mark.parametrize("tag", ["hadamard1d", "hadamard2d", "dhw", "adhw",
                                 "idhw"])
def test_basis_kind_caps_n_at_2_to_28(tag):
    most = 14 if BasisKind(tag, 1).is_2d else 28
    assert BasisKind(tag, most).n_total == 2 ** 28
    for r in (most + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"r must be at most {most}"):
            BasisKind(tag, r)
    with pytest.raises(ValueError, match="r must be nonnegative"):
        BasisKind(tag, -1)


@pytest.mark.parametrize("direction", ["analysis", "synthesis"])
@pytest.mark.parametrize("tag,r", [("dhw", 0), ("dhw", 1), ("dhw", 9),
                                   ("adhw", 0), ("adhw", 1), ("adhw", 5),
                                   ("idhw", 0), ("idhw", 1), ("idhw", 5)])
def test_batched_haar_rows_match_single_inputs(tag, r, direction):
    basis = BasisKind(tag, r)
    shape = (basis.side,) * (2 if basis.is_2d else 1)
    rng = np.random.default_rng(r)
    for rows in (5, 1):
        xs = rng.standard_normal((rows,) + shape)
        out = haar_transform(basis, direction, xs, batch=True)
        assert out.shape == xs.shape
        for got, x in zip(out, xs):
            assert got.tobytes() == haar_transform(tag, direction, x).tobytes()


def test_haar_rejects_bad_input():
    with pytest.raises(ValueError):
        haar_transform("dhw", "analysis", np.ones((4, 4)))
    with pytest.raises(ValueError):
        haar_transform("adhw", "analysis", np.ones(16))
    with pytest.raises(ValueError):
        haar_transform("dhw", "sideways", np.ones(4))
    with pytest.raises(ValueError):
        haar_transform("dct", "analysis", np.ones(4))


# ---------------------------------------------------------------------------
# dense builders
# ---------------------------------------------------------------------------

def test_dense_hadamard_r1():
    c = math.sqrt(0.5)
    assert np.array_equal(dense_basis("hadamard1d", 1),
                          np.array([[c, c], [c, -c]]))


def test_dense_hadamard_r2_signs():
    h = dense_basis("hadamard1d", 2)
    assert np.array_equal(h * 2.0, np.array([[1, 1, 1, 1],
                                             [1, 1, -1, -1],
                                             [1, -1, 1, -1],
                                             [1, -1, -1, 1]], dtype=float))


def test_dense_matches_recursion_oracle():
    for r in range(7):
        assert np.array_equal(dense_basis("hadamard1d", r), hadamard_oracle(r))


def test_dense_dhw_base_case():
    assert np.array_equal(dense_basis("dhw", 0), np.array([[1.0]]))


@pytest.mark.parametrize("tag,rmax", [("hadamard1d", 8), ("dhw", 8),
                                      ("hadamard2d", 4), ("adhw", 4), ("idhw", 4)])
def test_orthonormality(tag, rmax):
    for r in range(rmax + 1):
        b = dense_basis(tag, r)
        gram = b.T @ b
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12


def test_haar_column_identities_exact():
    # columns of the wavelet and window matrices are exactly the explicit
    # block vectors, including the shared single-rounded sqrt(2) scale
    for r in range(1, 9):
        w1 = dense_basis("dhw", r)
        w0 = dense_window_matrix(r)
        const = np.full(2 ** r, pow2_half(-r))
        assert np.array_equal(w1[:, 0], const)
        assert np.array_equal(w0[:, 0], const)
        for l in range(1, r + 1):
            for p in range(1, 2 ** (l - 1) + 1):
                col = 2 ** (l - 1) + p - 1
                assert np.array_equal(w1[:, col], haar_vector(r, 1, l, p))
                assert np.array_equal(w0[:, col], haar_vector(r, 0, l, p))


def test_adhw_is_kron_of_dhw():
    for r in range(4):
        w = dense_basis("dhw", r)
        np.testing.assert_allclose(dense_basis("adhw", r), np.kron(w, w),
                                   rtol=1e-15, atol=0)


def test_idhw_columns_are_separable():
    # column for subband (ab) at level l is (type-a column) kron (type-b column)
    for r in (1, 2, 3):
        big = dense_basis("idhw", r)
        w1 = dense_basis("dhw", r)
        w0 = dense_window_matrix(r)
        layout = coefficient_layout("idhw", r)
        part = build_levels("iso2d", r)
        np.testing.assert_allclose(big[:, 0], np.kron(w0[:, 0], w0[:, 0]),
                                   rtol=1e-15, atol=0)
        for l in range(1, r + 1):
            lev = part.levels[l]
            m = 2 ** (l - 1)
            cols = {"01": (w0, w1), "11": (w1, w1), "10": (w1, w0)}
            offs = {"01": 0, "11": m * m, "10": 2 * m * m}
            for tag in ("01", "11", "10"):
                outer, inner = cols[tag]
                k = 0
                for c2 in range(m, 2 * m):
                    for c1 in range(m, 2 * m):
                        idx = lev[offs[tag] + k] - 1
                        assert layout.subband[idx] == tag
                        expected = np.kron(outer[:, c2], inner[:, c1])
                        np.testing.assert_allclose(big[:, idx], expected,
                                                   rtol=1e-15, atol=0)
                        k += 1


def test_dense_caps():
    with pytest.raises(ValueError):
        dense_basis("hadamard1d", 11)
    with pytest.raises(ValueError):
        dense_basis("idhw", 7)
    with pytest.raises(ValueError):
        dense_window_matrix(11)
    with pytest.raises(ValueError, match="r is required"):
        dense_basis("dhw")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(-600, 600), min_size=1, max_size=40))
def test_half_exponents_inverts_pow2_half(k):
    got, exact = _half_exponents(_pow2_half_array(k))
    assert exact.all() and got.tolist() == k


def test_half_exponents_rejects_other_values():
    values = np.array([0.0, -0.0, 3.0, 0.7, -1.0, -math.sqrt(2.0), np.inf])
    assert not _half_exponents(values)[1].any()


def test_coefficient_layout_r1():
    layout = coefficient_layout("idhw", 1)
    assert list(layout.level) == [0, 1, 1, 1]
    assert layout.subband == ("00", "01", "10", "11")
    with pytest.raises(ValueError):
        coefficient_layout("hadamard1d", 2)
    # the separable kinds carry levels and no subband tags
    for tag, r, level in (("dhw", 2, [0, 1, 2, 2]), ("adhw", 1, [0, 1, 2, 3])):
        layout = coefficient_layout(tag, r)
        assert layout.level.tolist() == level
        assert layout.subband == (None,) * len(level)
    with pytest.raises(ValueError, match="level/subband length mismatch"):
        CoefficientLayout(BasisKind("dhw", 1), np.zeros(2), ("00",))


# ---------------------------------------------------------------------------
# vec / unvec
# ---------------------------------------------------------------------------

def test_vec_is_column_major():
    img = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(img), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(unvec(np.array([1.0, 2.0, 3.0, 4.0])), img)
    with pytest.raises(ValueError):
        unvec(np.arange(6.0))
