"""Fast and dense orthonormal transforms.

Five basis families over dyadic sizes N = 2^r:

* ``hadamard1d``  sequency (Paley) ordered Hadamard matrix H_r
* ``hadamard2d``  H_r (x) H_r acting on vectorised N x N images
* ``dhw``         1-D discrete Haar wavelet basis W_r
* ``adhw``        anisotropic 2-D Haar basis W_r (x) W_r
* ``idhw``        isotropic (multiscale) 2-D Haar basis

All matrices are orthonormal.  2-D arrays are vectorised column-major
(first axis fastest), matching :mod:`hadhaar.indexing`.  The isotropic
coefficient vector is laid out so that restricting to an ``iso2d`` level
reproduces the subband blocks in the order (01), (11), (10); subband (ab)
filters the first (row) axis with type b and the second (column) axis with
type a, where type 1 is the oscillating wavelet and type 0 the constant
window.

The Haar bases repeat one unscaled lifting step per level, the sums and
differences of entry pairs along the last axis: dhw on the low-pass half
of a vector, adhw as dhw along each axis in turn, idhw on the rows, then
the columns, of the low-pass block of an image.  Each scales once at the
end, so small-integer inputs stay exact until then.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .indexing import build_levels

BASIS_TAGS = ("hadamard1d", "hadamard2d", "dhw", "adhw", "idhw")
DENSE_CAP_R_1D = 10
DENSE_CAP_R_2D = 6

_INV_SQRT2 = math.sqrt(0.5)
# N = 2^r in 1-D and 4^r in 2-D is at most 2^28, so one float64 vector is
# at most 2 GiB: past that a command would exhaust the machine's memory
# before it could exit 2
_MAX_LOG2_N = 28

__all__ = [
    "BASIS_TAGS",
    "BasisKind",
    "CoefficientLayout",
    "coefficient_layout",
    "dense_basis",
    "dense_window_matrix",
    "fwht",
    "haar_transform",
    "unvec",
    "vec",
]


@dataclass(frozen=True)
class BasisKind:
    tag: str
    r: int

    def __post_init__(self):
        if self.tag not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {self.tag!r}")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        _require_size(self.tag, self.r, self.is_2d)

    @property
    def is_2d(self):
        return self.tag in ("hadamard2d", "adhw", "idhw")

    @property
    def side(self):
        return 2 ** self.r

    @property
    def n_total(self):
        return 4 ** self.r if self.is_2d else 2 ** self.r


def _require_size(tag, r, is_2d):
    """ValueError unless N = 2^r, or 4^r in 2-D, is at most 2^28."""
    most = _MAX_LOG2_N // (2 if is_2d else 1)
    if r > most:
        raise ValueError(f"r must be at most {most} for {tag} "
                         f"(N at most 2^{_MAX_LOG2_N}), got {r}")


def _as_basis(kind, r=None):
    if isinstance(kind, BasisKind):
        return kind
    if r is None:
        raise ValueError("r is required when the basis is given as a tag")
    return BasisKind(kind, int(r))


def vec(x):
    """Column-major vectorisation of a 2-D array."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v, side=None):
    """Inverse of :func:`vec` for square arrays."""
    v = np.asarray(v)
    if side is None:
        side = math.isqrt(v.size)
    if side * side != v.size:
        raise ValueError("length is not a perfect square")
    return v.reshape((side, side), order="F")


def _pow2_half(k):
    """2**(k/2) with a single rounding (exact for even k)."""
    k = int(k)
    if k % 2 == 0:
        return math.ldexp(1.0, k // 2)
    return math.ldexp(math.sqrt(2.0), (k - 1) // 2)


def _pow2_half_array(k):
    k = np.asarray(k, dtype=np.int64)
    # k >> 1 is floor(k / 2); shifts cost a fraction of an integer divmod
    out = np.ldexp(1.0, (k >> 1).astype(np.int32))
    return np.where((k & 1) == 1, out * math.sqrt(2.0), out)


def _half_exponents(values):
    """The inverse of :func:`_pow2_half_array`: integers k and a mask of the
    entries of ``values`` that equal 2^(k/2) bit for bit.  Those are the
    entries whose mantissa is 1/2 (even k) or fl(sqrt(2))/2 (odd k); k is
    meaningless where the mask is false."""
    mant, expo = np.frexp(values)
    odd = mant == _INV_SQRT2
    return 2 * expo.astype(np.int64) - 2 + odd, odd | (mant == 0.5)


def _require_pow2(n, what="length"):
    """r with int(n) == 2^r, else a ValueError naming ``what``."""
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# fast transforms
# ---------------------------------------------------------------------------

# The Paley matrix pairs bit k of the row index with bit r-1-k of the column
# index, so it is symmetric and, for x of length a*b reshaped C-order to an
# a x b matrix X, P_{ab} x = vec_F(P_a X P_b).  Unrolled, the transform of a
# length-2^r axis splits the axis into digits, applies a small dense Paley
# factor along each digit (one matrix product per digit) and reverses the
# digit order in a single transpose.  The factors hold only +-1, so unit
# vectors and other small-integer inputs stay exact until the single scaling
# at the end.

_FACTOR_MAX = 5          # factors are at most 32 x 32
# m*n*k per gemm; larger gemms wake OpenBLAS threads, as does a ddot of more
# than 10,000 entries (see signals._norm).  In a process pinned to one CPU a
# woken thread stalls the call and slows the calls after it.
_GEMM_CAP = 1 << 17


@functools.lru_cache(maxsize=None)
def _paley_factor(f):
    """Unscaled Paley sign matrix of size 2^f, read-only."""
    signs = _hadamard_parts(f)[0]
    signs.flags.writeable = False
    return signs


@functools.lru_cache(maxsize=None)
def _sylvester_factor(f, scale=1.0):
    """``scale`` times the Sylvester (natural-order) Hadamard sign matrix of
    size 2^f, the f-th Kronecker power of [[1, 1], [1, -1]], read-only.  It
    is symmetric, and S_a (x) S_b = S_ab."""
    signs = np.ones((1, 1))
    for _ in range(f):
        signs = np.kron(signs, [[1.0, 1.0], [1.0, -1.0]])
    signs *= scale
    signs.flags.writeable = False
    return signs


def _digit_split(r, most=_FACTOR_MAX):
    """Exponents of the factors of a length-2^r axis: near-equal, each at
    most ``most``, largest first."""
    m = -(-r // most)
    return [r // m + (i < r % m) for i in range(m)]


@functools.lru_cache(maxsize=None)
def _paley_plan(shape):
    """Factor steps (factor, digits before it, its size), digit shape, digit
    permutation after a batch axis and output digit shape."""
    digits, perm = [], []
    for n in shape:
        split = _digit_split(n.bit_length() - 1)
        perm += range(len(digits) + len(split) - 1, len(digits) - 1, -1)
        digits += split
    sizes = tuple(1 << f for f in digits)
    steps = tuple((_paley_factor(f), math.prod(sizes[:d]), sizes[d])
                  for d, f in enumerate(digits))
    # the digit reversal keeps a leading batch axis in place
    return (steps, sizes, (0,) + tuple(d + 1 for d in perm),
            tuple(sizes[d] for d in perm))


def _factor_calls(p, src, dst):
    """p applied along axis 2 of the (lead, pre, a, rest) arrays src, dst,
    as a list of (x1, x2, out) for ``np.matmul(x1, x2, out=out)``, gemms
    of at most _GEMM_CAP multiply-adds (run them with :func:`_matmuls`);
    p is symmetric.  The lead axis may step over rows of a larger array.
    Each of the ``lead`` inputs gives the same bits as it would alone: a
    lone vector (pre = rest = 1) is a vector-matrix product, which BLAS
    sums in another order than a gemm row, so it stays one in a batch.  A
    call that fits one gemm takes src and dst unsliced: slicing them took
    a fifth of a small level's time in ``level_op``."""
    lead, pre, a, rest = src.shape
    step = max(1, _GEMM_CAP // (a * a))
    if rest > 1:
        if rest <= step:
            return [(p, src, dst)]
        return [(p, src[..., s:s + step], dst[..., s:s + step])
                for s in range(0, rest, step)]
    src, dst = src[..., 0], dst[..., 0]
    if pre > 1 and src.flags.c_contiguous and dst.flags.c_contiguous:
        # rows times p, in one gemm over every input
        src = src.reshape(1, lead * pre, a)
        dst = dst.reshape(1, lead * pre, a)
    if src.shape[1] <= step:
        return [(src, p, dst)]
    return [(src[:, s:s + step], p, dst[:, s:s + step])
            for s in range(0, src.shape[1], step)]


def _matmuls(calls):
    """Run the (x1, x2, out) calls ``np.matmul(x1, x2, out=out)`` in order."""
    for x1, x2, out in calls:
        np.matmul(x1, x2, out=out)


def _paley(x, scale, batch):
    """``scale`` times the unscaled Paley transform along every axis of x
    after the first ``batch`` (0 or 1) axes."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    lead = x.shape[0] if batch else 1
    steps, sizes, perm, out_sizes = _paley_plan(x.shape[batch:])
    out = np.empty(x.shape)
    work = np.empty(x.shape)
    src = x
    # alternate buffers so that the last factor lands in ``work``, which the
    # final digit reversal reads while it writes ``out``
    for d, (p, pre, a) in enumerate(steps):
        dst = work if (len(steps) - 1 - d) % 2 == 0 else out
        view = (lead, pre, a, -1)
        _matmuls(_factor_calls(p, src.reshape(view), dst.reshape(view)))
        src = dst
    np.multiply(src.reshape((lead,) + sizes).transpose(perm), scale,
                out=out.reshape((lead,) + out_sizes))
    return out


def fwht(x, batch=False):
    """Orthonormal Walsh-Hadamard transform, Paley order.

    1-D input of length 2^r returns H_r^T x.  A square 2-D input returns
    H_r^T X H_r, the matrix form of the vectorised 2-D transform.  The
    matrix is symmetric and self-inverse, so analysis and synthesis agree.
    The 2^{-r/2} normalisation is applied once at the end (the factors
    stay unscaled), so integer inputs see a single rounding per entry.
    With ``batch`` true, axis 0 indexes independent inputs, each
    transformed as above; every one comes out bit for bit as it would
    alone.
    """
    x = np.asarray(x, dtype=np.float64)
    batch = int(bool(batch))
    shape = x.shape[batch:]
    if len(shape) == 1:
        r = _require_pow2(shape[0])
        return _paley(x, _pow2_half(-r), batch)
    if len(shape) == 2:
        if shape[0] != shape[1]:
            raise ValueError("2-D input must be square")
        r = _require_pow2(shape[0], "side")
        return _paley(x, math.ldexp(1.0, -r), batch)
    raise ValueError("input must be 1-D or 2-D"
                     + (" after the batch axis" if batch else ""))


def _dhw_exponents(r):
    """Half-exponents e of the Haar column scales 2^(e/2): e = -r at index 1,
    l-1-r in level l."""
    expo = np.full(2 ** r, -r, dtype=np.int64)
    for l in range(1, r + 1):
        expo[2 ** (l - 1):2 ** l] = l - 1 - r
    return expo


@functools.lru_cache(maxsize=None)
def _dhw_scales(r):
    """Column scales of W_r, read-only."""
    scale = _pow2_half_array(_dhw_exponents(r))
    scale.flags.writeable = False
    return scale


def _split(a, low, high):
    """One unscaled Haar analysis step along the last axis of a: the sums
    of its entry pairs into ``low`` (a new array if None), their
    differences into ``high``.  Returns the sums."""
    even, odd = a[..., 0::2], a[..., 1::2]
    np.subtract(even, odd, out=high)
    return np.add(even, odd, out=low)


def _merge(s, d, out):
    """The synthesis step that undoes :func:`_split` up to a factor of 2:
    s + d and s - d interleaved along the last axis of ``out``."""
    np.add(s, d, out=out[..., 0::2])
    np.subtract(s, d, out=out[..., 1::2])


def _dhw(x, inverse):
    """W_r^T, or W_r if ``inverse``, along the last axis of x."""
    shape, n = x.shape, x.shape[-1]
    if x.size == n:     # strided slices of (n,) cost less than of (1, n)
        x = x.reshape(n)
    scales = _dhw_scales(n.bit_length() - 1)
    if inverse:
        # rebinding x frees a temporary input, such as adhw's first pass,
        # for the levels to reuse; holding it made adhw synthesis 20-40% slower
        x = x * scales
        a, size = x[..., :1], 1
        while size < n:
            nxt = np.empty(x.shape[:-1] + (2 * size,))
            _merge(a, x[..., size:2 * size], nxt)
            a, size = nxt, 2 * size
        return a.reshape(shape)
    out = np.empty(x.shape)
    a, size = x, n
    while size > 1:
        size //= 2
        a = _split(a, None, out[..., size:2 * size])
    out[..., :1] = a
    out *= scales
    return out.reshape(shape)


@functools.lru_cache(maxsize=None)
def _idhw_scales(n):
    """Per-entry scales of the coefficient matrix, read-only.  Entry (i, j)
    pairs two 1-D Haar functions of the level of max(i, j), so its scale is
    the square 2^e of their scale 2^(e/2), e = _dhw_exponents(r)[max(i, j)]."""
    e = _dhw_exponents(n.bit_length() - 1)
    i = np.arange(n)
    scale = np.ldexp(1.0, e[np.maximum.outer(i, i)])
    scale.flags.writeable = False
    return scale


def _idhw(x, inverse):
    """Isotropic Haar analysis, or synthesis if ``inverse``, of the square
    image(s) in the last two axes.  A level is a step along the rows of the
    low-pass block, on transposed views of C-ordered halves, and one along
    its columns, which reads or writes the block's four quarters in place."""
    n, lead = x.shape[-1], x.shape[:-2]
    if inverse:
        out = x * _idhw_scales(n)
        h = 1
        while h < n:
            q = out[..., :2 * h, :2 * h]
            low = np.empty(lead + (h, 2 * h))
            high = np.empty(lead + (h, 2 * h))
            _merge(q[..., :h, :h], q[..., :h, h:], low)
            _merge(q[..., h:, :h], q[..., h:, h:], high)
            # low and high hold all that the block's four quarters held
            _merge(low.swapaxes(-1, -2), high.swapaxes(-1, -2),
                   q.swapaxes(-1, -2))
            h *= 2
        return out
    out = np.empty(x.shape)
    block, h = x, n // 2
    while h:
        q = out[..., :2 * h, :2 * h]
        low = np.empty(lead + (h, 2 * h))
        high = np.empty(lead + (h, 2 * h))
        _split(block.swapaxes(-1, -2), low.swapaxes(-1, -2),
               high.swapaxes(-1, -2))
        _split(low, q[..., :h, :h], q[..., :h, h:])
        _split(high, q[..., h:, :h], q[..., h:, h:])
        block, h = q[..., :h, :h], h // 2
    out[..., :1, :1] = block
    out *= _idhw_scales(n)
    return out


def haar_transform(kind, direction, x, batch=False):
    """Apply a Haar transform (``dhw``, ``adhw`` or ``idhw``).

    ``direction`` is ``"analysis"`` (signal to coefficients) or
    ``"synthesis"``.  1-D dhw expects a vector of length 2^r; the 2-D kinds
    expect a square 2^r x 2^r array whose vectorisation is column-major.
    ``kind`` is a :class:`BasisKind`, or a tag whose r comes from the
    input's shape.  With ``batch`` true, axis 0 indexes independent inputs,
    each transformed as above; every one comes out bit for bit as it would
    alone.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape[1:] if batch else x.shape
    basis = kind if isinstance(kind, BasisKind) else BasisKind(
        kind, _require_pow2(shape[0] if shape else 0, "side"))
    if direction not in ("analysis", "synthesis"):
        raise ValueError("direction must be 'analysis' or 'synthesis'")
    inverse = direction == "synthesis"
    if basis.tag in ("hadamard1d", "hadamard2d"):
        return fwht(x, batch=batch)
    if basis.tag == "dhw":
        if shape != (basis.side,):
            raise ValueError("dhw expects a vector of length 2^r")
        return _dhw(x, inverse)
    if shape != (basis.side, basis.side):
        raise ValueError(f"{basis.tag} expects a square array of side 2^r")
    if basis.tag == "adhw":
        return _dhw(_dhw(x.swapaxes(-1, -2), inverse).swapaxes(-1, -2),
                    inverse)
    return _idhw(x, inverse)


# ---------------------------------------------------------------------------
# dense builders
# ---------------------------------------------------------------------------

def _hadamard_parts(r):
    """Sign pattern and per-column half-exponents of H_r."""
    signs = np.ones((1, 1), dtype=np.float64)
    for _ in range(r):
        signs = np.hstack([np.kron(signs, [[1.0], [1.0]]),
                           np.kron(signs, [[1.0], [-1.0]])])
    return signs, np.full(2 ** r, -r, dtype=np.int64)


def _haar_parts(r, window):
    """Sign pattern and per-column half-exponents of W^(1)_r or W^(0)_r."""
    signs = np.ones((1, 1), dtype=np.float64)
    hi = 1.0 if window else -1.0
    for k in range(1, r + 1):
        m = 2 ** (k - 1)
        signs = np.hstack([np.kron(signs, [[1.0], [1.0]]),
                           np.kron(np.eye(m), [[1.0], [hi]])])
    return signs, _dhw_exponents(r)


def _materialize(parts):
    signs, expo = parts
    return signs * _pow2_half_array(expo)[None, :]


def _kron_parts(a, b):
    """Kronecker product of two (signs, exponents) factorisations."""
    signs = np.kron(a[0], b[0])
    expo = (a[1][:, None] + b[1][None, :]).reshape(-1)
    return signs, expo


def _idhw_parts(r):
    n = 2 ** r
    w1 = _haar_parts(r, window=False)
    w0 = _haar_parts(r, window=True)
    signs = np.zeros((n * n, n * n))
    expo = np.zeros(n * n, dtype=np.int64)
    levels = build_levels("iso2d", r)

    def place(cols, sa, ea, sb, eb):
        # columns of (W^(a) P^T) (x) (W^(b) P^T) land at flat positions cols
        signs[:, cols - 1] = np.kron(sa, sb)
        expo[cols - 1] = (ea[:, None] + eb[None, :]).reshape(-1)

    place(levels.levels[0], w0[0][:, :1], w0[1][:1], w0[0][:, :1], w0[1][:1])
    for l in range(1, r + 1):
        sel = slice(2 ** (l - 1), 2 ** l)
        m = 2 ** (l - 1)
        level = levels.levels[l]
        b01, b11, b10 = level[:m * m], level[m * m:2 * m * m], level[2 * m * m:]
        place(b01, w0[0][:, sel], w0[1][sel], w1[0][:, sel], w1[1][sel])
        place(b11, w1[0][:, sel], w1[1][sel], w1[0][:, sel], w1[1][sel])
        place(b10, w1[0][:, sel], w1[1][sel], w0[0][:, sel], w0[1][sel])
    return signs, expo


def _check_cap(basis):
    cap = DENSE_CAP_R_2D if basis.is_2d else DENSE_CAP_R_1D
    if basis.r > cap:
        raise ValueError(
            f"dense {basis.tag} matrices are capped at r <= {cap} "
            f"({'2-D' if basis.is_2d else '1-D'}); requested r = {basis.r}")


def _basis_parts(basis):
    """Sign pattern and per-column half-exponents of a basis, within the
    dense caps."""
    _check_cap(basis)
    if basis.tag == "hadamard1d":
        return _hadamard_parts(basis.r)
    if basis.tag == "dhw":
        return _haar_parts(basis.r, window=False)
    if basis.tag == "hadamard2d":
        h = _hadamard_parts(basis.r)
        return _kron_parts(h, h)
    if basis.tag == "adhw":
        w = _haar_parts(basis.r, window=False)
        return _kron_parts(w, w)
    return _idhw_parts(basis.r)


def dense_basis(kind, r=None):
    """Dense orthonormal basis matrix, built by direct recursion.

    Entries are sign patterns scaled by per-column powers 2^(k/2), so each
    entry carries a single rounding.  Sizes are capped (r <= 10 in 1-D,
    r <= 6 in 2-D) to keep memory bounded.
    """
    return _materialize(_basis_parts(_as_basis(kind, r)))


def dense_window_matrix(r):
    """Dense W^(0)_r, the non-oscillating companion of the Haar recursion."""
    if r > DENSE_CAP_R_1D:
        raise ValueError(f"dense window matrices are capped at r <= {DENSE_CAP_R_1D}")
    return _materialize(_haar_parts(r, window=True))


# ---------------------------------------------------------------------------
# coefficient layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientLayout:
    """Per-coefficient level and subband labels for a wavelet basis."""

    basis: BasisKind
    level: np.ndarray
    subband: tuple

    def __post_init__(self):
        if self.level.shape[0] != len(self.subband):
            raise ValueError("level/subband length mismatch")


def coefficient_layout(kind, r=None):
    """Level (list position) and subband tag of every coefficient index.

    Subband tags are ``"00"``, ``"01"``, ``"11"``, ``"10"`` for ``idhw`` and
    ``None`` for the separable kinds.
    """
    basis = _as_basis(kind, r)
    if basis.tag in ("hadamard1d", "hadamard2d"):
        raise ValueError("coefficient layout is defined for wavelet bases only")
    partition_kind = {"dhw": "dyadic1d", "adhw": "aniso2d", "idhw": "iso2d"}[basis.tag]
    part = build_levels(partition_kind, basis.r)
    level = part.level_of_index()
    if basis.tag != "idhw":
        return CoefficientLayout(basis, level, (None,) * part.n_total)
    tags = [""] * part.n_total
    tags[0] = "00"
    for l in range(1, basis.r + 1):
        lev = part.levels[l]
        m = 4 ** (l - 1)
        for idx in lev[:m]:
            tags[idx - 1] = "01"
        for idx in lev[m:2 * m]:
            tags[idx - 1] = "11"
        for idx in lev[2 * m:]:
            tags[idx - 1] = "10"
    return CoefficientLayout(basis, level, tuple(tags))
