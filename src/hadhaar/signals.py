"""Test signals, the noise model, sparsity summaries and quality metrics.

1-D generators are sampled on the grid t_i = i / N for i = 1..N.  The
Blocks, Bumps, HeaviSine and Doppler constants follow the classic
Donoho-Johnstone test suite; the breakpoint and weight tables below are the
in-repo reference copy.  The phantom uses the classic ten-ellipse head
table with additive intensities.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral

import numpy as np

from .indexing import LevelPartition
from .transforms import _require_pow2

SRE_CAP_DB = 300.0
_NORM_BLOCK = 1 << 14
# The data's norm, in the noise model and the solver, is at most _MAX_NORM
# (at least 1 / _MAX_NORM in the solver): the projection's Newton step takes
# cubes of norms, which overflow past 2^341 (and underflow below 2^-341).
_MAX_NORM = 2.0 ** 320
SIGNAL_KINDS = ("gaussian_bump", "blocks", "bumps", "heavisine", "doppler",
                "shepp_logan")

__all__ = [
    "SIGNAL_KINDS",
    "SRE_CAP_DB",
    "EffectiveSparsity",
    "NoiseDraw",
    "NoiseSpec",
    "best_term_l1_error",
    "blocks",
    "bumps",
    "doppler",
    "effective_sparsity",
    "gaussian_bump",
    "generate",
    "hard_threshold",
    "heavisine",
    "load_signal_csv",
    "make_noise",
    "noise_sigma",
    "save_image_csv",
    "save_pgm",
    "save_signal_csv",
    "shepp_logan",
    "sre_db",
    "sre_from_ratios",
]


# ---------------------------------------------------------------------------
# 1-D generators
# ---------------------------------------------------------------------------

def gaussian_bump(n, sigma, center):
    """Discretised Gaussian density with peak at the 1-based index
    ``center``; an array of centres gives one bump per centre along a new
    last axis, each the bump of its centre alone."""
    n = 2 ** _require_pow2(n, "size")
    # the formula divides squared distances below n^2 by 2 sigma^2
    big = sys.float_info.max
    if not (sigma > 0 and n * n / big < 2.0 * sigma * sigma < big):
        raise ValueError(f"sigma must be finite and positive, with 2 sigma^2 "
                         f"and N^2 / (2 sigma^2) finite at N = {n}, "
                         f"got {sigma}")
    centers = np.asarray(center, dtype=np.float64)
    if not np.all(np.isfinite(centers) & (centers >= 1) & (centers <= n)):
        raise ValueError(f"center must lie in [1, {n}], got {center}")
    i = np.arange(1, n + 1, dtype=np.float64)
    return (np.exp(-((i - centers[..., None]) ** 2) / (2.0 * sigma ** 2))
            / (sigma * math.sqrt(2.0 * math.pi)))


# Donoho-Johnstone piecewise test signals: breakpoints and weights.
_DJ_POS = np.array([0.10, 0.13, 0.15, 0.23, 0.25, 0.40,
                    0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_HGT = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2,
                        2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_HGT = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2,
                       2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_WID = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03,
                       0.01, 0.01, 0.005, 0.008, 0.005])


def _grid(n):
    n = 2 ** _require_pow2(n, "size")
    return np.arange(1, n + 1, dtype=np.float64) / n


def blocks(n):
    t = _grid(n)
    steps = (1.0 + np.sign(t[:, None] - _DJ_POS[None, :])) / 2.0
    return steps @ _BLOCKS_HGT


def bumps(n):
    t = _grid(n)
    kernel = (1.0 + np.abs(t[:, None] - _DJ_POS[None, :]) / _BUMPS_WID[None, :]) ** -4.0
    return kernel @ _BUMPS_HGT


def heavisine(n):
    t = _grid(n)
    return 4.0 * np.sin(4.0 * math.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)


def doppler(n):
    t = _grid(n)
    return np.sqrt(t * (1.0 - t)) * np.sin(2.0 * math.pi * 1.05 / (t + 0.05))


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------

# Classic head phantom: intensity, semi-axes (a, b), centre (x0, y0) and
# rotation in degrees, intensities additive across overlapping ellipses.
_PHANTOM = np.array([
    [2.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0],
    [-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0],
    [-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0],
    [-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0],
    [0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0],
    [0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0],
    [0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0],
    [0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0],
    [0.01, 0.0230, 0.0230, 0.00, -0.6050, 0.0],
    [0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0],
])


def shepp_logan(n):
    """Classic head phantom rasterised on an n x n grid over [-1, 1]^2.

    Pixel (row i, column j) samples the plane at x increasing with j and y
    decreasing with i (the head points up); the background is exactly zero.
    """
    n = 2 ** _require_pow2(n, "side")
    ax = (np.arange(n, dtype=np.float64) - (n - 1) / 2.0) / ((n - 1) / 2.0) if n > 1 \
        else np.zeros(1)
    x = ax[None, :]
    y = -ax[:, None]
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in _PHANTOM:
        phi = math.radians(phi_deg)
        c, s = math.cos(phi), math.sin(phi)
        xr = (x - x0) * c + (y - y0) * s
        yr = -(x - x0) * s + (y - y0) * c
        img += amp * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return img


def generate(kind, size, **params):
    """Dispatch a named generator; 2-D kinds return square images."""
    if kind == "gaussian_bump":
        return gaussian_bump(size, params["sigma"], params["center"])
    if kind in ("blocks", "bumps", "heavisine", "doppler"):
        if params:
            raise ValueError(f"{kind} takes no parameters")
        return {"blocks": blocks, "bumps": bumps,
                "heavisine": heavisine, "doppler": doppler}[kind](size)
    if kind == "shepp_logan":
        if params:
            raise ValueError("shepp_logan takes no parameters")
        return shepp_logan(size)
    raise ValueError(f"unknown signal kind {kind!r}")


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Target SNR in dB (inf for noiseless)."""

    snr_db: float


@dataclass(frozen=True)
class NoiseDraw:
    vector: np.ndarray = field(repr=False)
    sigma: float
    norm: float
    weighted_norm: float | None = None


def _norm(x):
    """The Euclidean norm of all entries of x, from numpy sums of squares
    over blocks of _NORM_BLOCK entries, so that no temporary exceeds
    128 KiB.  np.linalg.norm calls BLAS ddot, which OpenBLAS runs on its
    threads above 10,000 entries: in a process pinned to one CPU a
    65,536-entry norm took 3-33 ms, and the woken thread slowed the next
    100 transforms by 1.6-2.9x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size <= _NORM_BLOCK:           # sum() of one block is that block
        return math.sqrt(float(np.sum(np.square(x))))
    return math.sqrt(sum(float(np.sum(np.square(x[i:i + _NORM_BLOCK])))
                         for i in range(0, x.size, _NORM_BLOCK)))


def _row_norms(rows):
    """``_norm`` of each row of a batch, with its bits, as a list: a row's
    size is a power of two, so it is whole blocks; each block's sum of
    squares is one reduction along the C-contiguous last axis, and the
    blocks add up in order, as ``sum`` adds them."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    blocks = rows.reshape(len(rows), -1, min(rows[0].size, _NORM_BLOCK))
    partial = np.sum(np.square(blocks), axis=2)
    return np.sqrt(np.cumsum(partial, axis=1)[:, -1]).tolist()


def _integer(value, name):
    """``value`` as an int; a bool or a number that is not Integral (numpy
    integers are) raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def noise_sigma(snr_db, x, n_meas):
    """Component deviation so that 20 log10(||x|| / (sigma sqrt(n_meas))) = snr."""
    if math.isinf(snr_db):
        return 0.0
    try:
        ratio = 10.0 ** (snr_db / 20.0)
    except OverflowError:
        ratio = math.inf
    if 0.0 < ratio < math.inf:
        norm = _norm(x)
        sigma = norm / (math.sqrt(n_meas) * ratio)
        # the noise's expected norm sigma sqrt(n_meas) stays in range
        if sigma * math.sqrt(n_meas) <= _MAX_NORM:
            return sigma
        if norm > _MAX_NORM:
            raise ValueError(f"signal norm {norm:g} is too large for the "
                             f"noise model (at most 2^320)")
    raise ValueError(f"snr_db {snr_db:g} is out of range")


def make_noise(spec, x, n_meas, weights=None, *, rng):
    """Gaussian measurement noise for the target SNR, drawn from the
    generator ``rng``.

    Reports the plain norm ||n|| and, when preconditioning weights are
    supplied, the weighted norm ||D n|| / sqrt(M) used as the oracle noise
    radius of weighted recoveries.
    """
    n_meas = _integer(n_meas, "noise length")
    if n_meas < 1:
        raise ValueError("noise length must be positive")
    sigma = noise_sigma(spec.snr_db, x, n_meas)
    vector = sigma * rng.standard_normal(n_meas) if sigma > 0 else np.zeros(n_meas)
    weighted = None
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n_meas,):
            raise ValueError("weights length must match the noise length")
        weighted = _norm(weights * vector) / math.sqrt(n_meas)
    return NoiseDraw(vector, sigma, _norm(vector), weighted)


# ---------------------------------------------------------------------------
# sparsity summaries
# ---------------------------------------------------------------------------

def hard_threshold(s, k):
    """Keep the k largest-magnitude entries (ties to the lower index)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("expected a vector")
    k = int(k)
    if k < 0 or k > s.size:
        raise ValueError("k must lie in [0, len(s)]")
    order = np.lexsort((np.arange(s.size), -np.abs(s)))
    out = np.zeros_like(s)
    keep = order[:k]
    out[keep] = s[keep]
    return out


@dataclass(frozen=True)
class EffectiveSparsity:
    rho: float
    total: int
    per_level: np.ndarray = field(repr=False)


def effective_sparsity(s, rho, partition):
    """Smallest K with ||H_K(s)|| >= rho ||s||, plus per-level counts.

    ``s`` is one coefficient vector or a (B, N) batch of them.  For a batch,
    ``total`` and ``per_level`` gain a leading batch axis, and each row
    gets the counts it gets alone.  Evaluated through tail energies (the
    energy of the dropped entries) so that the rho = 1 boundary is exact
    for exactly sparse vectors.
    """
    if not isinstance(partition, LevelPartition):
        raise ValueError("partition must be a LevelPartition")
    s = np.asarray(s, dtype=np.float64)
    n, levels = partition.n_total, partition.n_levels
    if s.ndim not in (1, 2) or s.shape[-1] != n:
        raise ValueError("coefficient length must match the partition")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    rows = s.reshape(-1, n)
    total_energy = np.sum(rows ** 2, axis=1)
    if not total_energy.all():
        raise ValueError("the zero vector has no effective sparsity")
    # largest magnitude first, ties to the lower index
    order = np.argsort(-np.abs(rows), axis=1, kind="stable")
    sq = np.take_along_axis(rows, order, axis=1) ** 2
    # tails[:, k] is the energy dropped when the first k + 1 are kept
    tails = np.zeros(rows.shape)
    tails[:, :-1] = np.cumsum(sq[:, :0:-1], axis=1)[:, ::-1]
    allowed = (1.0 - rho * rho) * total_energy
    k_total = 1 + np.argmax(tails <= allowed[:, None], axis=1)
    kept = np.arange(n) < k_total[:, None]
    cells = (levels * np.arange(len(rows))[:, None]
             + partition.level_of_index()[order])[kept]
    per_level = np.bincount(cells, minlength=levels * len(rows)).reshape(
        len(rows), levels).astype(np.int64)
    if s.ndim == 1:
        return EffectiveSparsity(float(rho), int(k_total[0]), per_level[0])
    return EffectiveSparsity(float(rho), k_total, per_level)


def best_term_l1_error(u, k):
    """l1 distance to the best k-term approximation."""
    u = np.asarray(u, dtype=np.float64)
    return float(np.sum(np.abs(u - hard_threshold(u, k))))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def sre_from_ratios(ratios):
    """Aggregate 20 log10(mean of ||x|| / error ratios); inf-safe.  A
    float is its own mean, taken without numpy."""
    mean = ratios
    if not isinstance(ratios, float):
        ratios = np.asarray(ratios, dtype=np.float64)
        if ratios.size == 0:
            raise ValueError("at least one trial is required")
        mean = float(np.mean(ratios))
    return math.inf if math.isinf(mean) else 20.0 * math.log10(mean)


def sre_db(x, x_hats):
    """Signal reconstruction error in dB over a set of reconstructions.

    The expectation sits inside the logarithm: exact reconstructions push
    the aggregate to +inf (serialisers cap it at ``SRE_CAP_DB``).
    Returns (aggregate dB, per-trial dB array, per-trial error norms).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    norm = _norm(x)
    if norm == 0.0:
        raise ValueError("reference signal must be nonzero")
    errors = np.array([_norm(x - np.asarray(xh, dtype=np.float64).reshape(-1))
                       for xh in x_hats])
    with np.errstate(divide="ignore"):
        ratios = np.where(errors > 0, norm / np.maximum(errors, 1e-300), np.inf)
        per_trial = 20.0 * np.log10(ratios)
    return sre_from_ratios(ratios), per_trial, errors


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _fmt(v):
    return format(float(v), ".17g")


def _write_csv(path, header, lines):
    """Write ``header`` and then ``lines``, strings of whole lines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _write_json(path, doc):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


# rows per write of ``_row_blocks``: 4096-row blocks were no faster and held
# three times the Python objects at once (peak RSS of a 16,384-row sample
# write +768 KiB against +256 KiB)
_BLOCK_ROWS = 1024


def _row_blocks(row, *columns):
    """Blocks of the rows ``row % (cell of each column)``, ``row`` being a
    ``%`` template with one slot per column: a block of rows is formatted
    by one ``%`` over a tuple of cells, and the callers' ``%.17g`` writes
    the same digits as ``_fmt``."""
    width = len(columns)
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        parts = [column[start:start + _BLOCK_ROWS].tolist()
                 for column in columns]
        cells = [None] * (width * len(parts[0]))
        for k, part in enumerate(parts):
            cells[k::width] = part
        yield row * len(parts[0]) % tuple(cells)


def save_signal_csv(path, x):
    """Write a 1-D signal as ``index,value`` rows (17 significant digits)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a vector")
    _write_csv(path, "index,value",
               _row_blocks("%d,%.17g\n", np.arange(1, x.size + 1), x))


def save_image_csv(path, img):
    """Write an image as ``row,col,value`` rows, row-major traversal.

    Row 1 is the top image row (the first array axis); columns run left to
    right along the second axis.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected a 2-D array")
    # one block per image row: the column numbers are formatted once, and
    # the row number replaces the NUL that stands for it
    line = "".join(f"\0,{j},%.17g\n" for j in range(1, img.shape[1] + 1))
    _write_csv(path, "row,col,value",
               (line.replace("\0", str(i)) % tuple(row.tolist())
                for i, row in enumerate(img, start=1)))


def _read_csv(path, headers):
    """The columns of the CSV file ``path``, by name.  Its header must be one
    of ``headers``, each of which names int64 columns and then one float64
    column.  Blank lines are skipped, and there must be a data row.  Cells
    follow numpy's grammar: ASCII digits with an optional sign, and floats
    as Python writes them (``inf``, ``nan``); no ``_`` separators, quotes
    or comments.  A byte outside ASCII is read as a lone surrogate, which
    no cell parses, so it is reported with its row."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header not in headers:
            byte = _non_ascii(header)
            raise ValueError(f"{path}: unrecognised CSV header {header!r}"
                             if byte is None else
                             f"{path}: the header holds the non-ASCII byte "
                             f"{byte}")
        names = header.split(",")
        dtype = np.dtype([(name, np.int64) for name in names[:-1]]
                         + [(names[-1], np.float64)])
        lines = filter(str.strip, fh)
        # np.loadtxt only warns when it finds no rows
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            table = np.loadtxt(chain((first,), lines), dtype=dtype,
                               delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise _parse_error(path, header, exc) from None
    return {name: table[name] for name in names}


def _non_ascii(line):
    """The first byte of ``line`` outside ASCII, as read with
    ``errors="surrogateescape"``, in hex; None if there is none."""
    if line.isascii():
        return None
    return hex(next(ord(ch) - 0xDC00 for ch in line if not ch.isascii()))


def _parse_error(path, header, exc):
    """The ValueError for the file ``path`` that ``np.loadtxt`` rejected
    with ``exc``: it names the first data row (1-based, blank lines not
    counted) that holds a non-ASCII byte or has the wrong number of cells,
    else the first integer cell outside int64, else repeats ``exc``."""
    width = header.count(",") + 1
    cell = None
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        fh.readline()
        for row, line in enumerate(filter(str.strip, fh), 1):
            byte = _non_ascii(line)
            if byte is not None:
                return ValueError(f"{path}: data row {row} holds the "
                                  f"non-ASCII byte {byte}")
            cells = line.split(",")
            if len(cells) != width:
                return ValueError(f"{path}: row {line.strip()!r} is not "
                                  f"{header}")
            for c in map(str.strip, cells[:-1]):
                if (cell is None and re.fullmatch(r"[+-]?[0-9]+", c)
                        and not -(1 << 63) <= int(c) < 1 << 63):
                    cell = c
    if cell is not None:
        return ValueError(f"{path}: index out of range: {cell}")
    return ValueError(f"{path}: a row is not {header}: {exc}")


def _position_order(path, index, shape):
    """The rows sorted by their 1-based positions in ``index``, which maps
    each axis's name to one integer array: row ``order[p]`` holds flat
    position p of ``shape``.  Rows already in order, as every file this
    package writes has them, give ``slice(None)``.  Every position must
    occur once; a duplicate, else a missing one, is named, smallest first.
    The check sorts the positions, so neither its time nor its memory grows
    with the largest."""
    for (name, ix), n in zip(index.items(), shape):
        if ix.min() < 1 or ix.max() > n:
            bad = (ix < 1) | (ix > n)
            raise ValueError(f"{path}: {name} {ix[bad][0]} outside [1, {n}]")
    if math.prod(shape) >= 1 << 63:
        raise ValueError(f"{path}: {' x '.join(map(str, shape))} positions "
                         f"overflow int64")
    # the flat positions, formed in place in one array, so that besides the
    # parsed columns the check holds one index-sized array at a time
    first, *rest = index.values()
    flat = first - 1
    for ix, n in zip(rest, shape[1:]):
        flat *= n
        flat += ix
        flat -= 1
    if flat.size == math.prod(shape) and (flat[1:] > flat[:-1]).all():
        return slice(None)
    order = np.argsort(flat)
    flat = flat[order]
    dup = np.flatnonzero(flat[1:] == flat[:-1])
    if dup.size:
        kind, p = "duplicate", flat[dup[0]]
    elif flat.size < math.prod(shape):
        gap = np.flatnonzero(flat != np.arange(flat.size))
        kind, p = "missing", gap[0] if gap.size else flat.size
    else:
        return order
    where = ", ".join(f"{name} {q + 1}"
                      for name, q in zip(index, np.unravel_index(p, shape)))
    raise ValueError(f"{path}: {kind} {where}")


def load_signal_csv(path):
    """Read either CSV layout back into an array.

    Every position must appear exactly once: a duplicate, missing or
    out-of-range index raises ValueError.
    """
    index = _read_csv(path, ("index,value", "row,col,value"))
    values = index.pop("value")
    shape = ((values.size,) if len(index) == 1
             else tuple(int(ix.max()) for ix in index.values()))
    order = _position_order(path, index, shape)
    return np.ascontiguousarray(values[order]).reshape(shape)


def save_pgm(path, img):
    """Write a binary PGM (maxval 255); input must already be uint8-ranged."""
    arr = np.asarray(img)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("expected a 1-D or 2-D array")
    data = np.ascontiguousarray(arr, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
