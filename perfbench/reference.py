"""Independent computations and output checks for the benchmark.

Nothing here calls into ``hadhaar``: the Hadamard matrix comes from
``scipy.linalg.hadamard``, the Haar pyramid and the level map are written
out afresh, and CSV files are parsed with numpy.  Each check returns a
list of failure messages, empty when the output passes.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.linalg


def bit_reverse(n):
    """Bit-reversal permutation of range(n), n a power of two."""
    bits = n.bit_length() - 1
    idx = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        out |= ((idx >> b) & 1) << (bits - 1 - b)
    return out


def paley_hadamard(n):
    """Orthonormal Paley-ordered Hadamard matrix: Sylvester rows, bit-reversed.

    The scale 2^(-r/2) is rounded once, so every entry is correctly rounded.
    """
    r = n.bit_length() - 1
    scale = math.ldexp(math.sqrt(0.5) if r % 2 else 1.0, -(r // 2))
    return scipy.linalg.hadamard(n).astype(np.float64)[bit_reverse(n)] * scale


def spectrum_2d(h, img):
    """Column-major vectorised Hadamard spectrum H^T X H of a square image."""
    return (h.T @ img @ h).reshape(-1, order="F")


def haar_l1_2d(img):
    """l1 norm of the orthonormal isotropic 2-D Haar coefficients of img.

    Each pyramid step maps 2x2 blocks (a b; c d) to one average and three
    details, all halved; the l1 norm does not depend on coefficient order.
    """
    a = np.asarray(img, dtype=np.float64)
    total = 0.0
    while a.shape[0] > 1:
        p, q = a[0::2, 0::2], a[0::2, 1::2]
        r, s = a[1::2, 0::2], a[1::2, 1::2]
        for detail in (p - q + r - s, p + q - r - s, p - q - r + s):
            total += float(np.abs(detail).sum()) / 2.0
        a = (p + q + r + s) / 2.0
    return total + float(abs(a[0, 0]))


def iso2d_level(index, side):
    """Level of each 1-based column-major Hadamard index on a side x side grid.

    The level of a 1-D coordinate i is 0 for i = 1 and l for i in
    (2^(l-1), 2^l]; a 2-D pair takes the larger of its two levels.
    """
    i1 = (np.asarray(index, dtype=np.int64) - 1) % side
    i2 = (np.asarray(index, dtype=np.int64) - 1) // side
    lev = np.maximum(i1, i2)
    out = np.zeros(lev.shape, dtype=np.int64)
    nz = lev > 0
    out[nz] = np.floor(np.log2(lev[nz])).astype(np.int64) + 1
    return out


def read_image_csv(path):
    """Parse a ``row,col,value`` CSV into a dense array, checking every cell."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = data[:, 0].astype(np.int64)
    cols = data[:, 1].astype(np.int64)
    side = int(math.isqrt(data.shape[0]))
    img = np.full((side, side), np.nan)
    if side * side == data.shape[0] and rows.min() >= 1 and cols.min() >= 1 \
            and rows.max() <= side and cols.max() <= side:
        img[rows - 1, cols - 1] = data[:, 2]
    return img


def read_sample_csv(path):
    """Parse ``position,index,weight`` into (index, weight) in position order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(data[:, 0], kind="stable")
    return data[order, 1].astype(np.int64), data[order, 2]


def sre_db(ratios):
    """20 log10 of the mean of ||x|| / ||x - x_hat|| ratios."""
    return 20.0 * math.log10(float(np.mean(ratios)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_sample(omega, n_total, m_total, m_per_level=None, side=None):
    """Sample size and range; for mds distinct indices and per-level counts."""
    errors = []
    if omega.size != m_total:
        errors.append(f"sample has {omega.size} rows, expected {m_total}")
    if omega.size and (omega.min() < 1 or omega.max() > n_total):
        errors.append(f"sample index outside [1, {n_total}]")
    if m_per_level is not None and not errors:
        if np.unique(omega).size != omega.size:
            errors.append("mds sample repeats an index")
        counts = np.bincount(iso2d_level(omega, side), minlength=len(m_per_level))
        if counts.tolist() != list(m_per_level):
            errors.append(f"per-level counts {counts.tolist()} differ from "
                          f"m_per_level {list(m_per_level)}")
    return errors


def check_me(spectrum, omega, y, rtol=1e-9):
    """ME spectrum equals the mean measurement on the sample, zero elsewhere."""
    n = spectrum.size
    pos = omega - 1
    counts = np.bincount(pos, minlength=n)
    target = np.zeros(n)
    hit = counts > 0
    target[hit] = np.bincount(pos, weights=y, minlength=n)[hit] / counts[hit]
    err = float(np.max(np.abs(spectrum - target)))
    scale = float(np.max(np.abs(target)))
    if not err <= rtol * scale:
        return [f"ME spectrum differs from the mean measurement by {err:.3g} "
                f"(scale {scale:.3g})"]
    return []


def check_bpdn(spectrum, omega, y, weights, epsilon, tol_feas, tol_gap,
               x_hat_l1, x_l1):
    """Data residual within the ball and l1 objective not above the truth's.

    ``weights`` are the per-row factors of the README's convention (the
    preconditioning weights over sqrt(M) for uds/vds, ones for mds).
    """
    errors = []
    b = weights * y
    residual = float(np.linalg.norm(weights * spectrum[omega - 1] - b))
    slack = tol_feas * max(1.0, float(np.linalg.norm(b)))
    if not residual <= epsilon + slack:
        errors.append(f"data residual {residual:.6g} exceeds epsilon "
                      f"{epsilon:.6g} + {slack:.3g}")
    if not x_hat_l1 <= (1.0 + tol_gap) * x_l1:
        errors.append(f"l1 objective {x_hat_l1:.6g} exceeds the true "
                      f"signal's {x_l1:.6g}")
    return errors


def check_sre_order(sre, chain, margins):
    """SRE rises along ``chain`` by more than each step's margin (dB).

    The paper's ordering is chain (uds, vds, mds) with criterion 6's
    margins (5, 2).
    """
    errors = []
    for lo, hi, margin in zip(chain, chain[1:], margins):
        if not sre[hi] > sre[lo] + margin:
            errors.append(f"SRE {hi} {sre[hi]:.3f} dB is not above "
                          f"{lo} {sre[lo]:.3f} + {margin} dB")
    return errors


def read_trials_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def check_trials(rows, m_expected):
    """Per-row checks of an experiment's trials.csv; returns failed rows.

    ``cs_converged`` is the program's own report, counted by the caller.
    """
    bad = []
    for row in rows:
        errors = []
        if int(row["m"]) != m_expected:
            errors.append(f"m = {row['m']}, expected {m_expected}")
        if row["cs_converged"] not in ("0", "1"):
            errors.append(f"cs_converged = {row['cs_converged']!r}")
        if not float(row["cs_error"]) > 0.0 or not float(row["x_norm"]) > 0.0:
            errors.append("non-positive norm")
        if errors:
            bad.append((row["trial"], errors))
    return bad


def check_summary(path, sre_expected, tol=1e-9):
    """summary.csv's cs_sre_db agrees with the SRE recomputed from trials.csv."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return [f"summary.csv has {len(rows)} rows, expected 1"]
    got = float(rows[0]["cs_sre_db"])
    if not abs(got - sre_expected) <= tol * max(1.0, abs(sre_expected)):
        return [f"summary cs_sre_db {got!r} differs from trials.csv's "
                f"{sre_expected!r}"]
    return []


def read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)
