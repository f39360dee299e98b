"""Local and multilevel coherence of Hadamard-Haar systems.

A system pairs the Paley-ordered Hadamard sensing basis with one of the
Haar sparsity bases:

* ``had_dhw_1d``  H_r with the 1-D Haar basis, dyadic levels
* ``had2_idhw``   H_r (x) H_r with the isotropic 2-D Haar basis, iso levels
* ``had2_adhw``   H_r (x) H_r with the anisotropic 2-D Haar basis

Every profile is available in two modes.  ``closed`` evaluates the analytic
formulas.  ``brute`` forms the dense product U = Phi^T Psi and takes maxima
over its level blocks.  Each dense basis is a sign pattern with per-column
scales 2^(e/2), so the product is exact: the sign patterns multiply in
integer arithmetic and entry (i, j) takes 2^((e_Phi[i] + e_Psi[j]) / 2)
with a single rounding.  Vanishing blocks come out as exact zeros rather
than roundoff dust, and products of maxima 2^(k/2) add their exponents.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .indexing import build_levels
from .transforms import (
    BasisKind,
    _basis_parts,
    _digit_split,
    _factor_calls,
    _half_exponents,
    _matmuls,
    _pow2_half,
    _pow2_half_array,
    _require_size,
    _sylvester_factor,
    fwht,
    haar_transform,
)

SYSTEM_TAGS = ("had_dhw_1d", "had2_idhw", "had2_adhw")
MODES = ("closed", "brute")
# A level's transform takes factors of at most 2^_LEVEL_FACTOR_MAX,
# smallest first.  Pinned to one CPU, the 3 x 2^14 entries of idhw level 8
# took 150-195 us in factors of 8, 8, 16, 16 against 200-285 us in factors
# of 32, 32, 16; level 6 took about 5 us more (22 against 17 us) and the
# other levels of r <= 9 split the same way as with factors of 32.
_LEVEL_FACTOR_MAX = 4
# The levels that begin level order, up to the last whole level within
# _HEAD_MAX entries, are applied as one dense product.  Pinned to one CPU,
# the 1-D r = 9 level operator took 25-38 us at B = 1 to 4 with this head
# (levels 0 to 6) against 48-70 us without, and 46-70 against 71-100 us at
# B = 20.  The head's product alone took 14 us at B = 20; a head of 128
# entries took 63 us.
_HEAD_MAX = 64

__all__ = [
    "MODES",
    "SYSTEM_TAGS",
    "SystemKind",
    "CoherenceProfile",
    "MultilevelProfile",
    "StructureReport",
    "local_coherence",
    "multilevel_coherence",
    "relative_sparsity",
    "structure_check",
    "system_matrix",
]


@dataclass(frozen=True)
class SystemKind:
    tag: str
    r: int

    def __post_init__(self):
        if self.tag not in SYSTEM_TAGS:
            raise ValueError(f"unknown system tag {self.tag!r}")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        _require_size(self.tag, self.r, self.is_2d)

    @property
    def is_2d(self):
        return self.tag != "had_dhw_1d"

    @property
    def side(self):
        return 2 ** self.r

    @property
    def n_total(self):
        return 4 ** self.r if self.is_2d else 2 ** self.r

    @property
    def sensing_basis(self):
        return BasisKind("hadamard2d" if self.is_2d else "hadamard1d", self.r)

    @functools.cached_property
    def sparsity_basis(self):
        tag = {"had_dhw_1d": "dhw", "had2_idhw": "idhw", "had2_adhw": "adhw"}[self.tag]
        return BasisKind(tag, self.r)

    @property
    def partition_kind(self):
        return {"had_dhw_1d": "dyadic1d", "had2_idhw": "iso2d",
                "had2_adhw": "aniso2d"}[self.tag]

    def partition(self):
        return build_levels(self.partition_kind, self.r)

    # The system matrix is U = Phi^T Psi.  Signals are 2^r vectors or
    # 2^r x 2^r images; spectra and coefficients are flat, column-major in
    # 2-D.  Each method accepts its input in either layout, and with a
    # leading batch axis: (B, N) flat or (B, 2^r, 2^r) in 2-D.  Each row
    # of a batch comes out bit for bit as it would alone.

    def _shaped(self, v):
        """v in signal shape, and whether it has a leading batch axis."""
        v = np.asarray(v, dtype=np.float64)
        shape, side, n = v.shape, self.side, self.n_total
        if self.is_2d and v.shape[-1:] == (n,):
            lead = v.shape[:-1]
            v = v.reshape(lead + (side, side)).swapaxes(-1, -2)
        else:
            lead = v.shape[:-2] if self.is_2d else v.shape[:-1]
            if v.shape[len(lead):] != (side,) * (2 if self.is_2d else 1):
                lead = None
        if lead is None or len(lead) > 1:
            raise ValueError(f"{self.tag} with r = {self.r} expects "
                             f"{n} entries in signal or flat layout, "
                             f"optionally after a batch axis, got shape "
                             f"{shape}")
        return v, bool(lead)

    def _flat(self, v):
        if not self.is_2d:
            return v
        return v.swapaxes(-1, -2).reshape(v.shape[:-2] + (self.n_total,))

    def spectrum(self, x):
        """Flat Hadamard spectrum Phi^T x of a signal."""
        x, batch = self._shaped(x)
        return self._flat(fwht(x, batch=batch))

    def signal(self, z):
        """Phi z in signal shape; inverts :meth:`spectrum`."""
        z, batch = self._shaped(z)
        return fwht(z, batch=batch)

    def coefficients(self, x):
        """Flat Haar coefficients Psi^T x of a signal."""
        x, batch = self._shaped(x)
        return self._flat(haar_transform(self.sparsity_basis, "analysis", x,
                                         batch=batch))

    def synthesis(self, s):
        """Psi s in signal shape; inverts :meth:`coefficients`."""
        s, batch = self._shaped(s)
        return haar_transform(self.sparsity_basis, "synthesis", s, batch=batch)

    # In level order, a fixed permutation of the flat indices that
    # concatenates the partition's levels, U is block-diagonal: level t
    # is ``count`` copies of one Hadamard block, H_a on a length a or
    # H_b (x) H_a on a C-ordered b x a image, with a and b powers of two
    # (``level_table``).  Each U_t maps the level's coefficients to the
    # spectrum entries at the same flat indices.  The Paley matrix is
    # H_a = S_a B_a / sqrt(a), with S_a the Sylvester (natural-order)
    # Hadamard sign matrix and B_a the bit reversal, which commutes with
    # S_a; so reading each block's spectrum in bit-reversed rows and
    # columns (``spectral_order``) leaves S_b (x) S_a / sqrt(ab) =
    # S_ab / sqrt(ab), one flat Walsh-Hadamard transform of each block.
    # Between the two orders U is then blockdiag(I_count (x) S_n / sqrt(n))
    # over the levels, n the block size, which is symmetric.  Its first
    # levels are small, so ``level_op`` applies the longest prefix of whole
    # levels within _HEAD_MAX entries as one dense matrix of that form.

    @functools.cached_property
    def level_table(self):
        """Per level, in the partition's list order: its offset in level
        order, its number of blocks and its block shape, (a,) in 1-D or
        (b, a) in 2-D, each side a power of two.  This is the one place
        that names a system's block geometry."""
        sides = [1] + [1 << l for l in range(self.r)]       # |T_t|
        if self.tag == "had_dhw_1d":
            blocks = [(1, (a,)) for a in sides]
        elif self.tag == "had2_idhw":
            # level l >= 1: three a x a subband squares
            blocks = [(1, (1, 1))] + [(3, (a, a)) for a in sides[1:]]
        else:
            # level (t1, t2), t1 fastest: the flattening of T_t1 x T_t2 is
            # a C-ordered |T_t2| x |T_t1| image
            blocks = [(1, (b, a)) for b in sides for a in sides]
        table, offset = [], 0
        for count, shape in blocks:
            table.append((offset, count, shape))
            offset += count * math.prod(shape)
        return tuple(table)

    @functools.cached_property
    def level_order(self):
        """The flat (0-based) index of the coefficient at each level-order
        position, read-only."""
        order = np.concatenate(self.partition().levels) - 1
        order.flags.writeable = False
        return order

    @functools.cached_property
    def spectral_order(self):
        """The flat (0-based) index of the spectrum entry at each
        spectral-order position, read-only: the level order with each
        block read in bit-reversed rows and columns."""
        perm = np.arange(self.n_total)
        for offset, count, shape in self.level_table:
            within = np.zeros(1, dtype=np.int64)
            for side in shape:
                within = (within[:, None] * side
                          + _bit_reversal(side)).reshape(-1)
            size = within.size
            perm[offset:offset + count * size] = (
                offset + size * np.arange(count)[:, None] + within).reshape(-1)
        order = self.level_order[perm]
        order.flags.writeable = False
        return order

    @functools.cached_property
    def _level_plan(self):
        """The level operator's work: spans (lo, hi, steps) that tile level
        order in order, each step (factor, blocks times the digits before
        it, factor size, digits after it).  The first span is the head, U
        on the longest prefix of whole levels within _HEAD_MAX entries as
        one dense read-only factor; each later level is a span of its own.
        A block of 2^k entries takes factors of at most
        2^_LEVEL_FACTOR_MAX, smallest first, with its scale 2^(-k/2) folded
        into the first; a one-entry block takes the 1 x 1 factor."""
        blocks, plan = [], []
        for offset, count, shape in self.level_table:
            k = math.prod(shape).bit_length() - 1
            hi = offset + (count << k)
            if hi <= _HEAD_MAX:
                blocks += [_sylvester_factor(k, _pow2_half(-k))] * count
                continue
            digits = sorted(_digit_split(k, _LEVEL_FACTOR_MAX)) or [0]
            sizes = [1 << f for f in digits]
            plan.append((offset, hi, [
                (_sylvester_factor(f, _pow2_half(-k) if d == 0 else 1.0),
                 count * math.prod(sizes[:d]), sizes[d],
                 math.prod(sizes[d + 1:]))
                for d, f in enumerate(digits)]))
        size = sum(len(block) for block in blocks)
        head, at = np.zeros((size, size)), 0
        for block in blocks:
            head[at:at + len(block), at:at + len(block)] = block
            at += len(block)
        head.flags.writeable = False
        return [(0, size, [(head, 1, size, 1)])] + plan

    def _level_work(self, rows):
        """Two scratch arrays of ``rows`` rows for the largest level span,
        kept for the system's life and grown only when a larger batch comes
        (in the instance dict, as the dataclass is frozen).  Calls that
        share a system therefore must not run at once."""
        work = self.__dict__.get("_work")
        if work is None or work.shape[1] < rows:
            span = max(hi - lo for lo, hi, _ in self._level_plan)
            work = np.empty((2, rows, span))
            self.__dict__["_work"] = work
        return work[:, :rows]

    def bind_level_op(self, v, out):
        """U v into ``out``, bound: the level operator's work on the (rows,
        N) arrays v and out (which may be v) as a list of (x1, x2, dst)
        calls ``np.matmul(x1, x2, out=dst)``, to run in order with
        ``transforms._matmuls``.  Each span of the plan takes its factor
        steps for every block of every row at once: the head one dense
        product per row, each later level a flat Walsh-Hadamard transform
        of each block through the kept work buffers, the last step
        straight into ``out``.  The calls hold their views of v, of the
        work buffers and of out, split into gemm-sized chunks, so a loop
        that applies U to the same arrays many times binds once.  A later
        call that grows the work buffers leaves a binding's own buffers in
        place; bindings that share a system still must not run at once."""
        rows = v.shape[0]
        work = self._level_work(rows)
        calls = []
        for lo, hi, steps in self._level_plan:
            src = v[:, lo:hi]
            for d, (p, pre, a, rest) in enumerate(steps):
                dst = (out[:, lo:hi] if d == len(steps) - 1
                       else work[d % 2, :, :hi - lo])
                calls += _factor_calls(p, src.reshape(rows, pre, a, rest),
                                       dst.reshape(rows, pre, a, rest))
                src = dst
        return calls

    def level_op(self, v, *, out=None):
        """U v between level order and spectral order, either way: U is
        symmetric between the two orders, so it maps coefficients in level
        order to their spectrum in spectral order, and as U^T = U a
        spectrum in spectral order back to coefficients in level order.
        v is flat, optionally after a batch axis; ``out`` (which may be v)
        receives the result when given.  This binds the operator to v and
        out (:meth:`bind_level_op`) and runs it once; each row of a batch
        comes out bit for bit as it would alone."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.n_total:
            raise ValueError(f"{self.tag} with r = {self.r} expects "
                             f"{self.n_total} entries in level order, "
                             f"optionally after a batch axis, got shape "
                             f"{v.shape}")
        if out is None:
            out = np.empty(v.shape)
        _matmuls(self.bind_level_op(v.reshape(-1, self.n_total),
                                    out.reshape(-1, self.n_total)))
        return out


def _bit_reversal(a):
    """The bit reversal of range(a), a a power of two."""
    rev = np.zeros(1, dtype=np.int64)
    while rev.size < a:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


def _as_system(system, r=None):
    if isinstance(system, SystemKind):
        return system
    return SystemKind(system, int(r))


@dataclass(frozen=True)
class CoherenceProfile:
    """Row maxima of |U| together with their total energy."""

    system: SystemKind
    mode: str
    values: np.ndarray = field(repr=False)

    @property
    def values_squared(self):
        """Entrywise mu^2, with half-power entries squared exactly."""
        return _exact_product(self.values, self.values)

    @property
    def sum_sq(self):
        return float(np.sum(self.values_squared))

    @property
    def global_coherence(self):
        return float(self.values.max())


@dataclass(frozen=True)
class MultilevelProfile:
    """Grid of level-pair coherences mu_{t,l} in level-list order."""

    system: SystemKind
    mode: str
    values: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# exact dense product
# ---------------------------------------------------------------------------

def system_matrix(system, r=None):
    """Dense U = Phi^T Psi for the given system (exactly evaluated)."""
    system = _as_system(system, r)
    phi, e_phi = _basis_parts(system.sensing_basis)
    psi, e_psi = _basis_parts(system.sparsity_basis)
    u = phi.T @ psi                 # integer-valued, exact in float64
    # free the sign patterns before the scale temporaries exist: at 2-D
    # r = 6 that takes 256 MiB off the peak
    del phi, psi
    u *= _pow2_half_array(e_phi[:, None] + e_psi[None, :])
    return u


def _exact_product(x, y):
    """x * y, except that where both are powers 2^(k/2) their exponents add,
    instead of two rounded square roots being multiplied."""
    kx, px = _half_exponents(x)
    ky, py = _half_exponents(y)
    return np.where(px & py, _pow2_half_array(kx + ky), x * y)


def _level_blocks(system):
    """|U| with rows and columns in level order, and the maximum of each of
    its level blocks."""
    order = system.level_order
    u = system_matrix(system)[np.ix_(order, order)]
    np.abs(u, out=u)
    starts = [offset for offset, _, _ in system.level_table]
    rows = np.maximum.reduceat(u, starts, axis=0)
    return u, np.maximum.reduceat(rows, starts, axis=1)


def _level_exponents(system):
    """k_t per level: each block of level t is a Hadamard block of 2^k_t
    entries, all of magnitude 2^(-k_t/2)."""
    return np.array([math.prod(shape).bit_length() - 1
                     for _, _, shape in system.level_table], dtype=np.int64)


# ---------------------------------------------------------------------------
# local coherence
# ---------------------------------------------------------------------------

def _local_closed(system):
    # row l lies in one level's block, whose entries share one magnitude
    levels = _pow2_half_array(-_level_exponents(system))
    return levels[system.partition().level_of_index()]


def local_coherence(system, mode="closed", r=None):
    """Per-row local coherence profile mu_l = max_j |U_{l,j}|."""
    system = _as_system(system, r)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "closed":
        values = _local_closed(system)
    else:
        values = np.max(np.abs(system_matrix(system)), axis=1)
    return CoherenceProfile(system, mode, values)


# ---------------------------------------------------------------------------
# multilevel coherence
# ---------------------------------------------------------------------------

def _multilevel_closed(system):
    # mu(P_t U) mu(P_t U P_t^T) = 2^(-k_t); the off-diagonal blocks vanish
    return np.diag(_pow2_half_array(-2 * _level_exponents(system)))


def multilevel_coherence(system, mode="closed", r=None):
    """Grid mu_{t,l} = mu(P_t U) * mu(P_t U P_l^T) over level pairs."""
    system = _as_system(system, r)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "closed":
        return MultilevelProfile(system, mode, _multilevel_closed(system))
    blocks = _level_blocks(system)[1]
    row_max = blocks.max(axis=1, keepdims=True)
    return MultilevelProfile(system, mode, _exact_product(row_max, blocks))


# ---------------------------------------------------------------------------
# relative sparsity
# ---------------------------------------------------------------------------

def relative_sparsity(system, k, mode="bound", trials=64, seed=0, r=None):
    """Relative sparsities K_t for per-level budgets k.

    ``bound`` returns the analytic upper bound (k_t itself for these
    systems).  ``search`` maximises ||P_t U z||^2 over random sign vectors
    on supports drawn within the per-level budgets, always including the
    all-in-level-t support; it returns a lower-bound certificate.
    """
    system = _as_system(system, r)
    part = system.partition()
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (part.n_levels,) or np.any(k < 0) or np.any(k > part.sizes):
        raise ValueError("k must hold one count in [0, |level|] per level")
    if mode == "bound":
        return k.astype(np.float64)
    if mode != "search":
        raise ValueError("mode must be 'bound' or 'search'")
    u = system_matrix(system)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = np.zeros(part.n_levels)
    for t, rows in enumerate(part.levels):
        block = u[rows - 1, :]
        best = 0.0
        if k[t] > 0:
            cols = part.levels[t][:k[t]] - 1
            best = float(np.sum(block[:, cols].sum(axis=1) ** 2))
        for _ in range(trials):
            support = []
            for lev, k_l in zip(part.levels, k):
                if k_l > 0:
                    support.append(rng.choice(lev - 1, size=int(k_l), replace=False))
            support = np.concatenate(support) if support else np.array([], dtype=np.int64)
            signs = rng.integers(0, 2, size=support.size) * 2.0 - 1.0
            val = float(np.sum((block[:, support] @ signs) ** 2))
            best = max(best, val)
        out[t] = best
    return out


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    """Residuals of the predicted block structure of U.

    ``off_diagonal[t, l]`` is max |entry| of the (t, l) block for t != l
    (zero predicted); ``diagonal_deviation[t]`` is the worst absolute
    deviation of |block| from the predicted magnitude pattern on the
    diagonal.
    """

    system: SystemKind
    off_diagonal: np.ndarray = field(repr=False)
    diagonal_deviation: np.ndarray = field(repr=False)

    @property
    def max_off_diagonal(self):
        return float(self.off_diagonal.max()) if self.off_diagonal.size else 0.0

    @property
    def max_diagonal_deviation(self):
        return float(self.diagonal_deviation.max())


def structure_check(system, r=None):
    """Check the two-sided level-restricted structure of U.

    Diagonal blocks must match the magnitude pattern of a scaled Hadamard
    kernel (with the I_3 tensor layout in the isotropic case); off-diagonal
    blocks must vanish identically.
    """
    system = _as_system(system, r)
    u, off = _level_blocks(system)
    np.fill_diagonal(off, 0.0)
    diag = []
    for offset, count, shape in system.level_table:
        # |U_t|: count Hadamard blocks of size = 2^k entries down the
        # diagonal, each entry 2^(-k/2)
        size = math.prod(shape)
        want = np.kron(np.eye(count), np.full(
            (size, size), _pow2_half(1 - size.bit_length())))
        end = offset + count * size
        diag.append(np.max(np.abs(u[offset:end, offset:end] - want)))
    return StructureReport(system, off, np.array(diag))
