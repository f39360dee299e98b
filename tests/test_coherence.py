import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadhaar.coherence import (_HEAD_MAX, SYSTEM_TAGS, CoherenceProfile,
                               SystemKind, local_coherence,
                               multilevel_coherence, relative_sparsity,
                               structure_check, system_matrix)
from hadhaar.indexing import build_levels, pair_to_index
from hadhaar.transforms import _matmuls

ALL_SYSTEMS = [("had_dhw_1d", 6), ("had2_idhw", 3), ("had2_adhw", 3)]


def pow2_half(k):
    if k % 2 == 0:
        return math.ldexp(1.0, k // 2)
    return math.ldexp(math.sqrt(2.0), (k - 1) // 2)


def hadamard_signs(r):
    signs = np.ones((1, 1))
    for _ in range(r):
        signs = np.hstack([np.kron(signs, [[1.0], [1.0]]),
                           np.kron(signs, [[1.0], [-1.0]])])
    return signs


def hadamard_kron_oracle(ra, rb):
    """H_ra (x) H_rb with the scale applied once (no squared-sqrt ulp)."""
    return np.kron(hadamard_signs(ra), hadamard_signs(rb)) * pow2_half(-ra - rb)


# ---------------------------------------------------------------------------
# local coherence
# ---------------------------------------------------------------------------

def test_local_values_1d_r3():
    mu = local_coherence("had_dhw_1d", r=3).values
    assert mu[0] == 1.0 and mu[1] == 1.0
    assert mu[2] == pow2_half(-1)
    np.testing.assert_allclose(mu[2], 0.7071067811865475, rtol=1e-15)
    assert np.array_equal(mu, [1.0, 1.0, pow2_half(-1), pow2_half(-1),
                               0.5, 0.5, 0.5, 0.5])


def test_local_sum_sq_identities():
    assert local_coherence("had_dhw_1d", r=3).sum_sq == 4.0
    assert local_coherence("had2_idhw", r=3).sum_sq == 10.0
    assert local_coherence("had2_adhw", r=3).sum_sq == 16.0
    for r in range(1, 7):
        assert local_coherence("had_dhw_1d", r=r).sum_sq == float(r + 1)
    for r in range(1, 4):
        assert local_coherence("had2_idhw", r=r).sum_sq == float(3 * r + 1)
        assert local_coherence("had2_adhw", r=r).sum_sq == float((r + 1) ** 2)


def test_local_iso_pair_example():
    mu = local_coherence("had2_idhw", r=3).values
    l = pair_to_index(5, 2, 8, 8)
    assert mu[l - 1] == 0.25


def test_global_coherence_is_one():
    for tag, rmax in ALL_SYSTEMS:
        profile = local_coherence(tag, r=rmax)
        assert profile.global_coherence == 1.0
        n = profile.values.size
        assert np.all(profile.values >= 1.0 / math.sqrt(n))
        assert np.all(profile.values <= 1.0)


@pytest.mark.parametrize("tag,rmax", ALL_SYSTEMS)
def test_local_closed_equals_brute_bitwise(tag, rmax):
    for r in range(1, rmax + 1):
        closed = local_coherence(tag, "closed", r=r).values
        brute = local_coherence(tag, "brute", r=r).values
        assert np.array_equal(closed, brute)


def test_local_mode_validation():
    with pytest.raises(ValueError):
        local_coherence("had_dhw_1d", "guess", r=2)
    with pytest.raises(ValueError):
        local_coherence("had_fft_1d", r=2)
    with pytest.raises(ValueError):
        SystemKind("had_dhw_1d", 0)


@pytest.mark.parametrize("tag,most", [("had_dhw_1d", 28), ("had2_idhw", 14),
                                      ("had2_adhw", 14)])
def test_system_kind_caps_n_at_2_to_28(tag, most):
    assert SystemKind(tag, most).n_total == 2 ** 28
    for r in (most + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"r must be at most {most}"):
            SystemKind(tag, r)


# ---------------------------------------------------------------------------
# multilevel coherence
# ---------------------------------------------------------------------------

def test_multilevel_1d_examples():
    grid = multilevel_coherence("had_dhw_1d", r=3).values
    assert grid[3, 3] == 0.25
    assert grid[2, 3] == 0.0
    assert np.array_equal(np.diag(grid), [1.0, 1.0, 0.5, 0.25])


def test_multilevel_aniso_pair_example():
    grid = multilevel_coherence("had2_adhw", r=3).values
    # 1-D levels (t1, t2) = (1, 2) sit at pair position (2, 3)
    t = pair_to_index(2, 3, 4, 4) - 1
    assert grid[t, t] == 0.5


def test_multilevel_off_diagonal_zero():
    for tag, rmax in ALL_SYSTEMS:
        grid = multilevel_coherence(tag, r=rmax).values
        off = grid[~np.eye(grid.shape[0], dtype=bool)]
        assert np.all(off == 0.0)


@pytest.mark.parametrize("tag,rmax", ALL_SYSTEMS)
def test_multilevel_closed_equals_brute_bitwise(tag, rmax):
    for r in range(1, rmax + 1):
        closed = multilevel_coherence(tag, "closed", r=r).values
        brute = multilevel_coherence(tag, "brute", r=r).values
        assert np.array_equal(closed, brute)


def test_multilevel_coherence_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        multilevel_coherence("had_dhw_1d", mode="x", r=3)


# ---------------------------------------------------------------------------
# relative sparsity
# ---------------------------------------------------------------------------

def test_relative_sparsity_bound_is_k():
    out = relative_sparsity("had_dhw_1d", [1, 1, 2, 4], mode="bound", r=3)
    assert np.array_equal(out, [1.0, 1.0, 2.0, 4.0])
    assert out[3] == 4.0
    single = relative_sparsity("had_dhw_1d", [1, 0, 0, 0], mode="bound", r=3)
    assert single[0] == 1.0


def test_relative_sparsity_search_attains_bound():
    for tag, r in [("had_dhw_1d", 3), ("had2_idhw", 2), ("had2_adhw", 2)]:
        part = build_levels({"had_dhw_1d": "dyadic1d", "had2_idhw": "iso2d",
                             "had2_adhw": "aniso2d"}[tag], r)
        k = np.minimum(part.sizes, 2)
        bound = relative_sparsity(tag, k, mode="bound", r=r)
        search = relative_sparsity(tag, k, mode="search", trials=16, seed=3, r=r)
        assert np.all(search <= bound + 1e-12)
        np.testing.assert_allclose(search, bound, rtol=0, atol=1e-9)


def test_relative_sparsity_validation():
    with pytest.raises(ValueError):
        relative_sparsity("had_dhw_1d", [1, 1, 3, 4], r=3)  # level 2 holds 2
    with pytest.raises(ValueError):
        relative_sparsity("had_dhw_1d", [1, 1], r=3)
    with pytest.raises(ValueError):
        relative_sparsity("had_dhw_1d", [1, 1, 2, 4], mode="mid", r=3)


def test_relative_sparsity_checks_its_seed():
    # the package's one seed check names the seed; a valid seed keeps the
    # draws of np.random.SeedSequence(seed)
    for seed in (-1, True, 1.5, "3"):
        with pytest.raises(ValueError, match="seed"):
            relative_sparsity("had_dhw_1d", [1, 1, 1, 1], mode="search",
                              trials=4, seed=seed, r=3)
    got, want = (relative_sparsity("had2_adhw", [1, 1, 1, 1, 1, 1, 1, 1, 1],
                                   mode="search", trials=4, seed=seed, r=2)
                 for seed in (5, np.random.SeedSequence(5)))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

def test_structure_1d_r3():
    report = structure_check("had_dhw_1d", r=3)
    assert report.max_off_diagonal == 0.0
    assert report.max_diagonal_deviation == 0.0
    u = system_matrix("had_dhw_1d", r=3)
    part = build_levels("dyadic1d", 3)
    expected_mag = [1.0, 1.0, pow2_half(-1), 0.5]
    for t, lev in enumerate(part.levels):
        block = u[np.ix_(lev - 1, lev - 1)]
        assert set(np.abs(block).ravel()) == {expected_mag[t]}


def test_structure_iso_t2_block_is_i3_kron_hadamard():
    u = system_matrix("had2_idhw", r=2)
    lev = build_levels("iso2d", 2).levels[2]
    block = u[np.ix_(lev - 1, lev - 1)]
    assert np.array_equal(block, np.kron(np.eye(3), hadamard_kron_oracle(1, 1)))


def test_structure_aniso_r1_blocks():
    u = system_matrix("had2_adhw", r=1)
    assert u.shape == (4, 4)
    assert set(np.abs(u).ravel()) <= {0.0, 1.0}
    report = structure_check("had2_adhw", r=1)
    assert report.max_off_diagonal == 0.0
    assert report.max_diagonal_deviation == 0.0


@pytest.mark.parametrize("tag,rmax", [("had_dhw_1d", 8), ("had2_idhw", 3),
                                      ("had2_adhw", 3)])
def test_structure_residuals_zero(tag, rmax):
    for r in range(1, rmax + 1):
        report = structure_check(tag, r=r)
        assert report.max_off_diagonal == 0.0
        assert report.max_diagonal_deviation == 0.0


def test_system_matrix_is_orthonormal():
    for tag, r in [("had_dhw_1d", 5), ("had2_idhw", 2), ("had2_adhw", 2)]:
        u = system_matrix(tag, r=r)
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[0]))) <= 1e-12


def test_system_matrix_dense_caps():
    for tag, r in [("had_dhw_1d", 11), ("had2_idhw", 7), ("had2_adhw", 7)]:
        with pytest.raises(ValueError, match="capped at r <="):
            system_matrix(tag, r=r)


def test_values_squared_of_any_values():
    values = np.array([math.sqrt(2.0), math.sqrt(0.5) / 32, 0.25, 0.0, 3.0,
                       0.7, -1.5])
    profile = CoherenceProfile(SystemKind("had_dhw_1d", 2), "closed", values)
    assert profile.values_squared.tolist() == [2.0, 2.0 ** -11, 2.0 ** -4,
                                               0.0, 9.0, 0.7 * 0.7, 2.25]


def test_system_kind_properties():
    s = SystemKind("had2_idhw", 3)
    assert s.is_2d and s.side == 8 and s.n_total == 64
    assert s.partition_kind == "iso2d"
    assert not SystemKind("had_dhw_1d", 3).is_2d


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
def test_level_table_tiles_the_partition(tag):
    # level t spans count blocks of prod(shape) entries, in list order
    for r in range(1, 5):
        system = SystemKind(tag, r)
        sizes = system.partition().sizes
        table = system.level_table
        assert [count * math.prod(shape) for _, count, shape in table] \
            == sizes.tolist()
        assert [offset for offset, _, _ in table] \
            == (np.cumsum(sizes) - sizes).tolist()


@st.composite
def _system_and_vectors(draw):
    tag = draw(st.sampled_from(SYSTEM_TAGS))
    system = SystemKind(tag, draw(st.integers(1, 8 if tag == "had_dhw_1d" else 4)))
    column = draw(st.integers(0, system.n_total - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return system, column, rng.standard_normal((3, system.n_total))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_system_and_vectors())
def test_system_methods_apply_u_and_its_adjoint(case):
    system, column, (s, q, x) = case
    u = system_matrix(system)
    unit = np.zeros(system.n_total)
    unit[column] = 1.0
    np.testing.assert_allclose(system.spectrum(system.synthesis(unit)),
                               u[:, column], rtol=0, atol=1e-14)
    us = system.spectrum(system.synthesis(s))
    utq = system.coefficients(system.signal(q))
    np.testing.assert_allclose(us, u @ s, rtol=0, atol=1e-12)
    assert math.isclose(float(us @ q), float(s @ utq), rel_tol=1e-12,
                        abs_tol=1e-12)
    if system.is_2d:
        x = x.reshape(system.side, system.side, order="F")
    for there, back in ((system.spectrum, system.signal),
                        (system.coefficients, system.synthesis)):
        flat = there(x)
        assert flat.shape == (system.n_total,)
        np.testing.assert_allclose(back(flat), x, rtol=0, atol=1e-12)
        assert back(flat).shape == x.shape
    # a leading batch axis: each row comes out bit for bit as it would alone
    batches = [np.stack([s, q, x.reshape(-1, order="F")])]
    if system.is_2d:
        batches.append(batches[0].reshape(3, system.side, system.side))
    for batch in batches:
        for method in (system.spectrum, system.signal, system.coefficients,
                       system.synthesis):
            rows = method(batch)
            assert rows.shape[0] == 3
            for row, alone in zip(rows, batch):
                single = method(alone)
                assert row.shape == single.shape
                assert row.tobytes() == np.ascontiguousarray(single).tobytes()


def _assert_level_op(system, column, s, q, x, u=None):
    """level_op against U between the two orders, both ways, as U is
    symmetric: the dense matrix ``u`` with rows in spectral order and
    columns in level order, or, without it, the flat-order compositions,
    which are exact on unit vectors."""
    order, spectral = system.level_order, system.spectral_order
    for perm in (order, spectral):
        assert not perm.flags.writeable
        assert np.array_equal(np.sort(perm), np.arange(system.n_total))
    # the flat-order compositions, permuted
    compositions = (
        (order, spectral, lambda v: system.spectrum(system.synthesis(v))),
        (spectral, order, lambda v: system.coefficients(system.signal(v))))

    def composed(adjoint, v):
        into, back, compose = compositions[adjoint]
        flat = np.empty(system.n_total)
        flat[into] = v
        return compose(flat)[back]

    unit = np.zeros(system.n_total)
    unit[column] = 1.0
    for adjoint in (False, True):
        want = (composed(adjoint, unit) if u is None
                else u[column] if adjoint else u[:, column])
        np.testing.assert_allclose(system.level_op(unit), want, rtol=0,
                                   atol=1e-15)
    # the compositions round differently: close, not bit for bit
    for adjoint in (False, True):
        np.testing.assert_allclose(system.level_op(s), composed(adjoint, s),
                                   rtol=0, atol=1e-12)
    # symmetric between the two orders: <U s, q> = <s, U q>
    assert math.isclose(float(system.level_op(s) @ q),
                        float(s @ system.level_op(q)),
                        rel_tol=1e-12, abs_tol=1e-12)
    # out= may be the input; each row of a batch is bit for bit its own
    batch = np.stack([s, q, x])
    rows = system.level_op(batch)
    for row, alone in zip(rows, batch):
        assert row.tobytes() == system.level_op(alone).tobytes()
    inplace = batch.copy()
    assert system.level_op(inplace, out=inplace) is inplace
    assert inplace.tobytes() == rows.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_system_and_vectors())
def test_level_op_is_u_in_level_order(case):
    system, column, (s, q, x) = case
    u = system_matrix(system)[np.ix_(system.spectral_order,
                                     system.level_order)]
    _assert_level_op(system, column, s, q, x, u)


@pytest.mark.parametrize("tag,r,dense", [
    pytest.param("had2_idhw", 5, True, id="5"),
    pytest.param("had2_idhw", 8, False, id="8"),
    pytest.param("had_dhw_1d", 10, True, id="dhw-10"),
    pytest.param("had_dhw_1d", 12, False, id="dhw-12"),
    pytest.param("had2_adhw", 5, True, id="adhw-5"),
    pytest.param("had2_adhw", 7, False, id="adhw-7")])
def test_level_op_factor_steps(tag, r, dense):
    # the largest levels take two to four factor steps through the kept
    # buffers (idhw levels 5 to 8, 1-D blocks of 2^9 to 2^11 entries, adhw
    # blocks of up to 2^12); past the dense U's size cap the compositions
    # are the reference
    system = SystemKind(tag, r)
    rng = np.random.default_rng(r)
    u = (system_matrix(system)[np.ix_(system.spectral_order,
                                      system.level_order)]
         if dense else None)
    for column in (0, 300, system.n_total - 1):
        _assert_level_op(system, column,
                         *rng.standard_normal((3, system.n_total)), u)


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
@pytest.mark.parametrize("r", range(1, 6))
def test_level_op_head_spans_whole_levels(tag, r):
    # the dense head, the first span, is U on the longest prefix of whole
    # levels within _HEAD_MAX entries, all of U when N <= _HEAD_MAX
    system = SystemKind(tag, r)
    (lo, hi, [(head, pre, a, rest)]), *_ = system._level_plan
    ends = [offset + count * math.prod(shape)
            for offset, count, shape in system.level_table]
    size = max(end for end in ends if end <= _HEAD_MAX)
    assert (lo, hi, pre, a, rest) == (0, size, 1, size, 1)
    assert head.shape == (size, size) and not head.flags.writeable
    assert system.n_total > _HEAD_MAX or size == system.n_total
    assert np.array_equal(head, head.T)
    np.testing.assert_allclose(head @ head, np.eye(size), rtol=0, atol=1e-15)


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
@pytest.mark.parametrize("r", range(1, 9))
def test_level_plan_tiles_level_order(tag, r):
    # the spans tile [0, N) in order, the head first, and every factor step
    # of a span covers its whole length
    system = SystemKind(tag, r)
    plan = system._level_plan
    ends = [0] + [offset + count * math.prod(shape)
                  for offset, count, shape in system.level_table]
    head_end = max(end for end in ends if end <= _HEAD_MAX)
    assert [lo for lo, *_ in plan] == [0] + [hi for _, hi, _ in plan[:-1]]
    assert plan[-1][1] == system.n_total
    assert plan[0][1] == head_end and len(plan[0][2]) == 1
    # each later span is one whole level
    assert [hi for _, hi, _ in plan[1:]] == [e for e in ends if e > head_end]
    for lo, hi, steps in plan:
        for p, pre, a, rest in steps:
            assert p.shape == (a, a) and pre * a * rest == hi - lo


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
@pytest.mark.parametrize("r", range(1, 9))
def test_bound_level_op_keeps_its_views(tag, r):
    # a binding runs any number of times with level_op's bits, in place
    # too, and pairs bound together, which share their work buffers, give
    # the bits each pair gives bound alone
    system = SystemKind(tag, r)
    rng = np.random.default_rng(r)
    for rows in (1, 3, 20):
        v = rng.standard_normal((rows, system.n_total))
        want = system.level_op(v).tobytes()
        out, inplace = np.empty_like(v), v.copy()
        calls, = system.bind_level_op((v, out))
        calls_inplace, = system.bind_level_op((inplace, inplace))
        _matmuls(calls)
        assert out.tobytes() == want
        out.fill(np.nan)
        _matmuls(calls)
        _matmuls(calls_inplace)
        assert out.tobytes() == want and inplace.tobytes() == want
        # each row of the batch is bit for bit the row alone
        for row, alone in zip(out, v):
            assert row.tobytes() == system.level_op(alone).tobytes()
        # a chain bound as the solver binds it, after a pair of fewer rows
        first, s, g = np.empty_like(v[:1]), np.empty_like(v), np.empty_like(v)
        pairs = ((v[:1], first), (v, s), (s, g), (g, g))
        for calls in system.bind_level_op(*pairs):
            _matmuls(calls)
        together = [a.tobytes() for a in (first, s, g)]
        for pair in pairs:
            calls, = system.bind_level_op(pair)
            _matmuls(calls)
        assert [a.tobytes() for a in (first, s, g)] == together
        assert together[:2] == [want[:first.nbytes], want]


def test_level_op_rejects_other_layouts():
    system = SystemKind("had2_idhw", 2)
    for shape in ((4, 4), (2, 3, 16), (15,)):
        with pytest.raises(ValueError, match="level order"):
            system.level_op(np.zeros(shape))
