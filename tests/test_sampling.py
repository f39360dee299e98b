import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadhaar.coherence import SystemKind
from hadhaar.indexing import PARTITION_KINDS, build_levels
from hadhaar.recovery import me_reconstruct
from hadhaar.sampling import (SampleSet, SamplingPlan, _draw_samples,
                              draw_sample, mds_allocate, measure,
                              measure_adjoint, rng_stream, uds_pmf, vds_pmf)
from hadhaar.transforms import fwht, vec


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_uds_pmf_uniform():
    plan = uds_pmf("had_dhw_1d", r=4)
    assert plan.strategy == "uds"
    assert np.array_equal(plan.pmf, np.full(16, 1.0 / 16))


def test_vds_pmf_n8_exact():
    plan = vds_pmf("had_dhw_1d", r=3)
    assert np.array_equal(plan.pmf, [0.25, 0.25, 0.125, 0.125,
                                     0.0625, 0.0625, 0.0625, 0.0625])


def test_vds_pmf_properties():
    for tag, r in [("had_dhw_1d", 6), ("had2_idhw", 3), ("had2_adhw", 3)]:
        pmf = vds_pmf(tag, r=r).pmf
        assert abs(float(pmf.sum()) - 1.0) <= 1e-12
        assert np.all(pmf > 0)
    pmf = vds_pmf("had_dhw_1d", r=6).pmf
    assert np.all(np.diff(pmf) <= 0)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan("lds", 8, pmf=np.full(8, 0.125))
    with pytest.raises(ValueError):
        SamplingPlan("uds", 8, pmf=np.full(4, 0.25))
    with pytest.raises(ValueError):
        SamplingPlan("uds", 4, pmf=np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        SamplingPlan("mds", 8, m=np.array([1, 1]))
    with pytest.raises(ValueError, match=r"must lie in \[0, \|level\|\]"):
        SamplingPlan("mds", 8, m=np.array([2, 0, 0, 0]),
                     partition=build_levels("dyadic1d", 3))


# ---------------------------------------------------------------------------
# mds allocation
# ---------------------------------------------------------------------------

def test_mds_allocate_proportional():
    part = build_levels("dyadic1d", 4)
    plan = mds_allocate([1, 1, 1, 2, 4], 9, part)
    assert np.array_equal(plan.m, [1, 1, 1, 2, 4])


def test_mds_allocate_capacity_redistribution():
    part = build_levels("dyadic1d", 4)
    plan = mds_allocate([1, 1, 1, 2, 4], 12, part)
    assert np.array_equal(plan.m, [1, 1, 1, 3, 6])


def test_mds_allocate_spillover_to_zero_levels():
    part = build_levels("dyadic1d", 4)
    plan = mds_allocate([1, 0, 0, 0, 0], 2, part)
    assert np.array_equal(plan.m, [1, 1, 0, 0, 0])


def test_mds_allocate_full_budget():
    part = build_levels("dyadic1d", 5)
    plan = mds_allocate(part.sizes, part.n_total, part)
    assert np.array_equal(plan.m, part.sizes)


def test_mds_allocate_validation():
    part = build_levels("dyadic1d", 3)
    with pytest.raises(ValueError):
        mds_allocate([1, 2, 2, 4], 4, part)  # level 1 holds one index
    with pytest.raises(ValueError):
        mds_allocate([0, 0, 0, 0], 2, part)
    with pytest.raises(ValueError):
        mds_allocate([1, 1, 2, 4], 9, part)  # budget exceeds n_total
    with pytest.raises(ValueError):
        mds_allocate([1, 1], 2, part)
    with pytest.raises(ValueError, match="must be a LevelPartition"):
        mds_allocate([1, 1, 2, 4], 4, "dyadic1d")
    # a budget that is not an integer is refused, not truncated
    for m_total in (7.9, 4.0, True, "4", None):
        with pytest.raises(ValueError, match="m_total must be an integer"):
            mds_allocate([1, 1, 2, 4], m_total, part)
    assert mds_allocate([1, 1, 2, 4], np.int64(4), part).m.sum() == 4


# ---------------------------------------------------------------------------
# drawing
# ---------------------------------------------------------------------------

def test_draw_deterministic():
    plan = vds_pmf("had_dhw_1d", r=5)
    for replace in (True, False):
        a = draw_sample(plan, 12, 7, replace=replace)
        b = draw_sample(plan, 12, 7, replace=replace)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.weights, b.weights)
    a = draw_sample(plan, 12, 7)
    c = draw_sample(plan, 12, 8)
    assert not np.array_equal(a.omega, c.omega)


def test_draw_ranges_and_weights():
    plan = vds_pmf("had_dhw_1d", r=3)
    s = draw_sample(plan, 64, 21)
    assert s.omega.min() >= 1 and s.omega.max() <= 8
    assert np.array_equal(s.weights, 1.0 / np.sqrt(plan.pmf[s.omega - 1]))
    assert s.weights[s.omega <= 2][0] == 2.0
    assert s.strategy == "vds" and s.n_measurements == 64


def test_draw_without_replacement_distinct():
    plan = vds_pmf("had_dhw_1d", r=4)
    s = draw_sample(plan, 16, 5, replace=False)
    assert sorted(s.omega.tolist()) == list(range(1, 17))
    with pytest.raises(ValueError):
        draw_sample(plan, 17, 5, replace=False)


def test_draw_without_replacement_first_seen_order():
    plan = uds_pmf("had_dhw_1d", r=4)
    full = draw_sample(plan, 200, 13).omega
    expect = []
    for idx in full:
        if idx not in expect:
            expect.append(int(idx))
        if len(expect) == 10:
            break
    s = draw_sample(plan, 10, 13, replace=False)
    assert s.omega.tolist() == expect


def test_draw_degenerate_pmf_duplicates():
    pmf = np.zeros(8)
    pmf[0] = 1.0
    plan = SamplingPlan("vds", 8, pmf=pmf)
    s = draw_sample(plan, 3, 1)
    assert s.omega.tolist() == [1, 1, 1]
    assert np.array_equal(s.weights, np.ones(3))
    with pytest.raises(ValueError):
        draw_sample(plan, 2, 1, replace=False)


def test_draw_mds_covers_levels():
    part = build_levels("dyadic1d", 4)
    plan = mds_allocate([1, 1, 2, 3, 5], 12, part)
    s = draw_sample(plan, 12, 3)
    assert s.n_measurements == 12
    assert np.array_equal(s.weights, np.ones(12))
    pos = 0
    for lev, m_t in zip(part.levels, plan.m):
        chunk = s.omega[pos:pos + int(m_t)]
        pos += int(m_t)
        assert np.all(np.isin(chunk, lev))
        assert np.unique(chunk).size == chunk.size
    with pytest.raises(ValueError):
        draw_sample(plan, 11, 3)


def test_draw_mds_full_is_permutation():
    part = build_levels("dyadic1d", 4)
    plan = mds_allocate(part.sizes, 16, part)
    s = draw_sample(plan, 16, 0)
    assert sorted(s.omega.tolist()) == list(range(1, 17))


def test_draw_empirical_frequencies():
    plan = vds_pmf("had_dhw_1d", r=3)
    m = 8192
    s = draw_sample(plan, m, 17)
    counts = np.bincount(s.omega - 1, minlength=8)
    for j in range(8):
        p = plan.pmf[j]
        sigma = np.sqrt(m * p * (1.0 - p))
        assert abs(counts[j] - m * p) <= 3.0 * sigma


def _draw_distinct(rng, pool, count):
    """The reference mds draw of one level: a partial Fisher-Yates draw of
    ``count`` distinct entries of ``pool``, its swap targets from one
    ``integers`` call."""
    pool = array.array("q", np.asarray(pool, dtype=np.int64).tobytes())
    targets = rng.integers(np.arange(count), len(pool))
    for i, j in enumerate(targets.tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return np.frombuffer(pool, dtype=np.int64, count=count).copy()


def _draw_reference(plan, m_total, ss, replace=True):
    """One sample drawn trial by trial, as the reference for the batched
    draw: (omega, weights, seed string, generator after the draw).  uds/vds
    look each of its own uniforms up in the CDF, drawing m_total at a time
    until there are m_total (distinct) indices; mds draws level by level."""
    rng = np.random.Generator(np.random.Philox(ss))
    if plan.strategy == "mds":
        omega = np.concatenate([
            _draw_distinct(rng, lev, int(m_t))
            for lev, m_t in zip(plan.partition.levels, plan.m) if m_t > 0])
        weights = np.ones(m_total)
    else:
        cdf = np.cumsum(plan.pmf)
        omega = np.empty(0, dtype=np.int64)
        while (omega if replace else np.unique(omega)).size < m_total:
            batch = np.searchsorted(cdf, rng.random(m_total), side="right") + 1
            omega = np.concatenate((omega, np.clip(batch, 1, plan.n_total)))
        if not replace:
            first = np.unique(omega, return_index=True)[1]
            omega = omega[np.sort(first)[:m_total]]
        weights = 1.0 / np.sqrt(plan.pmf[omega - 1])
    key = ".".join(str(k) for k in ss.spawn_key)
    return omega, weights, f"{ss.entropy}[{key}]" if key else str(ss.entropy), rng


def _plans(tag, r, m):
    system = SystemKind(tag, r)
    partition = system.partition()
    k = np.minimum(partition.sizes, 1 + np.arange(partition.n_levels) ** 2)
    return (uds_pmf(system), vds_pmf(system),
            mds_allocate(k, m, partition),
            mds_allocate(partition.sizes, system.n_total, partition))


@pytest.mark.parametrize("tag,r,m", [("had_dhw_1d", 9, 102),
                                     ("had2_idhw", 5, 256),
                                     ("had2_adhw", 4, 61)])
def test_batched_draws_equal_the_draws_one_at_a_time(tag, r, m, monkeypatch):
    # each row of a batch is the trial-by-trial draw of its own stream:
    # indices, weights and seed string, and the stream is left where the
    # reference leaves it
    made, generator = [], np.random.Generator

    def spy(bit_generator):
        made.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", spy)
    seeds = [np.random.SeedSequence(41, spawn_key=(1, 0, t))
             for t in range(5)] + [np.random.SeedSequence(3)]
    for plan in _plans(tag, r, m):
        count = int(plan.m.sum()) if plan.strategy == "mds" else m
        for replace in (True, False):
            made.clear()
            got = _draw_samples(plan, count, seeds, replace)
            assert len(made) == len(seeds)
            for sample, ss, bit_generator in zip(got, seeds, list(made)):
                omega, weights, seed, rng = _draw_reference(plan, count, ss,
                                                            replace)
                assert sample.omega.dtype == np.int64
                assert np.array_equal(sample.omega, omega)
                assert np.array_equal(sample.weights, weights)
                assert sample.seed == seed and sample.strategy == plan.strategy
                assert repr(bit_generator.state) == repr(rng.bit_generator.state)
                alone = draw_sample(plan, count, ss, replace)
                assert np.array_equal(alone.omega, omega)
                assert alone.seed == seed


def _draw_distinct_scalar(rng, pool, count):
    """The partial Fisher-Yates draw one ``integers`` call at a time."""
    pool = np.array(pool, dtype=np.int64)
    for i in range(count):
        j = int(rng.integers(i, pool.size))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


@pytest.mark.parametrize("size,count", [(2, 1), (5, 5), (37, 20),
                                        (4096, 4000), (70000, 40000)])
def test_draw_distinct_matches_scalar_loop(size, count):
    pool = np.arange(1, size + 1, dtype=np.int64) * 3
    for seed in range(3):
        fast = np.random.Generator(np.random.Philox(seed))
        slow = np.random.Generator(np.random.Philox(seed))
        got = _draw_distinct(fast, pool, count)
        assert got.dtype == np.int64
        assert np.array_equal(got, _draw_distinct_scalar(slow, pool, count))
        # the stream continues where the scalar loop leaves it
        assert fast.integers(0, 1 << 40) == slow.integers(0, 1 << 40)
        assert fast.random() == slow.random()


def test_sample_set_validation():
    omega = np.array([3, 1, 3], dtype=np.int64)
    SampleSet(omega, np.ones(3), "uds", "0")
    SampleSet(np.array([], dtype=np.int64), np.array([]), "mds", "0")
    for args, match in (
            ((omega, np.ones(3), "xyz"), "strategy 'xyz' is not one of"),
            ((omega, np.array([1.0, np.nan, 1.0]), "uds"),
             "weight nan is not finite and positive"),
            ((omega, np.array([1.0, -1.0, 1.0]), "vds"),
             "weight -1.0 is not finite and positive"),
            ((omega, np.array([1.0, np.inf, 1.0]), "vds"), "weight inf"),
            ((omega, np.ones(2), "uds"), "one weight per index"),
            ((np.array([0, 1, 2]), np.ones(3), "uds"), "below 1"),
            ((omega.reshape(3, 1), np.ones((3, 1)), "uds"), "1-D integer"),
            ((omega.astype(float), np.ones(3), "uds"), "1-D integer")):
        with pytest.raises(ValueError, match=match):
            SampleSet(*args, "0")


def test_draw_validation():
    plan = uds_pmf("had_dhw_1d", r=3)
    with pytest.raises(ValueError):
        draw_sample(plan, 0, 1)
    with pytest.raises(ValueError):
        draw_sample("plan", 4, 1)
    # a count that is not an integer is refused, not truncated: 10.9 drew
    # 10 indices, True 1 and "12" 12
    for m_total in (10.9, 12.0, True, "12", None):
        with pytest.raises(ValueError, match="m_total must be an integer"):
            draw_sample(plan, m_total, 1)
    assert draw_sample(plan, np.int32(12), 1).n_measurements == 12


def test_rng_stream_split():
    a = rng_stream(5, 0).random(4)
    b = rng_stream(5, 1).random(4)
    c = rng_stream(5, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_seed_is_a_non_negative_integer():
    # a master seed without a key is the seed sequence's entropy, and a
    # SeedSequence draws as itself
    plan = uds_pmf("had_dhw_1d", r=3)
    want = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=5))).random(4)
    assert np.array_equal(rng_stream(np.int64(5)).random(4), want)
    ss = np.random.SeedSequence(entropy=5, spawn_key=(2,))
    sample = draw_sample(plan, 4, ss)
    assert sample.seed == "5[2]"
    assert np.array_equal(sample.omega, draw_sample(plan, 4, ss).omega)
    for seed in (-1, True, 1.0, "1", None):
        for draw in (lambda: rng_stream(seed), lambda: rng_stream(seed, 0),
                     lambda: draw_sample(plan, 4, seed)):
            with pytest.raises(ValueError,
                               match="seed must be a non-negative integer"):
                draw()


# ---------------------------------------------------------------------------
# measurement operator
# ---------------------------------------------------------------------------

def test_measure_single_row():
    system = SystemKind("had_dhw_1d", 2)
    plan = uds_pmf(system)
    sample = draw_sample(plan, 1, 2)
    sample = type(sample)(np.array([1]), np.array([1.0]), "uds", "0")
    y = measure(system, sample, np.ones(4))
    assert np.array_equal(y, [2.0])


def test_measure_identity_enumeration():
    system = SystemKind("had_dhw_1d", 3)
    sample = _manual_sample(np.arange(1, 9))
    x = rng_stream(4, 0).standard_normal(8)
    assert np.array_equal(measure(system, sample, x), fwht(x))


def test_measure_2d_matches_vec():
    system = SystemKind("had2_idhw", 2)
    sample = _manual_sample(np.array([3, 1, 16, 7, 7]))
    img = rng_stream(6, 0).standard_normal((4, 4))
    y = measure(system, sample, img)
    assert np.array_equal(y, vec(fwht(img))[sample.omega - 1])
    assert np.array_equal(measure(system, sample, vec(img)), y)


@pytest.mark.parametrize("tag", ["had_dhw_1d", "had2_idhw", "had2_adhw"])
def test_measure_adjoint_identity(tag):
    system = SystemKind(tag, 4 if tag == "had_dhw_1d" else 2)
    sample = _manual_sample(np.array([2, 2, 5, 16, 9, 2]))
    rng = rng_stream(8, 0)
    x = rng.standard_normal(16)
    y = rng.standard_normal(6)
    lhs = float(measure(system, sample, x) @ y)
    rhs = float(x @ vec(measure_adjoint(system, sample, y)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_measure_of_adjoint_on_distinct_rows():
    system = SystemKind("had_dhw_1d", 4)
    sample = _manual_sample(np.array([1, 4, 9, 16]))
    y = rng_stream(9, 0).standard_normal(4)
    back = measure(system, sample, measure_adjoint(system, sample, y))
    np.testing.assert_allclose(back, y, rtol=1e-12, atol=1e-15)


def test_measure_validation():
    system = SystemKind("had_dhw_1d", 3)
    sample = _manual_sample(np.array([1, 2]))
    with pytest.raises(ValueError):
        measure(system, sample, np.ones(4))
    with pytest.raises(ValueError):
        measure_adjoint(system, sample, np.ones(3))
    # not a NaN image for NaN or inf measurements, nor zeros for none
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="measurements must be finite"):
            measure_adjoint(system, sample, np.array([1.0, bad]))
    with pytest.raises(ValueError, match="zero measurements"):
        measure_adjoint(system, _manual_sample(np.array([], dtype=np.int64)),
                        np.array([]))
    with pytest.raises(ValueError):
        measure(SystemKind("had2_idhw", 2), sample, np.ones((2, 8)))
    # an index past N is named, not an IndexError or a shape error
    beyond = _manual_sample(np.array([1, 9]))
    for call, arg in ((measure, np.ones(8)), (measure_adjoint, np.ones(2)),
                      (me_reconstruct, np.ones(2))):
        with pytest.raises(ValueError, match=r"sample index 9 outside "
                           r"\[1, 8\] for had_dhw_1d with r = 3"):
            call(system, beyond, arg)


def _manual_sample(omega):
    from hadhaar.sampling import SampleSet
    return SampleSet(np.asarray(omega, dtype=np.int64),
                     np.ones(len(omega)), "uds", "0")


@st.composite
def _allocation_case(draw):
    kind = draw(st.sampled_from(PARTITION_KINDS))
    r = draw(st.integers(1, 7 if kind == "dyadic1d" else 3))
    partition = build_levels(kind, r)
    k = np.array([draw(st.integers(0, int(size))) for size in partition.sizes])
    j = draw(st.integers(0, k.size - 1))
    k[j] = max(k[j], 1)                        # some level has k_t > 0
    return partition, k, draw(st.integers(0, partition.n_total))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_allocation_case())
def test_mds_allocate_invariants(case):
    partition, k, m_total = case
    m, sizes = mds_allocate(k, m_total, partition).m, partition.sizes
    assert int(m.sum()) == m_total
    assert np.all((m >= 0) & (m <= sizes))
    # a k_t = 0 level is measured only once every k_t > 0 level is full
    if np.any(m[k == 0] > 0):
        assert np.array_equal(m[k > 0], sizes[k > 0])
