import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import percohom as ph
from percohom.errors import InvalidArgumentError
from percohom.rng import substream_seed

UNIT2 = ph.Box.unit(2)
UNIT3 = ph.Box.unit(3)


def _count_in(config, region):
    """Number of points in `region` (closed lower faces, open upper faces)."""
    inside = (config.points >= region.lower) & (config.points < region.upper)
    return int(np.count_nonzero(np.all(inside, axis=1)))


def test_zero_intensity_is_empty():
    cfg = ph.sample_poisson(UNIT2, 0.0, seed=1)
    assert cfg.count == 0


def test_determinism_bit_for_bit():
    a = ph.sample_poisson(UNIT3, 3.7, seed=99)
    b = ph.sample_poisson(UNIT3, 3.7, seed=99)
    assert np.array_equal(a.points, b.points)
    c = ph.sample_poisson(UNIT3, 3.7, seed=100)
    assert a.count != c.count or not np.array_equal(a.points, c.points)


def test_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        ph.sample_poisson(UNIT2, float("nan"), seed=0)
    with pytest.raises(InvalidArgumentError):
        ph.sample_poisson(UNIT2, -1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        ph.Box((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        ph.Box((0.0,), (1.0,))  # dimension 1 unsupported


def test_poisson_mean_and_variance():
    # mean = variance = intensity * volume, checked at 3 sigma
    n = 4000
    counts = np.array([ph.sample_poisson(UNIT3, 1.0, substream_seed(5, i)).count
                       for i in range(n)])
    sigma_mean = 1.0 / math.sqrt(n)
    assert abs(counts.mean() - 1.0) <= 3 * sigma_mean
    sigma_var = math.sqrt(3.0 / n)  # central 4th moment of Poisson(1) is 4
    assert abs(counts.var() - 1.0) <= 3 * sigma_var


def test_poisson_zero_probability():
    n = 10**4
    zeros = sum(ph.sample_poisson(UNIT2, 2.0, substream_seed(6, i)).count == 0
                for i in range(n))
    p0 = math.exp(-2.0)
    assert abs(zeros / n - p0) <= 3 * math.sqrt(p0 * (1 - p0) / n)


def test_count_distribution_chi2():
    n = 10**4
    counts = np.array([ph.sample_poisson(UNIT2, 1.5, substream_seed(7, i)).count
                       for i in range(n)])
    kmax = 6
    obs = [(counts == k).sum() for k in range(kmax + 1)]
    obs.append((counts > kmax).sum())
    probs = [math.exp(-1.5) * 1.5**k / math.factorial(k) for k in range(kmax + 1)]
    probs.append(1.0 - sum(probs))
    _, p = stats.chisquare(obs, np.array(probs) * n)
    assert p > 0.001


def test_independence_of_disjoint_counts():
    left = ph.Box((0.0, 0.0), (0.5, 1.0))
    right = ph.Box((0.5, 0.0), (1.0, 1.0))
    pairs = []
    for i in range(10**4):
        cfg = ph.sample_poisson(UNIT2, 2.0, substream_seed(8, i))
        pairs.append((_count_in(cfg, left), _count_in(cfg, right)))
    rho = np.corrcoef(np.asarray(pairs).T)[0, 1]
    assert abs(rho) < 0.05


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_count_additivity_on_halves(seed):
    cfg = ph.sample_poisson(UNIT2, 8.0, seed)
    left = ph.Box((0.0, 0.0), (0.5, 1.0))
    right = ph.Box((0.5, 0.0), (1.0, 1.0))
    assert _count_in(cfg, left) + _count_in(cfg, right) == cfg.count
    assert _count_in(cfg, cfg.box) == cfg.count


def test_grid_shape_ceiling():
    # exactly MAX_CELLS cells is a grid and one row more is not; a dx whose
    # count of cells a side overflows the floats is refused, not rounded
    assert UNIT2.grid_shape(1e-4) == (10000, 10000)
    for box, dx in ((ph.Box((0.0, 0.0), (1.0001, 1.0)), 1e-4), (UNIT3, 5e-324)):
        with pytest.raises(InvalidArgumentError, match="at most 1e\\+08"):
            box.grid_shape(dx)


def test_scale_identity_and_distance_scaling():
    cfg = ph.sample_poisson(UNIT2, 30.0, 17)
    assert np.array_equal(ph.scale(cfg, 1.0).points, cfg.points)
    half = ph.scale(cfg, 0.5)
    d0 = ph.min_pairwise_distance(cfg)
    d1 = ph.min_pairwise_distance(half)
    assert d1 == 0.5 * d0  # exact: scaling by a power of two
    assert half.intensity == cfg.intensity / 0.25
    with pytest.raises(InvalidArgumentError):
        ph.scale(cfg, 0.0)


def test_scaled_count_law_matches_rescaled_intensity():
    # eps-scaled realization vs direct sampling at intensity / eps^n:
    # the count histograms must agree (two-sample chi-square)
    eps = 0.5
    lam = 2.0
    n = 2000
    small_box = ph.Box.cube(0.5, 2)
    scaled = [ph.scale(ph.sample_poisson(UNIT2, lam, substream_seed(9, i)), eps).count
              for i in range(n)]
    direct = [ph.sample_poisson(small_box, lam / eps**2, substream_seed(10, i)).count
              for i in range(n)]
    top = max(max(scaled), max(direct))
    table = np.array([[np.sum(np.array(scaled) == k) for k in range(top + 1)],
                      [np.sum(np.array(direct) == k) for k in range(top + 1)]])
    table = table[:, table.sum(axis=0) > 0]
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.001


def test_empty_cell_frequency_trivial_and_law():
    empty = ph.sample_poisson(ph.Box.cube(8.0, 2), 0.0, 1)
    assert ph.empty_cell_frequency(empty, 1.0) == 1.0
    cfg = ph.sample_poisson(ph.Box.cube(64.0, 2), 1.0, substream_seed(11))
    freq = ph.empty_cell_frequency(cfg, 1.0)
    p0 = math.exp(-1.0)
    assert abs(freq - p0) <= 3 * math.sqrt(p0 * (1 - p0) / 4096)


def test_empty_cell_frequency_decreases_with_intensity():
    box = ph.Box.cube(16.0, 2)
    lo, hi = [], []
    for i in range(100):
        hi.append(ph.empty_cell_frequency(ph.sample_poisson(box, 1.0, substream_seed(12, i)), 1.0))
        lo.append(ph.empty_cell_frequency(ph.sample_poisson(box, 5.0, substream_seed(12, i)), 1.0))
    assert np.mean(lo) < np.mean(hi)
    assert abs(np.mean(lo) - math.exp(-5.0)) < 0.01


def test_empty_cell_frequency_requires_partition():
    cfg = ph.sample_poisson(ph.Box.cube(1.0, 2), 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        ph.empty_cell_frequency(cfg, 0.3)
