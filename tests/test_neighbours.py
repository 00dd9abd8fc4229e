"""Oracles for the geometry's neighbour search and labelling: the cell-list
pair search against an O(N^2) scan and scipy's k-d tree, the components
against breadth-first search, the random-connection edges against a
k-d-tree copy of the same construction, the boundary-connected cells
against scipy's binary propagation, and the density check against hole
cells counted in a k-d tree."""

import itertools
import time
from collections import deque

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

import percohom as ph
from percohom.geometry import (HOLE, MATERIAL, _boundary_connected, _close_pairs,
                               connected_components, min_pairwise_distance)
from percohom.rng import substream


def _brute_pairs(points, radius):
    """Every pair i < j within radius, by scanning all pairs with the squared
    distance summed axis by axis."""
    p = np.asarray(points, dtype=float)
    ii, jj = np.triu_indices(p.shape[0], k=1)
    d2 = 0.0
    for d in range(p.shape[1]):
        d2 = d2 + (p[ii, d] - p[jj, d]) ** 2
    keep = d2 <= (radius * radius if radius > 0 else 0.0)
    return np.column_stack([ii[keep], jj[keep]]).astype(np.int64)


def _kdtree_pairs(points, radius):
    pairs = cKDTree(np.asarray(points, dtype=float)).query_pairs(r=radius, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].reshape(-1, 2).astype(np.int64)


def _assert_pairs(points, radius):
    ours = _close_pairs(points, radius)
    assert ours.dtype == np.int64 and ours.shape[1] == 2
    assert np.array_equal(ours, _brute_pairs(points, radius))
    assert np.array_equal(ours, _kdtree_pairs(points, radius))
    return ours


def _config(points, side=1.0):
    points = np.asarray(points, dtype=float)
    return ph.PointConfiguration(points=points, box=ph.Box.cube(side, points.shape[1]),
                                 intensity=0.0, seed=0)


# ------------------------------------------------------------- pair search

@pytest.mark.parametrize("dim", [2, 3])
def test_close_pairs_match_brute_force_and_kdtree(dim):
    rng = np.random.default_rng(dim)
    for _ in range(40):
        n = int(rng.integers(2, 400))
        side = float(rng.choice([1.0, 7.0, 100.0]))
        points = rng.random((n, dim)) * side
        for radius in (0.03 * side, 0.1 * side, float(rng.random()) * side):
            _assert_pairs(points, radius)


@pytest.mark.parametrize("dim", [2, 3])
def test_close_pairs_keep_coincident_points(dim):
    rng = np.random.default_rng(10 + dim)
    base = rng.random((30, dim))
    points = np.concatenate([base, base[::3], base[:2]])  # repeats and triples
    pairs = _assert_pairs(points, 0.05)
    d2 = np.sum((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2, axis=1)
    # 10 repeats from base[::3], base[0] three times: 10 + 1 + 2 extra pairs
    assert np.count_nonzero(d2 == 0.0) == 13


@pytest.mark.parametrize("dim", [2, 3])
def test_close_pairs_include_lattice_neighbours_exactly_at_radius(dim):
    # a dyadic spacing makes every coordinate and distance exact: the lattice
    # neighbours lie exactly `radius` apart and must all be found
    spacing, m = 0.25, 5
    points = np.array(list(itertools.product(range(m), repeat=dim)), dtype=float) * spacing
    pairs = _assert_pairs(points, spacing)
    assert pairs.shape[0] == dim * (m - 1) * m ** (dim - 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_close_pairs_radius_beyond_the_box_gives_every_pair(dim):
    points = np.random.default_rng(20 + dim).random((60, dim))
    pairs = _assert_pairs(points, 10.0)
    assert pairs.shape[0] == 60 * 59 // 2


def test_close_pairs_of_fewer_than_two_points_are_empty():
    for points in (np.empty((0, 2)), np.empty((0, 3)), [[0.5, 0.5]], [[0.1, 0.2, 0.3]]):
        pairs = _close_pairs(np.asarray(points, dtype=float), 1.0)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64


def test_close_pairs_zero_radius_keeps_only_coincident_pairs():
    # a zero support radius (the all-zero table) must not divide by it
    points = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.7], [0.5, 0.5], [0.2, 0.7], [0.9, 0.1]])
    same = np.full((4, 3), 0.3)
    g = ph.ConnectivityFunction(((0.0, 0.0),))
    assert g.support_radius() == 0.0
    with np.errstate(all="raise"):
        pairs = _close_pairs(points, 0.0)
        assert pairs.tolist() == [[0, 1], [0, 3], [1, 3], [2, 4]]
        assert np.array_equal(pairs, _kdtree_pairs(points, 0.0))
        assert _close_pairs(same, 0.0).shape == (6, 2)  # every point coincides
        assert _close_pairs(points, -1.0).tolist() == pairs.tolist()
        assert ph.build_rcm_edges(_config(points), g, seed=0).count == 0
        cfg = ph.sample_poisson(ph.Box.unit(3), 50.0, 3)
        assert ph.build_rcm_edges(cfg, g, seed=0).count == 0


# --------------------------------------------------------------- components

def _bfs_components(n, edges):
    adjacent = [[] for _ in range(n)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen, groups = [False] * n, []
    for start in range(n):
        if seen[start]:
            continue
        seen[start], queue, group = True, deque([start]), []
        while queue:
            v = queue.popleft()
            group.append(v)
            for w in adjacent[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        groups.append(sorted(group))
    return groups


def _edge_set(i, j):
    i, j = np.asarray(i), np.asarray(j)
    e = np.unique(np.column_stack([np.minimum(i, j), np.maximum(i, j)]), axis=0)
    return ph.EdgeSet(edges=e[e[:, 0] < e[:, 1]].reshape(-1, 2))


def test_components_match_bfs_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 2 * n))  # from many isolated points to one giant part
        edges = _edge_set(rng.integers(0, n, m), rng.integers(0, n, m))
        cfg = _config(rng.random((n, 2)))
        assert connected_components(cfg, edges) == _bfs_components(n, edges.edges.tolist())


def test_components_with_isolated_points():
    cfg = _config(np.random.default_rng(6).random((12, 2)))
    edges = ph.EdgeSet(edges=np.array([[2, 9], [4, 9], [5, 11]]))
    assert connected_components(cfg, edges) == [[0], [1], [2, 4, 9], [3], [5, 11], [6],
                                                [7], [8], [10]]
    none = ph.EdgeSet(edges=np.empty((0, 2)))
    assert connected_components(cfg, none) == [[k] for k in range(12)]


def test_components_of_a_long_path_are_fast():
    # a 10^4-node path visited in a random order: label propagation one hop
    # per round would need 10^4 rounds
    n = 10_000
    order = np.random.default_rng(7).permutation(n)
    edges = _edge_set(order[:-1], order[1:])
    cfg = _config(np.random.default_rng(8).random((n, 2)))
    start = time.perf_counter()
    groups = connected_components(cfg, edges)
    elapsed = time.perf_counter() - start
    assert groups == [list(range(n))]
    assert elapsed < 2.0, elapsed


def _propagated(cells):
    border = np.ones(cells.shape, dtype=bool)
    border[(slice(1, -1),) * cells.ndim] = False
    return ndimage.binary_propagation(cells & border, mask=cells)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_connected_cells_match_binary_propagation(dim):
    rng = np.random.default_rng(40 + dim)
    most = 40 if dim == 2 else 14
    for trial in range(150):
        shape = tuple(int(m) for m in rng.integers(1, most, size=dim))
        if trial % 5 == 0:  # a window one cell thick
            shape = shape[:trial % dim] + (1,) + shape[trial % dim + 1:]
        cells = rng.random(shape) < rng.random()
        assert np.array_equal(_boundary_connected(cells), _propagated(cells)), shape
    for shape in [(1, 1), (1, 7), (9, 1), (6, 6), (1, 1, 1), (1, 5, 4), (5, 5, 5)]:
        for fill in (False, True):
            cells = np.full(shape, fill)
            assert np.array_equal(_boundary_connected(cells), _propagated(cells))


# ------------------------------------------------------------ density check

def _kdtree_density_extremes(mask, radius, probes, seed):
    """min and max of the density ratios, in the check's arithmetic, with the
    hole cells in a ball counted by a k-d tree over the hole-cell centers."""
    holes = np.argwhere(mask.flags == HOLE)
    centers = np.stack([mask.domain.axis_centers(d, mask.dx, holes[:, d])
                        for d in range(mask.dim)], axis=1)
    rng = substream(seed, "density-probes")
    xs = (np.asarray(mask.domain.lower)
          + rng.random((probes, mask.dim)) * np.asarray(mask.domain.sides))
    counts = cKDTree(centers).query_ball_point(xs, radius, return_length=True)
    cell_vol = mask.dx ** mask.dim
    total = holes.shape[0] * cell_vol
    ratios = counts.astype(float) * cell_vol / (radius ** mask.dim * total)
    return float(ratios.min()), float(ratios.max())


@pytest.mark.parametrize("dim", [2, 3])
def test_density_ratios_match_kdtree_counts(dim):
    rng = np.random.default_rng(50 + dim)
    domain = ph.Box((-0.5, 0.25, 1.0)[:dim], (0.5, 1.25, 2.0)[:dim])
    cells = 40 if dim == 2 else 16
    for trial in range(12):
        flags = np.where(rng.random((cells,) * dim) < rng.uniform(0.05, 0.6), HOLE, MATERIAL)
        mask = ph.PerforatedMask(flags=flags, dx=1.0 / cells, domain=domain)
        for radius in (0.05, 0.2, 0.5, 1.0):
            check = ph.density_ratio_check(mask, radius, probes=20, seed=trial)
            assert (check.min_ratio, check.max_ratio) == _kdtree_density_extremes(
                mask, radius, 20, trial), (trial, radius)


# ----------------------------------------------------------- nearest pair

def _brute_min_distance(points):
    ii, jj = np.triu_indices(points.shape[0], k=1)
    d2 = 0.0
    for d in range(points.shape[1]):
        d2 = d2 + (points[ii, d] - points[jj, d]) ** 2
    return float(np.sqrt(d2.min()))


@pytest.mark.parametrize("dim", [2, 3])
def test_min_distance_tight_cluster_and_far_outlier(dim):
    rng = np.random.default_rng(30 + dim)
    cluster = 0.5 + 1e-6 * rng.random((40, dim))
    points = np.concatenate([cluster, np.full((1, dim), 99.0)])
    cfg = _config(points, side=100.0)
    assert min_pairwise_distance(cfg) == _brute_min_distance(points)
    two = _config(np.array([[1.0] * dim, [98.0] * dim]), side=100.0)  # only a far pair
    assert min_pairwise_distance(two) == _brute_min_distance(two.points)


def test_min_distance_of_coincident_points_is_zero():
    points = np.array([[0.2, 0.3], [0.7, 0.1], [0.2, 0.3], [0.9, 0.9]])
    assert min_pairwise_distance(_config(points)) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_min_distance_matches_kdtree_bit_for_bit(dim):
    for seed in range(20):
        cfg = ph.sample_poisson(ph.Box.cube(5.0, dim), 2.0, seed)
        d, _ = cKDTree(cfg.points).query(cfg.points, k=2)
        assert min_pairwise_distance(cfg) == float(d[:, 1].min())
        assert min_pairwise_distance(cfg) == _brute_min_distance(cfg.points)


# ---------------------------------------------------- random connection model

def _rcm_edges_kdtree(config, g, seed):
    """The random-connection edges as built on a k-d tree: candidate pairs
    within the support, sorted, one Bernoulli draw each in that order."""
    empty = np.empty((0, 2), dtype=np.int64)
    if config.count < 2:
        return empty
    pairs = _kdtree_pairs(config.points, g.support_radius())
    if pairs.size == 0:
        return empty
    d = np.linalg.norm(config.points[pairs[:, 0]] - config.points[pairs[:, 1]], axis=1)
    keep = substream(seed, "rcm-edges").random(pairs.shape[0]) < g.probability(d)
    return pairs[keep]


def test_rcm_edges_with_fractional_probabilities_match_kdtree_copy():
    # 0 < p < 1 consumes one draw per candidate pair: the candidates and
    # their order must be the k-d tree's for the edges to agree
    g = ph.ConnectivityFunction(((0.0, 0.9), (0.4, 0.5), (0.8, 0.2), (1.2, 0.0)))
    for seed in range(50):
        dim = 2 + seed % 2
        cfg = ph.sample_poisson(ph.Box.cube(6.0 if dim == 2 else 4.0, dim), 1.5, seed)
        edges = ph.build_rcm_edges(cfg, g, seed=seed)
        assert edges.count > 0
        assert np.array_equal(edges.edges, _rcm_edges_kdtree(cfg, g, seed)), seed


def test_edge_set_rejects_duplicate_and_unordered_pairs():
    assert ph.EdgeSet(edges=np.array([[1, 2], [0, 2], [0, 1]])).count == 3
    with pytest.raises(ph.InvalidArgumentError):
        ph.EdgeSet(edges=np.array([[0, 1], [2, 3], [0, 1]]))
    with pytest.raises(ph.InvalidArgumentError):
        ph.EdgeSet(edges=np.array([[1, 0]]))
