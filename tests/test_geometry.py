import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import percohom as ph
from percohom import geometry
from percohom.errors import InvalidArgumentError
from percohom.geometry import HOLE, MATERIAL, PerforatedMask
from percohom.rng import substream, substream_seed

UNIT2 = ph.Box.unit(2)
UNIT3 = ph.Box.unit(3)


def _cell_centers(mask):
    """(N, dim) array of all cell centers of the mask in row-major cell order."""
    grids = np.meshgrid(*[mask.axis_centers(a) for a in range(mask.dim)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _config(points, box=None, dim=2):
    box = box or ph.Box.unit(dim)
    return ph.PointConfiguration(points=np.asarray(points, float), box=box,
                                 intensity=0.0, seed=0)


# --------------------------------------------------------------- connectivity

def test_annulus_band_membership():
    c1, c2 = 0.2, 0.6
    g = ph.ConnectivityFunction.annulus(c1, c2)
    assert g.table == ((0.0, 0.0), (c1, 1.0), (np.nextafter(c2, np.inf), 0.0))
    # pairs on an axis from the origin: the distance is exactly d, so the
    # band's ends are joined and one ulp outside either end is not
    for d, joined in [(0.4, True), (c1, True), (c2, True), (np.nextafter(c1, 0.0), False),
                      (np.nextafter(c2, np.inf), False), (0.9, False)]:
        cfg = _config([[0.0, 0.5], [d, 0.5]])
        assert ph.build_rcm_edges(cfg, g, seed=0).count == int(joined), d
    far = _config([[0.05, 0.05], [0.95, 0.95]])  # distance > c2
    assert ph.build_rcm_edges(far, g, seed=0).count == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_annulus_edges_match_brute_force(dim):
    c1, c2 = 0.3, 0.8
    g = ph.ConnectivityFunction.annulus(c1, c2)
    for seed in range(4):
        cfg = ph.sample_poisson(ph.Box.cube(3.0, dim), 5.0, substream_seed(17, seed))
        ii, jj = np.triu_indices(cfg.count, k=1)
        d = np.linalg.norm(cfg.points[ii] - cfg.points[jj], axis=1)
        keep = (c1 <= d) & (d <= c2)
        edges = ph.build_rcm_edges(cfg, g, seed=seed)
        assert edges.count > 0
        assert np.array_equal(edges.edges, np.column_stack([ii[keep], jj[keep]]))


def test_annulus_edges_seed_independent():
    g = ph.ConnectivityFunction.annulus(0.1, 0.5)
    cfg = ph.sample_poisson(UNIT2, 20.0, 5)
    a = ph.build_rcm_edges(cfg, g, seed=1)
    b = ph.build_rcm_edges(cfg, g, seed=999)
    assert np.array_equal(a.edges, b.edges)


def test_general_connectivity_certain_connection():
    g = ph.ConnectivityFunction(((10.0, 1.0),))  # g == 1 everywhere near
    cfg = ph.sample_poisson(UNIT2, 12.0, 8)
    edges = ph.build_rcm_edges(cfg, g, seed=3)
    n = cfg.count
    assert edges.count == n * (n - 1) // 2


def test_general_connectivity_table_validation():
    with pytest.raises(InvalidArgumentError):
        ph.ConnectivityFunction(((1.0, 1.5),))
    with pytest.raises(InvalidArgumentError):
        ph.ConnectivityFunction(((1.0, 0.5), (1.0, 0.0)))  # distances must increase
    with pytest.raises(InvalidArgumentError):
        ph.ConnectivityFunction(())
    with pytest.raises(InvalidArgumentError):
        ph.ConnectivityFunction.annulus(0.5, 0.2)


def test_general_connectivity_is_seeded_bernoulli():
    g = ph.ConnectivityFunction(((0.5, 0.5), (1.5, 0.0)))
    cfg = ph.sample_poisson(UNIT2, 30.0, 4)
    a = ph.build_rcm_edges(cfg, g, seed=7)
    b = ph.build_rcm_edges(cfg, g, seed=7)
    assert np.array_equal(a.edges, b.edges)
    c = ph.build_rcm_edges(cfg, g, seed=8)
    assert not np.array_equal(a.edges, c.edges)


# --------------------------------------------------------------------- tubes

def contains(obstacles, pts):
    """Oracle membership test for an (M, dim) array of probe points: project
    the stacked points onto each obstacle's segment (a ball's is one point)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    P = obstacles.points.points
    if obstacles.kind == "balls":
        segments = [(p, p, r) for p, r in zip(P, obstacles.ball_radii)]
    else:
        segments = [(P[i], P[j], obstacles.tube_radius) for i, j in obstacles.edges.edges]
    inside = np.zeros(len(pts), dtype=bool)
    for a, b, r in segments:
        ab = b - a
        t = np.zeros(len(pts))
        if ab @ ab > 0:
            t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
        inside |= np.sum((pts - (a + t[:, None] * ab)) ** 2, axis=1) <= r * r
    return inside


def capsule_volume(length, rho):
    return math.pi * rho**2 * length + 4.0 / 3.0 * math.pi * rho**3


def test_capsule_volume_monte_carlo_oracle():
    a, b = np.array([0.3, 0.5, 0.5]), np.array([0.7, 0.5, 0.5])
    rho = 0.1
    cfg = _config([a, b], box=UNIT3, dim=3)
    edges = ph.EdgeSet(edges=np.array([[0, 1]]))
    tubes = ph.build_tubes(cfg, edges, rho)
    rng = substream(123, "capsule-probes")
    probes = rng.random((10**5, 3))
    frac = contains(tubes, probes).mean()
    exact = capsule_volume(0.4, rho)
    assert abs(frac - exact) <= 4 * math.sqrt(exact * (1 - exact) / 10**5)


def test_tube_membership_trivia():
    cfg = _config([[0.2, 0.2], [0.8, 0.8]])
    none = ph.build_tubes(cfg, ph.EdgeSet(edges=np.empty((0, 2))), 0.1)
    mask = ph.rasterize(none, UNIT2, 1.0 / 64)
    assert mask.hole_count == 0  # indicator is 1 everywhere
    one = ph.build_tubes(cfg, ph.EdgeSet(edges=np.array([[0, 1]])), 0.05)
    assert contains(one, np.array([[0.2, 0.2]]))[0]  # endpoint inside


def test_tube_radius_warning():
    cfg = _config([[0.2, 0.5], [0.8, 0.5]])
    edges = ph.EdgeSet(edges=np.array([[0, 1]]))
    with pytest.warns(UserWarning):
        ph.build_tubes(cfg, edges, tube_radius=0.3, max_allowed=0.25)


# --------------------------------------------------------------------- balls

def test_tangent_balls_at_half_fraction():
    cfg = _config([[0.25, 0.5], [0.75, 0.5]])
    obs = ph.build_balls(cfg, 0.5 * ph.min_pairwise_distance(cfg))
    assert np.allclose(obs.ball_radii, 0.25)
    c0, c1 = obs.points.points
    assert np.linalg.norm(c0 - c1) >= obs.ball_radii[0] + obs.ball_radii[1] - 1e-15


def test_fixed_radius_non_intersection():
    cfg = ph.sample_poisson(UNIT2, 10.0, 2)
    d = ph.min_pairwise_distance(cfg)
    obs = ph.build_balls(cfg, 0.49 * d)
    _assert_no_overlap(obs)


def _iid_radii(cfg, seed):
    """I.i.d. radii, uniform on (0, d/2] for d the minimum pairwise distance."""
    d = ph.min_pairwise_distance(cfg)
    return (1.0 - substream(seed, "ball-radii").random(cfg.count)) * 0.5 * d


def _assert_no_overlap(obs):
    pts = obs.points.points
    r = obs.ball_radii
    for i in range(len(r)):
        for j in range(i + 1, len(r)):
            assert np.linalg.norm(pts[i] - pts[j]) >= r[i] + r[j] - 1e-12


def test_iid_capped_radii_never_overlap():
    for i in range(100):
        cfg = ph.sample_poisson(ph.Box.cube(2.0, 2), 5.0, substream_seed(77, i))
        if cfg.count < 2:
            continue
        obs = ph.build_balls(cfg, _iid_radii(cfg, i))
        _assert_no_overlap(obs)


def test_min_distance_rule_needs_two_points():
    with pytest.raises(InvalidArgumentError):
        ph.min_pairwise_distance(_config([[0.5, 0.5]]))


def test_build_balls_takes_one_radius_or_one_per_point():
    cfg = _config([[0.25, 0.5], [0.75, 0.5], [0.5, 0.8]])
    assert np.array_equal(ph.build_balls(cfg, 0.1).ball_radii, [0.1, 0.1, 0.1])
    radii = np.array([0.1, 0.2, 0.05])
    assert np.array_equal(ph.build_balls(cfg, radii).ball_radii, radii)


@pytest.mark.parametrize("radii", [[0.1, 0.2], [0.1, 0.2, 0.1, 0.1], 0.0, -0.1,
                                   [0.1, 0.0, 0.1]])
def test_build_balls_rejects_bad_radii(radii):
    # one radius per point, each positive
    with pytest.raises(InvalidArgumentError):
        ph.build_balls(_config([[0.25, 0.5], [0.75, 0.5], [0.5, 0.8]]), radii)


# ------------------------------------------------------------------- scaling

def test_scale_obstacles_identity_and_volume():
    a, b = np.array([0.3, 0.5, 0.5]), np.array([0.7, 0.5, 0.5])
    cfg = _config([a, b], box=UNIT3, dim=3)
    tubes = ph.build_tubes(cfg, ph.EdgeSet(edges=np.array([[0, 1]])), 0.1)
    same = ph.scale_obstacles(tubes, 1.0)
    assert same.tube_radius == tubes.tube_radius
    assert np.array_equal(same.points.points, tubes.points.points)
    half = ph.scale_obstacles(tubes, 0.5)
    v0 = capsule_volume(0.4, 0.1)
    v1 = capsule_volume(0.2, 0.05)
    assert abs(v1 - 0.5**3 * v0) < 1e-15
    rng = substream(5, "scaled-probes")
    probes = rng.random((4 * 10**4, 3)) * 0.5
    frac = contains(half, probes).mean()
    mc = frac * 0.5**3
    assert abs(mc - v1) <= 4 * math.sqrt(v1 / 0.5**3 * (1 - v1 / 0.5**3) / (4 * 10**4)) * 0.5**3
    with pytest.raises(InvalidArgumentError):
        ph.scale_obstacles(tubes, -1.0)


def test_scaled_edges_preserved():
    g = ph.ConnectivityFunction.annulus(0.2, 0.5)
    cfg = ph.sample_poisson(UNIT2, 25.0, 9)
    obs = ph.build_tubes(cfg, ph.build_rcm_edges(cfg, g, seed=9), 0.1)
    scaled = ph.scale_obstacles(obs, 0.25)
    assert np.array_equal(scaled.edges.edges, obs.edges.edges)


def test_scaling_commutes_with_rasterization():
    # mask of scale(F, eps) at dx equals mask of F at dx/eps, cell by cell
    cfg = ph.sample_poisson(ph.Box.cube(4.0, 2), 3.0, 21)
    if cfg.count < 2:
        pytest.skip("degenerate draw")
    obs = ph.build_balls(cfg, 0.4 * ph.min_pairwise_distance(cfg))
    eps = 0.25
    coarse = ph.rasterize(obs, ph.Box.cube(4.0, 2), 4.0 / 128)
    fine = ph.rasterize(ph.scale_obstacles(obs, eps), ph.Box.cube(1.0, 2), 1.0 / 128)
    assert np.array_equal(coarse.flags, fine.flags)


# ---------------------------------------------------------------- rasterize

def test_rasterize_ball_area_oracle():
    cfg = _config([[0.5, 0.5]])
    obs = ph.build_balls(cfg, 0.25)
    dx = 1.0 / 256
    mask = ph.rasterize(obs, UNIT2, dx)
    area = mask.hole_count * dx**2
    exact = math.pi * 0.25**2
    assert abs(area - exact) <= 2 * dx * (2 * math.pi * 0.25)


def test_rasterize_refinement_stability():
    # cells whose center is farther than dx from the ball boundary keep their
    # flag in all four children of the refined grid
    cfg = _config([[0.5, 0.5]])
    r = 0.3
    obs = ph.build_balls(cfg, r)
    dx = 1.0 / 32
    coarse = ph.rasterize(obs, UNIT2, dx)
    fine = ph.rasterize(obs, UNIT2, dx / 2)
    centers = _cell_centers(coarse)
    dist = np.abs(np.linalg.norm(centers - 0.5, axis=1) - r).reshape(coarse.shape)
    stable = dist > dx
    children = fine.flags.reshape(32, 2, 32, 2).transpose(0, 2, 1, 3).reshape(32, 32, 4)
    for val in (MATERIAL, HOLE):
        sel = stable & (coarse.flags == val)
        assert np.all(children[sel] == val)


def test_rasterize_resolution_warning():
    cfg = _config([[0.5, 0.5]])
    obs = ph.build_balls(cfg, 0.001)
    mask = ph.rasterize(obs, UNIT2, 1.0 / 16)
    assert any("resolution-loss" in w for w in mask.warnings)


def test_rasterize_requires_divisible_dx():
    cfg = _config([[0.5, 0.5]])
    obs = ph.build_balls(cfg, 0.2)
    with pytest.raises(InvalidArgumentError):
        ph.rasterize(obs, UNIT2, 0.3)


def _rasterize_per_capsule(obstacles, domain, dx):
    """Oracle: the flags of a loop that evaluates one capsule at a time, each
    on its own window, with the per-capsule point-to-segment distance."""
    def dist2(x, a, b):
        ab = [bd - ad for ad, bd in zip(a, b)]
        denom = sum(v * v for v in ab)
        t = 0.0
        if denom != 0.0:
            t = np.clip(sum((xd - ad) * v for xd, ad, v in zip(x, a, ab)) / denom, 0.0, 1.0)
        return sum((xd - (ad + t * v)) ** 2 for xd, ad, v in zip(x, a, ab))

    shape = tuple(int(round(side / dx)) for side in domain.sides)
    flags = np.zeros(shape, dtype=np.uint8)
    a, b, r = obstacles.capsules()
    lo = np.asarray(domain.lower, dtype=float)
    n = np.asarray(shape)
    first = np.clip(np.ceil((np.minimum(a, b) - r[:, None] - lo) / dx - 0.5), 0, n)
    last = np.clip(np.floor((np.maximum(a, b) + r[:, None] - lo) / dx - 0.5), -1, n - 1)
    hit = np.all(first <= last, axis=1)
    for ak, bk, rk, i0, i1 in zip(a[hit], b[hit], r[hit],
                                  first[hit].astype(int), last[hit].astype(int) + 1):
        x = [(lo[d] + (np.arange(i0[d], i1[d]) + 0.5) * dx).reshape(
            (-1,) + (1,) * (len(shape) - 1 - d)) for d in range(len(shape))]
        window = tuple(map(slice, i0, i1))
        flags[window][dist2(x, ak, bk) <= rk * rk] = HOLE
    return flags


def _oracle_obstacles(case):
    """(obstacles, domain, cells per side) for the rasterization oracle."""
    if case == "balls-2d-equal":
        return ph.build_balls(ph.sample_poisson(UNIT2, 600.0, 1), 0.02), UNIT2, 64
    if case == "balls-3d-equal":
        # windows of about 10^3 cells: each window shape spans several batches
        return ph.build_balls(ph.sample_poisson(UNIT3, 2000.0, 2), 0.15), UNIT3, 32
    if case == "balls-3d-iid":
        cfg = ph.sample_poisson(UNIT3, 200.0, 5)
        return ph.build_balls(cfg, _iid_radii(cfg, 5)), UNIT3, 48
    if case == "tubes-2d":
        fam = ph.GeometryFamily(kind="rcm", dim=2, c1=0.5, c2=1.0)
        return ph.sample_family(fam, 0.125, 3, UNIT2)[0], UNIT2, 64
    if case == "tubes-3d":
        fam = ph.GeometryFamily(kind="rcm", dim=3, c1=0.5, c2=1.0)
        return ph.sample_family(fam, 0.25, 7, UNIT3)[0], UNIT3, 40
    if case == "tubes-3d-zero-length":
        cfg = _config([[0.3, 0.3, 0.3], [0.3, 0.3, 0.3], [0.6, 0.5, 0.4]], dim=3)
        edges = ph.EdgeSet(edges=[[0, 1], [0, 2], [1, 2]])
        return ph.build_tubes(cfg, edges, 0.1), UNIT3, 32
    if case == "balls-2d-clipped":
        # centers in a box twice the domain's size: balls inside, straddling
        # the boundary, and wholly outside the grid
        cfg = ph.sample_poisson(ph.Box((-0.5, -0.5), (1.5, 1.5)), 10.0, 3)
        return ph.build_balls(cfg, 0.12), UNIT2, 64
    if case == "tubes-3d-clipped":
        fam = ph.GeometryFamily(kind="rcm", dim=3, c1=0.5, c2=1.0)
        big = ph.Box((-0.25,) * 3, (1.25,) * 3)
        return ph.sample_family(fam, 0.25, 4, big)[0], UNIT3, 32
    if case == "outside":
        cfg = _config([[1.5, 0.5], [-0.3, 0.2], [0.5, 1.11]], box=ph.Box((-1, -1), (2, 2)))
        return ph.build_balls(cfg, 0.1), UNIT2, 32
    if case == "single":
        # one window of 48^3 cells, more than one batch holds
        cfg = _config([[0.5, 0.5, 0.5]], dim=3)
        return ph.build_balls(cfg, 0.5), UNIT3, 48
    return ph.build_balls(_config(np.empty((0, 3)), dim=3), 0.1), UNIT3, 16


@pytest.mark.parametrize("case", ["balls-2d-equal", "balls-3d-equal", "balls-3d-iid",
                                  "tubes-2d", "tubes-3d", "tubes-3d-zero-length",
                                  "balls-2d-clipped", "tubes-3d-clipped", "outside",
                                  "single", "empty"])
def test_rasterize_matches_per_capsule_oracle(case):
    # batching capsules by window shape changes no flag, bit for bit
    obs, domain, cells = _oracle_obstacles(case)
    dx = domain.sides[0] / cells
    mask = ph.rasterize(obs, domain, dx)
    expected = _rasterize_per_capsule(obs, domain, dx)
    assert mask.flags.dtype == expected.dtype and np.array_equal(mask.flags, expected)
    if case in ("outside", "empty"):
        assert mask.hole_count == 0
    else:
        assert 0 < mask.hole_count


# --------------------------------------------------------------- components

def _brute_force_components(n, edges):
    adj = np.eye(n, dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    reach = adj.copy()
    for _ in range(n):
        new = reach @ adj
        if np.array_equal(new > 0, reach):
            break
        reach = new > 0
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        comp = sorted(np.nonzero(reach[i])[0].tolist())
        seen.update(comp)
        comps.append(comp)
    return comps


def test_components_trivia():
    cfg = ph.sample_poisson(UNIT2, 10.0, 3)
    none = ph.EdgeSet(edges=np.empty((0, 2)))
    comps = ph.connected_components(cfg, none)
    assert len(comps) == cfg.count
    n = cfg.count
    if n >= 2:
        path = ph.EdgeSet(edges=np.array([[i, i + 1] for i in range(n - 1)]))
        assert len(ph.connected_components(cfg, path)) == 1


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_components_match_transitive_closure(seed):
    cfg = ph.sample_poisson(ph.Box.cube(3.0, 2), 4.0, seed)
    if cfg.count == 0 or cfg.count > 50:
        return
    g = ph.ConnectivityFunction.annulus(0.3, 0.9)
    edges = ph.build_rcm_edges(cfg, g, seed=0)
    ours = ph.connected_components(cfg, edges)
    brute = _brute_force_components(cfg.count, edges.edges)
    assert sorted(map(tuple, ours)) == sorted(map(tuple, brute))
    # forest bound: components >= points - edges
    assert len(ours) >= cfg.count - edges.count


# ------------------------------------------------------- fractions, density

def test_volume_fraction_trivia():
    flags = np.zeros((8, 8), dtype=np.uint8)
    mask = PerforatedMask(flags=flags, dx=0.125, domain=UNIT2)
    assert ph.volume_fraction(mask) == 0.0
    mask_full = PerforatedMask(flags=np.full((8, 8), HOLE, np.uint8), dx=0.125,
                               domain=UNIT2)
    assert ph.volume_fraction(mask_full) == 1.0


def test_volume_fraction_decreases_for_supercritical_exponent():
    fam = ph.GeometryFamily(kind="boolean", dim=2, intensity=1.0, r0=0.4,
                            radius_exponent=1.5)
    means = []
    for k in range(2, 7):
        eps = 2.0**-k
        fracs = []
        for rep in range(10):
            obs, _ = ph.sample_family(fam, eps, substream_seed(100, k, rep), UNIT2)
            mask = ph.rasterize(obs, UNIT2, 1.0 / 512)
            fracs.append(ph.volume_fraction(mask))
        means.append(np.mean(fracs))
    assert all(b < a for a, b in zip(means, means[1:]))


def test_density_ratio_uniform_lattice():
    fam = ph.GeometryFamily(kind="lattice", dim=2, lattice_spacing=0.1,
                            r0=0.03, radius_exponent=1.0)
    obs, _ = ph.sample_family(fam, 1.0, 0, UNIT2)
    mask = ph.rasterize(obs, UNIT2, 1.0 / 512)
    check = ph.density_ratio_check(mask, radius=1.0, probes=100, seed=4)
    # r = 10 lattice spacings: near-uniform coverage
    assert check.min_ratio / check.max_ratio >= 0.5
    assert not check.failed


def test_density_ratio_whole_domain_and_empty():
    cfg = _config([[0.5, 0.5]])
    obs = ph.build_balls(cfg, 0.2)
    mask = ph.rasterize(obs, UNIT2, 1.0 / 128)
    r = 2.0  # >= diam(D): every probe sees the whole hole set
    check = ph.density_ratio_check(mask, radius=r, probes=50, seed=1)
    assert math.isclose(check.min_ratio, r**-2, rel_tol=1e-12)
    assert math.isclose(check.max_ratio, r**-2, rel_tol=1e-12)
    hole_free = ph.hole_free_mask(UNIT2, 1.0 / 64)
    with pytest.raises(InvalidArgumentError):
        ph.density_ratio_check(hole_free, radius=0.5, probes=10, seed=0)


def test_density_ratio_needs_a_positive_radius(monkeypatch):
    obs = ph.build_balls(_config([[0.5, 0.5]]), 0.2)
    mask = ph.rasterize(obs, UNIT2, 1.0 / 64)

    def no_rasterize(*args):
        raise AssertionError("a probe was rasterized")

    # refused before any probe: the ratio divides by r^2, and 1e300 ** 2
    # used to raise OverflowError after a probe's rasterization
    monkeypatch.setattr(geometry, "rasterize", no_rasterize)
    for r in (0.0, -0.1, math.nan, 1e300, 1e155):
        with pytest.raises(InvalidArgumentError):
            ph.density_ratio_check(mask, radius=r, probes=10, seed=0)


def test_density_ratio_refuses_an_overflowing_hole_volume():
    # r^2 is finite, r^2 |F| is not: the ratios used to read 0, failed = True
    box = ph.Box((0.0, 0.0), (4.0, 4.0))
    cfg = ph.PointConfiguration(points=np.array([[2.0, 2.0]]), box=box, intensity=0.0)
    mask = ph.rasterize(ph.build_balls(cfg, 1.0), box, 1.0 / 16)
    with np.errstate(over="raise"):
        with pytest.raises(InvalidArgumentError, match="overflows"):
            ph.density_ratio_check(mask, radius=1.3e154, probes=3, seed=0)
        # the largest radii that do not overflow keep the ratio's formula
        total = mask.hole_count * mask.dx ** 2
        for r in (1e150, 5e153):
            check = ph.density_ratio_check(mask, radius=r, probes=3, seed=0)
            assert check.min_ratio == check.max_ratio == total / (r ** 2 * total)
            assert not check.failed


def test_density_ratio_flags_concentration():
    cfg = _config([[0.05, 0.05]])
    obs = ph.build_balls(cfg, 0.04)
    mask = ph.rasterize(obs, UNIT2, 1.0 / 256)
    check = ph.density_ratio_check(mask, radius=0.05, probes=400, seed=2)
    assert check.min_ratio == 0.0
    assert check.failed


# ----------------------------------------------------------------- mask IO

@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mask_round_trip(seed):
    import tempfile
    rng = substream(seed, "mask-roundtrip")
    flags = rng.integers(0, 3, size=(13, 7)).astype(np.uint8)
    mask = PerforatedMask(flags=flags, dx=1.0 / 7, domain=ph.Box((0.0, 0.0), (13.0 / 7, 1.0)),
                          epsilon=0.37, provenance="test", warnings=("w1",))
    with tempfile.TemporaryDirectory() as tmp:
        ph.save_mask(mask, f"{tmp}/m.txt")
        back = ph.load_mask(f"{tmp}/m.txt")
    assert np.array_equal(back.flags, mask.flags)
    assert back.dx == mask.dx
    assert back.domain == mask.domain
    assert back.epsilon == mask.epsilon
    assert back.warnings == mask.warnings


@pytest.mark.parametrize("shape", [(13, 7), (6, 5, 4), (24, 24, 24)])
def test_mask_file_round_trip_is_byte_identical(shape, tmp_path):
    # all three roles, in runs of every length from 1 up
    rng = substream(51, f"mask-bytes-{shape}")
    flags = np.repeat(rng.integers(0, 3, size=math.prod(shape)),
                      rng.integers(1, 6, size=math.prod(shape)))[:math.prod(shape)]
    flags = flags.reshape(shape).astype(np.uint8)
    box = ph.Box(tuple(0.0 for _ in shape), tuple(n / 8 for n in shape))
    mask = PerforatedMask(flags=flags, dx=1.0 / 8, domain=box)
    ph.save_mask(mask, tmp_path / "a.txt")
    back = ph.load_mask(tmp_path / "a.txt")
    ph.save_mask(back, tmp_path / "b.txt")
    assert np.array_equal(back.flags, flags)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    line = (tmp_path / "a.txt").read_text().splitlines()[-1]
    runs = np.flatnonzero(np.diff(flags.ravel())).size + 1
    assert len(line.split()) == runs + 1


@pytest.mark.parametrize("rle", ["m16 h-4 m4", "m16 h0", "m8 h0 m8", "q16", "m1.5 m15",
                                 "m16x", "m 16", "m16 ", " m16", "m8  m8", "m", "16", "m17", "m15", "",
                                 "m8 h4 m99999999999999999999999",
                                 # header lines, each in place of its own line
                                 "dim two", "dx abc", "domain 0,0", "warnings x"])
def test_mask_file_refuses_a_malformed_rle_stream(rle, tmp_path):
    # a 4 x 4 mask: counts must be integers >= 1 with flags m, h or x, one
    # space apart, summing to 16; a header value that does not parse is
    # refused too, naming its line
    path = tmp_path / "m.txt"
    ph.save_mask(ph.hole_free_mask(ph.Box.unit(2), 0.25), path)
    lines = path.read_text().splitlines()
    assert lines[-1] == "rle m16"
    keys = [line.split(" ")[0] for line in lines[:-1]]
    header = rle.split(" ")[0] in keys
    if header:
        lines[keys.index(rle.split(" ")[0])] = rle
    else:
        lines[-1] = "rle " + rle
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidArgumentError, match=re.escape(rle) if header else None):
        ph.load_mask(path)


@pytest.mark.parametrize("header", [
    {"dim": "3", "shape": "2 2 2", "rle": "m8"},      # a 3D grid on the unit square
    {"dx": "0.5"},                                  # 4 x 4 cells of side 0.5
    {"dx": "-0.5"},
    {"dx": "nan"},
    {"dim": "4", "shape": "2 2 2 2"},
    {"shape": "-1 -1", "rle": "m1"},
    {"epsilon": "-1"},
    {"epsilon": "nan"},
], ids=["dim3-on-square", "dx-too-large", "dx-negative", "dx-nan", "dim4", "shape-negative",
        "epsilon-negative", "epsilon-nan"])
def test_mask_file_refuses_a_header_that_is_not_its_domains_grid(header, tmp_path):
    # dim, shape and dx must give the grid Box.grid_shape makes on the domain,
    # and epsilon must be positive
    path = tmp_path / "m.txt"
    ph.save_mask(ph.hole_free_mask(ph.Box.unit(2), 0.25), path)
    lines = [f"{key} {header[key]}" if key in header else line
             for line in path.read_text().splitlines() for key in [line.split(" ")[0]]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidArgumentError):
        ph.load_mask(path)


def test_mask_refuses_flags_that_are_not_its_domains_grid():
    # such a mask used to construct and save a file that load_mask refuses
    with pytest.raises(InvalidArgumentError, match="not the grid of spacing 0.5"):
        PerforatedMask(flags=np.zeros((4, 4), np.uint8), dx=0.5, domain=ph.Box.unit(2))


def _segment_segment_dist2(p1, q1, p2, q2):
    # scalar reference: closest distance between two segments by Ericson's
    # clamped parameters, one pair at a time
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a == 0.0 and e == 0.0:
        return float(r @ r)
    if a == 0.0:
        t = np.clip(f / e, 0.0, 1.0)
        s = 0.0
    else:
        c = float(d1 @ r)
        if e == 0.0:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(d1 @ d2)
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom != 0.0 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    closest = (p1 + s * d1) - (p2 + t * d2)
    return float(closest @ closest)


def _brute_force_overlaps(obstacles):
    P, edges = obstacles.points.points, obstacles.edges.edges
    reach = 2.0 * obstacles.tube_radius
    count = 0
    for a in range(edges.shape[0]):
        i, j = edges[a]
        for b in range(a + 1, edges.shape[0]):
            k, l = edges[b]
            if _segment_segment_dist2(P[i], P[j], P[k], P[l]) <= reach * reach:
                count += 1
    return count


# two segments each, tube radius 0.02, so they overlap when within 0.04
_OVERLAP_CASES = {
    "crossing": ([[0.2, 0.5], [0.8, 0.5]], [[0.5, 0.2], [0.5, 0.8]], 1),
    "disjoint": ([[0.2, 0.5], [0.8, 0.5]], [[0.1, 0.05], [0.3, 0.05]], 0),
    "shared-endpoint": ([[0.2, 0.5], [0.8, 0.5]], [[0.2, 0.5], [0.5, 0.2]], 1),
    "parallel-near": ([[0.2, 0.5], [0.8, 0.5]], [[0.2, 0.53], [0.8, 0.53]], 1),
    "parallel-far": ([[0.2, 0.5], [0.8, 0.5]], [[0.2, 0.55], [0.8, 0.55]], 0),
    "parallel-staggered": ([[0.1, 0.1], [0.3, 0.1]], [[0.35, 0.12], [0.6, 0.12]], 0),
    "collinear-overlapping": ([[0.2, 0.5], [0.6, 0.5]], [[0.4, 0.5], [0.8, 0.5]], 1),
    "collinear-gap-within-reach": ([[0.2, 0.5], [0.4, 0.5]], [[0.43, 0.5], [0.8, 0.5]], 1),
    "collinear-gap-beyond-reach": ([[0.2, 0.5], [0.4, 0.5]], [[0.45, 0.5], [0.8, 0.5]], 0),
    "zero-length-near-segment": ([[0.5, 0.53], [0.5, 0.53]], [[0.2, 0.5], [0.8, 0.5]], 1),
    "zero-length-far-from-segment": ([[0.2, 0.5], [0.8, 0.5]], [[0.5, 0.55], [0.5, 0.55]], 0),
    "zero-length-coincident": ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], 1),
    "zero-length-apart": ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.55], [0.5, 0.55]], 0),
}


def test_tube_overlap_count():
    from percohom.geometry import tube_overlap_count
    for name, (first, second, expected) in _OVERLAP_CASES.items():
        # each segment has its own two points; a zero-length one joins two
        # coincident points
        pts = _config(first + second)
        tubes = ph.build_tubes(pts, ph.EdgeSet(edges=np.array([[0, 1], [2, 3]])), 0.02)
        with np.errstate(all="raise"):
            assert tube_overlap_count(tubes) == expected, name
        assert _brute_force_overlaps(tubes) == expected, name


@pytest.mark.parametrize("dim", [2, 3])
def test_tube_overlap_count_matches_brute_force(dim):
    from percohom.geometry import tube_overlap_count
    for k in range(50):
        rng = substream(k, "overlap-sets", dim)
        n = int(rng.integers(2, 25))
        pts = rng.random((n, dim))
        # some coincident points, so some tubes have zero length
        dup = rng.random(n) < 0.15
        pts[dup] = pts[rng.integers(0, n, size=int(dup.sum()))]
        ii, jj = np.triu_indices(n, k=1)
        keep = rng.random(ii.size) < 0.3
        edges = ph.EdgeSet(edges=np.column_stack([ii[keep], jj[keep]]))
        tubes = ph.build_tubes(_config(pts, dim=dim), edges, float(rng.uniform(0.005, 0.08)))
        with np.errstate(all="raise"):
            assert tube_overlap_count(tubes) == _brute_force_overlaps(tubes), k


def _indicator_obstacles(case):
    if case == "balls-2d":
        cfg = ph.sample_poisson(UNIT2, 8.0, 31)
        return ph.build_balls(cfg, 0.5 * ph.min_pairwise_distance(cfg)), UNIT2, 64
    if case == "balls-2d-beyond-domain":
        # centers in a box twice the domain's size: balls inside, straddling
        # the boundary, and wholly outside the grid
        cfg = ph.sample_poisson(ph.Box((-0.5, -0.5), (1.5, 1.5)), 10.0, 3)
        return ph.build_balls(cfg, 0.12), UNIT2, 64
    if case == "balls-3d-iid":
        cfg = ph.sample_poisson(UNIT3, 12.0, 5)
        return ph.build_balls(cfg, _iid_radii(cfg, 5)), UNIT3, 48
    fam = ph.GeometryFamily(kind="rcm", dim=3, c1=0.5, c2=1.0)
    obs, _ = ph.sample_family(fam, 0.25, 7, UNIT3)
    return obs, UNIT3, 40


@pytest.mark.parametrize("case", ["balls-2d", "balls-2d-beyond-domain", "balls-3d-iid",
                                  "tubes-3d"])
def test_indicator_consistency(case):
    # hole cells are exactly the cells whose center is inside the obstacle
    obs, domain, cells = _indicator_obstacles(case)
    mask = ph.rasterize(obs, domain, 1.0 / cells)
    assert 0 < mask.hole_count < mask.flags.size
    centers = _cell_centers(mask)
    inside = contains(obs, centers).reshape(mask.shape)
    assert np.array_equal(inside, mask.flags == HOLE)
