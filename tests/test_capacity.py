import math

import numpy as np
import pytest

import percohom as ph
from percohom.capacity import capacity_minimizer_on_window
from percohom.errors import InvalidArgumentError
from percohom.geometry import HOLE
from percohom.rng import substream, substream_seed
from percohom import solver
from percohom.solver import _FaceKernel, cg_solve

UNIT3 = ph.Box.unit(3)


def ball_at(center, r, halfside=0.5, dim=3):
    box = ph.Box.cube(2 * halfside, dim, origin=tuple(c - halfside for c in center))
    cfg = ph.PointConfiguration(points=np.array([center], float), box=box,
                                intensity=0.0, seed=0)
    return ph.build_balls(cfg, r)


def balls_at(centers, r, box):
    cfg = ph.PointConfiguration(points=np.asarray(centers, float), box=box,
                                intensity=0.0, seed=0)
    return ph.build_balls(cfg, r)


# ----------------------------------------------------------- newton capacity

def test_newton_requires_dimension_three():
    obs = ball_at((0.0, 0.0), 0.1, dim=2)
    with pytest.raises(InvalidArgumentError):
        ph.newton_capacity(obs, 0.5, 1.0 / 32)


def test_newton_ball_oracle():
    # spherical-shell potential gives cap = 4 pi / (1/r - 1/R); the cubic
    # truncation sits between the inscribed and circumscribed shells
    exact = 4 * math.pi / (1 / 0.1 - 1 / 1.0)
    coarse, _ = ph.newton_capacity(ball_at((0.0,) * 3, 0.1, 1.0), 1.0, 1.0 / 12)
    finer, _ = ph.newton_capacity(ball_at((0.0,) * 3, 0.1, 1.0), 1.0, 1.0 / 24)
    assert abs(finer - exact) < abs(coarse - exact)
    assert abs(finer - exact) / exact < 0.25


def test_newton_scaling_law_at_matched_truncation():
    c1, _ = ph.newton_capacity(ball_at((0.0,) * 3, 0.1, 0.5), 0.5, 1.0 / 48)
    c2, _ = ph.newton_capacity(ball_at((0.0,) * 3, 0.05, 0.25), 0.25, 1.0 / 96)
    assert abs(c2 / c1 - 0.5) < 0.05 * 0.5  # in fact exact: rescaled system
    assert abs(c2 / c1 - 0.5) < 1e-12


def test_newton_translation_invariance():
    base, _ = ph.newton_capacity(ball_at((0.0,) * 3, 0.1, 0.5), 0.5, 1.0 / 32)
    shifted, _ = ph.newton_capacity(ball_at((4 / 32, -3 / 32, 2 / 32), 0.1, 0.5),
                                    0.5, 1.0 / 32)
    generic, _ = ph.newton_capacity(ball_at((0.071, -0.083, 0.057), 0.1, 0.5),
                                    0.5, 1.0 / 32)
    # finite truncation breaks exact invariance; both stay within a few percent
    assert abs(shifted - base) / base < 0.05
    assert abs(generic - base) / base < 0.05


def test_newton_rejects_unresolved_or_escaping_obstacles():
    with pytest.raises(InvalidArgumentError):
        ph.newton_capacity(ball_at((0.0,) * 3, 0.001, 0.5), 0.5, 1.0 / 16)
    with pytest.raises(InvalidArgumentError):
        ph.newton_capacity(ball_at((0.45, 0.0, 0.0), 0.2, 0.5), 0.5, 1.0 / 16)


def test_capacities_refuse_a_tol_before_any_cg_iteration(monkeypatch):
    # tol = 0 cannot be met: newton_capacity used to run 251 CG iterations
    # and then fail with a CG breakdown
    def no_cg(*args, **kwargs):
        raise AssertionError("a CG iteration ran")

    monkeypatch.setattr(solver, "cg_solve", no_cg)
    ball = ball_at((0.0,) * 3, 0.25, 1.0)
    mask = ph.rasterize(ball_at((0.5,) * 3, 0.2), UNIT3, 1.0 / 16)
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            ph.newton_capacity(ball, 1.0, 1.0 / 8, tol=tol)
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            ph.local_capacity(mask, (0.5,) * 3, 0.75, tol=tol)


# ------------------------------------------------------------ local capacity

def test_local_capacity_hole_free_is_zero():
    mask = ph.hole_free_mask(UNIT3, 1.0 / 16)
    est = ph.local_capacity(mask, (0.5,) * 3, 0.5)
    assert est.value == 0.0
    assert est.report.iterations == 0


def test_local_capacity_hole_free_window_refuses_a_tol_like_every_solve():
    # the window holds no obstacle cell, so no CG runs; the tol rule holds anyway
    mask = ph.hole_free_mask(UNIT3, 1.0 / 16)
    with pytest.raises(InvalidArgumentError, match="tol must be positive"):
        ph.local_capacity(mask, (0.5,) * 3, 0.5, tol=0.0)


def test_local_capacity_complementary_to_newton():
    # newton_capacity is the local capacity (boundary 1, obstacle 0) of its
    # box; the oracle solves the condenser itself (obstacle 1, boundary 0),
    # the 1-v flip with the same face weights, so the energies must agree
    obs = ball_at((0.0,) * 3, 0.1, 0.5)
    cap_n, _ = ph.newton_capacity(obs, 0.5, 1.0 / 48)
    domain = ph.Box.cube(1.0, 3, origin=(-0.5,) * 3)
    mask = ph.rasterize(obs, domain, 1.0 / 48)
    electrode = mask.flags == HOLE
    kernel = _FaceKernel(mask.flags, mask.dx, data=np.pad(electrode.astype(float), 1))
    u, _ = cg_solve(kernel.apply, kernel.rhs(), tol=1e-7, diag=kernel.diag)
    oracle = kernel.energy(u)
    assert abs(cap_n - oracle) / oracle < 1e-10


def test_local_capacity_monotone_under_inclusion():
    domain = UNIT3
    rng = substream(60, "nested")
    for trial in range(6):
        pts = 0.2 + 0.6 * rng.random((5, 3))
        small = balls_at(pts, 0.04, domain)
        big = balls_at(pts, 0.055, domain)
        extra = balls_at(np.vstack([pts, 0.2 + 0.6 * rng.random((2, 3))]), 0.04, domain)
        dx = 1.0 / 48
        caps = {}
        for name, obs in (("small", small), ("big", big), ("extra", extra)):
            mask = ph.rasterize(obs, domain, dx)
            caps[name] = ph.local_capacity(mask, (0.5,) * 3, 0.75, tol=1e-10).value
        assert caps["small"] <= caps["big"]
        assert caps["small"] <= caps["extra"]


def test_local_capacity_all_hole_cube_reports_drop():
    flags = np.full((8, 8, 8), 1, dtype=np.uint8)
    mask = ph.PerforatedMask(flags=flags, dx=1.0 / 8, domain=UNIT3)
    est = ph.local_capacity(mask, (0.5,) * 3, 1.0)
    # every border face carries the full 1 -> 0 drop at half-cell distance
    n_faces = 6 * 8 * 8
    expected = n_faces * 2.0 * (1.0 / 8) ** (3 - 2)
    assert math.isclose(est.value, expected, rel_tol=1e-12)


def test_local_capacity_subadditive_split():
    # split the cube into 2^n half-cubes with the same boundary data: the sum
    # of the parts bounds the parent from above
    obs = balls_at([[0.3, 0.4, 0.5], [0.7, 0.6, 0.4], [0.5, 0.5, 0.6]], 0.06, UNIT3)
    mask = ph.rasterize(obs, UNIT3, 1.0 / 32)
    h = 1.0
    parent = capacity_minimizer_on_window(mask, tuple(slice(0, 32) for _ in range(3)),
                                          tol=1e-11)[0].value
    total = 0.0
    for corner in np.ndindex(2, 2, 2):
        sl = tuple(slice(c * 16, (c + 1) * 16) for c in corner)
        total += capacity_minimizer_on_window(mask, sl, tol=1e-11)[0].value
    dx = 1.0 / 32
    assert total >= parent * (1 - 5 * dx / h)
    assert total >= parent * (1 - 1e-10)  # the glued field is admissible


def test_local_capacity_deterministic():
    obs = balls_at([[0.45, 0.5, 0.5]], 0.08, UNIT3)
    mask = ph.rasterize(obs, UNIT3, 1.0 / 32)
    a = ph.local_capacity(mask, (0.5,) * 3, 0.75)
    b = ph.local_capacity(mask, (0.5,) * 3, 0.75)
    assert a.value == b.value


def test_local_capacity_refinement_increments():
    obs = balls_at([[0.5, 0.5, 0.5]], 0.1, UNIT3)
    values = [ph.local_capacity(ph.rasterize(obs, UNIT3, dx), (0.5,) * 3, 0.5).value
              for dx in (1.0 / 24, 1.0 / 48, 1.0 / 96)]
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    assert increments[1] < increments[0]


# ------------------------------------------- penalized functional and tensor

def test_penalized_zero_direction():
    mask = ph.hole_free_mask(UNIT3, 1.0 / 16)
    value, minimizer = ph.penalized_functional(mask, (0.5,) * 3, 0.5, 1.0,
                                               (0.0, 0.0, 0.0))
    assert value == 0.0
    assert np.all(minimizer.values == 0.0)


def test_penalized_hole_free_exact():
    mask = ph.hole_free_mask(UNIT3, 1.0 / 32)
    h = 0.25
    xi = (1.0, 0.0, 0.0)
    value, minimizer = ph.penalized_functional(mask, (0.5,) * 3, h, 1.0, xi)
    assert abs(value - h**3) / h**3 < 1e-8
    # the affine profile is the exact discrete minimizer
    axes = [minimizer.mask.axis_centers(a) for a in range(3)]
    ell = axes[0][:, None, None] - 0.5
    assert np.abs(minimizer.values - np.broadcast_to(ell, minimizer.values.shape)).max() < 1e-8


def test_penalized_superposition():
    obs = balls_at([[0.45, 0.55, 0.5], [0.6, 0.4, 0.45]], 0.05, UNIT3)
    mask = ph.rasterize(obs, UNIT3, 1.0 / 64)
    z, h = (0.5,) * 3, 0.5
    _, m1 = ph.penalized_functional(mask, z, h, 1.0, (1.0, 0.0, 0.0), tol=1e-12)
    _, m2 = ph.penalized_functional(mask, z, h, 1.0, (0.0, 1.0, 0.0), tol=1e-12)
    _, m12 = ph.penalized_functional(mask, z, h, 1.0, (1.0, 1.0, 0.0), tol=1e-12)
    assert np.abs(m12.values - (m1.values + m2.values)).max() < 1e-8


def test_tensor_hole_free_identity():
    mask = ph.hole_free_mask(UNIT3, 0.25 / 32)
    h = 0.25
    tensor = ph.conductivity_tensor(mask, (0.5,) * 3, h, 1.0)
    assert np.abs(np.diag(tensor.entries) / h**3 - 1.0).max() < 0.02
    off = tensor.entries - np.diag(np.diag(tensor.entries))
    assert np.abs(off).max() < 1e-10 * h**3


def test_tensor_quadratic_form_identity():
    obs = balls_at([[0.47, 0.5, 0.52], [0.58, 0.45, 0.5]], 0.05, UNIT3)
    mask = ph.rasterize(obs, UNIT3, 1.0 / 64)
    h = 0.5
    tensor = ph.conductivity_tensor(mask, (0.5,) * 3, h, 1.0, tol=1e-12)
    rng = substream(61, "xi")
    for _ in range(20):
        xi = rng.standard_normal(3)
        p, _ = ph.penalized_functional(mask, (0.5,) * 3, h, 1.0, xi, tol=1e-12)
        assert abs(p - float(xi @ tensor.entries @ xi)) <= 1e-6 * float(xi @ xi) * h**3


def test_tensor_symmetric_psd_on_random_obstacles():
    rng = substream(62, "tensor-psd")
    for trial in range(5):
        pts = 0.3 + 0.4 * rng.random((4, 3))
        obs = balls_at(pts, 0.05, UNIT3)
        mask = ph.rasterize(obs, UNIT3, 1.0 / 48)
        tensor = ph.conductivity_tensor(mask, (0.5,) * 3, 0.5, 1.0)
        a = tensor.entries
        assert np.abs(a - a.T).max() <= 1e-10 * max(np.abs(a).max(), 1e-300)
        assert np.linalg.eigvalsh(a).min() >= -1e-10 * 0.5**3


def test_tensor_mirror_symmetry_kills_off_diagonal():
    # obstacle symmetric under x1 reflection about the cube center
    centers = [[0.5 - 0.12, 0.5, 0.5], [0.5 + 0.12, 0.5, 0.5]]
    obs = balls_at(centers, 0.06, UNIT3)
    mask = ph.rasterize(obs, UNIT3, 1.0 / 64)
    tensor = ph.conductivity_tensor(mask, (0.5,) * 3, 0.5, 1.0, tol=1e-12)
    scale = float(np.abs(np.diag(tensor.entries)).max())
    assert abs(tensor.entries[0, 1]) < 1e-8 * scale
    assert abs(tensor.entries[0, 2]) < 1e-8 * scale


def test_gamma_range_validated():
    mask = ph.hole_free_mask(UNIT3, 1.0 / 16)
    for gamma in (0.0, 2.0, 2.5, -1.0):
        with pytest.raises(InvalidArgumentError):
            ph.penalized_functional(mask, (0.5,) * 3, 0.5, gamma, (1.0, 0.0, 0.0))
        with pytest.raises(InvalidArgumentError):
            ph.conductivity_tensor(mask, (0.5,) * 3, 0.5, gamma)


def test_affine_energy_hole_free_exact():
    mask = ph.hole_free_mask(UNIT3, 1.0 / 32)
    h = 0.5
    val = ph.affine_dirichlet_energy(mask, (0.5,) * 3, h, (0.0, 1.0, 0.0))
    assert abs(val - h**3) / h**3 < 1e-8


# -------------------------------------------------- absorption constant c

def _critical_family(**kw):
    base = dict(kind="boolean", dim=3, intensity=1.0, r0=0.2, radius_exponent=3.0)
    base.update(kw)
    return ph.GeometryFamily(**base)


def test_strange_term_hole_free_family():
    fam = _critical_family(intensity=0.0)
    res = ph.strange_term(fam, [0.75, 0.55], [0.12, 0.11, 0.1], 2, 1, UNIT3,
                          cells_per_h=16)
    assert res.c == 0.0
    assert all(r.cap == 0.0 for r in res.rows)
    assert res.spread == 0.0


def test_strange_term_ordering_enforced():
    fam = _critical_family()
    with pytest.raises(InvalidArgumentError):
        ph.strange_term(fam, [0.5, 0.4], [0.125, 0.11, 0.1], 1, 0, UNIT3)
    with pytest.raises(InvalidArgumentError):
        ph.strange_term(fam, [0.75], [0.12, 0.11, 0.1], 1, 0, UNIT3)
    with pytest.raises(InvalidArgumentError):
        ph.strange_term(fam, [0.75, 0.55], [0.12, 0.11], 1, 0, UNIT3)
    # the rules the CLI's strange-term mode and the sweep check, kept by the
    # library too: a window grid, a family of the domain's dimension, a valid
    # family
    with pytest.raises(InvalidArgumentError, match="cells_per_h must be >= 1"):
        ph.strange_term(fam, [0.75, 0.55], [0.12, 0.11, 0.1], 1, 0, UNIT3, cells_per_h=0)
    with pytest.raises(InvalidArgumentError, match="dimension 2 on a domain of dimension 3"):
        ph.strange_term(_critical_family(dim=2), [0.75, 0.55], [0.12, 0.11, 0.1], 1, 0,
                        UNIT3, cells_per_h=8)
    with pytest.raises(InvalidArgumentError, match="points"):
        ph.strange_term(_critical_family(intensity=1e12), [0.75, 0.55], [0.12, 0.11, 0.1],
                        1, 0, UNIT3, cells_per_h=8)


def test_strange_term_limsup_flag():
    fam = ph.GeometryFamily(kind="lattice", dim=3, lattice_spacing=1.0, r0=25.0,
                            radius_exponent=3.0)
    res = ph.strange_term(fam, [0.5, 0.7], [0.12, 0.11, 0.1], 1, 0, UNIT3,
                          cells_per_h=24, limsup_bound=1.0)
    assert res.limsup_flagged
    relaxed = ph.strange_term(fam, [0.5, 0.7], [0.12, 0.11, 0.1], 1, 0, UNIT3,
                              cells_per_h=24, limsup_bound=1e9)
    assert not relaxed.limsup_flagged


def test_strange_term_rows_carry_the_requested_h():
    # a cube root of the window volume gives back 0.44999999999999996 and
    # 0.30000000000000004; the table keys its rows by the h it was asked for
    fam = _critical_family(r0=1.0, radius_exponent=1.0)
    res = ph.strange_term(fam, [0.45, 0.3], [0.07, 0.06, 0.05], 1, 0, UNIT3,
                          cells_per_h=12)
    assert {r.h for r in res.rows} == {0.45, 0.3}
    assert all(r.cap_per_hn == r.cap / r.h ** 3 for r in res.rows)
    assert [h for h, _ in res.eps_then_h] == [0.45, 0.3]
    assert all(math.isfinite(m) and m > 0 for _, m in res.eps_then_h)


def _lattice_bracket(dim):
    """(lone-ball lower bound, table c, single-cell upper bound, the table's
    mean cap/h^n by h at the smallest eps) of a lattice table in `dim`."""
    r0 = 25.0
    fam = ph.GeometryFamily(kind="lattice", dim=dim, lattice_spacing=1.0, r0=r0,
                            radius_exponent=3.0)
    # on [0, 0.9]^dim the cube at the domain's center has its faces midway
    # between lattice planes at the (h, eps) corner
    res = ph.strange_term(fam, [0.5, 0.7], [0.12, 0.11, 0.1], 1, 0, ph.Box.cube(0.9, dim),
                          cells_per_h=40)
    eps = 0.1
    spacing, radius = eps, r0 * eps**3
    dx = 0.5 / 40
    cells = int(round(spacing / dx))
    cell_box = ph.Box.cube(cells * dx, dim)
    single = ph.rasterize(ball_at((cells * dx / 2,) * dim, radius,
                                  halfside=cells * dx / 2, dim=dim), cell_box, dx)
    cap_single = capacity_minimizer_on_window(
        single, tuple(slice(0, cells) for _ in range(dim)), tol=1e-11)[0].value
    cube = ph.Box.cube(0.5, dim)
    lone = ph.rasterize(ball_at((0.25,) * dim, radius, halfside=0.25, dim=dim), cube, dx)
    lower = capacity_minimizer_on_window(
        lone, tuple(slice(0, 40) for _ in range(dim)), tol=1e-11)[0].value / 0.5**dim
    return lower, res.c, cap_single / spacing**dim, dict(res.eps_then_h)


def test_strange_term_lattice_bracketed_by_single_cell_oracle():
    # deterministic lattice: the per-cell capacity density is a rigorous
    # upper bound (glue the cell minimizers), one center ball a lower bound,
    # and the h sequence must climb toward the cell oracle as h shrinks
    lower, c, oracle_c, by_h = _lattice_bracket(3)
    assert lower <= c <= oracle_c * (1 + 1e-10)
    # finite positive value of the expected order
    assert 0.2 < c / (4 * math.pi * 25.0) < 4.0
    assert by_h[0.5] > by_h[0.7]


def test_strange_term_lattice_bracket_holds_in_2d():
    # the same table, bounds and climb in 2D, where the table is the same
    # construction
    lower, c, oracle_c, by_h = _lattice_bracket(2)
    assert 0 < lower <= c <= oracle_c * (1 + 1e-10)
    assert by_h[0.5] > by_h[0.7]


@pytest.mark.parametrize("family_dim, domain_dim", [(2, 3), (3, 2)])
def test_a_family_on_a_domain_of_another_dimension_is_refused(family_dim, domain_dim,
                                                              monkeypatch):
    # refused before any point is drawn, by the sampler and by the table
    def no_sampling(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(ph.geometry, "sample_poisson", no_sampling)
    fam = _critical_family(dim=family_dim)
    domain = ph.Box.unit(domain_dim)
    message = f"dimension {family_dim} on a domain of dimension {domain_dim}"
    with pytest.raises(InvalidArgumentError, match=message):
        ph.sample_family(fam, 0.1, 0, domain)
    with pytest.raises(InvalidArgumentError, match=message):
        ph.strange_term(fam, [0.75, 0.55], [0.12, 0.11, 0.1], 1, 0, domain, cells_per_h=8)


def test_capacity_spread_shrinks_with_cube_size():
    fam = ph.GeometryFamily(kind="boolean", dim=3, intensity=1.0, r0=0.3,
                            radius_exponent=0.8)

    def rel_spread(h, eps, reps=6):
        vals = []
        for k in range(reps):
            obs, _ = ph.sample_family(fam, eps, substream_seed(200, int(h * 1000), k),
                                      UNIT3)
            cube = ph.Box.cube(h, 3, origin=tuple(0.5 - h / 2 for _ in range(3)))
            mask = ph.rasterize(obs, cube, h / 32)
            vals.append(ph.local_capacity(mask, (0.5,) * 3, h).value / h**3)
        arr = np.asarray(vals)
        return float(arr.std() / abs(arr.mean()))

    assert rel_spread(0.8, 0.16) < rel_spread(0.4, 0.08)


def test_boolean_capacity_constant():
    # one ball strongly contained, one too close to the boundary
    obs = balls_at([[0.5, 0.5, 0.5], [0.05, 0.5, 0.5]], 0.1, UNIT3)
    c, counted = ph.boolean_capacity_constant(obs, UNIT3)
    assert counted == 1
    assert math.isclose(c, 4 * math.pi * 0.1, rel_tol=1e-12)
    with pytest.raises(InvalidArgumentError):
        ph.boolean_capacity_constant(ball_at((0.5, 0.5), 0.1, dim=2), ph.Box.unit(2))


def test_capacity_estimate_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        ph.CapacityEstimate(value=-1.0)
