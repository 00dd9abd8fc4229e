import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import ndimage

import percohom as ph
from percohom import capacity, solver
from percohom.errors import InvalidArgumentError, SolverFailureError
from percohom.expressions import evaluate_on_mask, parse_expression
from percohom.geometry import EXTERIOR, HOLE, MATERIAL
from percohom.rng import substream, substream_seed
from percohom.solver import as_source, cg_solve, operator_diagonal

UNIT2 = ph.Box.unit(2)


def _random_mask(seed, cells=48, intensity=6.0, radius_frac=0.4, dim=2):
    box = ph.Box.unit(dim)
    cfg = ph.sample_poisson(box, intensity, seed)
    if cfg.count < 2:
        return ph.hole_free_mask(box, 1.0 / cells)
    obs = ph.build_balls(cfg, radius_frac * ph.min_pairwise_distance(cfg))
    return ph.rasterize(obs, box, 1.0 / cells)


def test_zero_source_gives_zero_solution():
    mask = _random_mask(3)
    u, rep = ph.solve_dirichlet_perforated(mask, 1.0, 0.0)
    assert np.all(u.values == 0.0)
    assert rep.iterations == 0


def _mms_error(n, reaction=1.0):
    mask = ph.hole_free_mask(UNIT2, 1.0 / n)
    source = f"-(2*pi*pi+{reaction})*sin(pi*x)*sin(pi*y)"
    u, _ = ph.solve_dirichlet_perforated(mask, reaction, source, tol=1e-10)
    exact = ph.GridField(mask, evaluate_on_mask("sin(pi*x)*sin(pi*y)", mask))
    return ph.l2_distance(u, exact)


def test_manufactured_solution_order():
    errs = [_mms_error(n) for n in (32, 64, 128)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_manufactured_solution_order_with_absorption():
    # same system as the homogenized equation with reaction + c
    errs = []
    for n in (32, 64, 128):
        mask = ph.hole_free_mask(UNIT2, 1.0 / n)
        src = "-(2*pi*pi+5)*sin(pi*x)*sin(pi*y)"
        u, _ = ph.solve_dirichlet_perforated(mask, 2.0 + 3.0, src, tol=1e-10)
        exact = ph.GridField(mask, evaluate_on_mask("sin(pi*x)*sin(pi*y)", mask))
        errs.append(ph.l2_distance(u, exact))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_discrete_maximum_principle():
    # f <= 0 forces u >= 0 on random perforated masks
    for i in range(10):
        mask = _random_mask(substream_seed(50, i), cells=32)
        u, _ = ph.solve_dirichlet_perforated(mask, 0.7, "-1-x*y", tol=1e-10)
        assert u.values.min() >= -1e-12


def test_homogenized_large_absorption_sup_bound():
    c = 1e6
    u, _ = ph.solve_dirichlet_perforated(ph.hole_free_mask(UNIT2, 1.0 / 32), 1.0 + c, "-1")
    assert np.abs(u.values).max() <= 1.0 / (1.0 + c) * (1 + 1e-8)


def test_l2_distance_trivia_and_oracle():
    mask = ph.hole_free_mask(UNIT2, 1.0 / 32)
    ones = ph.GridField(mask, np.ones(mask.shape))
    zero = ph.GridField(mask, np.zeros(mask.shape))
    assert ph.l2_distance(ones, ones) == 0.0
    assert math.isclose(ph.l2_distance(ones, zero), 1.0, rel_tol=1e-14)
    rng = substream(9, "l2")
    u = ph.GridField(mask, rng.random(mask.shape))
    v = ph.GridField(mask, rng.random(mask.shape))
    naive = 0.0
    for a, b in zip(u.values.ravel(), v.values.ravel()):
        naive += (a - b) ** 2
    naive = math.sqrt(naive * (1.0 / 32) ** 2)
    assert abs(ph.l2_distance(u, v) - naive) <= 1e-12 * naive


def test_l2_distance_grid_mismatch():
    fine, coarse = ph.hole_free_mask(UNIT2, 1.0 / 32), ph.hole_free_mask(UNIT2, 1.0 / 16)
    u = ph.GridField(fine, np.zeros(fine.shape))
    v = ph.GridField(coarse, np.zeros(coarse.shape))
    with pytest.raises(InvalidArgumentError):
        ph.l2_distance(u, v)


def test_gamma_trivia_and_minimizer_inequalities():
    mask = _random_mask(11)
    zero = ph.GridField(mask, np.zeros(mask.shape))
    assert ph.energy_gamma(zero, 1.0, "-1") == 0.0
    u, _ = ph.solve_dirichlet_perforated(mask, 1.0, "-1", tol=1e-10)
    gamma = ph.energy_gamma(u, 1.0, "-1")
    assert gamma <= 0.0
    # energy bound: grad + reaction*||u||^2 <= 2 ||u|| ||f||
    lhs = ph.gradient_energy(u) + 1.0 * ph.l2_norm(u) ** 2
    f = as_source("-1", mask)
    f_norm = math.sqrt(float(np.sum(f * f)) * mask.dx ** 2)
    assert lhs <= 2.0 * ph.l2_norm(u) * f_norm * (1 + 1e-8)


def _capture_kernel_solves(monkeypatch):
    """Record (kernel, solution) of every solve, all of which go through the
    face kernel's `minimize`."""
    solves = []
    minimize = solver._FaceKernel.minimize

    def recording_minimize(kernel, *args, **kwargs):
        x, report = minimize(kernel, *args, **kwargs)
        solves.append((kernel, x))
        return x, report

    monkeypatch.setattr(solver._FaceKernel, "minimize", recording_minimize)
    return solves


def _dirichlet_with_exterior(monkeypatch):
    mask = _random_mask(13, cells=16)
    flags = mask.flags.copy()
    flags[:3, :5] = EXTERIOR
    flags[8:10, 8:10] = EXTERIOR
    mask = ph.PerforatedMask(flags=flags, dx=mask.dx, domain=mask.domain)
    u, _ = ph.solve_dirichlet_perforated(mask, 1.0, "-1", tol=1e-12)
    return (ph.energy_gamma(u, 1.0, "-1"), u.values, mask.material,
            lambda v: ph.energy_gamma(ph.GridField(mask, v), 1.0, "-1"))


def _window_with_exterior(monkeypatch):
    solves = _capture_kernel_solves(monkeypatch)
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / 12)
    flags = mask.flags.copy()
    flags[:3, :4, :4] = EXTERIOR
    flags[6:8, 6:8, 6:8] = HOLE
    mask = ph.PerforatedMask(flags=flags, dx=mask.dx, domain=mask.domain)
    est, _ = capacity.capacity_minimizer_on_window(mask, (slice(0, 12),) * 3, tol=1e-12)
    kernel, x = solves[-1]
    return est.value, x, mask.material, kernel.energy


def _newton_condenser(monkeypatch):
    solves = _capture_kernel_solves(monkeypatch)
    box = ph.Box.cube(1.0, 3, origin=(-0.5,) * 3)
    cfg = ph.PointConfiguration(points=np.zeros((1, 3)), box=box, intensity=0.0, seed=0)
    obs = ph.build_balls(cfg, 0.1)
    cap, _ = ph.newton_capacity(obs, 0.5, 1.0 / 16, tol=1e-12)
    kernel, x = solves[-1]
    return cap, x, kernel.unknown, kernel.energy


def _affine_mask(seed):
    box = ph.Box.unit(3)
    rng = substream(seed, "affine-mask")
    cfg = ph.PointConfiguration(points=0.3 + 0.4 * rng.random((3, 3)), box=box,
                                intensity=0.0, seed=0)
    return ph.rasterize(ph.build_balls(cfg, 0.08), box, 1.0 / 16)


def _affine_with_penalty(monkeypatch):
    solves = _capture_kernel_solves(monkeypatch)
    mask = _affine_mask(31)
    value, _ = ph.penalized_functional(mask, (0.5,) * 3, 0.75, 1.0, (1.0, -0.5, 0.25),
                                       tol=1e-12)
    kernel, x = solves[-1]
    return value, x, kernel.unknown, kernel.energy


def _affine_sealed_pocket(monkeypatch):
    solves = _capture_kernel_solves(monkeypatch)
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / 12)
    flags = mask.flags.copy()
    flags[3:8, 3:8, 3:8] = HOLE
    flags[4:7, 4:7, 4:7] = MATERIAL
    mask = ph.PerforatedMask(flags=flags, dx=mask.dx, domain=mask.domain)
    value = ph.affine_dirichlet_energy(mask, (0.5,) * 3, 1.0, (0.3, 1.0, -0.7), tol=1e-12)
    kernel, x = solves[-1]
    assert not kernel.unknown[5, 5, 5]  # the pocket is no unknown
    return value, x, mask.material, kernel.energy


@pytest.mark.parametrize("problem", [_dirichlet_with_exterior, _window_with_exterior,
                                     _newton_condenser, _affine_with_penalty,
                                     _affine_sealed_pocket],
                         ids=["dirichlet-exterior", "window-exterior", "newton",
                              "affine-penalty", "affine-sealed-pocket"])
def test_solution_minimizes_discrete_energy(problem, monkeypatch):
    # moving the solution on a material cell never lowers the energy below
    # the reported value: the operator, right-hand side and energy are three
    # views of one quadratic form, data terms included
    base, x, material, energy = problem(monkeypatch)
    scale = max(abs(base), 1e-10)
    assert abs(energy(x) - base) <= 1e-12 * scale  # x is the solve's own solution
    # random material cells, and cells next to a hole or an exterior cell,
    # where the face weights differ
    cells = np.argwhere(material)
    near = np.argwhere(ndimage.binary_dilation(~material) & material)
    rng = substream(14, "energy-probe")
    probes = [*cells[rng.integers(0, len(cells), size=5)],
              *near[rng.integers(0, len(near), size=5)]]
    for idx in probes:
        for delta in (1e-6, -1e-6):
            vals = x.copy()
            vals[tuple(idx)] += delta
            assert energy(vals) >= base - 1e-9 * scale


def test_nested_masks_energy_comparison():
    # more holes shrink the admissible set, so the attained minimum grows
    cfg = ph.sample_poisson(UNIT2, 8.0, 23)
    obs_small = ph.build_balls(cfg, 0.3 * ph.min_pairwise_distance(cfg))
    obs_big = ph.build_balls(cfg, 0.45 * ph.min_pairwise_distance(cfg))
    m_small = ph.rasterize(obs_small, UNIT2, 1.0 / 64)
    m_big = ph.rasterize(obs_big, UNIT2, 1.0 / 64)
    u_small, _ = ph.solve_dirichlet_perforated(m_small, 1.0, "-1", tol=1e-11)
    u_big, _ = ph.solve_dirichlet_perforated(m_big, 1.0, "-1", tol=1e-11)
    assert ph.energy_gamma(u_big, 1.0, "-1") >= ph.energy_gamma(u_small, 1.0, "-1")


def test_h1_norm_and_friedrichs():
    mask = ph.hole_free_mask(UNIT2, 1.0 / 64)
    assert ph.h1_norm(ph.GridField(mask, np.zeros(mask.shape))) == 0.0
    c_d = ph.friedrichs_constant(UNIT2, 1.0 / 64)
    # smallest Dirichlet eigenvalue of the unit square is 2 pi^2
    assert abs(1.0 / c_d**2 - 2 * math.pi**2) / (2 * math.pi**2) < 0.02
    # the discrete inequality ||u|| <= C ||grad u|| holds for solved fields
    u, _ = ph.solve_dirichlet_perforated(mask, 0.0, "-1", tol=1e-10)
    assert ph.l2_norm(u) <= c_d * math.sqrt(ph.gradient_energy(u)) * (1 + 1e-8)


def test_zero_extension_identity():
    mask = _random_mask(15)
    u, _ = ph.solve_dirichlet_perforated(mask, 1.0, "-1")
    assert np.all(u.values[mask.flags == HOLE] == 0.0)
    full = float(np.sum(u.values**2))
    restricted = float(np.sum(u.values[mask.material] ** 2))
    assert math.isclose(full, restricted, rel_tol=1e-14)


def test_operator_is_spd():
    mask = _random_mask(16, cells=24)
    apply_op = solver.make_operator(mask, 0.5)
    rng = substream(17, "spd")
    for _ in range(100):
        v = np.where(mask.material, rng.standard_normal(mask.shape), 0.0)
        if not v.any():
            continue
        assert np.sum(v * apply_op(v)) > 0.0


@pytest.mark.parametrize("shape", [(25, 24), (7, 5, 3), (1, 24, 24), (3, 1, 4)])
def test_flat_shift_stencil_matches_sliced_differences(shape):
    rng = substream(46, "stencil")
    u, base = rng.standard_normal(shape), rng.standard_normal(shape)
    sliced = base.copy()
    for lo, hi in solver._faces(len(shape)):
        sliced[lo] -= u[hi]
        sliced[hi] -= u[lo]
    for v in (u, np.asfortranarray(u)):
        out = base.copy()
        solver._subtract_neighbours(out, v)
        assert np.array_equal(out, sliced)


def _planes_per_slab(plane):
    """Planes per slab of the blocked passes, for planes of shape `plane`."""
    long = solver._FaceKernel(np.zeros((10 ** 6 // math.prod(plane), *plane), np.uint8), 0.1)
    assert len(long._slabs) > 2
    return long._slabs[0].stop


def _slab_kernel(dim, length):
    """A kernel whose axis 0 is `length` planes of a fixed plane shape, with
    every role, and a random field."""
    plane = (24,) if dim == 2 else (12, 10)
    rng = substream(47, f"slab-{dim}-{length}")
    roles = rng.choice([MATERIAL] * 4 + [HOLE, EXTERIOR, solver._INSULATING],
                       size=(length, *plane)).astype(np.uint8)
    return solver._FaceKernel(roles, 0.1, 0.7), rng.standard_normal(roles.shape)


def _fine_diagonal(kernel, dtype):
    """The kernel's Jacobi diagonal times dx^2, count + reaction*dx^2,
    computed in `dtype`."""
    return kernel.counts.astype(dtype) + dtype(kernel.reaction * kernel.dx ** 2)


def _sliced_apply(kernel, u):
    """The apply by sliced differences on the whole array, in the dtype of u
    and the blocked apply's order of operations: (count + reaction*dx^2)*u -
    neighbours, then times 1/dx^2, then times the unknown flags."""
    out = _fine_diagonal(kernel, u.dtype.type) * u
    for lo, hi in solver._faces(u.ndim):
        out[lo] -= u[hi]
        out[hi] -= u[lo]
    return out * (1.0 / kernel.dx ** 2) * kernel.unknown


_SLAB_LENGTHS = [("one", lambda s: 1), ("slab-1", lambda s: s - 1), ("slab", lambda s: s),
                 ("slab+1", lambda s: s + 1), ("2slab+3", lambda s: 2 * s + 3)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("length", [f for _, f in _SLAB_LENGTHS],
                         ids=[name for name, _ in _SLAB_LENGTHS])
def test_blocked_passes_match_whole_array_passes(dim, length):
    # axis-0 lengths around the slab length; every result bitwise equal to
    # the sliced differences on the whole array, in float64 and in float32,
    # the precision the solve runs in
    slab = _planes_per_slab((24,) if dim == 2 else (12, 10))
    kernel, u64 = _slab_kernel(dim, length(slab))
    r64 = np.where(kernel.unknown, substream(48, "slab-r").standard_normal(u64.shape), 0.0)
    for dtype in (np.float64, np.float32):
        u, r = u64.astype(dtype), r64.astype(dtype)
        expected = _sliced_apply(kernel, u)
        assert expected.dtype == dtype
        out = np.full(u.shape, np.nan, dtype)
        assert kernel.apply(u, out=out) is out
        assert np.array_equal(out, expected)
        assert np.array_equal(kernel.apply(u), expected)
        assert np.array_equal(kernel.apply(np.asfortranarray(u)), expected)
        # the multigrid's fine-level residual, slab by slab, with and
        # without the plane below handed in
        for slab in kernel._slabs:
            res = np.full((slab.stop - slab.start,) + u.shape[1:], np.nan, dtype)
            assert kernel.residual(res, r, u, slab) is res
            assert np.array_equal(res, (r - expected)[slab])
            if slab.start:
                below = u[slab.start - 1].copy()
                moved = u.copy()
                moved[slab.start - 1] = np.nan  # must be read from `below`
                kernel.residual(res, r, moved, slab, below)
                assert np.array_equal(res, (r - expected)[slab])


def _whole_array_residual(level, r, x):
    """r - A x of a multigrid level on the whole array: the fine kernel by
    sliced differences, a coarse level by its weighted faces."""
    if isinstance(level, solver._FaceKernel):
        return r - _sliced_apply(level, x)
    out = level.diag * x
    for w, (lo, hi) in zip(level.weights, solver._faces(x.ndim)):
        out[lo] -= w * x[hi]
        out[hi] -= w * x[lo]
    return r - out


def _whole_array_vcycle(levels, r, k=0):
    """The V-cycle of solver._vcycle by whole-array passes, in the dtype of
    r.  The fine level's sweeps divide by its diagonal times dx^2, count +
    reaction*dx^2, and multiply by the weight times dx^2; a coarse level's
    use its (float32) diagonal and the weight."""
    level = levels[k]
    if k == len(levels) - 1:
        return r / level.diag
    if isinstance(level, solver._FaceKernel):
        diag = _fine_diagonal(level, r.dtype.type)
        weight = solver._JACOBI_WEIGHT * level.dx ** 2
    else:
        diag, weight = level.diag, solver._JACOBI_WEIGHT
    x = r / diag
    x *= weight
    axes = solver._coarse_axes(r.shape)
    coarse = solver._pair_sum(_whole_array_residual(level, r, x), axes)
    solver._prolong_add(x, _whole_array_vcycle(levels, coarse, k + 1), axes)
    x *= level.unknown
    x += _whole_array_residual(level, r, x) / diag * weight
    return x


def test_vcycle_by_slabs_matches_whole_array_passes():
    # three slabs, the last of three planes, and an odd axis in the plane:
    # the in-place sweep hands each slab the plane below as it was before
    # the sweep moved it, so the cycle is bitwise that of whole arrays, in
    # float64 and in float32, the precision the solve runs in
    plane = (12, 9)
    length = 2 * _planes_per_slab(plane) + 3
    rng = substream(51, "vcycle-slabs")
    roles = rng.choice([MATERIAL] * 4 + [HOLE, EXTERIOR, solver._INSULATING],
                       size=(length, *plane)).astype(np.uint8)
    kernel = solver._FaceKernel(roles, 0.1, 0.7)
    assert len(kernel._slabs) == 3
    levels = [kernel, *kernel._coarse_levels]
    r64 = np.where(kernel.unknown, rng.standard_normal(roles.shape), 0.0)
    for dtype in (np.float64, np.float32):
        r = r64.astype(dtype)
        x = solver._vcycle(levels, r)
        assert x.dtype == dtype
        assert np.array_equal(x, _whole_array_vcycle(levels, r))


def test_blocked_apply_on_a_thin_window():
    flags = _random_mask(44, cells=24).flags[None]
    kernel = solver._FaceKernel(flags, 1.0 / 24, 0.3)
    u = substream(49, "thin").standard_normal(flags.shape)
    assert len(kernel._slabs) == 1
    assert np.array_equal(kernel.apply(u), _sliced_apply(kernel, u))


@pytest.mark.parametrize("shape", [(16, 8, 6), (15, 8, 6), (1, 24, 24), (7, 10)])
def test_prolongation_adds_each_coarse_value_to_its_block(shape):
    # the broadcast path (every coarse axis even) and the repeat path (an
    # odd axis) against an explicit loop over the cells
    rng = substream(50, "prolong")
    axes = solver._coarse_axes(shape)
    x = rng.standard_normal(shape)
    e = rng.standard_normal([(n + 1) // 2 if a in axes else n for a, n in enumerate(shape)])
    expected = x.copy()
    for index in np.ndindex(shape):
        expected[index] += e[tuple(i // 2 if a in axes else i for a, i in enumerate(index))]
    solver._prolong_add(x, e, axes)
    assert np.array_equal(x, expected)


def _reusing(fn, out):
    """fn with its result copied into `out`, which it returns every call."""
    def reused(v):
        out[...] = fn(v)
        return out
    return reused


def _refined_by_hand(kernel, b, tol):
    """`minimize`'s refinement loop by whole-array passes, on a kernel of
    one slab (so a whole-array sum is its sum): float32 CG preconditioned by
    the V-cycle on the residual scaled to unit norm, then x and the residual
    updated in float64.  Returns (x, CG iterations)."""
    assert len(kernel._slabs) == 1
    levels = [kernel, *kernel._coarse_levels]
    r, x, iterations = b.copy(), np.zeros(b.shape), 0
    b_norm = r_norm = math.sqrt(np.sum(r * r))
    while r_norm / b_norm > tol:
        step = (r * (1.0 / r_norm)).astype(np.float32)
        e, rep = cg_solve(kernel.apply, step, precondition=partial(solver._vcycle, levels),
                          tol=max(solver._INNER_REDUCTION, tol / (r_norm / b_norm) / 2))
        iterations += rep.iterations
        e = e.astype(np.float64)
        r -= kernel.apply(e) * r_norm
        x += e * r_norm
        r_norm = math.sqrt(np.sum(r * r))
    return x, iterations


def test_cg_accepts_one_reused_result_array():
    # apply_op and precondition returning one array, as minimize's do, give
    # bitwise the solve of fresh arrays; minimize is bitwise its refinement
    # loop built by hand from such solves
    n = 8
    A = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.zeros(n)
    b[0] = 1.0
    diag = np.diag(A).copy()
    cases = [(lambda v: A @ v, lambda r: r / diag, b)]
    kernel, rhs = _kernel_and_rhs(_absorbing_holes)
    cases.append((kernel.apply, partial(_vcycle, kernel), rhs))
    for apply_op, precondition, b in cases:
        x, rep = cg_solve(apply_op, b, tol=1e-12, precondition=precondition)
        shared = np.empty_like(b)
        x_shared, rep_shared = cg_solve(_reusing(apply_op, shared), b, tol=1e-12,
                                        precondition=_reusing(precondition, shared))
        assert rep_shared.iterations == rep.iterations > 1
        assert np.array_equal(x_shared, x)
    x_hand, iterations = _refined_by_hand(kernel, rhs, 1e-12)
    x_min, rep_min = kernel.minimize(rhs.copy(), tol=1e-12)
    assert rep_min.iterations == iterations > rep.iterations
    assert np.array_equal(x_min, x_hand)


def _traced_peak(fn):
    """The peak of the memory traced while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _warm_minimize_peak(cells):
    """The traced peak of a second `minimize` on a hole-free cube, in grid
    arrays; the right-hand side it consumes is copied before tracing."""
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / cells)
    kernel = solver._FaceKernel(mask.flags, mask.dx, 1.0)
    b = np.where(kernel.unknown, 1.0, 0.0)
    kernel.minimize(b.copy(), tol=1e-8)
    fresh = b.copy()
    return _traced_peak(partial(kernel.minimize, fresh, tol=1e-8)) / b.nbytes


def test_warm_minimize_holds_no_more_than_five_grid_arrays():
    # x, p, CG's scratch and the shared apply/preconditioner output, r being
    # the consumed right-hand side, plus the slab and coarse-level arrays of
    # the V-cycle
    peak = _warm_minimize_peak(48)
    assert peak <= 5, peak


def test_warm_64_cube_minimize_holds_no_more_than_three_and_three_quarter_grid_arrays():
    # the float64 solution, r being the consumed right-hand side, and the
    # float32 CG's residual, solution, p and shared apply/preconditioner
    # output, half a grid array each: CG's scratch is one slab, and the
    # V-cycle's slab and float32 coarse-level arrays fill the rest
    peak = _warm_minimize_peak(64)
    assert peak <= 3.75, peak


def test_cold_64_cube_dirichlet_solve_holds_no_more_than_five_and_a_half_grid_arrays():
    # the kernel's face counts and float32 hierarchy, the right-hand side,
    # built in the source array, and the solve, which keeps its float64
    # residual in that right-hand side: no float diagonal of the grid's size
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / 64)
    peak = _traced_peak(partial(ph.solve_dirichlet_perforated, mask, 1.0, "-1"))
    assert peak <= 5.5 * 8 * mask.flags.size, peak / (8 * mask.flags.size)


def test_dirichlet_solve_leaves_a_source_array_unchanged():
    # as_source returns a float64 source array itself; the solve consumes
    # only the right-hand side it builds from it
    mask = _random_mask(3, cells=16)
    f = substream(7, "source").standard_normal(mask.shape)
    before = f.copy()
    assert as_source(f, mask) is f
    ph.solve_dirichlet_perforated(mask, 1.0, f)
    assert np.array_equal(f, before)
    # nor one of an ndarray subclass, which as_source returns as a view
    sub = f.view(np.memmap)
    assert as_source(sub, mask) is not sub
    ph.solve_dirichlet_perforated(mask, 1.0, sub)
    assert np.array_equal(f, before)


def test_cg_overwriting_b_solves_bitwise_as_the_default():
    kernel, b = _kernel_and_rhs(_absorbing_holes)
    x, rep = cg_solve(kernel.apply, b, tol=1e-12, precondition=partial(_vcycle, kernel))
    consumed = b.copy()
    x_over, rep_over = cg_solve(kernel.apply, consumed, tol=1e-12,
                                precondition=partial(_vcycle, kernel), overwrite_b=True)
    assert rep_over.iterations == rep.iterations > 1
    assert np.array_equal(x_over, x)
    assert not np.array_equal(consumed, b)


def test_cg_over_several_chunks_matches_a_dense_oracle(monkeypatch):
    # 36 cells per chunk on planes of 4 x 3 cells: 3 planes per chunk, so the
    # 7 planes of the grid are chunks of 3, 3 and 1
    monkeypatch.setattr(solver, "_SLAB_CELLS", 36)
    shape = (7, 4, 3)
    planes = solver._SLAB_CELLS // (shape[1] * shape[2])
    assert shape[0] // planes >= 2 and shape[0] % planes
    roles = np.full(shape, MATERIAL, dtype=np.uint8)
    roles[3, 1, 1] = roles[6, 2, 0] = HOLE
    kernel = solver._FaceKernel(roles, 0.25, 1.5)
    unknown = kernel.unknown.ravel()
    columns = []
    for i in np.flatnonzero(unknown):
        e = np.zeros(roles.size)
        e[i] = 1.0
        columns.append(kernel.apply(e.reshape(shape)).ravel()[unknown])
    A = np.array(columns).T
    b = np.where(kernel.unknown, substream(5, "chunks").random(shape), 0.0)
    b_before = b.copy()
    consumed = b.copy()
    for x, rep in (cg_solve(kernel.apply, b, tol=1e-9, diag=kernel.diag),
                   kernel.minimize(consumed, tol=1e-9)):
        assert np.array_equal(b, b_before)
        direct = np.linalg.solve(A, b.ravel()[unknown])
        assert np.abs(x.ravel()[unknown] - direct).max() <= 1e-8 * np.abs(direct).max()
        assert np.all(x[~kernel.unknown] == 0.0)
        # the residual CG updates chunk by chunk is the one a recomputation gives
        true = np.linalg.norm(b.ravel()[unknown] - A @ x.ravel()[unknown]) / np.linalg.norm(b)
        assert rep.final_rel_residual <= 1e-9
        assert abs(rep.final_rel_residual - true) <= 1e-3 * true, (rep.final_rel_residual, true)
    # minimize consumes its right-hand side: the array ends as CG's final residual
    ratio = np.linalg.norm(consumed) / np.linalg.norm(b)
    assert abs(ratio - rep.final_rel_residual) <= 1e-12 * rep.final_rel_residual


_CLOSED_FORM_GRIDS = [(UNIT2, 1 / 9), (UNIT2, 1 / 16), (ph.Box.unit(3), 1 / 9),
                      (ph.Box.unit(3), 1 / 12)] + [
    (ph.Box((0.0, -1.0, 0.5)[:dim], (1.0, 0.5, 2.0)[:dim]), 1 / 8) for dim in (2, 3)]


@pytest.mark.parametrize("reaction", [0.0, 476.5])
@pytest.mark.parametrize("box, dx", _CLOSED_FORM_GRIDS)
def test_hole_free_closed_form_matches_multigrid_cg(box, dx, reaction):
    # odd, even and non-cubic grids, with and without a reaction: the DST
    # solve is the CG solve of the same system, to CG's tolerance
    mask = ph.hole_free_mask(box, dx)
    f = substream(11, "closed-form", mask.flags.size).standard_normal(mask.shape)
    u = solver._solve_hole_free(mask, reaction, f)
    x, rep = solver._FaceKernel(mask.flags, dx, reaction).minimize(-f, tol=1e-12)
    assert rep.iterations > 1
    assert np.max(np.abs(u - x)) <= 1e-10 * np.max(np.abs(x))
    residual = solver.make_operator(mask, reaction)(u) + f
    assert np.sqrt(np.sum(residual ** 2)) <= 1e-13 * np.sqrt(np.sum(f * f))


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (8,), (5, 6), (9, 4, 7), (1, 3, 2)])
def test_dst_matches_scipy_and_inverts(shape):
    from scipy.fft import dstn
    x = substream(12, "dst", len(shape)).standard_normal(shape)
    y = x.copy()
    for axis, n in enumerate(shape):
        solver._dst2(y, axis, solver._dst_twiddles(n))
    reference = dstn(x, type=2)
    assert np.max(np.abs(y - reference)) <= 1e-12 * np.max(np.abs(reference))
    for axis, n in enumerate(shape):
        solver._idst2(y, axis, solver._dst_twiddles(n, inverse=True))
    assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))


def test_closed_form_over_several_slabs_and_blocks(monkeypatch):
    # 36 cells per block on a 7 x 4 x 3 grid: slabs of 3, 3 and 1 planes and
    # blocks of 1 column of axis 1 (7 x 3 cells), against a dense solve
    monkeypatch.setattr(solver, "_SLAB_CELLS", 36)
    mask = ph.hole_free_mask(ph.Box((0.0,) * 3, (1.75, 1.0, 0.75)), 0.25)
    assert mask.shape == (7, 4, 3)
    f = substream(13, "closed-form-chunks").standard_normal(mask.shape)
    apply = solver.make_operator(mask, 1.5)
    columns = [apply(e.reshape(mask.shape)).ravel() for e in np.eye(f.size)]
    dense = np.linalg.solve(np.array(columns).T, -f.ravel()).reshape(mask.shape)
    u = solver._solve_hole_free(mask, 1.5, f)
    assert np.max(np.abs(u - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_closed_form_holds_no_more_than_two_grid_arrays():
    # the solution, made in the evaluated source itself or in one copy of a
    # source array, and blocks of at most _SLAB_CELLS cells beside it
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / 64)
    f = np.full(mask.shape, -1.0)
    for source in ("-1", f):
        peak = _traced_peak(partial(solver._solve_hole_free, mask, 1.0, source))
        assert peak <= 2 * f.nbytes, peak / f.nbytes


def _hole_free_condition(mask):
    """cond(A) of the hole-free operator at reaction 0: the sums over the
    axes of each axis's largest and smallest eigenvalue, in ratio."""
    eigenvalues = [solver._hole_free_eigenvalues(n, mask.dx) for n in mask.shape]
    return sum(e[-1] for e in eigenvalues) / sum(e[0] for e in eigenvalues)


def _point_source(n):
    """A unit point source, -1/dx^3 in the center cell, on the n^3 unit cube."""
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / n)
    f = np.zeros(mask.shape)
    f[n // 2, n // 2, n // 2] = -1.0 / mask.dx ** 3
    return mask, f


def test_point_source_extrapolates_to_watsons_lattice_constant():
    # u(center)*dx is the lattice Green's function at the origin less a
    # boundary term linear in dx: 0.248514, 0.250591 and 0.251653 at n = 33,
    # 65 and 129, and Richardson's 2 G(129) - G(65) is Watson's integral
    # G0 = 0.2527310 of the simple cubic lattice
    values = {}
    for n in (33, 65, 129):
        mask, f = _point_source(n)
        values[n] = solver._solve_hole_free(mask, 0.0, f)[n // 2, n // 2, n // 2] * mask.dx
    assert values[33] < values[65] < values[129] < 0.2527310
    assert abs(2 * values[129] - values[65] - 0.2527310) <= 1e-4


def test_point_source_multigrid_solve_matches_the_closed_form():
    # a non-smooth source, where the float32 rounding of the refinement's
    # inner solves would show: the solution is the closed form's to within
    # cond(A) times the tolerance
    mask, f = _point_source(33)
    exact = solver._solve_hole_free(mask, 0.0, f)
    u, rep = ph.solve_dirichlet_perforated(mask, 0.0, f, tol=1e-10)
    assert rep.final_rel_residual <= 1e-10
    error = np.linalg.norm(u.values - exact) / np.linalg.norm(exact)
    assert error <= _hole_free_condition(mask) * 1e-10, error


def test_64_cube_solve_reaches_a_tight_float64_tolerance():
    # float32 inner solves bound no accuracy: the refinement reaches 1e-12,
    # the true residual agrees, and so does the closed form
    mask = ph.hole_free_mask(ph.Box.unit(3), 1.0 / 64)
    u, rep = ph.solve_dirichlet_perforated(mask, 0.0, "-1", tol=1e-12)
    assert rep.final_rel_residual <= 1e-12
    b = np.ones(mask.shape)
    residual = np.linalg.norm(b - solver.make_operator(mask, 0.0)(u.values)) / np.linalg.norm(b)
    assert residual <= 2e-12, residual
    exact = solver._solve_hole_free(mask, 0.0, "-1")
    error = np.linalg.norm(u.values - exact) / np.linalg.norm(exact)
    assert error <= _hole_free_condition(mask) * 1e-12, error


def test_closed_form_refuses_holes_and_leaves_its_source_unchanged():
    mask = _random_mask(3, cells=16)
    assert mask.hole_count > 0
    with pytest.raises(InvalidArgumentError, match="material cells only"):
        solver._solve_hole_free(mask, 1.0, "-1")
    for role in (EXTERIOR, solver._INSULATING):
        flags = np.zeros((8, 8), np.uint8)
        flags[3, 4] = role
        roles = ph.PerforatedMask(flags=flags, dx=1 / 8, domain=UNIT2)
        with pytest.raises(InvalidArgumentError, match="material cells only"):
            solver._solve_hole_free(roles, 1.0, "-1")
    flat = ph.hole_free_mask(UNIT2, 1.0 / 16)
    with pytest.raises(InvalidArgumentError, match="reaction"):
        solver._solve_hole_free(flat, -1.0, "-1")
    f = substream(14, "closed-form-source").standard_normal(flat.shape)
    before = f.copy()
    solver._solve_hole_free(flat, 1.0, f)
    assert np.array_equal(f, before)


def test_cg_identity_one_iteration():
    b = np.arange(1.0, 10.0)
    x, rep = cg_solve(lambda v: v, b, tol=1e-12, max_iter=10)
    assert rep.iterations == 1
    assert np.allclose(x, b, rtol=1e-12)


def test_cg_matches_tridiagonal_oracle():
    n = 8
    A = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.zeros(n)
    b[0] = 1.0
    x, _ = cg_solve(lambda v: A @ v, b, tol=1e-12, max_iter=100)
    direct = np.linalg.solve(A, b)
    assert np.abs(x - direct).max() <= 1e-10


def _iterations_on_refined_squares(jacobi):
    """CG iterations of the hole-free Dirichlet problem for the source x*y - 1
    on 32^2, 64^2 and 128^2 cells: Jacobi-CG, or the solve path's MG-PCG."""
    iters = []
    for n in (32, 64, 128):
        mask = ph.hole_free_mask(UNIT2, 1.0 / n)
        kernel = solver._FaceKernel(mask.flags, mask.dx)
        b = np.where(kernel.unknown, -as_source("x*y-1", mask), 0.0)
        if jacobi:
            _, rep = cg_solve(kernel.apply, b, tol=1e-8, diag=kernel.diag)
        else:
            _, rep = kernel.minimize(b, tol=1e-8)
        iters.append(rep.iterations)
    return iters


def test_cg_iteration_growth():
    # Jacobi-CG iterations grow like the grid side
    iters = _iterations_on_refined_squares(jacobi=True)
    assert 1.4 <= iters[1] / iters[0] <= 2.8
    assert 1.4 <= iters[2] / iters[1] <= 2.8


def test_multigrid_iterations_grow_slowly():
    jacobi = _iterations_on_refined_squares(jacobi=True)
    mg = _iterations_on_refined_squares(jacobi=False)
    assert mg[2] <= jacobi[2] / 4
    assert mg[1] / mg[0] <= 1.6 and mg[2] / mg[1] <= 1.6


def _pad_random(shape, seed):
    return np.pad(substream(seed, "kernel-data").standard_normal(shape), 1)


def _absorbing_holes():
    mask = _random_mask(41, cells=18, dim=3)
    assert np.any(mask.flags == HOLE)
    return solver._FaceKernel(mask.flags, mask.dx, 1.0)


def _exterior_cells():
    # the masks of _dirichlet_with_exterior, on a non-square 25 x 24 grid
    mask = _random_mask(13, cells=24)
    flags = np.concatenate([mask.flags, np.full((1, 24), MATERIAL, np.uint8)])
    flags[:3, :5] = EXTERIOR
    flags[8:10, 8:10] = EXTERIOR
    return solver._FaceKernel(flags, mask.dx, 1.0)


def _insulating_with_penalty():
    mask = _affine_mask(31)
    roles = np.where(mask.material, MATERIAL, solver._INSULATING)
    data = _pad_random(roles.shape, 42)
    return solver._FaceKernel(roles, mask.dx, 8.0, data=data,
                              target=data[(slice(1, -1),) * 3])


def _sealed_pocket_at_penalty_zero():
    # _affine_cell_problem's roles: the pocket inside the hole shell is no
    # unknown, nor is the shell
    flags = np.full((12, 12, 12), MATERIAL, np.uint8)
    flags[3:8, 3:8, 3:8] = HOLE
    flags[4:7, 4:7, 4:7] = MATERIAL
    border = np.ones(flags.shape, dtype=bool)
    border[1:-1, 1:-1, 1:-1] = False
    mat = flags == MATERIAL
    free = ndimage.binary_propagation(mat & border, mask=mat)
    roles = np.where(free, MATERIAL, solver._INSULATING)
    return solver._FaceKernel(roles, 1.0 / 12, 0.0, data=_pad_random(roles.shape, 43))


def _thin_window_reaction_zero():
    # a capacity window one cell thick, with holes: data 1 on the faces
    flags = _random_mask(44, cells=24).flags[None]
    data = np.pad(np.zeros(flags.shape), 1, constant_values=1.0)
    return solver._FaceKernel(flags, 1.0 / 24, data=data)


def _large_reaction_2d():
    # the homogenized solve with c ~ 475, in 2D on an odd grid
    mask = ph.hole_free_mask(ph.Box.unit(2), 1.0 / 27)
    return solver._FaceKernel(mask.flags, mask.dx, 1.0 + 475.5)


KERNELS = [_absorbing_holes, _exterior_cells, _insulating_with_penalty,
           _sealed_pocket_at_penalty_zero, _thin_window_reaction_zero, _large_reaction_2d]
KERNEL_IDS = ["absorbing-holes-18^3", "exterior-25x24", "insulating-penalty",
              "sealed-pocket-penalty-0", "thin-window-1x24x24", "reaction-475-27^2"]


def _vcycle(kernel, r):
    """One V-cycle of the kernel's multigrid preconditioner on r."""
    return solver._vcycle([kernel, *kernel._coarse_levels], r)


def _kernel_and_rhs(case):
    kernel = case()
    b = kernel.rhs()
    if not b.any():  # no data: the Dirichlet problem with source -1
        b = np.where(kernel.unknown, 1.0, 0.0)
    return kernel, b


@pytest.mark.parametrize("case", KERNELS, ids=KERNEL_IDS)
def test_vcycle_is_symmetric_positive_definite(case):
    kernel, _ = _kernel_and_rhs(case)
    rng = substream(45, "vcycle-spd")
    for _ in range(5):
        x, y = (np.where(kernel.unknown, rng.standard_normal(kernel.unknown.shape), 0.0)
                for _ in range(2))
        mx, my = _vcycle(kernel, x), _vcycle(kernel, y)
        assert np.all(mx[~kernel.unknown] == 0.0)
        assert abs(np.sum(mx * y) - np.sum(x * my)) <= 1e-13 * math.sqrt(
            np.sum(mx * mx) * np.sum(y * y))
        assert np.sum(mx * x) > 0.0


def _condition_number(kernel):
    """cond(A) of the kernel's system on its unknown cells, by Lanczos."""
    from scipy.sparse.linalg import LinearOperator, eigsh
    unknown = kernel.unknown
    n = int(np.count_nonzero(unknown))

    def matvec(v):
        full = np.zeros(unknown.shape)
        full[unknown] = v.ravel()
        return kernel.apply(full)[unknown]

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    lo, hi = (eigsh(op, k=1, which=which, tol=1e-4, return_eigenvectors=False)[0]
              for which in ("SA", "LA"))
    return hi / lo


@pytest.mark.parametrize("case", KERNELS, ids=KERNEL_IDS)
def test_multigrid_matches_jacobi(case):
    # each stops at relative residual tol, so each is within cond(A) * tol
    # of the exact solution, relative to its norm
    kernel, b = _kernel_and_rhs(case)
    tol = 1e-10
    x_mg, mg = kernel.minimize(b.copy(), tol=tol)
    x_jac, jac = cg_solve(kernel.apply, b, tol=tol, diag=kernel.diag)
    assert mg.final_rel_residual <= tol and jac.final_rel_residual <= tol
    assert mg.iterations < jac.iterations
    bound = 2.0 * _condition_number(kernel) * tol * math.sqrt(np.sum(x_jac * x_jac))
    assert math.sqrt(np.sum((x_mg - x_jac) ** 2)) <= bound


def test_solver_failure_carries_history():
    mask = ph.hole_free_mask(UNIT2, 1.0 / 32)
    with pytest.raises(SolverFailureError) as err:
        ph.solve_dirichlet_perforated(mask, 1.0, "-1", tol=1e-30, max_iter=5)
    assert len(err.value.residual_history) > 1


def _recording_inner_solves(monkeypatch):
    """Record (max_iter, iterations) of every float32 CG solve of minimize."""
    steps = []

    def recording_cg(apply_op, b, **kwargs):
        x, report = cg_solve(apply_op, b, **kwargs)
        steps.append((kwargs["max_iter"], report.iterations))
        return x, report

    monkeypatch.setattr(solver, "cg_solve", recording_cg)
    return steps


def test_refinement_steps_share_one_iteration_budget(monkeypatch):
    steps = _recording_inner_solves(monkeypatch)
    kernel, b = _kernel_and_rhs(_absorbing_holes)
    x, rep = kernel.minimize(b.copy(), tol=1e-12)
    assert x.dtype == np.float64 and rep.final_rel_residual <= 1e-12
    assert len(steps) >= 2
    # the default budget is 20 * max(shape), and each step gets what the
    # steps before it left; the report sums the iterations of all steps
    done = np.cumsum([0] + [iterations for _, iterations in steps])
    assert [budget for budget, _ in steps] == [20 * max(b.shape) - d for d in done[:-1]]
    assert rep.iterations == done[-1]
    # the iterations the steps made are budget enough, one fewer is not:
    # every step but the last completes, and the last fails
    made = [n for _, n in steps]
    steps.clear()
    kernel.minimize(b.copy(), tol=1e-12, max_iter=rep.iterations)
    assert [n for _, n in steps] == made
    steps.clear()
    with pytest.raises(SolverFailureError, match="did not reach") as err:
        kernel.minimize(b.copy(), tol=1e-12, max_iter=rep.iterations - 1)
    assert [n for _, n in steps] == made[:-1]
    # the history of the steps before it, then the failed step's CG history
    # of its budget, made[-1] - 1 iterations
    history = err.value.residual_history
    assert len(history) == len(made) + made[-1] - 1
    steps_history = history[:len(made)]
    assert steps_history[0] == 1.0
    assert all(b <= a / 2 for a, b in zip(steps_history, steps_history[1:]))


def test_a_step_that_does_not_halve_the_residual_raises(monkeypatch):
    # an inner solve that returns no correction leaves the residual where it
    # was: the loop raises after that one step instead of repeating it
    steps = []

    def no_correction(apply_op, b, **kwargs):
        steps.append(kwargs["tol"])
        return np.zeros_like(b), solver.SolveReport(1, kwargs["tol"], 0.0)

    monkeypatch.setattr(solver, "cg_solve", no_correction)
    kernel, b = _kernel_and_rhs(_absorbing_holes)
    with pytest.raises(SolverFailureError, match="did not halve") as err:
        kernel.minimize(b, tol=1e-8)
    assert steps == [solver._INNER_REDUCTION]
    assert err.value.residual_history == [1.0, 1.0]


def test_a_zero_right_hand_side_solves_to_float64_zeros(monkeypatch):
    monkeypatch.setattr(solver, "cg_solve", _no_cg)
    kernel, b = _kernel_and_rhs(_absorbing_holes)
    x, rep = kernel.minimize(np.zeros_like(b), tol=1e-8)
    assert x.dtype == np.float64 and not x.any()
    assert (rep.iterations, rep.final_rel_residual) == (0, 0.0)


def test_reaction_must_be_finite_and_nonnegative():
    # NaN passes a `< 0` check; the solve then ran every CG step on NaN
    roles = np.zeros((4, 4), np.uint8)
    for reaction in (math.nan, math.inf, -1.0):
        with pytest.raises(InvalidArgumentError, match="finite and >= 0"):
            solver._FaceKernel(roles, 0.25, reaction)
    with pytest.raises(InvalidArgumentError, match="finite and >= 0"):
        ph.solve_dirichlet_perforated(ph.hole_free_mask(ph.Box.unit(3), 1 / 16),
                                      math.nan, "-1")


def _no_cg(*args, **kwargs):
    raise AssertionError("a CG iteration ran")


def test_solve_refuses_tol_and_max_iter_before_any_cg_iteration(monkeypatch):
    # max_iter = 0 used to end in SolverFailureError ("in 0 iterations"),
    # and a NaN tol passed the old `tol <= 0` check
    monkeypatch.setattr(solver, "cg_solve", _no_cg)
    mask = ph.hole_free_mask(UNIT2, 1.0 / 16)
    for kwargs, message in (({"max_iter": 0}, "max_iter must be positive"),
                            ({"max_iter": -2}, "max_iter must be positive"),
                            ({"tol": 0.0}, "tol must be positive"),
                            ({"tol": math.nan}, "tol must be positive")):
        with pytest.raises(InvalidArgumentError, match=message):
            ph.solve_dirichlet_perforated(mask, 1.0, "-1", **kwargs)


def test_cg_breaks_down_at_the_first_nan_step():
    with pytest.raises(SolverFailureError, match="breakdown at iteration 1") as err:
        cg_solve(lambda p: np.full_like(p, np.nan), np.ones(8))
    assert len(err.value.residual_history) == 1


def test_expression_grammar():
    fn = parse_expression("sin(pi*x)*cos(y)+exp(-x)/2-1")
    out = fn(x=np.array([0.5]), y=np.array([0.0]))
    assert np.isclose(out[0], 1.0 + math.exp(-0.5) / 2 - 1.0)
    for bad in ("__import__('os')", "x**2", "foo(x)", "lambda: 1", "[1,2]"):
        with pytest.raises(InvalidArgumentError):
            parse_expression(bad)
    with pytest.raises(InvalidArgumentError):
        parse_expression("z")(x=np.zeros(2), y=np.zeros(2))


@pytest.mark.parametrize("dim, cells", [(2, 1024), (3, 96)])
def test_sources_evaluate_on_sparse_coordinates(dim, cells):
    # coordinates broadcast from one axis each: a constant source allocates
    # about its result, and every source equals a dense evaluation
    mask = ph.hole_free_mask(ph.Box.unit(dim), 1 / cells)
    tracemalloc.start()
    try:
        values = evaluate_on_mask("-1", mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.nbytes, (peak, values.nbytes)
    mask = ph.hole_free_mask(ph.Box((0.0, -1.0, 0.5)[:dim], (1.0, 0.5, 2.0)[:dim]), 1 / 8)
    grids = np.meshgrid(*[mask.axis_centers(a) for a in range(dim)], indexing="ij")
    for text in ("-1", "pi", "y", "x*y-1", "sin(pi*x)*sin(pi*y)",
                 "-(2*pi*pi+1)*sin(pi*x)*sin(pi*y)", "sin(pi*x)*cos(y)+exp(-x)/2-1"):
        dense = parse_expression(text)(**dict(zip("xyz", grids)))
        assert np.array_equal(evaluate_on_mask(text, mask),
                              np.broadcast_to(np.asarray(dense, dtype=float), mask.shape)), text


def test_field_round_trip(tmp_path):
    mask = _random_mask(19, cells=24)
    rng = substream(20, "field-io")
    u = ph.GridField(mask, np.where(mask.material, rng.standard_normal(mask.shape), 0.0))
    path = tmp_path / "field.txt"
    ph.save_field(u, path)
    back = ph.load_field(path)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.mask.flags, mask.flags)


def test_truncated_or_miscounted_field_file_is_refused(tmp_path):
    mask = ph.hole_free_mask(UNIT2, 1.0 / 8)
    u, _ = ph.solve_dirichlet_perforated(mask, 1.0, "-1")
    path = tmp_path / "field.txt"
    ph.save_field(u, path)
    lines = path.read_text().splitlines(keepends=True)
    values_line = next(i for i, line in enumerate(lines) if line.startswith("values "))
    path.write_text("".join(lines[:-2]))  # ends before its values do
    with pytest.raises(InvalidArgumentError, match="ends after"):
        ph.load_field(path)
    lines[values_line] = f"values {mask.material_count - 1}\n"
    path.write_text("".join(lines))
    with pytest.raises(InvalidArgumentError, match="material cells"):
        ph.load_field(path)
    # a values line with more numbers than the count leaves, and a line after
    # the values, are refused rather than cut off
    lines[values_line] = f"values {mask.material_count}\n"
    for tail in (lines[-1].rstrip("\n") + " 0.5 0.5\n", lines[-1] + "values 3\n1 2 3\n"):
        path.write_text("".join(lines[:-1] + [tail]))
        with pytest.raises(InvalidArgumentError, match="goes on past"):
            ph.load_field(path)
    # a header without its number or without its key word, a values line
    # without its count, and a value that is not a number, each refused
    # naming its line
    ph.save_field(u, path)
    lines = path.read_text().splitlines(keepends=True)
    for i, bad in [(0, "percohom-field format_version"), (0, "percohom-field 1"),
                   (1, "percohom-mask garbage words 1"), (values_line, "values"),
                   (values_line + 1, "0.5 x")]:
        path.write_text("".join(lines[:i] + [bad + "\n"] + lines[i + 1:]))
        with pytest.raises(InvalidArgumentError, match=re.escape(bad)):
            ph.load_field(path)


def test_jacobi_diagonal_positive():
    mask = _random_mask(21, cells=16)
    diag = operator_diagonal(mask, 0.0)
    assert np.all(diag > 0)
    # the face weights of each material cell over dx^2 plus the reaction,
    # summed here face by face from the weight table; 1 elsewhere
    roles = np.pad(mask.flags, 1, constant_values=EXTERIOR)
    faces = np.zeros(roles.shape)
    for lo, hi in solver._faces(roles.ndim):
        w = solver._FACE_WEIGHT[roles[lo], roles[hi]]
        faces[lo] += w
        faces[hi] += w
    expected = np.where(mask.material, faces[1:-1, 1:-1] / mask.dx ** 2 + 0.7, 1.0)
    assert np.array_equal(operator_diagonal(mask, 0.7), expected)
