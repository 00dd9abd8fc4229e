import math

import numpy as np
import pytest

import percohom as ph
from percohom.capacity import capacity_minimizer_on_window
from percohom.errors import InvalidArgumentError
from percohom.expressions import evaluate_on_mask
from percohom.geometry import HOLE
from percohom.rng import substream_seed
from percohom.solver import _solve_hole_free
from percohom.sweep import ErgodicSpec, build_partition_of_unity

UNIT2 = ph.Box.unit(2)


def _rcm_spec(**kw):
    fam = ph.GeometryFamily(kind="rcm", dim=2, intensity=1.0, c1=0.5, c2=1.0)
    base = dict(family=fam, eps_list=(0.125, 0.0625, 0.03125),
                h_list=(0.75, 0.55), reaction=1.0, source="-1",
                grid_cells=128, replicas=1, master_seed=31)
    base.update(kw)
    return ph.SweepSpec(**base)


# ------------------------------------------------------------------ validate

def test_spec_validation_collects_all_diagnostics():
    spec = _rcm_spec(eps_list=(0.125, 0.25, 0.0625), h_list=(0.4,),
                     reaction=-1.0, replicas=0)
    fields = {d["field"] for d in spec.validate()}
    assert {"eps_list", "h_list", "reaction", "replicas"} <= fields
    assert _rcm_spec().validate() == []


def test_resolution_warnings_attached():
    spec = _rcm_spec(grid_cells=16)
    warns = spec.resolution_warnings()
    assert any("fewer than 2 cells" in w for w in warns)


def test_resolution_warnings_check_the_capacity_grid():
    # the PDE grid resolves every ball by at least 2 cells, but the capacity
    # grid of h / 32 does not at every (eps, h)
    fam = ph.GeometryFamily(kind="boolean", dim=3, intensity=1.0, r0=0.35,
                            radius_exponent=1.0)
    spec = ph.SweepSpec(family=fam, eps_list=(0.125, 0.1, 0.0625), h_list=(0.75, 0.55),
                        grid_cells=128, capacity_cells_per_h=32)
    warns = spec.resolution_warnings()
    assert [w.split(":")[0] for w in warns] == [
        "eps=0.125, h=0.75", "eps=0.1, h=0.75", "eps=0.0625, h=0.75", "eps=0.0625, h=0.55"]
    assert all("capacity grid" in w for w in warns)


def test_ergodic_spec_validation_collects_all_diagnostics():
    fam = ph.GeometryFamily(kind="lattice", dim=2)
    spec = ErgodicSpec(functional="volume", family=fam, t_list=(), replicas=1, dx=0.0)
    fields = [d["field"] for d in spec.validate()]
    assert fields == ["functional", "t_list", "replicas", "dx"]
    with pytest.raises(InvalidArgumentError, match="spread needs at least two replicas"):
        ph.ergodic_average_experiment(spec)
    good = ErgodicSpec(functional="affine_energy", family=fam, t_list=(2.0,),
                       replicas=2, dx=0.25)
    assert good.validate() == []


# ----------------------------------------------------------------- run_sweep

def test_sweep_zero_intensity_matches_homogenized_exactly():
    # with no holes every row solves the homogenized problem itself, so its
    # l2_error is the distance of its CG solve to the closed form: CG's own
    # error, within CG's bound.  Such an error measures the solver, not the
    # holes: no eps is fitted, and each is named in a warning.
    fam = ph.GeometryFamily(kind="boolean", dim=3, intensity=0.0, r0=0.2,
                            radius_exponent=3.0)
    spec = ph.SweepSpec(family=fam,
                        eps_list=(0.125, 0.0625, 0.03125), h_list=(0.75, 0.55),
                        grid_cells=24, replicas=1, master_seed=3)
    rep = ph.run_sweep(spec)
    assert rep.c == 0.0
    assert all(r.hole_cells == 0 for r in rep.rows)
    flat = ph.hole_free_mask(ph.Box.unit(3), spec.dx())
    u_hom = ph.GridField(flat, _solve_hole_free(flat, spec.reaction, spec.source))
    u, _ = ph.solve_dirichlet_perforated(flat, spec.reaction, spec.source, tol=spec.tol)
    # cond(A) * tol of the field's norm, cond(A) about 4 n^2 / pi^2 on n cells a side
    bound = 4.0 * spec.grid_cells ** 2 / math.pi ** 2 * spec.tol * ph.l2_norm(u_hom)
    for row in rep.rows:
        assert row.l2_error == ph.l2_distance(u, u_hom)
        assert 0.0 < row.l2_error <= bound
    summary = rep.summary
    assert math.isnan(summary["l2_decay_slope"])
    floored = [w for w in summary["resolution_warnings"] if "CG error bound" in w]
    assert [w.split(":")[0] for w in floored] == [f"eps={e}" for e in spec.eps_list]
    assert len(summary["resolution_warnings"]) == len(spec.resolution_warnings()) + len(floored)


def test_sweep_rows_energy_inequalities_and_empty_cell_law():
    rep = ph.run_sweep(_rcm_spec(replicas=2))
    assert rep.summary["gamma_nonpositive"]
    assert rep.summary["energy_bound_holds"]
    for row in rep.rows:
        assert row.gamma <= 1e-8 * row.energy_rhs
        assert row.energy_lhs <= row.energy_rhs * (1 + 1e-8)
    # measured empty-cell frequency of the unscaled model tracks exp(-1)
    freqs = [r.empty_cell_freq for r in rep.rows
             if not math.isnan(r.empty_cell_freq) and r.eps <= 0.0625]
    assert freqs
    for f, row in zip(freqs, [r for r in rep.rows if r.eps <= 0.0625]):
        cells = round((1.0 / row.eps) ** 2)
        sigma = math.sqrt(math.exp(-1) * (1 - math.exp(-1)) / cells)
        assert abs(f - math.exp(-1)) <= 3 * sigma


def _row_key(row):
    from percohom.reporting import fmt
    from dataclasses import astuple
    return tuple(fmt(v) for v in astuple(row))


def test_sweep_is_deterministic_and_thread_invariant():
    spec = _rcm_spec(grid_cells=64, replicas=2)
    a = ph.run_sweep(spec)
    b = ph.run_sweep(spec)
    assert [_row_key(r) for r in a.rows] == [_row_key(r) for r in b.rows]
    c = ph.run_sweep(spec, threads=2)
    assert [_row_key(r) for r in a.rows] == [_row_key(r) for r in c.rows]
    assert a.summary["l2_error_by_eps"] == c.summary["l2_error_by_eps"]


def test_pool_is_never_larger_than_the_jobs(monkeypatch):
    # a fork pool starts all its workers at its first submit; a recorder
    # stands in for the pool, so no process is started
    import concurrent.futures
    from percohom.sweep import _map
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    assert _map(abs, [-3, 2, -1], 64) == [3, 2, 1]
    assert _map(abs, [-3], 64) == [3]  # one job runs in-process
    assert sizes == [3]
    rep = ph.run_sweep(_rcm_spec(grid_cells=32), threads=8)
    assert len(rep.rows) == 3 and sizes == [3, 3]


def test_sweep_2d_runs_the_capacity_table():
    # a 2D sweep measures c with the same table as a 3D one, on its own
    # realizations, and compares each row with the hole-free problem at
    # reaction + c, solved in closed form
    spec = _rcm_spec(grid_cells=64)
    rep = ph.run_sweep(spec)
    assert len(rep.cap_rows) == len(spec.eps_list) * len(spec.h_list) * spec.replicas
    corner = [r.cap / r.h ** 2 for r in rep.cap_rows
              if r.h == min(spec.h_list) and r.eps == min(spec.eps_list)]
    assert rep.c == float(np.mean(corner)) and rep.c > 0
    assert rep.summary["c"] == rep.c and rep.summary["c_note"] == ""
    flat = ph.hole_free_mask(UNIT2, spec.dx())
    u_hom = ph.GridField(flat, _solve_hole_free(flat, spec.reaction + rep.c, spec.source))
    row = rep.rows[-1]
    obs, _ = ph.sample_family(spec.family, row.eps, row.seed, UNIT2)
    u, _ = ph.solve_dirichlet_perforated(ph.rasterize(obs, UNIT2, spec.dx()), spec.reaction,
                                         spec.source, tol=spec.tol)
    assert row.l2_error == ph.l2_distance(u, u_hom)


def test_sweep_rejects_invalid_spec():
    with pytest.raises(InvalidArgumentError):
        ph.run_sweep(_rcm_spec(eps_list=(0.2, 0.1, 0.05)))


def test_sweep_records_row_failures_and_continues():
    # balls big enough to swallow the whole domain: the solve has no material
    # cells and must fail per row without aborting the sweep
    fam = ph.GeometryFamily(kind="boolean", dim=3, intensity=2.0, r0=5.0,
                            radius_exponent=1.0)
    spec = ph.SweepSpec(family=fam,
                        eps_list=(0.125, 0.0625, 0.03125), h_list=(0.75, 0.55),
                        grid_cells=16, replicas=1, master_seed=4)
    rep = ph.run_sweep(spec)
    assert all(r.failure for r in rep.rows)
    assert rep.summary["partial"]
    # the capacity table runs on the rows' own realizations, failed or not
    assert {(r.eps, r.seed) for r in rep.cap_rows} == {(r.eps, r.seed) for r in rep.rows}


@pytest.mark.parametrize("failing", [(0.125, 0.0625, 0.03125), (0.03125,)])
def test_sweep_without_a_realization_at_the_smallest_eps_leaves_c_undefined(
        monkeypatch, failing):
    # with no capacity row at the smallest eps, c is undefined: the sweep
    # solves no homogenized field, and the rows that did solve have no
    # l2_error, instead of crashing or solving with a NaN reaction
    from percohom import sweep
    sample, reactions = sweep.sample_family, []

    def sample_family(family, eps, seed, domain):
        if eps in failing:
            raise MemoryError("no room for the points")
        return sample(family, eps, seed, domain)

    def solve(mask, reaction, f, **kw):
        reactions.append(reaction)
        return ph.solve_dirichlet_perforated(mask, reaction, f, **kw)

    monkeypatch.setattr(sweep, "sample_family", sample_family)
    monkeypatch.setattr(sweep, "solve_dirichlet_perforated", solve)
    fam = ph.GeometryFamily(kind="boolean", dim=3, intensity=1.0, r0=0.2,
                            radius_exponent=3.0)
    spec = ph.SweepSpec(family=fam, eps_list=(0.125, 0.0625, 0.03125),
                        h_list=(0.75, 0.55), grid_cells=8, capacity_cells_per_h=4)
    rep = ph.run_sweep(spec)
    assert math.isnan(rep.c) and math.isnan(rep.c_spread)
    assert math.isnan(rep.summary["c"]) and math.isnan(rep.summary["c_spread"])
    assert "c undefined" in rep.summary["c_note"]
    assert rep.summary["partial"]
    assert [r.failure for r in rep.rows if r.eps in failing] == [
        "MemoryError: no room for the points"] * len(failing)
    solved = [r for r in rep.rows if not r.failure]
    assert len(solved) == 3 - len(failing)
    assert all(math.isnan(r.l2_error) for r in solved)
    assert reactions == [spec.reaction] * len(solved)  # the rows' solves only


def test_sweep_tol_reaches_the_capacity_table():
    # one tolerance per sweep: its capacity windows are solved at its tol too
    fam = ph.GeometryFamily(kind="boolean", dim=3, intensity=1.0, r0=0.35,
                            radius_exponent=1.0)

    def cap_iterations(tol):
        spec = ph.SweepSpec(family=fam, eps_list=(0.125, 0.1, 0.0625),
                            h_list=(0.75, 0.55), grid_cells=16, capacity_cells_per_h=16,
                            master_seed=1, tol=tol)
        return [r.iterations for r in ph.run_sweep(spec).cap_rows]

    loose, tight = cap_iterations(1e-3), cap_iterations(1e-10)
    assert all(a <= b for a, b in zip(loose, tight))
    assert sum(loose) < sum(tight)


# -------------------------------------------------------------- ergodic runs

def test_ergodic_periodic_geometry_has_zero_spread():
    fam = ph.GeometryFamily(kind="lattice", dim=2, lattice_spacing=1.0,
                            r0=0.3, radius_exponent=1.0)
    spec = ErgodicSpec(functional="local_capacity", family=fam,
                       t_list=(2.0, 4.0), replicas=3, dx=1.0 / 16, master_seed=1)
    res = ph.ergodic_average_experiment(spec)
    assert all(rel == 0.0 for _, _, rel in res.rows)


def test_ergodic_spread_decays_for_poisson_boolean():
    fam = ph.GeometryFamily(kind="boolean", dim=2, intensity=1.0, r0=0.25,
                            radius_exponent=1.0)
    spec = ErgodicSpec(functional="local_capacity", family=fam,
                       t_list=(2.0, 6.0), replicas=8, dx=1.0 / 16, master_seed=7)
    res = ph.ergodic_average_experiment(spec)
    assert res.decays
    assert res.rows[-1][2] <= 0.75 * res.rows[0][2]


def test_ergodic_affine_energy_functional():
    fam = ph.GeometryFamily(kind="boolean", dim=2, intensity=1.0, r0=0.2,
                            radius_exponent=1.0)
    spec = ErgodicSpec(functional="affine_energy", family=fam,
                       t_list=(2.0, 4.0), replicas=4, dx=1.0 / 16,
                       master_seed=9, xi=(1.0, 0.0))
    res = ph.ergodic_average_experiment(spec)
    # per-volume conduction energy stays near |xi|^2 = 1 (insulating holes
    # remove a bit of it)
    for _, mean, _ in res.rows:
        assert 0.3 < mean <= 1.0 + 1e-12


def test_disjoint_cubes_nearly_uncorrelated():
    fam = ph.GeometryFamily(kind="boolean", dim=2, intensity=1.5, r0=0.25,
                            radius_exponent=1.0)
    box = ph.Box.cube(8.0, 2)
    lo_vals, hi_vals = [], []
    for k in range(64):
        obs, _ = ph.sample_family(fam, 1.0, substream_seed(40, k), box)
        mask = ph.rasterize(obs, box, 1.0 / 8)
        n = mask.shape[0]
        a = capacity_minimizer_on_window(mask, (slice(0, n // 4), slice(0, n // 4)))[0]
        b = capacity_minimizer_on_window(mask, (slice(3 * n // 4, n), slice(3 * n // 4, n)))[0]
        lo_vals.append(a.value)
        hi_vals.append(b.value)
    rho = np.corrcoef(lo_vals, hi_vals)[0, 1]
    assert abs(rho) < 0.2


# ------------------------------------------------------- partition, corrector

def test_partition_properties():
    dx = 1.0 / 128
    h, r = 0.3, 0.08
    part = build_partition_of_unity(UNIT2, h, r, dx)
    total = np.zeros((128, 128))
    for w in part:
        total[w.slices] += w.weights
    assert np.abs(total - 1.0).max() <= 1e-12
    covered = np.zeros((128, 128), dtype=int)
    for w in part:
        assert w.weights.min() >= 0.0 and w.weights.max() <= 1.0
        covered[w.slices] += (w.weights > 0)
    singles = covered == 1
    for w in part:
        ww = np.zeros((128, 128))
        ww[w.slices] = w.weights
        sel = singles & (ww > 0)
        assert np.all(ww[sel] == 1.0)
        for axis in (0, 1):
            assert np.abs(np.diff(ww, axis=axis)).max() / dx <= 8.0 / r


def test_partition_preconditions():
    with pytest.raises(InvalidArgumentError):
        build_partition_of_unity(UNIT2, 0.3, 0.16, 1.0 / 128)  # r >= h/2
    with pytest.raises(InvalidArgumentError):
        build_partition_of_unity(UNIT2, 0.3, 0.02, 1.0 / 128)  # r under-resolved


def _perforated_2d(seed=11, cells=128):
    fam = ph.GeometryFamily(kind="rcm", dim=2, intensity=1.0, c1=0.5, c2=1.0)
    obs, _ = ph.sample_family(fam, 0.125, seed, UNIT2)
    return ph.rasterize(obs, UNIT2, 1.0 / cells)


def test_corrector_hole_free_reproduces_the_field():
    dx = 1.0 / 128
    mask = ph.hole_free_mask(UNIT2, dx)
    h = 0.2
    r = 0.9 * h ** 1.5
    part = build_partition_of_unity(UNIT2, h, r, dx)
    w = ph.GridField(mask, evaluate_on_mask("sin(pi*x)*sin(pi*y)", mask))
    corr, gap = ph.build_corrector(w.values, part, mask, 1.0, 0.0, "-1")
    assert np.abs(corr.values - w.values).max() <= 1e-12
    assert abs(gap) <= 1e-10


def test_corrector_vanishes_on_holes_and_bounds_the_minimizer():
    dx = 1.0 / 128
    mask = _perforated_2d()
    h = 0.2
    r = 0.9 * h ** 1.5
    part = build_partition_of_unity(UNIT2, h, r, dx)
    flat = ph.hole_free_mask(UNIT2, dx)
    w = ph.GridField(flat, evaluate_on_mask("sin(pi*x)*sin(pi*y)", flat))
    corr, gap = ph.build_corrector(w.values, part, mask, 1.0, 0.0, "-1")
    assert np.all(corr.values[mask.flags == HOLE] == 0.0)
    u, _ = ph.solve_dirichlet_perforated(mask, 1.0, "-1", tol=1e-10)
    g_u = ph.energy_gamma(u, 1.0, "-1")
    g_w = ph.energy_gamma(corr, 1.0, "-1")
    assert g_u <= g_w + 1e-8 * abs(g_w)


# ------------------------------------------------------------- bound audit

def test_uniform_bound_audit_trivial_and_sweep():
    mask = ph.hole_free_mask(UNIT2, 1.0 / 64)
    zero = ph.GridField(mask, np.zeros(mask.shape))
    assert ph.uniform_bound_audit([zero], 0.0, ph.friedrichs_constant(UNIT2, 1.0 / 64)).passed
    sols = []
    for eps in (0.125, 0.0625, 0.03125):
        fam = ph.GeometryFamily(kind="rcm", dim=2, intensity=1.0, c1=0.5, c2=1.0)
        obs, _ = ph.sample_family(fam, eps, 5, UNIT2)
        mask = ph.rasterize(obs, UNIT2, 1.0 / 128)
        u, _ = ph.solve_dirichlet_perforated(mask, 1.0, "-1")
        sols.append(u)
    # the constant of the grid the fields live on
    audit = ph.uniform_bound_audit(sols, f_norm=1.0,
                                   friedrichs_c=ph.friedrichs_constant(UNIT2, 1.0 / 128))
    assert audit.passed
    assert audit.max_h1 <= audit.ceiling_h1


def test_uniform_bound_audit_negative_control():
    # with lambda = 0 the chain is tight enough that halving the constant
    # must break the L2 step
    mask = ph.hole_free_mask(UNIT2, 1.0 / 64)
    u, _ = ph.solve_dirichlet_perforated(mask, 0.0, "-1")
    c_d = ph.friedrichs_constant(UNIT2, 1.0 / 64)
    assert ph.uniform_bound_audit([u], 1.0, c_d).passed
    assert not ph.uniform_bound_audit([u], 1.0, c_d / 2).passed
