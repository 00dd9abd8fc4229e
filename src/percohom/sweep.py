"""Scale sweeps for the vanishing-obstacle limit.

A sweep fixes a geometry family, a list of scales eps, and a PDE setup, then
for every (eps, replica): builds one obstacle realization, rasterizes it,
solves the perforated problem, and accumulates norms, energies, and
diagnostics.  The same realizations feed the capacity pipeline that
estimates the effective extra absorption constant c, and the homogenized
field, the unperforated problem with reaction + c, provides the comparison
field for the L2 error column.  That field is a closed form
(solver._solve_hole_free), exact up to rounding, so a row's l2_error holds
its own CG error and nothing of the reference's; a mean error within that CG
error bound is named in the resolution warnings and left out of the decay
slope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capacity import (_strange_table, _table_diagnostics, boolean_capacity_constant,
                       capacity_minimizer_on_window)
from .errors import InvalidArgumentError, diagnostics_of, raise_diagnostics, refusal
from .expressions import source_diagnostics
from .geometry import (Box, GeometryFamily, hole_free_mask, rasterize,
                       sample_family, volume_fraction)
from .points import _positive, empty_cell_frequency
from .rng import substream_seed
from .solver import (GridField, _solve_diagnostics, _solve_hole_free, as_source,
                     energy_gamma, gradient_energy, l2_distance, l2_norm,
                     solve_dirichlet_perforated)

DEFAULT_SOURCE = "-1"
DEFAULT_REACTION = 1.0


@dataclass(frozen=True, kw_only=True)
class _CubeGrid:
    """A run on the cube [0, domain_side]^dim, grid_cells cells a side, of
    the family's dimension unless the spec sets `dim`: the grid and solve
    rules of the sweep's spec and of the command line's, written once."""

    grid_cells: int               # cells per domain side for the PDE grid
    domain_side: float = 1.0      # the domain is the cube [0, domain_side]^dim
    master_seed: int = 0
    _min_cells = 1                # the fewest grid_cells allowed

    @property
    def dim(self):
        return self.family.dim

    def domain(self):
        return Box.cube(self.domain_side, self.dim)

    def dx(self):
        return self.domain_side / self.grid_cells

    def validate(self):
        return self._grid_diagnostics()[1]

    def _grid_diagnostics(self):
        """(domain, diagnostics) of the run's grid: the domain is None where
        `Box` refuses it, and the grid exists when the diagnostics are empty."""
        diags = refusal("dim", Box.unit, self.dim) or refusal("domain_side", self.domain)
        domain = None if diags else self.domain()
        diags += diagnostics_of([(self.grid_cells < self._min_cells, "grid_cells",
                                  f"grid_cells must be at least {self._min_cells}")])
        return domain, diags or refusal("grid_cells", domain.grid_shape, self.dx())

    def _run_diagnostics(self, max_iter=None):
        """(domain, diagnostics) of the grid, the solve's arguments and the
        source, evaluated on the run's grid as the run evaluates it."""
        domain, grid = self._grid_diagnostics()
        diags = grid + _solve_diagnostics(self.reaction, self.tol, max_iter)
        if not grid:
            diags += source_diagnostics(self.source, hole_free_mask(domain, self.dx()))
        return domain, diags


@dataclass(frozen=True)
class SweepSpec(_CubeGrid):
    """Everything needed to reproduce a sweep from its master seed."""

    family: GeometryFamily
    eps_list: tuple
    h_list: tuple
    reaction: float = DEFAULT_REACTION
    source: str = DEFAULT_SOURCE
    capacity_cells_per_h: int = 32
    replicas: int = 1
    tol: float = 1e-8
    _min_cells = 4

    def validate(self):
        """All violated invariants at once, as diagnostics dicts."""
        domain, diags = self._run_diagnostics()
        return diags + _table_diagnostics(
            self.family, self.eps_list, self.h_list, self.replicas, self.capacity_cells_per_h,
            domain, cells_field="capacity_cells_per_h") + diagnostics_of([
                (any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])), "eps_list",
                 "eps list must be strictly decreasing")])

    def resolution_warnings(self):
        """Each grid on which an obstacle feature (a ball's radius, a tube's)
        spans fewer than 2 cells: the PDE grid at each eps, and the capacity
        grid of each h at each eps."""
        warns = []
        dx = self.dx()
        for e in self.eps_list:
            if self.family.kind in ("boolean", "lattice"):
                feature = self.family.r0 * float(e) ** self.family.radius_exponent
            else:
                feature = self.family.rcm_tube_radius * float(e)
            if feature < 2 * dx:
                warns.append(f"eps={e}: obstacle feature {feature:.3g} spans fewer "
                             f"than 2 cells at dx={dx:.3g}")
            for h in self.h_list:
                dx_cap = h / self.capacity_cells_per_h
                if feature < 2 * dx_cap:
                    warns.append(f"eps={e}, h={h}: obstacle feature {feature:.3g} spans "
                                 f"fewer than 2 cells of the capacity grid at dx={dx_cap:.3g}")
        return warns


@dataclass(frozen=True)
class SweepRow:
    eps: float
    replica: int
    seed: int
    volume_fraction: float
    hole_cells: int
    h1: float
    gamma: float
    energy_lhs: float        # grad part + reaction * ||u||^2
    energy_rhs: float        # 2 ||u|| ||f||
    l2_error: float = math.nan
    iterations: int = 0
    residual: float = 0.0
    empty_cell_freq: float = math.nan
    boolean_constant: float = math.nan
    failure: str = ""


@dataclass(frozen=True)
class HomogenizationReport:
    spec: SweepSpec
    rows: tuple
    cap_rows: tuple
    c: float
    c_spread: float
    summary: dict


def _sweep_row(spec, eps, k, seed, obstacles, config, u_hom):
    """Rasterize + solve + norms for one sampled (eps, replica), with the L2
    error against the homogenized field u_hom."""
    dx = spec.dx()
    mask = rasterize(obstacles, spec.domain(), dx)
    vf = volume_fraction(mask)
    u, report = solve_dirichlet_perforated(mask, spec.reaction, spec.source, tol=spec.tol)
    f_arr = as_source(spec.source, mask)  # made after the solve: not alive beside CG's arrays
    f_norm = float(np.sqrt(np.sum(f_arr * f_arr) * dx ** mask.dim))
    l2, grad = l2_norm(u), gradient_energy(u)
    energy_lhs = grad + spec.reaction * l2 ** 2
    fu = float(np.sum(f_arr * u.values) * dx ** mask.dim)
    ecf = math.nan
    if spec.family.kind == "rcm" and config is not None:
        sides = config.box.sides
        if all(abs(s - round(s)) < 1e-9 and s >= 2 for s in sides):
            ecf = empty_cell_frequency(config, 1.0)
    bc = math.nan
    if spec.family.kind in ("boolean", "lattice") and obstacles.dim == 3:
        bc, _ = boolean_capacity_constant(obstacles, spec.domain())
    return SweepRow(eps=eps, replica=k, seed=seed, volume_fraction=vf,
                    hole_cells=mask.hole_count, h1=float(np.sqrt(l2 ** 2 + grad)),
                    gamma=energy_lhs + 2.0 * fu,
                    energy_lhs=energy_lhs,
                    energy_rhs=2.0 * l2 * f_norm,
                    l2_error=math.nan if u_hom is None else l2_distance(u, u_hom),
                    iterations=report.iterations,
                    residual=report.final_rel_residual,
                    empty_cell_freq=ecf, boolean_constant=bc)


def _sample(spec, ie, k):
    """One (eps, replica) realization: (eps, replica, seed, obstacles,
    config, failure), the obstacles None and the failure set when sampling
    raises."""
    eps = float(spec.eps_list[ie])
    seed = substream_seed(spec.master_seed, "geometry", ie, k)
    try:
        return (eps, k, seed) + sample_family(spec.family, eps, seed, spec.domain()) + ("",)
    except Exception as exc:  # recorded per row; the sweep continues
        return eps, k, seed, None, None, f"{type(exc).__name__}: {exc}"


def _sweep_job(args):
    """One sampled (eps, replica), the parallel unit: its row only, so no
    field outlives its row; a failure is recorded in the row."""
    spec, (eps, k, seed, obstacles, config, failure), u_hom = args
    if not failure:
        try:
            return _sweep_row(spec, eps, k, seed, obstacles, config, u_hom)
        except Exception as exc:  # recorded per row; the sweep continues
            failure = f"{type(exc).__name__}: {exc}"
    return SweepRow(eps=eps, replica=k, seed=seed, volume_fraction=math.nan,
                    hole_cells=0, h1=math.nan, gamma=math.nan,
                    energy_lhs=math.nan, energy_rhs=math.nan, failure=failure)


def _map(fn, args, threads):
    """fn over args in order, in a pool of `threads` processes but never more
    than there are args (fork starts them all at once), when that is > 1."""
    workers = min(threads, len(args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a single process never loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


def run_sweep(spec, threads=1):
    """Execute the sweep; failures are recorded per row and do not abort.
    Every realization is sampled first: the capacity table runs on them,
    failed rows included, and gives c; then the rows are solved against the
    homogenized field with reaction + c, the unperforated problem in closed
    form (no CG solve), unless c is undefined (no realization at the
    smallest eps was sampled): then no field is made and every l2_error is
    NaN."""
    raise_diagnostics(spec.validate())
    samples = [_sample(spec, ie, k) for ie in range(len(spec.eps_list))
               for k in range(spec.replicas)]
    st = _strange_table([(eps, k, seed, obstacles)
                         for eps, k, seed, obstacles, _, failure in samples if not failure],
                        spec.h_list, spec.eps_list, spec.domain(),
                        spec.capacity_cells_per_h, tol=spec.tol)
    u_hom, floor = None, math.nan
    if not math.isnan(st.c):
        flat = hole_free_mask(spec.domain(), spec.dx())
        u_hom = GridField(flat, _solve_hole_free(flat, spec.reaction + st.c, spec.source))
        # CG stops at relative residual tol, so a row's field may be off by
        # cond(A) * tol of its norm, cond(A) about 4 n^2 / pi^2 on n cells a
        # side: an error within that of u_hom is CG's, not the holes'
        floor = 4.0 * spec.grid_cells ** 2 / math.pi ** 2 * spec.tol * l2_norm(u_hom)
    rows = _map(_sweep_job, [(spec, sample, u_hom) for sample in samples], threads)
    summary = _summarize(spec, rows, st, floor)
    return HomogenizationReport(spec=spec, rows=tuple(rows),
                                cap_rows=st.rows, c=st.c, c_spread=st.spread,
                                summary=summary)


def _summarize(spec, rows, st, floor):
    """The summary of a sweep; `floor` is the CG error bound on l2_error
    (NaN without a homogenized field): an eps whose mean error is within it
    is not resolved, so it is left out of the decay slope and named in the
    resolution warnings."""
    ok = [r for r in rows if not r.failure]
    by_eps = {}
    for r in ok:
        by_eps.setdefault(r.eps, []).append(r)
    eps_sorted = sorted(by_eps, reverse=True)
    err_means = [float(np.mean([r.l2_error for r in by_eps[e]])) for e in eps_sorted]
    slope = math.nan
    pos = [(e, m) for e, m in zip(eps_sorted, err_means) if m > floor]
    floored = [f"eps={e}: mean l2_error {m:.3g} is within the CG error bound {floor:.3g} "
               f"of the homogenized field; left out of the L2 decay slope"
               for e, m in zip(eps_sorted, err_means) if m <= floor]
    if len(pos) >= 2:
        slope = float(np.polyfit(np.log([p[0] for p in pos]),
                                 np.log([p[1] for p in pos]), 1)[0])
    gamma_ok = all(r.gamma <= 1e-8 * max(r.energy_rhs, 1e-30) for r in ok)
    energy_ok = all(r.energy_lhs <= r.energy_rhs * (1 + 1e-8) + 1e-14 for r in ok)
    h1s = [r.h1 for r in ok]
    bc_vals = [r.boolean_constant for r in ok if not math.isnan(r.boolean_constant)]
    return {
        "format_version": 1,
        "c_note": ("no realization at the smallest eps was sampled; c undefined"
                   if math.isnan(st.c) else ""),
        "c": st.c,
        "c_spread": st.spread,
        "eps_then_h": [list(t) for t in st.eps_then_h],
        "h_then_eps": [list(t) for t in st.h_then_eps],
        "l2_error_by_eps": [[e, m] for e, m in zip(eps_sorted, err_means)],
        "l2_decay_slope": slope,
        "gamma_nonpositive": gamma_ok,
        "energy_bound_holds": energy_ok,
        "max_h1": max(h1s) if h1s else math.nan,
        "partial": len(ok) != len(rows),
        "resolution_warnings": spec.resolution_warnings() + floored,
        "boolean_constant_mean": float(np.mean(bc_vals)) if bc_vals else math.nan,
    }


# ---------------------------------------------------------------------------
# Spatial-average decay experiments

@dataclass(frozen=True)
class ErgodicSpec:
    functional: str            # "local_capacity" | "affine_energy"
    family: GeometryFamily
    t_list: tuple
    replicas: int
    dx: float
    master_seed: int = 0
    xi: tuple = None           # direction for affine_energy

    def validate(self):
        """All violated invariants at once, as diagnostics dicts."""
        dim = self.family.dim
        sizes_ok = all(math.isfinite(t) and t > 0 for t in self.t_list)
        largest = max(self.t_list, default=0.0) if sizes_ok else 0.0
        spacing = refusal("dx", _positive, self.dx, "dx")
        diags = self.family.validate(largest, 1.0) + diagnostics_of([
            (self.functional not in ("local_capacity", "affine_energy"), "functional",
             "functional must be local_capacity or affine_energy"),
            (len(self.t_list) < 1, "t_list", "need at least one cube size"),
            (not sizes_ok, "t_list", "cube sizes must be positive and finite"),
            (len(set(self.t_list)) < len(self.t_list), "t_list",
             "cube sizes must be distinct"),
            (self.replicas < 2, "replicas", "spread needs at least two replicas"),
            (self.xi is not None
             and not (len(self.xi) == dim and all(map(math.isfinite, self.xi))), "xi",
             f"xi must be {dim} finite numbers, one per dimension"),
        ]) + spacing
        for t in self.t_list if sizes_ok and not spacing else ():
            # the grid each cube is rasterized on, at least 4 cells a side
            diags += (refusal("dx", Box.cube(t, dim).grid_shape, self.dx, context=f"at t {t}: ")
                      or diagnostics_of([(round(t / self.dx) < 4, "dx",
                                          f"dx {self.dx} cuts the cube of side {t} into "
                                          f"{round(t / self.dx)} cells a side; need at least 4")]))
        return diags


@dataclass(frozen=True)
class ErgodicResult:
    rows: tuple                # (t, mean, rel_std)
    decays: bool


def ergodic_average_experiment(spec, threads=1):
    """Per-volume functional on growing cubes: mean and relative spread
    across replicas, and whether the spread decays from the smallest to the
    largest cube."""
    raise_diagnostics(spec.validate())
    jobs = [(spec, it, k) for it in range(len(spec.t_list)) for k in range(spec.replicas)]
    values = {}
    for (_, it, _), v in zip(jobs, _map(_ergodic_job, jobs, threads)):
        values.setdefault(float(spec.t_list[it]), []).append(v)
    rows = []
    for t in sorted(values):
        arr = np.asarray(values[t])
        if np.all(arr == arr[0]):  # identical replicas have zero spread, exactly
            rows.append((t, float(arr[0]), 0.0))
            continue
        mean = float(arr.mean())
        rel = float(arr.std() / abs(mean)) if mean != 0 else 0.0
        rows.append((t, mean, rel))
    decays = rows[-1][2] < rows[0][2] if len(rows) >= 2 else True
    return ErgodicResult(rows=tuple(rows), decays=decays)


def _ergodic_job(args):
    spec, it, k = args
    t = float(spec.t_list[it])
    seed = substream_seed(spec.master_seed, "ergodic", it, k)
    box = Box.cube(t, spec.family.dim)
    obstacles, _ = sample_family(spec.family, 1.0, seed, box)
    mask = rasterize(obstacles, box, spec.dx)
    window = tuple(slice(0, n) for n in mask.shape)
    if spec.functional == "local_capacity":
        est, _ = capacity_minimizer_on_window(mask, window)
        value = est.value
    else:
        from .capacity import affine_dirichlet_energy
        xi = spec.xi if spec.xi is not None else (1.0,) + (0.0,) * (spec.family.dim - 1)
        value = affine_dirichlet_energy(mask, box.center, t, xi)
    return value / t ** spec.family.dim


# ---------------------------------------------------------------------------
# Partition of unity and the glued corrector

@dataclass(frozen=True)
class PartitionWeight:
    slices: tuple
    weights: np.ndarray


def _smoothstep(t):
    # C2 quintic ramp with s(t) + s(1-t) = 1
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _axis_layout(lo, hi, h, r):
    """Cube centers along one axis with uniform pitch and overlap >= r.

    Stretching the overlap (never shrinking it) keeps the ramps of
    consecutive cubes exactly complementary, so the weights sum to one.
    """
    side = hi - lo
    if h >= side - 1e-12:
        return [lo + side / 2.0], side, 0.0
    count = int(math.ceil((side - h) / (h - r) - 1e-12)) + 1
    pitch = (side - h) / (count - 1)
    overlap = h - pitch
    centers = [lo + h / 2.0 + j * pitch for j in range(count)]
    return centers, h, overlap


def build_partition_of_unity(domain, h, r, dx):
    """Overlapping cubes of size h with overlap width >= r, C2 ramp profiles.

    Properties, tested exactly: weights in [0, 1]; 1 on cells covered by a
    single cube; sum 1 at every cell center; discrete gradient <= 8/r.
    """
    if not r < h / 2:
        raise InvalidArgumentError("need overlap r < h/2")
    if r < 4 * dx:
        raise InvalidArgumentError("grid must resolve the overlap width by >= 4 cells")
    dim = domain.dim
    shape = domain.grid_shape(dx)
    axis_profiles = []
    for d in range(dim):
        lo, hi = domain.lower[d], domain.upper[d]
        centers, width, overlap = _axis_layout(lo, hi, h, r)
        xs = domain.axis_centers(d, dx, np.arange(shape[d]))
        profiles = []
        for j, c in enumerate(centers):
            left, right = c - width / 2.0, c + width / 2.0
            prof = np.ones_like(xs)
            if j > 0:
                prof = prof * _smoothstep((xs - left) / overlap)
            if j < len(centers) - 1:
                prof = prof * _smoothstep((right - xs) / overlap)
            prof = np.where((xs >= left - 1e-12) & (xs <= right + 1e-12), prof, 0.0)
            profiles.append(prof)
        axis_profiles.append(profiles)
    weights = []
    for idx in np.ndindex(*[len(p) for p in axis_profiles]):
        profs = [axis_profiles[d][idx[d]] for d in range(dim)]
        nz = [np.nonzero(p > 0.0)[0] for p in profs]
        if any(len(z) == 0 for z in nz):
            continue
        slices = tuple(slice(int(z[0]), int(z[-1]) + 1) for z in nz)
        local = profs[0][slices[0]]
        for d in range(1, dim):
            local = np.multiply.outer(local, profs[d][slices[d]])
        weights.append(PartitionWeight(slices=slices, weights=local))
    return weights


def build_corrector(w, partition, mask, reaction, strange_c, f):
    """Glue the local capacity minimizers under a smooth field w (an array
    on the mask's grid): corrector = sum_a w * v_a * phi_a, where v_a is the
    capacity minimizer of partition cube a (1 on the cube faces, 0 on holes,
    solved to tol 1e-10 on the mask's own grid and the cube's own window).
    Vanishes on every hole cell by construction.  Returns (GridField, energy
    gap against the unperforated energy of w with reaction + c)."""
    acc = np.zeros(mask.shape)
    for part in partition:
        _, vals = capacity_minimizer_on_window(mask, part.slices, tol=1e-10)
        acc[part.slices] += w[part.slices] * vals * part.weights
    corrector = GridField(mask, np.where(mask.material, acc, 0.0))
    gamma_eps = energy_gamma(corrector, reaction, f)
    w_flat = GridField(hole_free_mask(mask.domain, mask.dx), w)
    return corrector, gamma_eps - energy_gamma(w_flat, reaction + strange_c, f)


# ---------------------------------------------------------------------------
# Uniform energy bound audit

@dataclass(frozen=True)
class AuditResult:
    passed: bool
    max_h1: float
    max_l2: float
    max_grad: float
    ceiling_h1: float
    ceiling_l2: float
    ceiling_grad: float


def uniform_bound_audit(solutions, f_norm, friedrichs_c, tolerance=1e-10):
    """Check the chain  ||grad u|| <= 2 C ||f||,  ||u|| <= 2 C^2 ||f||, and
    the combined ceiling on the H1 norm, across an eps sweep of GridFields.
    """
    if len(solutions) < 1:
        raise InvalidArgumentError("nothing to audit")
    triples = []
    for s in solutions:
        g = math.sqrt(gradient_energy(s))
        l2 = l2_norm(s)
        triples.append((math.sqrt(l2 ** 2 + g ** 2), l2, g))
    max_h1 = max(t[0] for t in triples)
    max_l2 = max(t[1] for t in triples)
    max_grad = max(t[2] for t in triples)
    ceiling_grad = 2.0 * friedrichs_c * f_norm
    ceiling_l2 = 2.0 * friedrichs_c ** 2 * f_norm
    ceiling_h1 = math.hypot(ceiling_l2, ceiling_grad)
    passed = (max_grad <= ceiling_grad + tolerance
              and max_l2 <= ceiling_l2 + tolerance
              and max_h1 <= ceiling_h1 + tolerance)
    return AuditResult(passed=passed, max_h1=max_h1, max_l2=max_l2,
                       max_grad=max_grad, ceiling_h1=ceiling_h1,
                       ceiling_l2=ceiling_l2, ceiling_grad=ceiling_grad)
