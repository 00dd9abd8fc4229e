"""Variational capacity functionals on rasterized obstacle sets.

Two quadratic minimizations, kept strictly separate:

* `local_capacity`: the Dirichlet energy of the cheapest field equal to 1 on
  the boundary of a cube and 0 on the obstacle cells inside it.  This is the
  absorption-type functional whose volume density estimates the effective
  extra reaction coefficient.  `capacity_minimizer_on_window` is its one
  solve, on a window: a mask or a sub-mask of one (`PerforatedMask.window`).
  `local_capacity` (a snapped cube), `strange_term` (the absorption-constant
  table, on cube masks) and the sweeps (on partition windows) call it.  The table runs on
  given obstacle realizations, so a sweep measures the capacity of the very
  realizations it solves on.  The rules for its inputs are written once,
  in `_table_diagnostics`, and the table is one construction in 2D and 3D.
  `newton_capacity`, the condenser energy of an
  obstacle held at potential 1 inside a grounded outer cube (3D only; the
  truncation of the whole-space problem), is the same problem: u -> 1 - u
  maps the condenser potential onto the local-capacity minimizer of the
  rasterized box with the same face weights, hence the same energy.
* `penalized_functional` / `conductivity_tensor`: the conduction-type
  functional with affine data (x - z, xi) on the cube boundary, an
  h^(-2-gamma) penalty pinning the field to that affine profile, and
  insulating (no-flux) obstacle cells.  Without the penalty, material that
  no path of material joins to the cube boundary is insulated too; the
  geometry's grid labeller finds it.  On a hole-free cube its minimizer is
  the affine profile itself, exactly, so the tensor reduces to h^n times the
  identity.

Each is the solver's face kernel with its own cell roles and data, solved by
its `minimize`, so every reported value is the energy of the computed
minimizer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, diagnostics_of, raise_diagnostics, refusal
from .geometry import (HOLE, MATERIAL, Box, _boundary_connected, _check_dimension,
                       rasterize, sample_family)
from .rng import substream_seed
from .solver import _INSULATING, GridField, SolveReport, _FaceKernel, _solve_diagnostics


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    report: SolveReport = None

    def __post_init__(self):
        if self.value < 0:
            raise InvalidArgumentError("capacity must be nonnegative")


@dataclass(frozen=True)
class ConductivityTensor:
    entries: np.ndarray
    gamma: float
    h: float

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        scale = max(float(np.abs(a).max()), 1e-300)
        if np.abs(a - a.T).max() > 1e-10 * scale:
            raise InvalidArgumentError("conductivity tensor must be symmetric")
        a = 0.5 * (a + a.T)
        eig = np.linalg.eigvalsh(a)
        if eig.min() < -1e-10 * self.h ** a.shape[0]:
            raise InvalidArgumentError(f"tensor not positive semidefinite: {eig}")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


# ---------------------------------------------------------------------------
# Newton capacity (condenser with grounded cubic truncation)

def newton_capacity(obstacles, outer_radius, dx, tol=1e-7):
    """Energy of the equilibrium potential: 1 on the obstacle cells, 0 on the
    boundary of the cube [-R, R]^3, computed as the local capacity of the
    rasterized cube (module docstring).  Returns (value, SolveReport)."""
    if obstacles.dim != 3:
        raise InvalidArgumentError(
            "Newton capacity requires dimension 3; the two-dimensional "
            "analogue is logarithmic and out of scope")
    est, _ = capacity_minimizer_on_window(_electrode(obstacles, outer_radius, dx), tol=tol)
    return est.value, est.report


def _electrode(obstacles, outer_radius, dx):
    """The obstacle rasterized on the cube [-R, R]^3 at spacing dx; refuses
    an obstacle that covers no cell center or reaches the cube's outer
    layer of cells."""
    R = float(outer_radius)
    emask = rasterize(obstacles, Box((-R,) * 3, (R,) * 3), dx)
    electrode = emask.flags == HOLE
    if not electrode.any():
        raise InvalidArgumentError(
            "obstacle covers no cell center at this resolution; refine dx")
    if np.count_nonzero(electrode[(slice(1, -1),) * 3]) < np.count_nonzero(electrode):
        raise InvalidArgumentError("obstacle must be strictly inside the outer box")
    return emask


# ---------------------------------------------------------------------------
# Local capacity on a cube window of a mask

def _window(domain, dx, center, h):
    """Snap the cube of side h at `center` to whole cells of the grid of
    spacing dx on `domain`; returns its index slices."""
    m = int(round(h / dx))
    if m < 1:
        raise InvalidArgumentError(f"cube side {h} is below one cell")
    slices = []
    for d, n in enumerate(domain.grid_shape(dx)):
        i0 = int(round((center[d] - h / 2.0 - domain.lower[d]) / dx))
        if i0 < 0 or i0 + m > n:
            raise InvalidArgumentError("cube must lie inside the mask domain")
        slices.append(slice(i0, i0 + m))
    return tuple(slices)


def local_capacity(mask, center, h, tol=1e-8):
    """Capacity-type energy of the cube of side h at `center`, snapped to
    whole cells; zero iff no obstacle cells intersect the cube."""
    window = mask.window(_window(mask.domain, mask.dx, center, h))
    return capacity_minimizer_on_window(window, tol=tol)[0]


def capacity_minimizer_on_window(window, tol=1e-8):
    """Local capacity on a window: a whole mask, or a sub-mask of one
    (`PerforatedMask.window`).

    Returns (CapacityEstimate, minimizer values on the window).  The
    minimizer equals 1 at the window faces (data imposed at half-cell
    distance), 0 on hole cells, and is discrete harmonic on the material
    cells in between.
    """
    raise_diagnostics(_solve_diagnostics(tol=tol))  # before the shortcut, as in every solve
    sub, dx = window.flags, window.dx
    if not np.any(sub != MATERIAL):
        est = CapacityEstimate(value=0.0, report=SolveReport(0, 0.0, 0.0))
        return est, np.ones(sub.shape)
    # data 1 on the window faces; exterior cells are half-cell boundary at 0
    kernel = _FaceKernel(sub, dx, data=np.pad(np.zeros(sub.shape), 1, constant_values=1.0))
    u, report = kernel.minimize(tol=tol)
    vals = np.where(kernel.unknown, u, 0.0)
    value = kernel.energy(vals)
    return CapacityEstimate(value=value, report=report), vals


# ---------------------------------------------------------------------------
# Conduction-type functional with affine data and penalty

def _affine_cell_problem(window, xi, penalty, tol=1e-10):
    """Minimize sum_MM (dv/dx)^2 + penalty*|v - l|^2 on the material cells of
    the sub-mask `window`, with v = l := (x - z, xi) on its boundary, z its
    center, and no-flux (insulating) obstacle cells.

    Returns (value, minimizer values, kernel); the kernel's `energy` gives
    the cross energies of the tensor.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (window.dim,):
        raise InvalidArgumentError("direction must match the dimension")
    if not np.all(np.isfinite(xi)):
        raise InvalidArgumentError("direction must be finite")
    mat = window.material
    dx = window.dx
    n = window.dim
    z = window.domain.center
    # absolute cell centers of the window, padded with the window faces,
    # where the boundary data l sits
    axes = []
    for d in range(n):
        c = window.axis_centers(d)
        axes.append(np.concatenate(([c[0] - 0.5 * dx], c, [c[-1] + 0.5 * dx])))
    grids = np.meshgrid(*axes, indexing="ij")
    ell = sum((grids[d] - z[d]) * xi[d] for d in range(n))

    # material pockets sealed off from the border have nothing anchoring them
    # when penalty == 0; they contribute zero energy with any constant value
    free = mat if penalty else _boundary_connected(mat)

    kernel = _FaceKernel(np.where(free, MATERIAL, _INSULATING), dx,
                         penalty, data=ell, target=ell[(slice(1, -1),) * n])
    u, _ = kernel.minimize(tol=tol)
    u = np.where(free, u, 0.0)
    return kernel.energy(u), u, kernel


def _check_gamma(gamma):
    """Refuses a penalty exponent gamma outside (0, 2)."""
    if not (0.0 < gamma < 2.0):
        raise InvalidArgumentError(f"penalty exponent must be in (0, 2), got {gamma}")


def _penalized_window(mask, z, h, gamma):
    """The snapped cube window, its side and its penalty side^(-2-gamma) (_check_gamma)."""
    _check_gamma(gamma)
    window = mask.window(_window(mask.domain, mask.dx, z, h))
    side = window.shape[0] * window.dx
    return window, side, side ** (-2.0 - gamma)


def penalized_functional(mask, z, h, gamma, xi, tol=1e-10):
    """The conduction characteristic P(xi) and its minimizer field."""
    window, _, penalty = _penalized_window(mask, z, h, gamma)
    value, u, _ = _affine_cell_problem(window, xi, penalty, tol=tol)
    return value, GridField(window, np.where(window.material, u, 0.0))


def conductivity_tensor(mask, z, h, gamma, tol=1e-10):
    """Solve the n coordinate-direction problems and assemble the tensor by
    cross energies; symmetric positive semidefinite by construction."""
    window, side, penalty = _penalized_window(mask, z, h, gamma)
    n = mask.dim
    sols = [_affine_cell_problem(window, xi, penalty, tol=tol)[1:]
            for xi in np.eye(n)]
    a = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = sols[i][1].energy(sols[i][0], sols[j][1], sols[j][0])
    return ConductivityTensor(entries=0.5 * (a + a.T), gamma=float(gamma), h=side)


def affine_dirichlet_energy(mask, z, h, xi, tol=1e-10):
    """Minimum Dirichlet energy with affine data (x - z, xi) on the cube
    boundary and insulating obstacles; the penalty-free conduction value."""
    window = mask.window(_window(mask.domain, mask.dx, z, h))
    return _affine_cell_problem(window, xi, 0.0, tol=tol)[0]


# ---------------------------------------------------------------------------
# Effective absorption constant from the local capacity density

@dataclass(frozen=True)
class StrangeTermRow:
    h: float
    eps: float
    replica: int
    seed: int
    cap: float
    cap_per_hn: float
    iterations: int
    dx: float


@dataclass(frozen=True)
class StrangeTermResult:
    rows: tuple
    c: float
    spread: float
    eps_then_h: tuple   # (h, mean cap/h^n at the smallest eps) per h, h decreasing
    h_then_eps: tuple   # (eps, mean cap/h^n at the smallest h) per eps, eps decreasing
    limsup_flagged: bool = False


def _table_diagnostics(family, eps_list, h_list, replicas, cells_per_h, domain,
                       cells_field="cells_per_h"):
    """Every rule for an absorption-constant table's inputs, as diagnostics
    dicts at the keys of a run's config, `cells_per_h` at `cells_field`.
    `domain` is None for a config whose domain `Box` refuses, and is reported.
    The capacity cube of each h sits at the domain's center."""
    hmin = min(h_list, default=math.inf)
    side = 0.0 if domain is None else max(domain.sides)
    diags = family.validate(side, min(eps_list, default=0.0)) + diagnostics_of([
        (len(eps_list) < 3, "eps_list", "need at least 3 eps values"),
        (len(set(eps_list)) < len(eps_list), "eps_list", "eps values must be distinct"),
        (not all(e > 0 for e in eps_list), "eps_list", "eps values must be positive"),
        (len(h_list) < 2, "h_list", "need at least 2 cube sizes h"),
        (len(set(h_list)) < len(h_list), "h_list", "cube sizes h must be distinct"),
        (replicas < 1, "replicas", "need at least one replica"),
        *((not e < hmin / 4.0, "eps_list",
           f"scale ordering requires eps << h: eps={e} is not < min(h)/4 = "
           f"{hmin / 4.0}") for e in eps_list),
        (not cells_per_h >= 1, cells_field, f"{cells_field} must be >= 1"),
    ])
    if cells_per_h >= 1:
        diags += refusal(cells_field, Box.cube(1.0, family.dim).grid_shape, 1.0 / cells_per_h)
    if domain is not None:
        diags += refusal("family.dim", _check_dimension, family, domain) + diagnostics_of([
            (any(c - h / 2.0 < lo - 1e-12 or c + h / 2.0 > hi + 1e-12
                 for c, lo, hi in zip(domain.center, domain.lower, domain.upper)),
             "h_list", f"capacity cube of side {h} escapes the domain")
            for h in h_list])
    return diags


def strange_term(family, h_list, eps_list, replicas, master_seed, domain,
                 cells_per_h=32, limsup_bound=None):
    """Table of local capacity densities cap(x, h, eps) / h^n and the
    iterated-limit estimate of the effective absorption constant, in 2D or
    3D.

    Samples one realization per (eps, replica) and shares it across all h
    (common random numbers).  Refuses the inputs `_table_diagnostics`
    refuses, among them an eps not < h/4, a cube outside the domain and a
    family whose dimension is not the domain's.
    """
    raise_diagnostics(_table_diagnostics(family, eps_list, h_list, replicas,
                                         cells_per_h, domain))
    realizations = []
    # the seeds are indexed in decreasing eps
    for ie, eps in enumerate(sorted(map(float, eps_list), reverse=True)):
        for k in range(replicas):
            seed = substream_seed(master_seed, "strange-term", ie, k)
            obstacles, _ = sample_family(family, eps, seed, domain)
            realizations.append((eps, k, seed, obstacles))
    return _strange_table(realizations, h_list, eps_list, domain, cells_per_h,
                          limsup_bound=limsup_bound)


def _mean(values):
    return float(np.mean(values)) if values else math.nan


def _strange_table(realizations, h_list, eps_list, domain, cells_per_h,
                   limsup_bound=None, tol=1e-8):
    """The capacity table of `strange_term` over given (eps, replica, seed,
    obstacles) realizations, whose inputs `_table_diagnostics` accepts: the
    cube of side h at the domain's center.  `c` and its spread are NaN,
    undefined, when no realization at the smallest eps is given."""
    h_list = sorted(map(float, h_list), reverse=True)
    eps_list = sorted(map(float, eps_list), reverse=True)
    rows = []
    n = domain.dim
    for eps, k, seed, obstacles in realizations:
        for h in h_list:
            dx_local = h / cells_per_h
            cube = Box(tuple(c - h / 2 for c in domain.center),
                       tuple(c + h / 2 for c in domain.center))
            est, _ = capacity_minimizer_on_window(rasterize(obstacles, cube, dx_local),
                                                  tol=tol)
            rows.append(StrangeTermRow(
                h=h, eps=eps, replica=k, seed=seed, cap=est.value,
                cap_per_hn=est.value / h ** n,
                iterations=est.report.iterations, dx=dx_local))
    h_min = min((r.h for r in rows), default=math.nan)
    eps_min = eps_list[-1]
    at_corner = [r.cap_per_hn for r in rows
                 if r.h == h_min and r.eps == eps_min]
    c = _mean(at_corner)
    spread = float(np.std(at_corner)) if at_corner else math.nan
    eps_then_h = tuple(
        (h, _mean([r.cap_per_hn for r in rows
                   if r.h == h and r.eps == eps_min]))
        for h in sorted({r.h for r in rows})[::-1])
    h_then_eps = tuple(
        (eps, _mean([r.cap_per_hn for r in rows if r.eps == eps and r.h == h_min]))
        for eps in eps_list)
    flagged = False
    if limsup_bound is not None:
        flagged = any(r.cap_per_hn >= limsup_bound for r in rows if r.eps == eps_min)
    return StrangeTermResult(rows=tuple(rows), c=c, spread=spread,
                             eps_then_h=eps_then_h, h_then_eps=h_then_eps,
                             limsup_flagged=flagged)


def boolean_capacity_constant(obstacles, domain):
    """Capacity sum of the balls strongly contained in the domain, per unit
    volume: sum of 4*pi*r over balls whose distance to the boundary is at
    least twice their radius, divided by |domain|.  3D only."""
    if obstacles.kind != "balls":
        raise InvalidArgumentError("capacity constant is defined for ball obstacles")
    if obstacles.dim != 3:
        raise InvalidArgumentError("capacity constant requires dimension 3")
    c, r = obstacles.points.points, obstacles.ball_radii
    dist = np.minimum(np.min(c - domain.lower, axis=1), np.min(domain.upper - c, axis=1))
    kept = r[dist >= 2.0 * r]
    return 4.0 * math.pi * float(np.sum(kept)) / domain.volume, int(kept.size)
