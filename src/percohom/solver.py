"""Finite differences on perforated masks.

One discretization serves every problem of the library, the Dirichlet solves
here and the capacity functionals in `capacity`: a cell-centered uniform
grid, the 5-point (2D) / 7-point (3D) stencil, and one weight per face.

* A face between two cells of the domain has weight 1: the difference of
  the two cell values over a full cell.
* A face against the boundary has weight 2: the boundary data sits at the
  face itself, half a cell from the cell center, which keeps the scheme
  second order in L2.  The grid edge is such a boundary, and so is every
  cell flagged exterior: an exterior cell is a half-cell boundary with value
  0, inside a capacity window as on a whole mask.
* A face against an insulating (no-flux) cell has weight 0.

Material cells are the unknowns.  Absorbing hole cells are eliminated with a
fixed value (0 in the Dirichlet problem, so a material-hole face is the
one-sided difference (0 - u)/dx).  With the fixed values and boundary data,
the weights give one discrete energy

    E(u) = sum_faces w (jump/dx)^2 dx^n + reaction * sum_cells (u - target)^2 dx^n,

and the operator, its Jacobi diagonal and the right-hand side are exactly
its Euler-Lagrange system, so every computed solution is the minimizer of E
over the unknown cells, up to the CG tolerance.  `_FaceKernel` holds this
form; every apply, diagonal, right-hand side and energy goes through it, and
`_FaceKernel.minimize` is the one solve path: every Dirichlet solve here and
every capacity and conduction problem in `capacity` calls it.

The sign convention is  lap(u) - reaction*u = f  with reaction >= 0; the
assembled SPD system is  (-lap_h + reaction) u = -f, and the Dirichlet
energy is  gamma(u) = E(u) + 2<f, u>.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError
from .expressions import evaluate_on_mask
from .geometry import EXTERIOR, MATERIAL, PerforatedMask, hole_free_mask


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_rel_residual: float
    wall_time: float


@dataclass(frozen=True)
class GridField:
    """Scalar values on the material cells of a mask, extended by zero.

    `values` is stored on the full grid with exact zeros on hole and exterior
    cells, so integrals over the domain and over the material region agree by
    construction.
    """

    mask: PerforatedMask
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.mask.shape:
            raise InvalidArgumentError("values shape does not match the mask grid")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("field values must be finite")
        v = np.where(self.mask.material, v, 0.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def zeros(mask):
        return GridField(mask, np.zeros(mask.shape))

    @staticmethod
    def constant(mask, value):
        return GridField(mask, np.full(mask.shape, float(value)))

    @staticmethod
    def from_expression(mask, expr_text):
        return GridField(mask, evaluate_on_mask(expr_text, mask))


_INSULATING = 3  # a cell role beside MATERIAL, HOLE and EXTERIOR: no flux

# Weight of a face by the roles of its two cells: 1 between cells of the
# domain, 2 (half a cell) between a boundary cell and a domain cell, 0 across
# an insulating cell or between two boundary cells.
_FACE_WEIGHT = np.array([[1, 1, 2, 0],    # MATERIAL
                         [1, 1, 2, 0],    # HOLE
                         [2, 2, 0, 0],    # EXTERIOR
                         [0, 0, 0, 0]],   # _INSULATING
                        dtype=np.uint8)


def _faces(ndim):
    """Per axis, the index pair (lo, hi) selecting the two cells of every face
    along that axis."""
    return [((slice(None),) * axis + (slice(None, -1),),
             (slice(None),) * axis + (slice(1, None),)) for axis in range(ndim)]


def _neighbour_sum(v, weights=None):
    """Sum over the faces of every cell of w * (the value across the face),
    nothing past the array edge; w = 1, or weights[axis] along each axis."""
    out = np.zeros_like(v)
    for axis, (lo, hi) in enumerate(_faces(v.ndim)):
        if weights is None:
            out[lo] += v[hi]
            out[hi] += v[lo]
        else:
            out[lo] += weights[axis] * v[hi]
            out[hi] += weights[axis] * v[lo]
    return out


class _FaceKernel:
    """The energy of one problem (module docstring) and its linear system.

    `roles` gives each cell its part: MATERIAL (unknown), HOLE (fixed
    value), EXTERIOR (boundary) or _INSULATING.  The grid is padded with one
    EXTERIOR cell per side, so its edge is boundary too.  `data`, on the
    padded grid or None for zeros, holds the fixed values and the boundary
    data.  `reaction` (a reaction or a penalty) pulls the unknowns toward
    `target`, or toward 0 when it is None.  The face weights are derived
    from the roles once, on first use; `apply` uses only `diag` and
    `unknown`.
    """

    def __init__(self, roles, dx, reaction=0.0, data=None, target=None):
        if reaction < 0:
            raise InvalidArgumentError("reaction coefficient must be >= 0")
        self.roles = np.pad(roles, 1, constant_values=EXTERIOR)
        self.inner = (slice(1, -1),) * roles.ndim
        self.unknown = roles == MATERIAL
        self.dx, self.reaction, self.target = dx, reaction, target
        self.data = None if data is None else np.where(self.roles == MATERIAL, 0.0, data)

    @cached_property
    def weights(self):
        """Per axis, the weight of every face between two padded cells."""
        return [np.take(_FACE_WEIGHT, 4 * self.roles[lo] + self.roles[hi])
                for lo, hi in _faces(self.roles.ndim)]

    @cached_property
    def diag(self):
        """Jacobi diagonal: the face weights of each unknown cell / dx^2 plus
        the reaction; 1 off the unknown cells."""
        faces = _neighbour_sum(np.ones(self.roles.shape), self.weights)[self.inner]
        return np.where(self.unknown, faces / self.dx ** 2 + self.reaction, 1.0)

    def apply(self, u):
        """diag*u - (sum of the neighbours)/dx^2 on the unknown cells.  Every
        face between two unknown cells has weight 1, and u vanishes off the
        unknown cells (as every CG iterate does), so zero-filled neighbours
        serve absorbing and insulating holes alike."""
        out = _neighbour_sum(u)
        out *= -1.0 / self.dx ** 2
        out += self.diag * u
        out *= self.unknown
        return out

    def rhs(self):
        """The data and target terms of the right-hand side."""
        b = self.reaction * self.target if self.target is not None else 0.0
        if self.data is not None:
            b = b + _neighbour_sum(self.data, self.weights)[self.inner] / self.dx ** 2
        return np.where(self.unknown, b, 0.0)

    def minimize(self, b=None, *, tol, max_iter=None):
        """The minimizer of the energy over the unknown cells: Jacobi-CG on
        this system with right-hand side `b`, by default `rhs()`.  Returns
        (solution, SolveReport)."""
        return cg_solve(self.apply, self.rhs() if b is None else b, tol=tol,
                        max_iter=max_iter, diag=self.diag)

    def energy(self, u, other=None, v=None):
        """Symmetric bilinear energy of u, with this kernel's data, against v,
        with the data of `other` (same roles and reaction); energy(u) is the
        form the solve minimizes: sum_faces w da db dx^(n-2) plus the
        reaction term."""
        if other is None:
            other, v = self, u
        a, b = self._values(u), other._values(v)
        energy = sum(np.sum(w * (a[hi] - a[lo]) * (b[hi] - b[lo]))
                     for w, (lo, hi) in zip(self.weights, _faces(a.ndim)))
        energy *= self.dx ** (u.ndim - 2)
        if self.reaction:
            ra = u if self.target is None else u - self.target
            rb = v if other.target is None else v - other.target
            energy += self.reaction * np.sum(np.where(self.unknown, ra * rb, 0.0)) \
                * self.dx ** u.ndim
        return float(energy)

    def _values(self, u):
        """The padded field: u on the unknown cells, the data elsewhere."""
        values = np.pad(np.where(self.unknown, u, 0.0), 1)
        if self.data is not None:
            values += self.data
        return values


def make_operator(mask, reaction):
    """Matrix-free application of (-lap_h + reaction) on material cells."""
    return _FaceKernel(mask.flags, mask.dx, reaction).apply


def operator_diagonal(mask, reaction):
    return _FaceKernel(mask.flags, mask.dx, reaction).diag


def cg_solve(apply_op, b, tol=1e-8, max_iter=None, diag=None):
    """Preconditioned conjugate gradients with a fixed summation order.

    All reductions go through np.sum (pairwise, single-threaded), so the
    iteration path and result are bit-stable across thread counts.  Returns
    (solution, SolveReport); raises SolverFailureError with the residual
    history on non-convergence.  The iteration starts from zero, and at most
    20 * max(b.shape) iterations are made unless `max_iter` says otherwise.
    """
    t0 = time.perf_counter()
    b_norm = np.sqrt(np.sum(b * b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, time.perf_counter() - t0)
    if max_iter is None:
        max_iter = 20 * max(b.shape)
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag if diag is not None else r
    p = z.copy()
    rz = np.sum(r * z)
    history = [float(np.sqrt(np.sum(r * r)) / b_norm)]
    if history[-1] <= tol:
        return x, SolveReport(0, history[-1], time.perf_counter() - t0)
    for k in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = np.sum(p * Ap)
        if pAp <= 0.0:
            raise SolverFailureError(f"CG breakdown at iteration {k}: <Ap, p> = {pAp}",
                                     history)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.sqrt(np.sum(r * r)) / b_norm)
        history.append(rel)
        if rel <= tol:
            return x, SolveReport(k, rel, time.perf_counter() - t0)
        z = r / diag if diag is not None else r
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailureError(
        f"CG did not reach tol={tol} in {max_iter} iterations "
        f"(residual {history[-1]:.3e})", history)


def as_source(f, mask):
    """Accept an expression string, a scalar, or a full array."""
    if isinstance(f, str):
        return evaluate_on_mask(f, mask)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(mask.shape, float(arr))
    if arr.shape != mask.shape:
        raise InvalidArgumentError("source array shape does not match the grid")
    return arr


def solve_dirichlet_perforated(mask, reaction, f, tol=1e-8, max_iter=None):
    """Solve lap(u) - reaction*u = f on material cells, u = 0 on holes and on
    the domain boundary.  Returns (GridField, SolveReport)."""
    if mask.material_count == 0:
        raise InvalidArgumentError("mask has no material cells")
    if tol <= 0:
        raise InvalidArgumentError("tol must be positive")
    kernel = _FaceKernel(mask.flags, mask.dx, reaction)
    x, report = kernel.minimize(np.where(kernel.unknown, -as_source(f, mask), 0.0),
                                tol=tol, max_iter=max_iter)
    return GridField(mask, x), report


def solve_homogenized(domain, reaction, strange_c, f, dx, tol=1e-8):
    """Solve lap(u) - (reaction + c) u = f on the unperforated grid.

    Deliberately routed through the perforated solver on a hole-free mask so
    that c = 0 reproduces it bit for bit.
    """
    if strange_c < 0:
        raise InvalidArgumentError("the effective absorption constant must be >= 0")
    mask = hole_free_mask(domain, dx)
    return solve_dirichlet_perforated(mask, reaction + strange_c, f, tol=tol)


def l2_norm(u):
    return float(np.sqrt(np.sum(u.values * u.values) * u.mask.dx ** u.mask.dim))


def l2_distance(u, v):
    """L2 distance over the domain; holes contribute through the zero extension."""
    if not u.mask.same_grid(v.mask):
        raise InvalidArgumentError("fields live on different grids")
    d = u.values - v.values
    return float(np.sqrt(np.sum(d * d) * u.mask.dx ** u.mask.dim))


def gradient_energy(u):
    """sum over faces of (du/dx)^2 with the scheme's face weights: weight 1
    between interior cells (holes hold an exact zero), 2 (half a cell, data
    0) against the domain boundary or an exterior cell."""
    return _FaceKernel(u.mask.flags, u.mask.dx).energy(u.values)


def energy_gamma(u, reaction, f):
    """Discrete energy  grad-part + reaction*||u||^2 + 2 <f, u>."""
    mask = u.mask
    source = as_source(f, mask)
    vol = mask.dx ** mask.dim
    fu = float(np.sum(source * u.values) * vol)
    return _FaceKernel(mask.flags, mask.dx, reaction).energy(u.values) + 2.0 * fu


def h1_norm(u):
    return float(np.sqrt(l2_norm(u) ** 2 + gradient_energy(u)))


def friedrichs_constant(domain, dx):
    """C such that ||u||_L2 <= C ||grad u||_L2 for fields vanishing on the
    boundary: 1/sqrt of the smallest eigenvalue of the operator on the
    hole-free grid, sum_d 4/dx^2 sin^2(pi/(2 n_d)) for n_d cells along axis d
    (the eigenvector is a product of sines vanishing at the boundary faces)."""
    shape = hole_free_mask(domain, dx).shape
    lam = sum(4.0 / dx ** 2 * math.sin(math.pi / (2 * n)) ** 2 for n in shape)
    return 1.0 / math.sqrt(lam)


FIELD_FORMAT_VERSION = 1


def save_field(field, path):
    """Mask header and flags followed by the material-cell values, row major,
    as 17-significant-digit decimals (exact float64 round trip)."""
    from .geometry import _write_mask
    with open(path, "w") as fh:
        fh.write(f"percohom-field format_version {FIELD_FORMAT_VERSION}\n")
        _write_mask(field.mask, fh)
        vals = field.values[field.mask.material]
        fh.write(f"values {vals.size}\n")
        for chunk_start in range(0, vals.size, 8):
            chunk = vals[chunk_start:chunk_start + 8]
            fh.write(" ".join("%.17g" % x for x in chunk) + "\n")


def load_field(path):
    from .geometry import _read_mask
    with open(path) as fh:
        header = fh.readline().split()
        if header[:2] != ["percohom-field", "format_version"]:
            raise InvalidArgumentError("not a field file")
        if int(header[2]) != FIELD_FORMAT_VERSION:
            raise InvalidArgumentError("unsupported field format version")
        mask = _read_mask(fh)
        count = int(fh.readline().split()[1])
        vals = []
        while len(vals) < count:
            vals.extend(float(t) for t in fh.readline().split())
    full = np.zeros(mask.shape)
    full[mask.material] = np.asarray(vals[:count])
    return GridField(mask, full)
