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
`_FaceKernel.minimize` is the one CG path: every Dirichlet solve here and
every capacity and conduction problem in `capacity` calls it.

The one problem with a closed form is the homogenized one: a mask with no
hole, whose operator is the sum over the axes of one tridiagonal term
diagonal in the DST-II basis (`_hole_free_eigenvalues`).  `_solve_hole_free`
solves it exactly, up to rounding, with one forward DST-II along each axis,
a division by the eigenvalues and the inverse transforms (Makhoul 1980: a
real FFT of length n per line); a sweep takes its comparison field from it.

`minimize` runs conjugate gradients preconditioned by one multigrid V-cycle
(aggregation multigrid: Vanek, Mandel & Brezina 1996; Notay 2010), in
float32, under a float64 iterative refinement (Carson & Higham 2018; for
multigrid, Goddeke, Strzodka & Turek 2007): each float32 solve reduces the
residual by at least _INNER_REDUCTION, and its correction is added to the
float64 solution and taken off the float64 residual, until that residual
meets the tolerance.  The solves are bound by memory bandwidth and by the
cost of each numpy call, so a float32 pass over a slab runs about twice as
fast as a float64 one, and the returned solution meets the same float64
tolerance as a float64 solve.  The
hierarchy is built from the kernel's own face weights, matrix-free: each
coarse cell aggregates a 2^d block of cells (an odd axis gets a decoupled
cell), and the Galerkin operator P^T A P of this piecewise-constant P is
again face weights, the sums of the fine weights across each aggregate
boundary, plus a sink, the sum of the rest of the diagonal.  Coarsening runs
down to a single cell, whose solve is a division.  One damped-Jacobi sweep
before and after the coarse correction keeps the preconditioner symmetric
positive definite.  There is no BLAS call and every reduction is np.sum, so
solutions are byte-identical at any thread count.  The iteration count,
summed over the refinement steps, grows slowly with the grid (23/34/53 on
32^2/64^2/128^2 at tol 1e-8, against float64 Jacobi-CG's 95/193/392); each
refinement step restarts CG, which costs a few iterations against one
float64 MG-PCG run (21/30/44), and a float32 iteration costs about 40%
less at 64^3.

Cost model.  On a 64^3 grid one float64 array is 2 MiB, as large as a
core's L2 cache, so a pass over whole arrays runs from L3, and a float32
array is half that.  The passes that
touch neighbours (the apply, and each level's two passes in the V-cycle)
therefore walk axis 0 in slabs: of _SLAB_CELLS cells on the fine level,
whose diagonal, multiply, six neighbour shifts, masking and Jacobi update
run in L2, a slab reading its two outer neighbour planes from the slabs
beside it; a coarse level (an eighth of the cells and less) is one slab.
The fine level's Jacobi diagonal is never stored: each slab builds it,
times dx^2, from the kernel's one-byte face counts, as count +
reaction*dx^2, and the apply's 1/dx^2 and the sweep's weight take that
factor back, so building it adds no pass over the slab.  CG's vector passes
walk axis 0 in chunks of the same _SLAB_CELLS cells, with one chunk of
scratch for its products.  A solve holds the float64 solution and residual
(the residual is the array of the right-hand side itself, which `minimize`
consumes), the float32 CG's r, x and p and the one float32 array that the
apply output and the V-cycle's result share (half a float64 array each),
the uint8 face counts, roles and unknown flags (an eighth of a float64
array each) and the float32 multigrid hierarchy (0.30 float64 arrays at
64^3).  Neither a CG iteration nor a refinement step makes a temporary of
the grid's size: a step's float64 update runs slab by slab through one
float64 slab buffer, and beyond slab buffers only the coarse levels
allocate per call.  Every reduction is np.sum over a chunk, the chunk sums
added in chunk order, never BLAS (np.dot and friends sum in a
thread-dependent order), so a sum depends on the grid and not on the thread
count.  In the apply and the V-cycle each cell sees the same floating-point
operations in the same order as on whole arrays, so their slabs change no
bit of any result.

The sign convention is  lap(u) - reaction*u = f  with reaction >= 0; the
assembled SPD system is  (-lap_h + reaction) u = -f, and the Dirichlet
energy is  gamma(u) = E(u) + 2<f, u>.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError, diagnostics_of, raise_diagnostics
from .expressions import evaluate_on_mask
from .geometry import EXTERIOR, MATERIAL, PerforatedMask, _faces


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


_INSULATING = 3  # a cell role beside MATERIAL, HOLE and EXTERIOR: no flux

# Weight of a face by the roles of its two cells: 1 between cells of the
# domain, 2 (half a cell) between a boundary cell and a domain cell, 0 across
# an insulating cell or between two boundary cells.
_FACE_WEIGHT = np.array([[1, 1, 2, 0],    # MATERIAL
                         [1, 1, 2, 0],    # HOLE
                         [2, 2, 0, 0],    # EXTERIOR
                         [0, 0, 0, 0]],   # _INSULATING
                        dtype=np.uint8)


def _neighbour_sum(v, weights):
    """Sum over the faces of every cell of w * (the value across the face),
    w the weights of each axis in turn (a list, or a generator that makes
    them one axis at a time), nothing past the array edge."""
    out = np.zeros_like(v)
    for w, (lo, hi) in zip(weights, _faces(v.ndim)):
        out[lo] += w * v[hi]
        out[hi] += w * v[lo]
    return out


def _subtract_neighbours(out, u, start=0, below=None):
    """out -= the sum of the neighbours of every cell of the slab
    u[start:start + len(out)], nothing past the edges of u; `out` is
    C-contiguous.  Along axis 0 the neighbours are the planes of u beside
    each plane of the slab, so a slab reads its two outer neighbour planes
    from the slabs next to it; `below`, if given, stands in for the plane
    u[start - 1].  Along every other axis the neighbour is one shift of the
    flattened slab, which runs at the speed of a contiguous copy even on the
    last axis; the shift wraps onto the cells at the far edge of the axis,
    which are saved before and restored after.  The result is bitwise that
    of the sliced differences on the whole array."""
    stop, n = start + len(out), len(u)
    hi = min(stop, n - 1)
    out[:hi - start] -= u[start + 1:hi + 1]
    if below is None:
        lo = max(start, 1)
        out[lo - start:] -= u[lo - 1:stop - 1]
    else:
        out[0] -= below
        out[1:] -= u[start:stop - 1]
    flat_out, flat_u = out.reshape(-1), u[start:stop].reshape(-1)
    for axis in range(1, u.ndim):
        step = math.prod(u.shape[axis + 1:])
        for edge, dst, src in ((-1, slice(None, -step), slice(step, None)),
                               (0, slice(step, None), slice(None, -step))):
            far = (slice(None),) * axis + (edge,)
            keep = out[far].copy()
            flat_out[dst] -= flat_u[src]
            out[far] = keep


# Cells per slab of the blocked passes, and per chunk of CG's vector passes:
# 8 planes of 64^2, 256 KiB of float64, so a slab's arrays (the field and
# its neighbour planes, the diagonal, the output, the residual) stay in a
# core's L2 cache together.
_SLAB_CELLS = 8 * 64 * 64


def _solve_diagnostics(reaction=0.0, tol=1e-8, max_iter=None):
    """Every rule for a solve's arguments, as diagnostics dicts at the keys of
    a run's config: each `_FaceKernel` checks the reaction, `minimize` the rest."""
    return diagnostics_of([
        (not (math.isfinite(reaction) and reaction >= 0), "reaction",
         f"reaction coefficient must be finite and >= 0, got {reaction}"),
        (not tol > 0, "tol", "tol must be positive"),
        (max_iter is not None and max_iter < 1, "max_iter", "max_iter must be positive or null"),
    ])


class _FaceKernel:
    """The energy of one problem (module docstring) and its linear system.

    `roles` gives each cell its part: MATERIAL (unknown), HOLE (fixed
    value), EXTERIOR (boundary) or _INSULATING.  The grid is padded with one
    EXTERIOR cell per side, so its edge is boundary too.  `data`, on the
    padded grid or None for zeros, holds the fixed values and the boundary
    data.  `reaction` (a reaction or a penalty) pulls the unknowns toward
    `target`, or toward 0 when it is None.  Beside `data`, the kernel keeps
    no float array of the grid's size: of its Jacobi diagonal it keeps the
    one-byte `counts`, from which every pass that needs the diagonal builds
    it for its own slab (`diagonal`), and the face weights are made from the
    roles one axis at a time, wherever a pass needs them.
    """

    def __init__(self, roles, dx, reaction=0.0, data=None, target=None):
        raise_diagnostics(_solve_diagnostics(reaction=reaction))
        self.roles = np.pad(roles, 1, constant_values=EXTERIOR)
        self.inner = (slice(1, -1),) * roles.ndim
        self.unknown = roles == MATERIAL
        self.dx, self.reaction, self.target = dx, reaction, target
        self.data = None if data is None else np.where(self.roles == MATERIAL, 0.0, data)
        self.scale = dx ** 2  # `diagonal` gives the Jacobi diagonal times this

    def _weights(self):
        """Per axis, the weight of every face between two padded cells, made
        when the caller reaches that axis."""
        for lo, hi in _faces(self.roles.ndim):
            yield np.take(_FACE_WEIGHT, 4 * self.roles[lo] + self.roles[hi])

    @cached_property
    def counts(self):
        """The face weights of each unknown cell summed (uint8, 0 to 4 per
        axis); 1 off the unknown cells, where the V-cycle divides a zero
        residual by the diagonal."""
        faces = _neighbour_sum(np.ones(self.roles.shape, np.uint8), self._weights())
        return np.where(self.unknown, faces[self.inner], 1)

    def diagonal(self, out, slab):
        """The Jacobi diagonal times dx^2 on the planes `slab`, into `out`, in
        its dtype: count + reaction*dx^2."""
        return np.add(self.counts[slab], self.reaction * self.scale, out=out, dtype=out.dtype)

    @property
    def diag(self):
        """Jacobi diagonal: the face weights of each unknown cell / dx^2 plus
        the reaction; 1 off the unknown cells.  Made on each call."""
        return np.where(self.unknown, self.counts / self.dx ** 2 + self.reaction, 1.0)

    @cached_property
    def _slabs(self):
        """The slabs of the blocked passes along axis 0: an even number of
        planes of at most _SLAB_CELLS cells (at least two planes), so no
        aggregate of the multigrid straddles two slabs.  A grid of at most
        one slab is a single slab."""
        n, plane = self.unknown.shape[0], math.prod(self.unknown.shape[1:])
        planes = max(2, _SLAB_CELLS // plane // 2 * 2)
        return [slice(start, min(start + planes, n)) for start in range(0, n, planes)]

    def _apply_slab(self, out, u, slab, below=None, diag=None):
        """The apply of u on the planes `slab`, into `out`, in place as
        ((count + reaction*dx^2)*u - neighbours)/dx^2; `diag`, that slab's
        `diagonal`, is built in `out` unless given; `below` as in
        _subtract_neighbours."""
        if diag is None:
            diag = self.diagonal(out, slab)
        np.multiply(diag, u[slab], out=out)
        _subtract_neighbours(out, u, slab.start, below)
        out *= 1.0 / self.dx ** 2
        out *= self.unknown[slab]
        return out

    def apply(self, u, out=None):
        """diag*u - (sum of the neighbours)/dx^2 on the unknown cells, into
        `out` if given.  Every face between two unknown cells has weight 1,
        and u vanishes off the unknown cells (as every CG iterate does), so
        zero-filled neighbours serve absorbing and insulating holes alike.
        Computed slab by slab (_slabs), in the dtype of u, with no temporary
        of the grid's size."""
        if out is None:
            out = np.empty(u.shape, u.dtype)
        for slab in self._slabs:
            self._apply_slab(out[slab], u, slab)
        return out

    def residual(self, out, r, x, slab, below=None, diag=None):
        """r - apply(x) on the planes `slab`, into `out`; `diag` as in
        _apply_slab, `below` as in _subtract_neighbours."""
        return np.subtract(r[slab], self._apply_slab(out, x, slab, below, diag), out=out)

    def rhs(self):
        """The data and target terms of the right-hand side."""
        b = self.reaction * self.target if self.target is not None else 0.0
        if self.data is not None:
            b = b + _neighbour_sum(self.data, self._weights())[self.inner] / self.dx ** 2
        return np.where(self.unknown, b, 0.0)

    def minimize(self, b=None, *, tol, max_iter=None):
        """The minimizer of the energy over the unknown cells, for the
        right-hand side `b` (float64), by default `rhs()`: mixed-precision
        iterative refinement (Carson & Higham 2018).  Each step solves for
        the correction in float32, by CG preconditioned with one multigrid
        V-cycle on the kernel's aggregation hierarchy (`_vcycle`), on the
        residual scaled to unit norm, so no scale of the problem under- or
        overflows float32, down to _INNER_REDUCTION or to half the reduction
        the tolerance still asks for, whichever is larger; the correction is
        added to x, and the residual
        is updated by its apply, both in float64.  The steps stop when the
        float64 residual is at most tol relative to |b|.  `b` is consumed:
        it holds the residual throughout and the final one on return.
        `max_iter` (default 20 * max(shape)) caps the CG iterations of all
        steps together, and the report gives their sum and the final float64
        relative residual.  A step that does not halve the residual raises
        SolverFailureError with the residual history of the steps.  The
        float32 apply output and the preconditioned residual, of which CG
        never holds both at once, share one array made once per solve.
        Returns (solution, SolveReport)."""
        raise_diagnostics(_solve_diagnostics(tol=tol, max_iter=max_iter))
        t0 = time.perf_counter()
        r = self.rhs() if b is None else b
        levels = self._coarse_levels  # built before CG's arrays exist: a lower peak
        buffer = np.empty((self._slabs[0].stop,) + r.shape[1:])  # a float64 slab

        def squares(v):
            return sum(np.sum(np.multiply(v[s], v[s], out=buffer[:s.stop - s.start]))
                       for s in self._slabs)

        b_norm = math.sqrt(squares(r))
        if b_norm == 0.0:
            return np.zeros(r.shape), SolveReport(0, 0.0, time.perf_counter() - t0)
        max_iter = 20 * max(r.shape) if max_iter is None else max_iter
        x = np.zeros(r.shape)
        step = np.empty(r.shape, np.float32)
        out = np.empty(r.shape, np.float32)
        r_norm, history, iterations = b_norm, [1.0], 0
        while not history[-1] <= tol:  # NaN included: CG raises on it
            np.multiply(r, 1.0 / r_norm, out=step, casting="same_kind")
            try:
                e, inner = cg_solve(partial(self.apply, out=out), step,
                                    tol=max(_INNER_REDUCTION, tol / history[-1] / 2),
                                    max_iter=max_iter - iterations, overwrite_b=True,
                                    precondition=partial(_vcycle, [self, *levels], out=out))
            except SolverFailureError as err:
                raise SolverFailureError(
                    f"refinement step {len(history)}: {err}",
                    history + [history[-1] * h for h in err.residual_history[1:]]) from None
            iterations += inner.iterations
            rr = 0.0
            for s in self._slabs:
                d = self._apply_slab(buffer[:s.stop - s.start], e, s)
                d *= r_norm
                r[s] -= d
                rr += np.sum(np.multiply(r[s], r[s], out=d))
                x[s] += np.multiply(e[s], r_norm, out=d, dtype=d.dtype)
            del e
            r_norm = math.sqrt(rr)
            history.append(r_norm / b_norm)
            if not history[-1] <= history[-2] / 2:  # NaN included
                raise SolverFailureError(
                    f"refinement step {len(history) - 1} did not halve the residual "
                    f"({history[-2]:.3e} -> {history[-1]:.3e})", history)
        return x, SolveReport(iterations, history[-1], time.perf_counter() - t0)

    def energy(self, u, other=None, v=None):
        """Symmetric bilinear energy of u, with this kernel's data, against v,
        with the data of `other` (same roles and reaction); energy(u) is the
        form the solve minimizes: sum_faces w da db dx^(n-2) plus the
        reaction term.  Beside the padded field, energy(u) makes one array
        of the grid's size at a time, the jumps of one axis."""
        a = self._values(u)
        if other is None:
            other, v, b = self, u, a
        else:
            b = other._values(v)
        energy = 0
        for w, (lo, hi) in zip(self._weights(), _faces(a.ndim)):
            jumps = np.subtract(a[hi], a[lo])
            jumps *= jumps if b is a else b[hi] - b[lo]
            jumps *= w  # by 0, 1 or 2: rounded as w * da * db is
            energy += np.sum(jumps)
        energy *= self.dx ** (u.ndim - 2)
        if self.reaction:
            ra = u if self.target is None else u - self.target
            rb = v if other.target is None else v - other.target
            products = np.zeros(u.shape)
            np.multiply(ra, rb, out=products, where=self.unknown)
            energy += self.reaction * np.sum(products) * self.dx ** u.ndim
        return float(energy)

    def _values(self, u):
        """The padded field: u on the unknown cells, the data elsewhere."""
        values = np.zeros(self.roles.shape)
        np.copyto(values[self.inner], u, where=self.unknown)
        if self.data is not None:
            values += self.data
        return values

    @cached_property
    def _coarse_levels(self):
        """The multigrid hierarchy below this kernel: the Galerkin levels of
        piecewise-constant 2^d aggregation, down to a single cell.  The face
        weights between unknown cells are 1/dx^2; the rest of the diagonal
        (faces to holes and boundary, the reaction) is a sink."""
        u = self.unknown
        # unknown-unknown faces as 0/1 counts, summed into coarse faces
        # before they are scaled, so no float weight array of this size is made
        weights = [(u[lo] & u[hi]).view(np.uint8) for lo, hi in _faces(u.ndim)]
        sink = np.subtract(self.counts, _neighbour_sum(np.ones(u.shape, np.uint8), weights),
                           dtype=np.float32)
        sink /= self.dx ** 2
        sink += self.reaction
        sink *= u
        levels = []
        while sink.size > 1:
            weights, sink = _coarsen(weights, sink)
            if not levels:
                weights = [np.divide(w, self.dx ** 2, dtype=np.float32) for w in weights]
            levels.append(_Level(weights, sink))
        return levels


# The residual reduction each float32 CG solve of `minimize` asks for at
# least.  float32's unit roundoff (6e-8) times the condition of the grid
# (about 4 n^2 / pi^2, 1.7e3 to 6.6e3 on 64^3 to 128^3 cells) bounds how far
# a float32 solve can reduce its true residual, so a smaller value buys no
# float64 accuracy per step; a larger one makes more steps, each of which
# restarts CG.
_INNER_REDUCTION = 1e-4


# Damping of the multigrid's Jacobi sweeps.  D^-1 A has its spectrum in
# (0, 2) on these weakly diagonally dominant systems, so any weight below 1
# makes each sweep an energy-norm contraction and the V-cycle SPD.
_JACOBI_WEIGHT = 0.8


def _pair_sum(a, axes):
    """Sum of each pair of neighbouring cells along each of `axes`; a last,
    unpaired cell of an odd axis stays alone (paired with a decoupled cell)."""
    for axis in axes:
        n = a.shape[axis]
        pairs = (a[(slice(None),) * axis + (slice(0, n - 1, 2),)]
                 + a[(slice(None),) * axis + (slice(1, None, 2),)])
        a = pairs if n % 2 == 0 else np.concatenate(
            (pairs, a[(slice(None),) * axis + (slice(n - 1, None),)]), axis=axis)
    return a


def _coarse_axes(shape):
    return [axis for axis, n in enumerate(shape) if n > 1]


def _coarsen(weights, sink):
    """The Galerkin level P^T A P of aggregating each 2^d block of cells,
    with A given by face weights and a sink: the weights of the faces
    between two neighbouring aggregates add up, and so do the sinks."""
    axes = _coarse_axes(sink.shape)
    coarse = []
    for axis, w in enumerate(weights):
        if axis in axes:  # the faces across aggregate boundaries
            w = w[(slice(None),) * axis + (slice(1, None, 2),)]
        coarse.append(_pair_sum(w, [a for a in axes if a != axis]))
    return coarse, _pair_sum(sink, axes)


class _Level:
    """A coarse level: the operator diag*u - sum_faces w*(neighbour), on
    cells that aggregate unknowns; every other cell is decoupled, with
    diagonal 1 and values that stay 0.  Small enough to be one slab.  Its
    weights and diagonal are float32, the precision the solve runs in."""

    def __init__(self, weights, sink):
        self.weights = weights
        diag = _neighbour_sum(np.ones(sink.shape, np.float32), weights) + sink
        self.unknown = diag > 0
        self.diag = np.where(self.unknown, diag, np.float32(1.0))
        self._slabs = [slice(0, len(sink))]

    scale = 1.0  # `diagonal` gives the Jacobi diagonal itself

    def diagonal(self, out, slab):
        """The stored diagonal on the planes `slab`; `out` is not used."""
        return self.diag[slab]

    def residual(self, out, r, x, slab, below=None, diag=None):
        """r - A x on the whole level (its one slab), into `out`; the other
        arguments are those of the kernel's residual, moot on one slab with
        a stored diagonal."""
        np.multiply(self.diag, x, out=out)
        for w, (lo, hi) in zip(self.weights, _faces(x.ndim)):
            out[lo] -= w * x[hi]
            out[hi] -= w * x[lo]
        return np.subtract(r, out, out=out)


def _prolong_add(x, e, axes):
    """x += P e: each coarse value of e added to the cells of its block.  If
    every axis of `axes` has even length, e is repeated along the last axis
    (whose block pairs lie side by side) and broadcast onto the blocks of a
    view of x along the others; an odd axis repeats e along every axis and
    cuts the last block."""
    if any(x.shape[axis] % 2 for axis in axes):
        for axis in axes:
            e = np.repeat(e, 2, axis=axis)
        x += e[tuple(slice(0, n) for n in x.shape)]
        return
    last = x.ndim - 1
    if last in axes:
        e = np.repeat(e, 2, axis=last)
    blocks, coarse = [], []
    for axis, n in enumerate(x.shape):
        split = axis in axes and axis != last
        blocks += [n // 2, 2] if split else [n]
        coarse += [n // 2, 1] if split else [n]
    view = x.reshape(blocks)  # a view: x is C-contiguous, as _vcycle makes it
    view += e.reshape(coarse)


def _vcycle(levels, r, k=0, out=None):
    """One V-cycle for levels[k] x = r, with x written into `out` if given:
    a damped-Jacobi sweep, the coarse correction of the aggregated
    residual, and the same sweep again; exact on the single-cell coarsest
    level.  Symmetric, with the same sweep on both sides, and positive
    definite (_JACOBI_WEIGHT).  Each level walks its slabs twice, through
    slab buffers of its own, so none is held through the coarse correction:
    sweep, residual and restriction, then residual and sweep.  A slab's
    sweep and residual share its `diagonal`, which the fine level builds
    per slab, times dx^2 (the sweep's weight takes that back).  The first
    walk sweeps each slab and the plane above it, which its residual reads;
    the second sweeps in place and hands each slab the plane below as it
    was before the sweep moved it.  Every array it makes has the dtype of r."""
    level = levels[k]
    if k == len(levels) - 1:
        return np.divide(r, level.diag, out=out)
    x = np.empty(r.shape, r.dtype) if out is None else out
    weight = _JACOBI_WEIGHT * level.scale
    n, axes = len(r), _coarse_axes(r.shape)
    slab_shape = (level._slabs[0].stop,) + r.shape[1:]
    buffer = np.empty((min(slab_shape[0] + 1, n),) + r.shape[1:], r.dtype)
    coarse = np.empty([(m + 1) // 2 if axis in axes else m for axis, m in enumerate(r.shape)],
                      r.dtype)
    for slab in level._slabs:
        swept, size = slice(slab.start, min(slab.stop + 1, n)), slab.stop - slab.start
        diag = level.diagonal(buffer[:swept.stop - swept.start], swept)
        np.divide(r[swept], diag, out=x[swept])
        x[swept] *= weight
        res = level.residual(buffer[:size], r, x, slab, diag=diag[:size])
        coarse[slab.start // 2:(slab.stop + 1) // 2] = _pair_sum(res, axes)
    del buffer, diag, res  # a coarse level's buffer is the whole level
    e = _vcycle(levels, coarse, k + 1)
    del coarse
    _prolong_add(x, e, axes)
    del e
    x *= level.unknown  # x was 0 off the unknowns
    buffer = np.empty(slab_shape, r.dtype)
    diags = np.empty(slab_shape, r.dtype) if k == 0 else buffer  # a coarse level's is stored
    below = None
    for slab in level._slabs:
        size = slab.stop - slab.start
        diag = level.diagonal(diags[:size], slab)
        res = level.residual(buffer[:size], r, x, slab, below, diag)
        below = x[slab.stop - 1].copy()
        res /= diag
        res *= weight
        x[slab] += res
    return x


def make_operator(mask, reaction):
    """Matrix-free application of (-lap_h + reaction) on material cells."""
    return _FaceKernel(mask.flags, mask.dx, reaction).apply


def operator_diagonal(mask, reaction):
    return _FaceKernel(mask.flags, mask.dx, reaction).diag


def cg_solve(apply_op, b, tol=1e-8, max_iter=None, diag=None, precondition=None,
             overwrite_b=False):
    """Preconditioned conjugate gradients with a fixed summation order.

    The preconditioner is `precondition(r)` if given, else the Jacobi
    division r / diag if `diag` is given, else none.  `apply_op` and
    `precondition` may return the same array on every call, even the same
    array as each other: the loop consumes each result before it calls
    either again.  The vector passes (|b|, p.Ap, the x and r updates fused
    with r.r, r.z, the p update) walk axis 0 in chunks of at most
    _SLAB_CELLS cells (at least one plane), with one chunk-sized scratch
    array for the products, so CG holds no grid-sized array beyond x, r
    and p.  Every reduction is np.sum over a chunk (pairwise,
    single-threaded, never BLAS), the chunk sums added in chunk order, so
    the iteration path and result are bit-stable across thread counts.
    `b` is left untouched, unless `overwrite_b` (scipy's keyword) hands it
    over: then CG builds its residual in `b` itself, with no copy, and on
    return `b` holds the final residual.  Returns (solution, SolveReport);
    raises SolverFailureError with the residual history on non-convergence.
    The iteration starts from zero, and at most 20 * max(b.shape)
    iterations are made unless `max_iter` says otherwise.
    """
    t0 = time.perf_counter()
    n, planes = len(b), max(1, _SLAB_CELLS // max(1, math.prod(b.shape[1:])))
    scratch = np.empty_like(b[:planes])
    chunks = [(slice(start, start + planes), scratch[:min(planes, n - start)])
              for start in range(0, n, planes)]

    def dot(u, v):
        total = 0.0
        for c, s in chunks:
            total += np.sum(np.multiply(u[c], v[c], out=s))
        return total

    b_norm = np.sqrt(dot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, time.perf_counter() - t0)
    if max_iter is None:
        max_iter = 20 * max(b.shape)
    if precondition is None:
        precondition = (lambda r: r) if diag is None else (lambda r: r / diag)

    x = np.zeros_like(b)
    r = b if overwrite_b else b.copy()
    z = precondition(r)
    p = z.copy()
    rz = dot(r, z)
    del z
    history = [float(np.sqrt(dot(r, r)) / b_norm)]
    if history[-1] <= tol:
        return x, SolveReport(0, history[-1], time.perf_counter() - t0)
    for k in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = dot(p, Ap)
        if not pAp > 0.0:  # NaN included
            raise SolverFailureError(f"CG breakdown at iteration {k}: <Ap, p> = {pAp}",
                                     history)
        alpha = rz / pAp
        rr = 0.0
        for c, s in chunks:
            x[c] += np.multiply(alpha, p[c], out=s)
            r[c] -= np.multiply(alpha, Ap[c], out=s)
            rr += np.sum(np.multiply(r[c], r[c], out=s))
        del Ap
        rel = float(np.sqrt(rr) / b_norm)
        history.append(rel)
        if rel <= tol:
            return x, SolveReport(k, rel, time.perf_counter() - t0)
        z = precondition(r)
        rz_new = dot(r, z)
        beta = rz_new / rz
        for c, _ in chunks:
            p[c] *= beta
            p[c] += z[c]
        del z
        rz = rz_new
    raise SolverFailureError(
        f"CG did not reach tol={tol} in {max_iter} iterations "
        f"(residual {history[-1]:.3e})", history)


def as_source(f, mask):
    """Accept an expression string, a scalar, or a full array; every value
    must be finite."""
    arr = evaluate_on_mask(f, mask) if isinstance(f, str) else np.asarray(f, dtype=float)
    if arr.ndim == 0:
        arr = np.full(mask.shape, float(arr))
    if arr.shape != mask.shape:
        raise InvalidArgumentError("source array shape does not match the grid")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("source is not finite at some cell center")
    return arr


def solve_dirichlet_perforated(mask, reaction, f, tol=1e-8, max_iter=None):
    """Solve lap(u) - reaction*u = f on material cells, u = 0 on holes and on
    the domain boundary.  Returns (GridField, SolveReport)."""
    if mask.material_count == 0:
        raise InvalidArgumentError("mask has no material cells")
    kernel = _FaceKernel(mask.flags, mask.dx, reaction)
    b = as_source(f, mask)
    # in place only in an array made from an expression or a number: an
    # array-like source may hold the caller's memory, even when it is not b
    b = np.negative(b, out=b if isinstance(f, (str, int, float)) else None)
    b[~kernel.unknown] = 0.0
    x, report = kernel.minimize(b, tol=tol, max_iter=max_iter)
    del b  # the final residual: gone before the field is made
    return GridField(mask, x), report


def l2_norm(u):
    return float(np.sqrt(np.sum(u.values * u.values) * u.mask.dx ** u.mask.dim))


def l2_distance(u, v):
    """L2 distance over the domain; holes contribute through the zero extension."""
    if not u.mask.same_grid(v.mask):
        raise InvalidArgumentError("fields live on different grids")
    d = np.subtract(u.values, v.values)
    d *= d
    return float(np.sqrt(np.sum(d) * u.mask.dx ** u.mask.dim))


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
    hole-free grid, the sum over the axes of each axis's smallest
    (_hole_free_eigenvalues)."""
    lam = sum(float(_hole_free_eigenvalues(n, dx)[0]) for n in domain.grid_shape(dx))
    return 1.0 / math.sqrt(lam)


def _hole_free_eigenvalues(n, dx):
    """The eigenvalues 4/dx^2 sin^2(pi k/(2n)), k = 1..n, of the operator
    along one axis of n cells with no hole: weight 1 between two cells, 2
    against the boundary.  Its eigenvector k is sin(pi k (i + 1/2)/n) over
    the cells i, row k - 1 of the DST-II, and vanishes at the boundary
    faces; on the grid the operator is the sum of one such term per axis."""
    return 4.0 / dx ** 2 * np.sin(np.pi * np.arange(1, n + 1) / (2 * n)) ** 2


def _dst_twiddles(n, inverse=False):
    """The factors 2 exp(-i pi j/(2n)), j = 0..n//2, that turn the real FFT
    of Makhoul's reordering into the DST-II; 0.5 exp(+i pi j/(2n)) undo them."""
    j = np.arange(n // 2 + 1)
    return 0.5 * np.exp(1j * np.pi * j / (2 * n)) if inverse else \
        2.0 * np.exp(-1j * np.pi * j / (2 * n))


def _along(axis, index):
    return (slice(None),) * axis + (index,)


def _dst2(x, axis, twiddles):
    """x := its DST-II along `axis`, y_k = 2 sum_i x_i sin(pi (k+1)(2i+1)/(2n))
    (scipy's unnormalized type 2), in place, by one real FFT of length n
    (Makhoul 1980): v = the even entries, then minus the odd ones reversed;
    then W = twiddles * rfft(v) gives y_(n-1-j) = Re W_j, y_(j-1) = -Im W_j."""
    n, half = x.shape[axis], (x.shape[axis] + 1) // 2
    v = np.empty(x.shape)
    v[_along(axis, slice(None, half))] = x[_along(axis, slice(None, None, 2))]
    np.negative(x[_along(axis, slice(1, None, 2))][_along(axis, slice(None, None, -1))],
                out=v[_along(axis, slice(half, None))])
    w = np.fft.rfft(v, axis=axis)
    del v
    w *= twiddles.reshape((-1,) + (1,) * (x.ndim - axis - 1))
    x[_along(axis, slice(None, None, -1))][_along(axis, slice(None, n // 2 + 1))] = w.real
    np.negative(w.imag[_along(axis, slice(1, half))], out=x[_along(axis, slice(None, half - 1))])


def _idst2(y, axis, twiddles):
    """The inverse of _dst2 (with its inverse twiddles), in place: W from the
    coefficients as _dst2 laid them out, v = irfft(W / forward twiddles),
    and the even and odd entries back from v."""
    n, half = y.shape[axis], (y.shape[axis] + 1) // 2
    w = np.empty(y.shape[:axis] + (n // 2 + 1,) + y.shape[axis + 1:], complex)
    w.real = y[_along(axis, slice(None, None, -1))][_along(axis, slice(None, n // 2 + 1))]
    w.imag[_along(axis, 0)] = 0.0
    np.negative(y[_along(axis, slice(None, n // 2))], out=w.imag[_along(axis, slice(1, None))])
    w *= twiddles.reshape((-1,) + (1,) * (y.ndim - axis - 1))
    v = np.fft.irfft(w, n, axis=axis)
    del w
    y[_along(axis, slice(None, None, 2))] = v[_along(axis, slice(None, half))]
    np.negative(v[_along(axis, slice(half, None))][_along(axis, slice(None, None, -1))],
                out=y[_along(axis, slice(1, None, 2))])


def _solve_hole_free(mask, reaction, f):
    """The solution values of lap(u) - reaction*u = f on a mask whose every
    cell is material, u = 0 on the boundary: the system solve_dirichlet_perforated
    hands to CG, solved in closed form.  The operator is diagonal in the
    DST-II basis along every axis (_hole_free_eigenvalues), so u is -f
    transformed along each axis, divided by the sum of the axes' eigenvalues
    plus the reaction, and transformed back: exact up to rounding, with no
    tolerance.  The transforms run in place in one array, the source's when
    it is not the caller's own: along axes 1.. on slabs of planes of axis 0,
    along axis 0 on blocks of axis 1, each of at most _SLAB_CELLS cells (at
    least one plane or column), so every temporary is of a block's size."""
    raise_diagnostics(_solve_diagnostics(reaction=reaction))
    if mask.material_count != mask.flags.size:
        raise InvalidArgumentError("the closed-form solve needs a mask of material cells only")
    source = as_source(f, mask)
    u = source.copy() if source is f else source
    shape, dx = u.shape, mask.dx
    forward = [_dst_twiddles(n) for n in shape]
    inverse = [_dst_twiddles(n, inverse=True) for n in shape]
    planes = max(1, _SLAB_CELLS // math.prod(shape[1:]))
    slabs = [slice(start, start + planes) for start in range(0, shape[0], planes)]
    columns = max(1, _SLAB_CELLS // (shape[0] * math.prod(shape[2:])))
    blocks = [slice(start, start + columns) for start in range(0, shape[1], columns)]
    # minus the eigenvalues: of axis 0, and of the other axes plus the reaction
    low = -_hole_free_eigenvalues(shape[0], dx).reshape((-1,) + (1,) * (u.ndim - 1))
    rest = -reaction
    for axis, n in enumerate(shape[1:], 1):
        rest = rest - _hole_free_eigenvalues(n, dx).reshape((-1,) + (1,) * (u.ndim - 1 - axis))
    for slab in slabs:
        for axis in range(1, u.ndim):
            _dst2(u[slab], axis, forward[axis])
    for block in blocks:
        x = u[:, block]
        _dst2(x, 0, forward[0])
        x /= low + rest[block]
        _idst2(x, 0, inverse[0])
    for slab in slabs:
        for axis in range(1, u.ndim):
            _idst2(u[slab], axis, inverse[axis])
    return u


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
    from .geometry import _expect, _format_version, _read_mask
    with open(path) as fh:
        version = _expect(fh, "percohom-field", _format_version)
        if version != FIELD_FORMAT_VERSION:
            raise InvalidArgumentError("unsupported field format version")
        mask = _read_mask(fh)
        count = _expect(fh, "values", int)
        if count != mask.material_count:
            raise InvalidArgumentError(f"field file has {count} values for "
                                       f"{mask.material_count} material cells")
        vals = []
        while len(vals) < count:
            line = fh.readline()
            if not line:
                raise InvalidArgumentError(f"field file ends after {len(vals)} of "
                                           f"its {count} values")
            try:
                vals.extend(float(t) for t in line.split())
            except ValueError as exc:
                raise InvalidArgumentError(f"malformed line in {path}: {line!r}") from exc
        if len(vals) > count or fh.readline():
            raise InvalidArgumentError(f"field file goes on past its {count} values")
    full = np.zeros(mask.shape)
    full[mask.material] = np.asarray(vals)
    return GridField(mask, full)
