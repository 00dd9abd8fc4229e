"""Homogeneous Poisson point processes in axis-aligned boxes.

Sampling is exact: the total count is Poisson(intensity * volume) and, given
the count, points are i.i.d. uniform in the box.  All coordinates live in the
half-open product [lower, upper), so partitioning a box into cells gives
exhaustive, disjoint counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .rng import substream


# the most cells one grid may have: about 48 times a 128^3 grid, and
# 0.8 GB for one float64 array of its size
MAX_CELLS = 10 ** 8


def _positive(value, name):
    """`value` as a float, refused unless finite and positive: the rule for
    a grid spacing and for every homothety factor, a family's eps among them."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise InvalidArgumentError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with positive volume, dimension 2 or 3."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise InvalidArgumentError("lower and upper must have the same length")
        if len(lo) not in (2, 3):
            raise InvalidArgumentError(f"dimension must be 2 or 3, got {len(lo)}")
        if not all(np.isfinite(lo)) or not all(np.isfinite(hi)):
            raise InvalidArgumentError("box corners must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise InvalidArgumentError(f"degenerate box: lower={lo}, upper={hi}")

    @property
    def dim(self):
        return len(self.lower)

    @property
    def sides(self):
        return tuple(h - l for l, h in zip(self.lower, self.upper))

    @property
    def volume(self):
        return float(np.prod(self.sides))

    @property
    def center(self):
        return tuple(0.5 * (l + h) for l, h in zip(self.lower, self.upper))

    def grid_shape(self, dx):
        """Cells per side of the grid of spacing dx on the box: dx must be
        positive and cut every side into a whole number of cells, at most
        MAX_CELLS in all."""
        _positive(dx, "dx")
        # counted in floats, so an infinite count a side is refused before it
        # is rounded; where dx divides every side (to 1e-9 relative), the
        # float count is within 0.5 of the whole one near MAX_CELLS
        cells = math.prod(side / dx for side in self.sides)
        if cells > MAX_CELLS + 0.5:
            raise InvalidArgumentError(f"a grid of {cells:.6g} cells at dx {dx}; "
                                       f"at most {MAX_CELLS:.0e} are allowed")
        shape = []
        for side in self.sides:
            m = side / dx
            if abs(m - round(m)) > 1e-9 * max(1.0, abs(m)):
                raise InvalidArgumentError(
                    f"dx {dx} does not divide the domain side {side}")
            shape.append(int(round(m)))
        return tuple(shape)

    def axis_centers(self, axis, dx, index):
        """Coordinates along `axis` of the centers of the cells `index` (an
        integer array) of the grid of spacing dx on the box."""
        return self.lower[axis] + (index + 0.5) * dx

    def scaled(self, factor):
        f = float(factor)
        return Box(tuple(l * f for l in self.lower), tuple(h * f for h in self.upper))

    @staticmethod
    def unit(dim):
        return Box((0.0,) * dim, (1.0,) * dim)

    @staticmethod
    def cube(side, dim, origin=None):
        origin = (0.0,) * dim if origin is None else tuple(origin)
        return Box(origin, tuple(o + float(side) for o in origin))


@dataclass(frozen=True)
class PointConfiguration:
    """A finite realization of a point process, with its generating seed.

    `points` has shape (count, dim) and is read-only; regenerating with the
    same (box, intensity, seed) reproduces it bit for bit.
    """

    points: np.ndarray
    box: Box
    intensity: float
    seed: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.box.dim)
        if pts.size and not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("point coordinates must be finite")
        lo = np.asarray(self.box.lower)
        hi = np.asarray(self.box.upper)
        if pts.size and not np.all((pts >= lo) & (pts <= hi)):
            raise InvalidArgumentError("points must lie inside the box")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if not np.isfinite(self.intensity) or self.intensity < 0:
            raise InvalidArgumentError(f"intensity must be finite and >= 0, got {self.intensity}")

    @property
    def count(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.box.dim


def sample_poisson(box, intensity, seed):
    """Sample a homogeneous Poisson process of the given intensity in `box`."""
    if not np.isfinite(intensity) or intensity < 0:
        raise InvalidArgumentError(f"intensity must be finite and >= 0, got {intensity}")
    rng = substream(seed)
    mean = intensity * box.volume
    count = int(rng.poisson(mean)) if mean > 0 else 0
    lo = np.asarray(box.lower)
    sides = np.asarray(box.sides)
    pts = lo + rng.random((count, box.dim)) * sides
    return PointConfiguration(points=pts, box=box, intensity=float(intensity), seed=int(seed))


def scale(config, factor):
    """Homothety by `factor` > 0; the stored intensity becomes lambda / factor^n."""
    factor = _positive(factor, "scale factor")
    return PointConfiguration(points=config.points * factor,
                              box=config.box.scaled(factor),
                              intensity=config.intensity / factor ** config.dim,
                              seed=config.seed)


def empty_cell_frequency(config, cell_size):
    """Fraction of grid cells of side `cell_size` containing zero points.

    The box must split into a whole number of such cells (`Box.grid_shape`).
    """
    cell_size = float(cell_size)
    shape = config.box.grid_shape(cell_size)
    total_cells = int(np.prod(shape))
    if config.count == 0:
        return 1.0
    lo = np.asarray(config.box.lower)
    idx = np.floor((config.points - lo) / cell_size).astype(np.int64)
    idx = np.minimum(idx, np.asarray(shape) - 1)  # guard points landing on the top face
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    # a count per cell, not np.unique, which imports numpy.ma on first use
    occupied = np.count_nonzero(np.bincount(flat))
    return float(total_cells - occupied) / total_cells
