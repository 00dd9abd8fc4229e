"""Random obstacle sets and their rasterization.

Two obstacle families are supported: unions of tubes around the edges of a
random connection graph (points joined with a probability g of their
distance, g a piecewise-constant table; the annulus joins exactly the pairs
whose distance falls in a band), and unions of balls centered on the
points.  Both are unions of capsules, the points within a radius of a
segment; a ball is the capsule of a zero-length segment.  One
point-to-segment distance decides membership in `rasterize`, which flags a
cell as a hole exactly when its center lies inside.  It evaluates the
capsules whose windows have one shape together, in cache-sized batches, so
balls of one radius cost a few array passes rather than one pass each.
Obstacles scale homothetically and carry enough provenance to reproduce
themselves from a seed.  One cell-list search in numpy finds the point
pairs within a distance: the candidate edges of the random connection
model, the minimum pairwise distance and the candidate pairs of the
overlapping-tube count, a diagnostic that is always reported.  Min-label
hooking labels the graph components and the grid cells joined to a grid's
outer layer; probe balls count hole cells by the rasterizer's own rule.
"""

import itertools
import math
import re
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidArgumentError, diagnostics_of, raise_diagnostics
from .points import Box, PointConfiguration, _positive, sample_poisson, scale as scale_points
from .rng import substream

MATERIAL, HOLE, EXTERIOR = 0, 1, 2
_FLAG_CHARS = {MATERIAL: "m", HOLE: "h", EXTERIOR: "x"}
_CHAR_FLAGS = {v: k for k, v in _FLAG_CHARS.items()}
# The rle stream of a mask file is tokens of a flag character and a count,
# one space apart.  A fault in it is a character that is none of these, a
# stream that does not start with a flag or end with a digit, a flag not
# followed by a digit, a digit followed by a flag, or a space not followed by
# a flag; searching for one keeps no state per token, as matching the token
# grammar would (6 MB on a 2M-cell mask).  The tables turn the stream into
# its flags, one character each, or into its counts alone.
_RLE_FAULT = re.compile(r"[^{0}0-9 ]|\A[^{0}]|[^0-9]\Z|[{0}][^0-9]|[0-9][{0}]| [^{0}]".format(
    "".join(_CHAR_FLAGS)))
_RLE_FLAGS = str.maketrans("".join(_CHAR_FLAGS), "".join(map(chr, _FLAG_CHARS)), "0123456789 ")
_RLE_COUNTS = str.maketrans("".join(_CHAR_FLAGS), " " * len(_CHAR_FLAGS))
MASK_FORMAT_VERSION = 1
_BATCH_CELLS = 1 << 16  # window cells per rasterization batch: its temporaries stay cache-sized
# the most points one realization may expect: far above every preset (the
# largest, boolean-critical-3d, expects 32768), far below a failed allocation
MAX_POINTS = 10 ** 7


@dataclass(frozen=True)
class ConnectivityFunction:
    """Distance-to-probability rule g for joining point pairs, as a
    piecewise-constant table of (distance, probability) breakpoints: a pair
    at distance d takes the probability of the last breakpoint at or below
    d; left of the first breakpoint the first value applies.
    """

    table: tuple

    def __post_init__(self):
        tab = tuple((float(d), float(p)) for d, p in self.table)
        if not tab:
            raise InvalidArgumentError("connectivity needs a non-empty table")
        ds = [d for d, _ in tab]
        if any(d2 <= d1 for d1, d2 in zip(ds, ds[1:])):
            raise InvalidArgumentError("table distances must be strictly increasing")
        if any(p < 0 or p > 1 for _, p in tab):
            raise InvalidArgumentError("table probabilities must be in [0, 1]")
        object.__setattr__(self, "table", tab)

    @staticmethod
    def annulus(c1, c2):
        """Probability exactly 1 for c1 <= d <= c2 and 0 elsewhere; the last
        breakpoint is the float after c2, so d == c2 stays joined."""
        c1, c2 = float(c1), float(c2)
        if not (0 < c1 <= c2):
            raise InvalidArgumentError(f"annulus needs 0 < c1 <= c2, got {c1}, {c2}")
        return ConnectivityFunction(((0.0, 0.0), (c1, 1.0), (np.nextafter(c2, np.inf), 0.0)))

    def probability(self, d):
        d = np.asarray(d, dtype=float)
        ds = np.asarray([x for x, _ in self.table])
        ps = np.asarray([p for _, p in self.table])
        idx = np.clip(np.searchsorted(ds, d, side="right") - 1, 0, len(ds) - 1)
        return ps[idx]

    def support_radius(self):
        """Largest distance at which the probability can be positive (inf if unbounded)."""
        ds = [x for x, _ in self.table]
        ps = [p for _, p in self.table]
        if ps[-1] > 0:
            return np.inf
        for d, p in zip(reversed(ds), reversed(ps)):
            if p > 0:
                return ds[min(ds.index(d) + 1, len(ds) - 1)]
        return ds[0]


@dataclass(frozen=True)
class EdgeSet:
    """Index pairs (i, j), i < j, into a PointConfiguration."""

    edges: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if np.any(e[:, 0] >= e[:, 1]):
                raise InvalidArgumentError("edges must satisfy i < j")
            rows = e[np.lexsort((e[:, 1], e[:, 0]))]
            if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
                raise InvalidArgumentError("duplicate edges")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @property
    def count(self):
        return self.edges.shape[0]


@dataclass(frozen=True)
class ObstacleSet:
    """Union of tubes around graph edges or of balls around points."""

    kind: str  # "tubes" | "balls"
    points: PointConfiguration
    edges: EdgeSet = None
    tube_radius: float = None
    ball_radii: np.ndarray = None
    scale_applied: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tubes", "balls"):
            raise InvalidArgumentError(f"unknown obstacle kind {self.kind!r}")
        if self.kind == "tubes":
            if self.edges is None or self.tube_radius is None:
                raise InvalidArgumentError("tube obstacles need edges and a tube_radius")
            if self.tube_radius <= 0:
                raise InvalidArgumentError("tube_radius must be positive")
        else:
            r = np.asarray(self.ball_radii, dtype=float).reshape(-1)
            if r.shape[0] != self.points.count:
                raise InvalidArgumentError("one radius per point required")
            if r.size and np.any(r <= 0):
                raise InvalidArgumentError("ball radii must be positive")
            r.setflags(write=False)
            object.__setattr__(self, "ball_radii", r)

    @property
    def dim(self):
        return self.points.dim

    def capsules(self):
        """Segment ends a, b, (K, dim) each, and radii r, (K,): obstacle k is
        the set of points within r[k] of the segment [a[k], b[k]].  A ball
        is the zero-length capsule a = b."""
        P = self.points.points
        if self.kind == "balls":
            return P, P, self.ball_radii
        i, j = self.edges.edges.T
        return P[i], P[j], np.full(i.shape, self.tube_radius)

    def min_feature(self):
        """Smallest cross-section radius present in the set (None if empty)."""
        r = self.capsules()[2]
        return float(r.min()) if r.size else None


def _capsule_dist2(x, a, ab, ab2):
    """Squared distances from points to the segments from a to a + ab.  The
    coordinate arrays x[d], the segment starts a[d] and directions ab[d]
    carry the segment index on their leading axis and broadcast against each
    other; ab2 is |ab|^2, inf for a zero-length segment (a ball), whose
    nearest point is a.  Each segment's distances take the same operations
    whatever shares its batch, so a mask does not depend on the batching."""
    if np.isinf(ab2).all():
        return sum((xd - ad) ** 2 for xd, ad in zip(x, a))
    # nearest point a + t ab, t clamped to [0, 1]; every term below has the
    # full batch shape, so it is updated in place
    t = sum((xd - ad) * v for xd, ad, v in zip(x, a, ab))
    t /= ab2
    np.clip(t, 0.0, 1.0, out=t)
    dist2 = 0.0
    for xd, ad, v in zip(x, a, ab):
        e = t * v
        e += ad
        np.subtract(xd, e, out=e)
        e *= e
        dist2 = np.add(dist2, e, out=e)
    return dist2


def _pair_dist2(points, i, j):
    """Squared distances of the point pairs (i[k], j[k]), summed axis by
    axis from 0 in the order of scipy's k-d tree."""
    dist2 = 0.0
    for x in points.T:
        step = x[i] - x[j]
        step *= step
        dist2 = np.add(dist2, step, out=step)
    return dist2


def _runs(values, starts, total):
    """The `total` entries that hold values[k] from starts[k] up to the next
    start; starts rise strictly from 0."""
    out = np.zeros(total, dtype=np.int64)
    out[starts] = np.diff(values, prepend=0)
    return np.cumsum(out, out=out)


def _close_pairs(points, radius):
    """Every index pair (i, j), i < j, of points at distance <= radius, as
    an (M, 2) int64 array in lexicographic order; a radius <= 0 gives the
    coincident pairs.

    A linked-cell search (Hockney & Eastwood 1981): the points are sorted
    once by the key of the cell of side `radius` that holds them, and each
    cell is compared with itself and with the forward half of its 3^d
    neighbours, so every candidate pair is seen once.  The squared distance
    of a candidate is compared with radius * radius, in the arithmetic of
    scipy's k-d tree, so the pairs are those of `cKDTree.query_pairs`.
    """
    p = np.asarray(points, dtype=float)
    n, dim = p.shape
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    lo = p.min(axis=0)
    # at most about n^(1/d) cells per axis, so the cell tables stay O(n);
    # a cell larger than the radius only adds candidates
    side = max(radius, float((p.max(axis=0) - lo).max()) / math.ceil(n ** (1.0 / dim)))
    if not side > 0:  # every point coincides and radius <= 0
        side = 1.0
    # one empty layer of cells on each side, so that no neighbour key wraps
    cells = np.floor((p - lo) / side).astype(np.int64) + 1
    extent = cells.max(axis=0) + 2
    strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1)
    keys = cells @ strides
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    head = np.zeros(int(extent.prod()), dtype=np.int64)
    count = np.zeros_like(head)
    head[keys[heads]] = heads
    count[keys[heads]] = np.diff(np.append(heads, n))
    # the partners of sorted point s: the rest of its own cell, then each
    # forward neighbour cell, as runs first + (0 .. length - 1)
    own = np.arange(n)
    firsts, lengths = [own + 1], [head[keys] + count[keys] - 1 - own]
    for step in itertools.product((-1, 0, 1), repeat=dim):
        if step > (0,) * dim:
            neighbour = keys + int(np.dot(step, strides))
            firsts.append(head[neighbour])
            lengths.append(count[neighbour])
    length = np.concatenate(lengths)
    runs = np.flatnonzero(length)
    first, length = np.concatenate(firsts)[runs], length[runs]
    starts = np.cumsum(length) - length
    total = int(length.sum())
    src = _runs(runs % n, starts, total)
    dst = _runs(first - starts, starts, total)
    dst += np.arange(total)
    close = _pair_dist2(p[order], src, dst) <= (
        radius * radius if radius > 0 else 0.0)
    i, j = order[src[close]], order[dst[close]]
    flat = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return np.column_stack([flat // n, flat % n])


def build_rcm_edges(config, g, seed=0):
    """Edge set of the random connection model under connectivity rule `g`:
    an independent Bernoulli(g(d)) per pair, drawn from `seed` in sorted pair
    order.  A pair with g(d) = 1 is always joined and one with g(d) = 0
    never, so the annulus rule gives exactly the pairs with c1 <= d <= c2.
    """
    n = config.count
    if n < 2:
        return EdgeSet(edges=np.empty((0, 2), dtype=np.int64))
    cutoff = g.support_radius()
    if np.isfinite(cutoff):
        pairs = _close_pairs(config.points, cutoff)
    else:
        ii, jj = np.triu_indices(n, k=1)
        pairs = np.column_stack([ii, jj])
    if pairs.size == 0:
        return EdgeSet(edges=np.empty((0, 2), dtype=np.int64))
    d = np.linalg.norm(config.points[pairs[:, 0]] - config.points[pairs[:, 1]], axis=1)
    keep = substream(seed, "rcm-edges").random(pairs.shape[0]) < g.probability(d)
    return EdgeSet(edges=pairs[keep])


def build_tubes(config, edges, tube_radius, max_allowed=None):
    """Union of tubes of radius `tube_radius` around the edge segments.

    If `max_allowed` is given (typically half the minimum connection
    distance) a larger radius only warns: variable stationary radii are a
    legitimate model.
    """
    if max_allowed is not None and tube_radius > max_allowed * (1 + 1e-12):
        warnings.warn(f"tube radius {tube_radius} exceeds {max_allowed}; "
                      "tubes may swallow their endpoints' neighborhoods",
                      stacklevel=2)
    return ObstacleSet(kind="tubes", points=config, edges=edges,
                       tube_radius=float(tube_radius))


def min_pairwise_distance(config):
    """Smallest distance between two points: the pairs within the mean
    spacing (box volume / N)^(1/d) are searched, the radius doubling until
    some pair lies within it."""
    n = config.count
    if n < 2:
        raise InvalidArgumentError(
            "minimum pairwise distance needs at least two points")
    p = config.points
    radius = (config.box.volume / n) ** (1.0 / config.dim)
    pairs = _close_pairs(p, radius)
    while not pairs.size:
        radius *= 2.0
        pairs = _close_pairs(p, radius)
    return float(np.sqrt(_pair_dist2(p, *pairs.T).min()))


def build_balls(config, radii):
    """Balls centered at the points, of radius `radii`: one positive radius
    for every ball, or one per point.

    Radii of at most half the minimum pairwise distance give pairwise
    disjoint balls.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0:
        radii = np.full(config.count, float(radii))
    return ObstacleSet(kind="balls", points=config, ball_radii=radii)


def scale_obstacles(obstacles, eps):
    """Homothety of the whole obstacle set (centers, radii, edge geometry)."""
    pts = scale_points(obstacles.points, eps)
    eps = float(eps)
    if obstacles.kind == "tubes":
        return ObstacleSet(kind="tubes", points=pts, edges=obstacles.edges,
                           tube_radius=obstacles.tube_radius * eps,
                           scale_applied=obstacles.scale_applied * eps)
    return ObstacleSet(kind="balls", points=pts,
                       ball_radii=obstacles.ball_radii * eps,
                       scale_applied=obstacles.scale_applied * eps)


def _check_grid(dim, shape, dx, domain):
    """The rule of a mask's flags: dim and shape are the grid of spacing dx
    on the domain."""
    if dim != domain.dim or shape != domain.grid_shape(dx):
        raise InvalidArgumentError(f"mask: dim {dim} and shape {shape} are not the "
                                   f"grid of spacing {dx} on the domain {domain}")


@dataclass(frozen=True)
class PerforatedMask:
    """Cell flags (material / hole / exterior) on a uniform grid over a box.

    A cell is a hole exactly when its center lies inside the obstacle set, so
    the mask realizes the binary obstacle indicator at cell centers.
    """

    flags: np.ndarray
    dx: float
    domain: Box
    epsilon: float = 1.0
    provenance: str = ""
    warnings: tuple = ()

    def __post_init__(self):
        f = np.ascontiguousarray(np.asarray(self.flags, dtype=np.uint8))
        _check_grid(f.ndim, f.shape, self.dx, self.domain)
        f.setflags(write=False)
        object.__setattr__(self, "flags", f)
        object.__setattr__(self, "epsilon", _positive(self.epsilon, "epsilon"))

    @property
    def shape(self):
        return self.flags.shape

    @property
    def dim(self):
        return self.flags.ndim

    @property
    def material(self):
        return self.flags == MATERIAL

    @property
    def hole_count(self):
        return int(np.count_nonzero(self.flags == HOLE))

    @property
    def material_count(self):
        return int(np.count_nonzero(self.flags == MATERIAL))

    def axis_centers(self, axis):
        return self.domain.axis_centers(axis, self.dx, np.arange(self.shape[axis]))

    def same_grid(self, other):
        return (self.shape == other.shape and self.dx == other.dx
                and self.domain == other.domain)


def rasterize(obstacles, domain, dx):
    """Flag grid cells whose centers fall inside the obstacle set as holes."""
    dx = float(dx)
    shape = domain.grid_shape(dx)
    if obstacles.dim != domain.dim:
        raise InvalidArgumentError("obstacle and domain dimensions differ")
    flags = np.zeros(shape, dtype=np.uint8)
    notes = []
    feature = obstacles.min_feature()
    if feature is not None and dx > feature:
        notes.append(f"resolution-loss: dx={dx:.6g} exceeds smallest obstacle "
                     f"feature {feature:.6g}")
    # the window of each capsule: the cells whose centers lo + (i + 0.5) dx
    # lie in its bounding box, clipped to the grid (empty when first > last)
    a, b, r = obstacles.capsules()
    lo = np.asarray(domain.lower, dtype=float)
    n = np.asarray(shape)
    first = np.clip(np.ceil((np.minimum(a, b) - r[:, None] - lo) / dx - 0.5), 0, n)
    last = np.clip(np.floor((np.maximum(a, b) + r[:, None] - lo) / dx - 0.5), -1, n - 1)
    hit = np.all(first <= last, axis=1)
    # capsules whose windows have one shape are evaluated together, a
    # cache-sized batch at a time; sorted by shape, each batch is a slice
    i0, i1 = first[hit].astype(np.intp), last[hit].astype(np.intp) + 1
    order = np.lexsort((i1 - i0).T)
    a, b, r, i0, i1 = a[hit][order], b[hit][order], r[hit][order], i0[order], i1[order]
    dim = len(shape)
    stacked = (dim, -1) + (1,) * dim  # axis, capsule, then the window's axes
    ab = b - a
    ab2 = np.square(ab).sum(axis=1)
    ab2 = np.where(ab2 == 0.0, np.inf, ab2).reshape(stacked[1:])
    r2 = (r * r).reshape(stacked[1:])
    a, ab = a.T.reshape(stacked), ab.T.reshape(stacked)
    centers = [domain.axis_centers(d, dx, np.arange(shape[d])) for d in range(dim)]
    starts = np.flatnonzero(np.diff(i1 - i0, axis=0, prepend=-1).any(axis=1)).tolist()
    for g0, g1 in zip(starts, starts[1:] + [r.size]):
        w = (i1[g0] - i0[g0]).tolist()
        steps = [np.arange(wd) for wd in w]
        per = max(1, _BATCH_CELLS // math.prod(w))
        for k0 in range(g0, g1, per):
            k = slice(k0, min(k0 + per, g1))
            x = [centers[d][i0[k, d, None] + steps[d]].reshape(
                (-1,) + (1,) * d + (w[d],) + (1,) * (dim - 1 - d)) for d in range(dim)]
            inside = _capsule_dist2(x, a[:, k], ab[:, k], ab2[k]) <= r2[k]
            for cells, lo_k, hi_k in zip(inside, i0[k].tolist(), i1[k].tolist()):
                flags[tuple(map(slice, lo_k, hi_k))][cells] = HOLE
    prov = f"kind={obstacles.kind} scale={obstacles.scale_applied:.17g}"
    return PerforatedMask(flags=flags, dx=dx, domain=domain,
                          epsilon=obstacles.scale_applied,
                          provenance=prov, warnings=tuple(notes))


@cache  # called on every operator apply
def _faces(ndim):
    """Per axis, the index pair (lo, hi) selecting the two cells of every face
    along that axis."""
    return [((slice(None),) * axis + (slice(None, -1),),
             (slice(None),) * axis + (slice(1, None),)) for axis in range(ndim)]


def _boundary_connected(cells):
    """The cells of a boolean grid joined face to face, through cells, to its
    outer layer: wrapped in one more layer of cells, all joined, they are
    the component of the wrapping's corner, the node labelled 0."""
    wrapped = np.pad(cells, 1, constant_values=True)
    index = np.arange(wrapped.size).reshape(wrapped.shape)
    ends = []
    for lo, hi in _faces(wrapped.ndim):
        both = wrapped[lo] & wrapped[hi]
        ends.append((index[lo][both], index[hi][both]))
    labels = _component_labels(wrapped.size, *map(np.concatenate, zip(*ends)))
    return (labels == 0).reshape(wrapped.shape)[(slice(1, -1),) * cells.ndim]


def connected_components(config, edges):
    """Partition of point indices into maximal connected sets, ordered by
    their smallest member, members sorted."""
    n = config.count
    if n == 0:
        return []
    labels = _component_labels(n, *edges.edges.T)
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n)[labels == np.arange(n)]
    return [g.tolist() for g in np.split(members, np.cumsum(sizes)[:-1])]


def _component_labels(n, i, j):
    """The label of each of n nodes joined by the edges (i[k], j[k]): the
    smallest node of its connected set."""
    # every label is a root (labels[r] == r) at the top of the loop; each
    # root hooks onto the smallest root across its edges, which keeps every
    # parent below its child, and pointer jumping flattens the trees again.
    # A component ends labelled by its smallest member.
    labels = np.arange(n)
    while True:
        li, lj = labels[i], labels[j]
        low = np.minimum(li, lj)
        hooked = labels.copy()
        np.minimum.at(hooked, li, low)
        np.minimum.at(hooked, lj, low)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def volume_fraction(mask):
    """Hole cells over interior (hole + material) cells."""
    interior = mask.hole_count + mask.material_count
    if interior == 0:
        raise InvalidArgumentError("mask has no interior cells")
    return mask.hole_count / interior


def _segment_pair_dist2(p1, q1, p2, q2):
    """Squared distance between the segments [p1[k], q1[k]] and [p2[k], q2[k]]
    for every row k: Ericson's clamped closest points (Real-Time Collision
    Detection, 2005, sec. 5.1.9), with a zero-length segment as a point."""
    def dot(u, v):
        return np.sum(u * v, axis=1)

    def ratio(num, den):
        return np.clip(np.divide(num, den, out=np.zeros_like(num), where=den != 0.0),
                       0.0, 1.0)

    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a, b, e = dot(d1, d1), dot(d1, d2), dot(d2, d2)
    c, f = dot(d1, r), dot(d2, r)
    # s on the first segment from the lines' closest points (0 if parallel);
    # t on the second follows from s, and clamping t re-solves s
    s = ratio(b * f - c * e, a * e - b * b)
    t = np.divide(b * s + f, e, out=np.zeros_like(f), where=e != 0.0)
    s = np.where((t < 0.0) | (e == 0.0), ratio(-c, a), np.where(t > 1.0, ratio(b - c, a), s))
    t = np.clip(t, 0.0, 1.0)
    closest = (p1 + s[:, None] * d1) - (p2 + t[:, None] * d2)
    return dot(closest, closest)


def tube_overlap_count(obstacles):
    """Number of distinct tube pairs that intersect, i.e. whose segments
    lie within twice the tube radius of each other.

    Purely diagnostic: the overlap set plays no quantitative role, but its
    size is reported with the geometry stats.  Two such segments have
    midpoints within 2 (largest half-length) + 2 rho, so the close pairs of
    the midpoints are every candidate pair.
    """
    if obstacles.kind != "tubes":
        raise InvalidArgumentError("tube overlaps are defined for tube obstacles")
    a, b, _ = obstacles.capsules()
    if a.shape[0] < 2:
        return 0
    reach = 2.0 * obstacles.tube_radius
    half = 0.5 * np.sqrt(np.sum((b - a) ** 2, axis=1))
    # widened by a rounding margin: the exact test below decides
    radius = (2.0 * half.max() + reach) * (1.0 + 1e-9)
    i, j = _close_pairs(0.5 * (a + b), radius).T
    return int(np.count_nonzero(_segment_pair_dist2(a[i], b[i], a[j], b[j]) <= reach * reach))


@dataclass(frozen=True)
class DensityCheck:
    min_ratio: float
    max_ratio: float
    failed: bool
    probes: int
    radius: float


def _probe_diagnostics(radius, probes, dim):
    """The rules for the probes of `density_ratio_check` in dimension dim,
    as diagnostics dicts at the keys of a run's config."""
    with np.errstate(over="ignore"):  # r^dim is the ratio's volume
        finite = radius > 0 and np.isfinite(np.float64(radius) ** dim)
    return diagnostics_of([
        (probes < 1, "probes", "need at least one probe"),
        (not finite, "radius",
         f"probe radius r must be > 0 with r^{dim} a finite float, got {radius}"),
    ])


def density_ratio_check(mask, radius, probes, seed):
    """Uniform-density diagnostic for the hole set.

    For `probes` random centers x in the domain, computes
    |B(x, r) \\cap F| / (r^n |F|) from the rasterized hole cells and returns
    the extremes.  A zero minimum flags a density-condition failure.  The
    ball holds the hole cells that `rasterize` flags for a ball of radius r
    at x, so each probe costs a pass over the grid: O(probes x grid cells).
    """
    raise_diagnostics(_probe_diagnostics(radius, probes, mask.dim))
    hole = mask.flags == HOLE
    n = mask.dim
    cell_vol = mask.dx ** n
    total = np.count_nonzero(hole) * cell_vol
    if total == 0.0:
        raise InvalidArgumentError("hole set has zero volume; ratio undefined")
    with np.errstate(over="ignore"):  # r^n is finite (_probe_diagnostics), r^n |F| may not be
        volume = radius ** n * total
    if not np.isfinite(volume):
        raise InvalidArgumentError(
            f"r^{n} |F| overflows for probe radius r = {radius}: the ratio is undefined")
    rng = substream(seed, "density-probes")
    sides = np.asarray(mask.domain.sides)
    xs = np.asarray(mask.domain.lower) + rng.random((probes, n)) * sides
    counts = np.array([np.count_nonzero(hole & (rasterize(build_balls(
        PointConfiguration(points=x, box=mask.domain, intensity=0.0), radius),
        mask.domain, mask.dx).flags == HOLE)) for x in xs], dtype=float)
    ratios = counts * cell_vol / volume
    return DensityCheck(min_ratio=float(ratios.min()), max_ratio=float(ratios.max()),
                        failed=bool(ratios.min() == 0.0), probes=probes,
                        radius=float(radius))


def mask_stats(mask, obstacles, config):
    """Summary record used by the geometry CLI output: the mask's cells, the
    unscaled configuration's points and, for tubes, the graph's edges and
    components and the overlapping tube pairs."""
    stats = {
        "format_version": MASK_FORMAT_VERSION,
        "dim": mask.dim,
        "shape": list(mask.shape),
        "dx": mask.dx,
        "epsilon": mask.epsilon,
        "volume_fraction": volume_fraction(mask),
        "hole_cells": mask.hole_count,
        "material_cells": mask.material_count,
        "warnings": list(mask.warnings),
        "point_count": config.count,
    }
    if config.count >= 2:
        stats["min_pairwise_distance"] = min_pairwise_distance(config)
    if obstacles.kind == "tubes":
        stats["edge_count"] = obstacles.edges.count
        stats["component_count"] = len(connected_components(config, obstacles.edges))
        stats["tube_overlap_pairs"] = tube_overlap_count(obstacles)
    return stats


def save_mask(mask, path):
    """Text header plus run-length-encoded flags; round-trips bit-exactly."""
    with open(path, "w") as fh:
        _write_mask(mask, fh)


def _write_mask(mask, fh):
    fh.write(f"percohom-mask format_version {MASK_FORMAT_VERSION}\n")
    fh.write(f"dim {mask.dim}\n")
    fh.write("shape " + " ".join(str(s) for s in mask.shape) + "\n")
    fh.write("dx %.17g\n" % mask.dx)
    lo = ",".join("%.17g" % v for v in mask.domain.lower)
    hi = ",".join("%.17g" % v for v in mask.domain.upper)
    fh.write(f"domain {lo}..{hi}\n")
    fh.write("epsilon %.17g\n" % mask.epsilon)
    fh.write(f"provenance {mask.provenance}\n")
    fh.write(f"warnings {len(mask.warnings)}\n")
    for w in mask.warnings:
        fh.write(f"warning {w}\n")
    flat = mask.flags.ravel()
    starts = np.flatnonzero(np.diff(flat)) + 1
    if flat.size:
        starts = np.concatenate([[0], starts])
    kinds = [_FLAG_CHARS[flag] for flag in flat[starts].tolist()]
    counts = np.diff(starts, append=flat.size).tolist()
    fh.write("rle " + " ".join(map("{}{}".format, kinds, counts)) + "\n")


def load_mask(path):
    with open(path) as fh:
        return _read_mask(fh)


def _expect(fh, name, convert=str):
    """The value after `name` on the next line of the file, converted; a
    line with another key or a value that does not convert is refused."""
    line = fh.readline().rstrip("\n")
    key, _, rest = line.partition(" ")
    if key != name:
        raise InvalidArgumentError(f"expected {name!r} in {fh.name}, got {line!r}")
    try:
        return convert(rest)
    except (ValueError, IndexError) as exc:
        raise InvalidArgumentError(f"malformed line in {fh.name}: {line!r} ({exc})") from exc


def _box(text):
    """The Box of a mask file's `domain` value, lo,lo..hi,hi."""
    lo, hi = text.split("..")
    return Box(tuple(map(float, lo.split(","))), tuple(map(float, hi.split(","))))


def _read_mask(fh):
    version = _expect(fh, "percohom-mask", lambda rest: int(rest.split()[-1]))
    if version != MASK_FORMAT_VERSION:
        raise InvalidArgumentError(f"unsupported mask format version {version}")
    dim = _expect(fh, "dim", int)
    shape = _expect(fh, "shape", lambda rest: tuple(int(s) for s in rest.split()))
    dx = _expect(fh, "dx", float)
    domain = _expect(fh, "domain", _box)
    _check_grid(dim, shape, dx, domain)  # before the stream is expanded to `shape`
    epsilon = _expect(fh, "epsilon", float)
    provenance = _expect(fh, "provenance")
    n_warn = _expect(fh, "warnings", int)
    warns = tuple(_expect(fh, "warning") for _ in range(n_warn))
    rle = _expect(fh, "rle")
    if _RLE_FAULT.search(rle):
        raise InvalidArgumentError(f"malformed rle stream in mask file: {rle[:40]!r}")
    flags = np.frombuffer(rle.translate(_RLE_FLAGS).encode("latin-1"), np.uint8)
    # counts too large for int64 read as its maximum, which the bound refuses
    counts = np.fromstring(rle.translate(_RLE_COUNTS), dtype=np.int64, sep=" ")
    size = math.prod(shape)
    if not (np.all(counts >= 1) and np.all(counts <= size) and counts.sum() == size):
        raise InvalidArgumentError("rle stream does not cover the grid")
    flat = np.repeat(flags, counts)
    return PerforatedMask(flags=flat.reshape(shape), dx=dx, domain=domain,
                          epsilon=epsilon, provenance=provenance, warnings=warns)


def hole_free_mask(domain, dx):
    shape = domain.grid_shape(dx)
    return PerforatedMask(flags=np.zeros(shape, dtype=np.uint8), dx=float(dx),
                          domain=domain, epsilon=1.0, provenance="hole-free")


@dataclass(frozen=True)
class GeometryFamily:
    """A scale-indexed family of random obstacle sets.

    kind "boolean": Poisson points of the given intensity in the blown-up
    box domain/eps, scaled back by eps (spacing ~ eps in the domain), each
    carrying a ball of final radius r0 * eps**radius_exponent.

    kind "rcm": same points; pairs at unscaled distance in [c1, c2] are
    joined (the annulus connectivity table) and thickened into tubes of
    radius `rcm_tube_radius`, then the whole set is scaled by eps.

    kind "lattice": deterministic cell-centered lattice of balls at spacing
    lattice_spacing * eps with radius r0 * eps**radius_exponent; replicas
    coincide, which makes it the zero-variance control.
    """

    kind: str
    dim: int
    intensity: float = 1.0
    r0: float = 0.1
    radius_exponent: float = 1.0
    c1: float = 0.5
    c2: float = 1.0
    tube_radius: float = None
    lattice_spacing: float = 1.0

    def __post_init__(self):
        if self.kind not in ("boolean", "rcm", "lattice"):
            raise InvalidArgumentError(f"unknown family kind {self.kind!r}")
        if self.dim not in (2, 3):
            raise InvalidArgumentError("dimension must be 2 or 3")

    def validate(self, side, eps):
        """All violated parameter ranges at once, as diagnostics dicts at
        the `family.<field>` keys of a run's config.  A realization at scale
        eps on a cube of side `side` may expect at most MAX_POINTS points:
        intensity (side/eps)^n, or (side/(lattice_spacing eps))^n."""
        lattice = self.kind == "lattice"
        spacing = self.lattice_spacing if lattice else 1.0
        with np.errstate(all="ignore"):  # a count past the floats is inf, refused
            expected = (np.float64(side) / eps / spacing) ** self.dim * (
                1.0 if lattice else self.intensity)
        return diagnostics_of([
            (not (math.isfinite(self.intensity) and self.intensity >= 0), "family.intensity",
             "intensity must be finite and >= 0"),
            (not self.r0 > 0, "family.r0", "r0 must be positive"),
            (not self.c1 > 0, "family.c1", "annulus needs 0 < c1 <= c2"),
            (not self.c1 <= self.c2, "family.c2", "annulus needs 0 < c1 <= c2"),
            (self.tube_radius is not None and not self.tube_radius > 0, "family.tube_radius",
             "tube_radius must be positive or null"),
            (not self.lattice_spacing > 0, "family.lattice_spacing",
             "lattice_spacing must be positive"),
            (side > 0 and eps > 0 and spacing > 0 and expected > MAX_POINTS,
             "family.lattice_spacing" if lattice else "family.intensity",
             f"a realization expects {expected:.3g} points; at most {MAX_POINTS:.0e} "
             "are allowed"),
        ])

    @property
    def rcm_tube_radius(self):
        """The unscaled tube radius of the rcm kind: `tube_radius`, by default c1/2."""
        return self.c1 / 2.0 if self.tube_radius is None else self.tube_radius


def _check_dimension(family, domain):
    """Refuses a family whose dimension is not its domain's."""
    if family.dim != domain.dim:
        raise InvalidArgumentError(f"a family of dimension {family.dim} on a domain of "
                                   f"dimension {domain.dim}: the two must agree")


def sample_family(family, eps, seed, domain):
    """One realization of the family at scale eps inside `domain`.

    Returns (obstacles, unscaled_config); the unscaled configuration (unit
    geometry, intensity as given) is kept for distributional diagnostics.
    The obstacle set is the eps-homothety of the unscaled construction, with
    ball radii adjusted to r0 * eps**radius_exponent in final coordinates.
    Refuses an eps that is not positive and a family whose dimension is not
    the domain's before sampling.
    """
    eps = _positive(eps, "eps")
    _check_dimension(family, domain)
    big_box = domain.scaled(1.0 / eps)
    if family.kind == "lattice":
        spacing = family.lattice_spacing
        axes = [np.arange(lo + spacing / 2, hi, spacing)
                for lo, hi in zip(big_box.lower, big_box.upper)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        config = PointConfiguration(points=pts, box=big_box,
                                    intensity=1.0 / spacing ** family.dim, seed=0)
    else:
        config = sample_poisson(big_box, family.intensity, seed)
    if family.kind == "rcm":
        edges = build_rcm_edges(config, ConnectivityFunction.annulus(family.c1, family.c2),
                                seed)
        obstacles = build_tubes(config, edges, family.rcm_tube_radius,
                                max_allowed=family.c1 / 2.0)
    else:
        unscaled_r = family.r0 * eps ** (family.radius_exponent - 1.0)
        obstacles = build_balls(config, unscaled_r)
    return scale_obstacles(obstacles, eps), config
