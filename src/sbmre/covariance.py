"""Spatial covariance kernels of the driving noise and exact Gaussian sampling.

The environment noise is white in time and colored in space: increments over a
time step dt form a centered Gaussian field with covariance C(x, y) * dt.  All
kernel variants here are stationary (functions of x - y) and bounded by their
value C(0) = C(x, x) at the origin (by Cauchy-Schwarz for a covariance; the
power and indicator envelopes are nonincreasing), which scales the jitter
budget of every factorization.  Each kernel also gives int_0^inf s g(s) ds
of its envelope g in closed form (radial_moment), which is all the
persistence potential reads of it.

Factorization strategy: one greedy pivoted Cholesky in numpy, no LAPACK, for
every factor (particle sites and grid axes alike).  Each step pivots on the
largest remaining diagonal entry (the first on ties), asks for that one column
of C and writes one root column; it stops once every remaining diagonal entry
is at most the jitter budget tol = 1e-10 * C(0).  The root keeps only those r
columns, r the numerical rank, so a smooth kernel, whose matrix has far fewer
numerically nonzero eigenvalues than it has points, is drawn from r normals
per field instead of one per point.  The factor's jitter is the largest
remaining diagonal entry.

Only covariances are sampled.  A kernel declares whether it is one in its
instance fact ``positive_definite``: ScaledTheta, Constant, and
StationaryPower with alpha <= 2, which is the generalised Cauchy covariance
(1 + r^alpha)^(-beta/alpha) at beta = alpha (Gneiting & Schlather 2004).
Every sampling entry point (grid_covariance_factor, points_covariance_factors
and the callers that build on them) refuses any other kernel with a
ValueError naming it.  The declaration is what certifies a factor: for a
positive definite kernel every residual C - root root^T is a PSD Schur
complement, so |R_ij| <= sqrt(R_ii R_jj) <= tol and the diagonal bounds all
of it, while for any other matrix a small diagonal bounds nothing (the block
[[0, 1], [1, 0]] stops the pivots at once).  Columns are evaluated lazily,
C(., p) = envelope(|points - p|), so a factor over m points evaluates m r + 1
kernel values (at most about twice as many in a batch, below) and never
forms the m x m matrix (Harbrecht, Peters & Schneider 2012).  Dense factors
cover at most DENSE_LIMIT distinct points; larger requests raise ValueError
before anything is evaluated.

Point sets are deduplicated before factoring, so coincident points share one
field value; in d = 1 the dedup is a plain 1-d np.unique, which gives the
same rows and inverse as np.unique(axis=0) without its structured-dtype sort.

Batches of point sets (points_covariance_factors; a single set is a batch of
one): the pivoted Cholesky carries a leading set axis.  The sets are padded
to a common width with -inf diagonals, so padding is never pivoted on, and
each set stops at its own rank; each step evaluates the pivot columns of
all live sets at once.  The update of a column by the set's earlier root
columns stays one matrix-vector product per set, over exactly its m
columns: np.matmul hands the vector and the set's strided rows to gemv,
with the bits of np.dot on the rows of a set factored alone (m >= 2, the
only case that updates), while a batched matmul gives other bits, which
also depend on the padded width (both seen on random rows).  So a set's
root is bit for bit its root factored alone, in any batch.
To bound the padding, the sets are sorted by size and cut into size groups,
factored one after the other: a group's set count times its width is at
most twice its sets' total size, and at most 2^15 cells (256 KB of doubles
per plane a step sweeps).  A group's buffers are gone before the next group
starts, and callers draw from its factors as they come.  A group of a
kernel of high numerical rank (a power kernel, a narrow Gaussian on spread
sites) stops at 64 root columns if full-rank roots and their buffer would
pass 2^19 cells (4 MB); its sets are then factored in chunks that fit.

Distances: C(x, y) and every factor column take |x - y| from one formula,
_pair_distances, which sums the squared coordinate differences one axis at a
time, in axis order.  So C over m x m pairs never holds an (m, m, d)
temporary, and its bits equal scipy's cdist, against which the tests check
it; scipy is a test dependency only, and scipy.spatial would add a tenth of a
second to every cold start.

Draw layout: a draw of k fields takes its normals as z of shape (k, r), one
row per field, and returns the rows of z @ root^T, shape (k, m), with no
transpose.  So the normals of k fields are exactly the first k rows of a
longer draw's, and two consecutive draws on one generator take the normals of
one draw of the summed width.  The fields follow bit for bit wherever the
BLAS product computes a row alike whatever the row count.  numpy hands a lone
row to gemv, whose bits differ from gemm's, so a batch of one field is
stacked with a copy of itself.  OpenBLAS picks the kernel for the last
m mod 8 columns of a product by its row count (seen at m = 100 and n = 20,
never at a multiple of 8), so the cached root^T carries zero columns up to a
multiple of 8 and the draw is sliced back to m; a KroneckerRoot pads its
first product, of width n, alike.  Above rank 384 a product of 2 to 4 rows
can still differ from a long draw's rows (OpenBLAS takes another path for
small products; seen at rank 392 to 512).  spde.NoisePath relies on the
property: its fixed blocks of at most ensemble.BLOCK_VALUES values take the
rows one draw of the whole chunk would, so blocking moves no increment.  That
holds because no shipped config's noise factor is above rank 384: the
largest is 31, a dense root on comparison-suite's 64-cell grid, and the
KroneckerRoot on spde-3d's 16^3 grid has rank 16 per axis, the width of
every product it takes.  A single field
(batch=None) stays a matrix-vector product.

Separable kernels on grids: when C(x, y) = prod_i c(x_i - y_i) over the d axes
(the Gaussian ScaledTheta, a exp(-|x - y|^2 / w^2) = prod_i a^(1/d)
exp(-(x_i - y_i)^2 / w^2); see CovarianceKernel.axis_kernel), the covariance
over a d-dimensional grid is the Kronecker power c_mat ⊗ ... ⊗ c_mat of the
n x n axis matrix, and the Kronecker power of an (n, r) axis root is an
(n^d, r^d) root of it.  grid_covariance_factor then factors only c_mat, with
the cut above applied to the axis kernel, and samples through a KroneckerRoot
that contracts each axis with the axis root instead of forming the n^d x r^d
root.  The DENSE_LIMIT cap does not apply to the grid (only to n).  The
factor's jitter is then the largest diagonal entry of C - root root^T: with e
the axis one, c^d - (c - e)^d for c = C(x, x)^(1/d), at most about
d * 1e-10 * C(0).  In d = 1 the separable path is the dense path, byte
for byte.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

JITTER_SCALE = 1e-10
DENSE_LIMIT = 10000  # most distinct points a dense covariance matrix may cover


def _pair_distances(x, y) -> np.ndarray:
    """|x - y| over the trailing coordinate axis, x and y broadcast against each other.

    The squared differences are summed one axis at a time, in axis order,
    into one array of the broadcast shape through one buffer of that shape,
    so the step holds two such arrays at most, never one with the coordinate
    axis.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: x has dim {x.shape[-1]}, y has dim {y.shape[-1]}"
        )
    total = np.asarray(x[..., 0] - y[..., 0])  # 0-d for a single pair of points
    total *= total
    if x.shape[-1] > 1:
        diff = np.empty_like(total)
        for i in range(1, x.shape[-1]):
            np.subtract(x[..., i], y[..., i], out=diff)
            diff *= diff
            total += diff
    return np.sqrt(total, out=total)


def _require_finite(**params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class CovarianceKernel:
    """Base class: stationary spatial covariance C(x, y) = envelope(|x - y|).

    ``positive_definite`` is a fact of the instance: True when C is a
    covariance, so every matrix over any point set is PSD; only such a kernel
    is sampled (require_positive_definite).
    """

    positive_definite = False

    def __call__(self, x, y):
        """Evaluate C(x, y); x and y broadcast with a trailing coordinate axis."""
        return self.envelope(_pair_distances(x, y))

    def envelope(self, r):
        """Radial profile g(r) with C(x, y) = g(|x - y|)."""
        raise NotImplementedError

    def diagonal_value(self) -> float:
        """C(x, x) = C(0), constant by stationarity; also the kernel's supremum."""
        return float(self.envelope(np.zeros(1))[0])

    def radial_moment(self) -> float:
        """int_0^inf s g(s) ds in closed form, inf where it diverges.

        For a radially nonincreasing envelope g this is the Riesz potential's
        supremum, taken at the origin, over the unit sphere's area
        (heatkernel.riesz_potential_sup).  The base class has no closed form
        and refuses, naming the kernel.
        """
        raise ValueError(f"{self!r} declares no closed-form radial moment; only a radially "
                         "nonincreasing envelope has its potential supremum at the origin")

    def axis_kernel(self, dim: int):
        """One-axis kernel c with C(x, y) = prod over dim axes of c(x_i - y_i), or None.

        None (the default) means C does not factor over axes and grids take
        the dense path.
        """
        return None


@dataclass(frozen=True)
class Constant(CovarianceKernel):
    """Fully correlated environment: C(x, y) = level."""

    level: float
    positive_definite = True

    def __post_init__(self):
        _require_finite(level=self.level)
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")

    def envelope(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.level)

    def radial_moment(self) -> float:
        return math.inf if self.level > 0 else 0.0


@dataclass(frozen=True)
class StationaryPower(CovarianceKernel):
    """Power-decay correlation C(x, y) = eps / (1 + |x - y|^alpha)."""

    eps: float
    alpha: float

    def __post_init__(self):
        _require_finite(eps=self.eps, alpha=self.alpha)
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def positive_definite(self) -> bool:
        # the generalised Cauchy covariance exactly when alpha <= 2
        return self.alpha <= 2

    def envelope(self, r):
        return self.eps / (1.0 + np.asarray(r, dtype=float) ** self.alpha)

    def radial_moment(self) -> float:
        # int_0^inf s / (1 + s^alpha) ds = pi / (alpha sin(2 pi / alpha)), finite iff alpha > 2
        if self.alpha <= 2:
            return math.inf if self.eps > 0 else 0.0
        return self.eps * math.pi / (self.alpha * math.sin(2.0 * math.pi / self.alpha))


@dataclass(frozen=True)
class ScaledTheta(CovarianceKernel):
    """Amplitude-scaled Gaussian correlation: C(x, y) = a * exp(-(|x - y| / width)^2).

    The profile exp(-(r / width)^2) is 1 at r = 0, so C(x, x) = a exactly.
    """

    a: float
    width: float = 1.0
    positive_definite = True

    def __post_init__(self):
        _require_finite(a=self.a, width=self.width)
        if self.a < 0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")

    def envelope(self, r):
        # in place in one fresh array: the pair-path oracle evaluates blocks
        # of 256 KB, and a site factor one column per pivot
        x = np.asarray(r, dtype=float) / self.width
        if not isinstance(x, np.ndarray):  # r was a number
            return self.a * np.exp(-x * x)
        x *= x
        np.negative(x, out=x)
        np.exp(x, out=x)
        x *= self.a
        return x

    def radial_moment(self) -> float:
        return self.a * self.width**2 / 2.0

    def axis_kernel(self, dim: int):
        # a exp(-|r|^2 / w^2) = prod_i a^(1/dim) exp(-r_i^2 / w^2)
        return ScaledTheta(self.a ** (1.0 / dim), self.width)


@dataclass(frozen=True)
class IndicatorBall(CovarianceKernel):
    """Hard-cutoff correlation: C(x, y) = height * 1{|x - y| <= radius}.

    Not positive semidefinite in general, so never sampled; the potential
    routines take its radial moment.
    """

    radius: float
    height: float = 1.0

    def __post_init__(self):
        _require_finite(radius=self.radius, height=self.height)
        if self.radius <= 0 or self.height < 0:
            raise ValueError("radius must be positive and height nonnegative")

    def envelope(self, r):
        return np.where(np.asarray(r, dtype=float) <= self.radius, self.height, 0.0)

    def radial_moment(self) -> float:
        return self.height * self.radius**2 / 2.0


def _padded_transpose(root: np.ndarray) -> np.ndarray:
    """C-ordered root.T with zero columns up to a multiple of 8 (see the draw layout)."""
    m, r = root.shape
    out = np.zeros((r, m + -m % 8))
    out[:, :m] = root.T
    return out


class KroneckerRoot:
    """The root L ⊗ ... ⊗ L (dim copies) of a separable grid covariance, never formed.

    ``axis_root`` is the (n, r) root of the axis matrix, r its numerical rank;
    ``shape`` is that of the Kronecker power, (n**dim, r**dim), with rows in
    the grid's C order.
    """

    def __init__(self, axis_root: np.ndarray, dim: int):
        self.axis_root = axis_root
        self.dim = int(dim)
        n, r = axis_root.shape
        self.shape = (n**self.dim, r**self.dim)
        self._axis_root_t = _padded_transpose(axis_root)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """z @ root.T for z of shape (cols, r**dim): the root applied to each row.

        The last axis is one GEMM over all rows; each other axis, from the
        back, is one batch of (n, r) @ (r, n**k) products, k the number of
        axes already contracted behind it.
        """
        n, r = self.axis_root.shape
        cols = len(z)
        out = (z.reshape(-1, r) @ self._axis_root_t)[:, :n]
        for k in range(1, self.dim):
            # axis dim-1-k is next (length r); the k axes behind it are done (length n)
            out = np.matmul(self.axis_root, out.reshape(cols * r ** (self.dim - 1 - k), r, n**k))
        return out.reshape(cols, self.shape[0])


class GaussianFieldFactor:
    """Square-root factor of C over a fixed point set, ready for exact sampling.

    ``root`` has shape (m, r), r the numerical rank, with root @ root.T equal
    to the covariance matrix of the m deduplicated points (all points for the
    rank-1 Constant root) up to ``jitter``, the largest diagonal entry of the
    difference; it is a dense array or, for a separable kernel on a grid of
    dim >= 2, a KroneckerRoot.  A draw takes r normals per field.
    ``index_map`` scatters sampled values back to the original (possibly
    duplicated) points: coincident positions always share one field value.
    None (every grid factor, the Constant root) means one value per root row.
    """

    def __init__(self, root, index_map, jitter, out_shape=None):
        self.root = root
        self.index_map = index_map
        self.jitter = float(jitter)
        if out_shape is None:
            out_shape = (len(root if index_map is None else index_map),)
        self.out_shape = tuple(out_shape)

    @cached_property
    def _root_t(self) -> np.ndarray:
        return _padded_transpose(self.root)

    def fields(self, z: np.ndarray) -> np.ndarray:
        """root @ z_i for each row z_i of z (cols, r): (cols, m) values on the distinct points.

        A 1-d z (one field) is a matrix-vector product with the root as built.
        """
        if isinstance(self.root, KroneckerRoot):
            return self.root.apply(z.reshape(-1, z.shape[-1])).reshape(z.shape[:-1] + (-1,))
        if z.ndim == 1:
            return self.root @ z
        m = self.root.shape[0]
        if len(z) == 1:  # numpy hands a lone row to gemv, whose bits differ from gemm's
            return (np.concatenate((z, z)) @ self._root_t)[:1, :m]
        return (z @ self._root_t)[:, :m]

    def sample(self, rng, dt: float = 1.0, batch: int = None) -> np.ndarray:
        """Draw a centered Gaussian field with covariance C * dt.

        Returns out_shape for batch=None, else (batch,) + out_shape.  Each call
        is an independent draw (white in time), with one row of normals per
        field (see the draw layout in the module docstring).
        """
        if dt < 0:
            raise ValueError(f"dt must be nonnegative, got {dt}")
        rank = self.root.shape[1]
        z = rng.standard_normal(rank if batch is None else (int(batch), rank))
        vals = self.fields(z)  # (m,) or (batch, m), a fresh array
        vals *= math.sqrt(dt)
        if self.index_map is not None:
            vals = vals[..., self.index_map]
        return vals.reshape(vals.shape[:-1] + self.out_shape)


def _pivoted_cholesky(diagonal, column, tol):
    """Greedy pivoted Cholesky of a batch of symmetric matrices, in one pivot loop.

    diagonal is (sets, width): row b holds the m_b diagonal entries of set
    b's matrix, then -inf up to the width.  column(live, p) returns, for the
    sets ``live`` (an index array, the same object until a set stops) and
    one pivot p_b each, the columns C_b(., p_b) as the rows of a fresh
    C-ordered (len(live), width) array, which the routine overwrites; its
    entries past m_b must be finite and are never pivoted on.  Each step
    every live set pivots on its largest remaining diagonal entry (the first
    on ties) and writes one root column; a set stops once every remaining
    entry is at most tol >= 0, which holds once its m_b entries are all
    pivots (they are 0 less roundoff).  Returns (roots, jitters), one entry
    per set: the C-ordered (m_b, rank) root, one zero column for rank 0, and
    the largest remaining diagonal entry.
    It returns None at 64 columns if a batch's full rank would pass _ROOT_CELLS.
    """
    d = np.array(diagonal, dtype=float, ndmin=2)
    sets, width = d.shape
    sizes = np.count_nonzero(d > -np.inf, axis=1)
    rows = np.empty((sets, min(width, 32), width))  # root columns as rows, grown by doubling
    ranks = np.zeros(sets, dtype=np.intp)
    jitters = np.zeros(sets)
    # set b's update by its earlier columns goes to updates[b, :m_b]; the
    # entries past m_b stay 0
    updates = np.zeros(d.shape)
    views = None  # each set's rows (up to m_b) and its update row
    live = np.arange(sets if width else 0)  # the sets whose rows d holds, in order
    starts = np.arange(0, len(live) * width, width)  # their rows in d and col, flattened
    k = 0
    while len(live):
        p = d.argmax(axis=1)
        at = starts + p
        pivot = d.ravel()[at]
        if not pivot.min() > tol:  # a set whose m_b entries are all pivots has none above 0
            go = pivot > tol
            stopped = live[~go]
            # the remaining entries are at most tol; roundoff dips below 0
            jitters[stopped] = d[~go].max(axis=1, initial=0.0)
            ranks[stopped] = k
            live, d, p, pivot = live[go], d[go], p[go], pivot[go]
            if not len(live):
                break
            starts = np.arange(0, len(live) * width, width)
            at = starts + p
        if k == rows.shape[1]:
            grow = min(k, width - k)
            if k == 64 and sets > 1 and 2 * sets * width * width > _ROOT_CELLS:
                return None
            rows = np.concatenate((rows, np.empty((sets, grow, width))), axis=1)
            views = None
        if views is None:
            views = [(rows[b, :, :m], updates[b, :m]) for b, m in enumerate(sizes.tolist())]
        col = column(live, p)
        if k:
            for b, q in zip(live.tolist(), p.tolist()):
                earlier, update = views[b]
                earlier = earlier[:k]
                np.matmul(earlier[:, q], earlier, update)
            col -= updates[live]
        s = np.sqrt(pivot)
        col /= s[:, np.newaxis]
        col.ravel()[at] = s
        rows[live, k] = col
        col *= col
        d -= col
        d.ravel()[at] = 0.0
        k += 1
    roots = [np.ascontiguousarray(rows[b, :r, :m].T) if r else np.zeros((m, 1))
             for b, (r, m) in enumerate(zip(ranks.tolist(), sizes.tolist()))]
    return roots, jitters.tolist()


def _factor_points(kernel, point_sets):
    """(root, jitter) of C over each set of distinct points, shape (m_b, dim), in order.

    The kernel is positive definite, and every set is factored in one pivot
    loop: the sets are padded to the largest (the padding points sit at the
    origin, behind -inf diagonals) and each step evaluates the live sets'
    pivot columns together, never forming a matrix (or returns None, see
    _pivoted_cholesky).
    """
    scale = kernel.diagonal_value()
    width = max(len(points) for points in point_sets)
    dim = point_sets[0].shape[1]
    padded = np.zeros((len(point_sets), width, dim))
    diagonal = np.full(padded.shape[:2], -np.inf)
    for b, points in enumerate(point_sets):
        padded[b, :len(points)] = points
        diagonal[b, :len(points)] = scale

    cached = [None, None, None]  # the live sets, their padded points, where each set starts

    def column(live, p):
        if cached[0] is not live:  # sets stopped since the last step
            sites = padded if len(live) == len(padded) else padded[live]
            cached[:] = live, sites, np.arange(0, len(live) * width, width)
        _, sites, starts = cached
        pivots = sites.reshape(-1, dim)[starts + p]
        return kernel.envelope(_pair_distances(sites, pivots[:, np.newaxis]))

    factored = _pivoted_cholesky(diagonal, column, JITTER_SCALE * scale)
    return None if factored is None else list(zip(*factored))


def require_positive_definite(kernel: CovarianceKernel):
    """Raise ValueError naming the kernel unless it declares itself a covariance."""
    if not kernel.positive_definite:
        raise ValueError(f"{kernel!r} is not positive definite, so it cannot be sampled")


def _check_dense_size(m: int, what: str):
    if m > DENSE_LIMIT:
        raise ValueError(f"{m} {what}; dense factorization is limited to {DENSE_LIMIT}")


def require_grid_size(kernel: CovarianceKernel, grid):
    """Raise ValueError if grid_covariance_factor would factor more than
    DENSE_LIMIT points: a separable kernel's grid.cells per axis, or any other
    kernel's grid.n_points cells, except Constant's, whose rank-1 root is never dense."""
    if kernel.axis_kernel(grid.dim) is not None:
        _check_dense_size(grid.cells, "cells per axis")
    elif not isinstance(kernel, Constant):
        _check_dense_size(grid.n_points, "grid cells")


def points_covariance_factor(kernel: CovarianceKernel, points) -> GaussianFieldFactor:
    """Factor C over an arbitrary point set; duplicated points are deduplicated.

    Raises ValueError for a kernel that is not positive definite, and above
    DENSE_LIMIT distinct points (except for the rank-1 Constant root, which
    is never dense).
    """
    ((_, factor),) = points_covariance_factors(kernel, [points])
    return factor


# Most cells of a size group's (sets, width) plane: 256 KB of doubles, so the
# planes each pivot step sweeps (diagonals, columns, updates) stay in cache.
_GROUP_CELLS = 1 << 15
# Most cells of a group's full-rank roots and their buffer: 4 MB of doubles.
_ROOT_CELLS = 1 << 19


def _size_groups(sizes) -> list:
    """Cut ascending set sizes into the slices that are factored together.

    Each slice starts from the largest size left and takes the next smaller
    ones while its cells (its set count times that size) stay at most twice
    the sum of its sizes, so padding at most doubles them, and at most
    _GROUP_CELLS; a slice of one set may exceed the latter.
    """
    slices, end = [], len(sizes)
    while end:
        width = sizes[end - 1]
        start, total = end - 1, width
        while start and (end - start + 1) * width <= min(2 * (total + sizes[start - 1]),
                                                          _GROUP_CELLS):
            start -= 1
            total += sizes[start]
        slices.append(slice(start, end))
        end = start
    return slices[::-1]


def points_covariance_factors(kernel: CovarianceKernel, point_sets):
    """Iterator of (i, points_covariance_factor(kernel, point_sets[i])) over all i, bit for bit.

    The kernel must be positive definite (require_positive_definite), and
    every set is deduplicated and checked against DENSE_LIMIT here, before
    anything is factored.  The sets are then sorted by distinct points and
    cut into size groups (_size_groups), and the iterator factors one group
    at a time, in one pivot loop, and yields its factors before it builds
    the next; so a caller that draws from each factor as it comes holds one
    group's buffers and roots at a time.
    """
    require_positive_definite(kernel)
    point_sets = [np.asarray(points, dtype=float) for points in point_sets]
    for points in point_sets:
        if points.ndim != 2:
            raise ValueError(f"points must have shape (m, dim), got {points.shape}")
    if isinstance(kernel, Constant):
        # exact rank-1 root of the all-ones matrix times level; no dedup needed
        level = math.sqrt(kernel.level)
        return ((i, GaussianFieldFactor(np.full((len(points), 1), level), None, 0.0))
                for i, points in enumerate(point_sets))
    distinct = []
    for points in point_sets:
        if points.shape[1] == 1:  # a plain sort, not one on a structured row dtype
            values, index_map = np.unique(points[:, 0], return_inverse=True)
            unique = values[:, np.newaxis]
        else:
            unique, index_map = np.unique(points, axis=0, return_inverse=True)
            index_map = index_map.reshape(-1)
        _check_dense_size(len(unique), "distinct points")
        distinct.append((unique, index_map))
    return _factor_groups(kernel, distinct)


def _factor_groups(kernel, distinct):
    """Yield (i, factor) over the deduplicated sets, one size group at a time."""
    order = sorted(range(len(distinct)), key=lambda i: len(distinct[i][0]))
    groups = [order[g] for g in _size_groups([len(distinct[i][0]) for i in order])]
    groups.reverse()  # taken from the back, smallest sets first
    while groups:
        members = groups.pop()
        factored = _factor_points(kernel, [distinct[i][0] for i in members])
        if factored is None:  # full-rank roots past _ROOT_CELLS: chunks that fit
            chunk = max(1, _ROOT_CELLS // (2 * len(distinct[members[-1]][0]) ** 2))
            groups += [members[c:c + chunk] for c in range(0, len(members), chunk)][::-1]
            continue
        for i, (root, jitter) in zip(members, factored):
            yield i, GaussianFieldFactor(root, distinct[i][1], jitter)
        del factored  # no name holds a group's roots once the next group starts


def grid_covariance_factor(kernel: CovarianceKernel, grid) -> GaussianFieldFactor:
    """Factor C over all cell centers of a grid; samples come back grid-shaped.

    A separable kernel is factored on one axis and sampled through a
    KroneckerRoot (plain axis root in d = 1); any other kernel takes the dense
    path over all cells.  A kernel that is not positive definite, or a grid
    past require_grid_size, raises ValueError.
    """
    require_positive_definite(kernel)
    require_grid_size(kernel, grid)
    axis_kernel = kernel.axis_kernel(grid.dim)
    if axis_kernel is None:
        factor = points_covariance_factor(kernel, grid.points())
        # the cells are distinct and in np.unique's order: its map is the identity
        factor.index_map, factor.out_shape = None, grid.shape
        return factor
    ((root, jitter),) = _factor_points(axis_kernel, [grid.axis()[:, np.newaxis]])
    if grid.dim > 1:
        root = KroneckerRoot(root, grid.dim)
        c = axis_kernel.diagonal_value()
        jitter = c**grid.dim - (c - jitter) ** grid.dim
    return GaussianFieldFactor(root, None, jitter, grid.shape)
