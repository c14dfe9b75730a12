"""Deterministic heat flow and the persistence potential.

Free-space heat flow at points is a Gauss-Hermite quadrature.  Field
evolution happens on the periodic torus of a Grid via the spectral heat
semigroup, which is exact for the lattice Laplacian's continuum symbol:
multiplication by exp(-t|w|^2/2) in Fourier space.  That symbol is a
product over the axes, so the same operator is the Kronecker power of one
1-d circulant matrix, applied as one (n, n) contraction per axis; only a 1-d
grid of more than 128 cells keeps the rfft/irfft pair, which is faster
there.  Periodization error against whole-space claims is controlled by
choosing the extent large against sqrt(t); experiments record grid metadata
so refinement sensitivity can be checked by rerunning.

The persistence check compares the supremum of the Riesz potential of the
correlation envelope g,

    theta = sup_x integral |x-y|^(2-d) g(|y|) dy,

against the dimension constant 8(d-2)pi^(d/2) / (d 2^d Gamma(d/2-1)).  For
radial g the potential at radius r reduces by the Newton shell average
(the mean of |x-y|^(2-d) over the sphere |y|=s equals max(|x|,s)^(2-d)) to

    I(r) = omega_{d-1} [ r^(2-d) int_0^r g(s) s^(d-1) ds + int_r^inf g(s) s ds ].

Every kernel's envelope is radially nonincreasing, so the supremum sits at
the origin, theta = I(0) = omega_{d-1} int_0^inf s g(s) ds, and each kernel
gives that integral in closed form (CovarianceKernel.radial_moment); no
potential is integrated numerically, so no run needs scipy.
"""

import math

import numpy as np

from . import covariance as cov
from .grids import Grid, GridFunction, PolynomialWeight

__all__ = [
    "apply_heat_semigroup",
    "heat_at_points",
    "persistence_threshold",
    "riesz_potential_sup",
    "green_potential_sup",
    "khasminskii_bound",
    "weight_domination_constant",
    "surface_area",
]

_HERMITE_NODES = 40  # Gauss-Hermite nodes per axis in heat_at_points
_CONTRACTION_MAX_CELLS = 128  # longest 1-d grid whose heat step is a matrix contraction


def surface_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def heat_multiplier(grid: Grid, t: float) -> np.ndarray:
    """The torus heat operator exp(-t |omega|^2 / 2) in the form
    apply_spectral_multiplier takes.

    Every grid gets the (n, n) circulant matrix of the 1-d symbol, whose
    Kronecker power over the axes is the operator; its kernel is averaged
    with its reflection, so the matrix is exactly symmetric and a row
    contraction applies the same matrix as a column contraction.  A 1-d
    grid's matrix carries zero columns up to a multiple of 8 (see
    apply_spectral_multiplier).  A 1-d grid of more than
    _CONTRACTION_MAX_CELLS cells gets the symbol on the rfft half-spectrum
    instead: there the transform pair is faster, and the matrix would take
    O(n^2) memory.
    """
    w = grid.angular_frequencies()
    symbol = np.exp(-0.5 * t * (w * w))
    n = grid.cells
    if grid.dim == 1 and n > _CONTRACTION_MAX_CELLS:
        return symbol
    kernel = np.fft.irfft(symbol, n=n)
    offsets = np.arange(n)
    kernel = 0.5 * (kernel + kernel[-offsets % n])
    matrix = kernel[(offsets[:, None] - offsets[None, :]) % n]
    return np.pad(matrix, ((0, 0), (0, -n % 8))) if grid.dim == 1 and n % 8 else matrix


def apply_heat_semigroup(f: GridFunction, t: float) -> GridFunction:
    """Exact torus heat flow of f for time t (generator Laplacian/2).

    t = 0 returns a copy of the input.  Mass is conserved to roundoff (the
    zero mode has multiplier 1: the mean is carried past the contractions
    exactly, or is the transform's untouched zero mode) and nonnegative
    inputs stay nonnegative: roundoff and the discrete kernel's small
    negative truncation lobes are clamped away, which keeps the positivity of
    the underlying operator machine-exact.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return f.copy()
    out = apply_spectral_multiplier(f.values, heat_multiplier(f.grid, t), f.grid.shape)
    if np.all(f.values >= 0.0):
        np.maximum(out, 0.0, out=out)
    return GridFunction(f.grid, out)


def apply_spectral_multiplier(values: np.ndarray, multiplier: np.ndarray, shape) -> np.ndarray:
    """Apply heat_multiplier's operator to the trailing grid axes of values.

    A 1-d symbol (a 1-d grid above _CONTRACTION_MAX_CELLS cells) takes
    rfft/irfft along the last axis.  A matrix is applied by subtracting each
    field's mean, contracting the matrix along every grid axis and adding the
    mean back, so a constant field returns bit for bit.  A field's output
    bits do not depend on how many fields are stacked with it: in d >= 2 each
    contraction is a product of one fixed shape per field; in 1-d the fields
    are the rows of one product, so a lone field is stacked with a copy of
    itself, and the matrix's zero columns keep the output width a multiple
    of 8, since OpenBLAS picks the kernel for the last n mod 8 columns by the
    row count.
    The contractions cost O(n) per value per axis against the transform's
    O(log n).  Measured on a 2-vCPU Xeon with one BLAS thread, contractions
    against the pair, in 1-d: one field of 64 cells, 9.8 against 17 us; 32
    fields of 64, 16 against 29 us; 160 fields of 64, 48 against 75 us; 32
    fields of 128, 33 against 58 us; of 256, 143 against 89 us; of 1024, 2039
    against 301 us; hence the cutoff at 128 cells.  In 2-d they lose to
    an rfftn/irfftn pair from about n = 256 per axis: 8 fields of 128^2, 2.4
    against 2.6 ms; of 256^2, 11.4 against 9.7 ms; of 512^2, 88 against
    47 ms.  In 3-d they still win at 128^3: 32 fields of 16^3, 0.63 against
    2.7 ms; one field of 128^3, 37 against 66 ms.
    """
    if multiplier.ndim == 1:
        spec = np.fft.rfft(values, axis=-1)
        spec *= multiplier
        return np.fft.irfft(spec, n=shape[0], axis=-1)
    dim = len(shape)
    n = shape[0]
    fields = values.reshape(-1, n**dim)
    # np.mean's own reduce and divide, without its wrapper's overhead
    mean = np.add.reduce(fields, axis=1, keepdims=True)
    mean /= n**dim
    centered = fields - mean
    if dim == 1:
        # numpy hands a lone row to gemv, whose bits differ from gemm's
        rows = np.concatenate((centered, centered)) if len(centered) == 1 else centered
        out = np.matmul(rows, multiplier)[: len(centered), :n]
    else:
        # last axis first, as rows against the symmetric matrix, then axes 0..dim-2
        out = np.matmul(centered.reshape(-1, n ** (dim - 1), n), multiplier)
        del centered  # so a contraction holds two field stacks, not three
        for k in range(dim - 1):
            out = np.matmul(multiplier, out.reshape(-1, n, n ** (dim - 1 - k)))
        out = out.reshape(fields.shape)
    out += mean
    return out.reshape(values.shape)


def heat_at_points(fn, t: float, points, dim: int) -> np.ndarray:
    """Free-space heat flow of a callable, evaluated at arbitrary points.

    Tensor Gauss-Hermite quadrature of E[fn(x + sqrt(t) Z)] on _HERMITE_NODES
    nodes per axis; exactness improves rapidly with the node count for smooth fn.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[-1] != dim:
        raise ValueError(f"points have {points.shape[-1]} coordinates, need dim = {dim}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return np.asarray(fn(points), dtype=float)
    u, w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    mesh = np.meshgrid(*(u,) * dim, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=-1)  # (nodes^dim, dim)
    wmesh = np.meshgrid(*(w,) * dim, indexing="ij")
    weights = np.prod(np.stack([m.ravel() for m in wmesh], axis=-1), axis=-1)
    shifted = points[:, None, :] + math.sqrt(2.0 * t) * offsets[None, :, :]
    vals = np.asarray(fn(shifted.reshape(-1, dim)), dtype=float).reshape(
        points.shape[0], -1
    )
    return (vals @ weights) / math.pi ** (dim / 2.0)


def persistence_threshold(dim: int) -> float:
    """Dimension constant 8(d-2) pi^(d/2) / (d 2^d Gamma(d/2-1)); the
    persistence regime is theta < threshold, available for d >= 3."""
    if dim < 3:
        raise ValueError(f"persistence threshold requires dim >= 3, got {dim}")
    gamma = math.gamma(dim / 2.0 - 1.0)
    return 8.0 * (dim - 2) * math.pi ** (dim / 2.0) / (dim * 2.0**dim * gamma)


def riesz_potential_sup(kernel: cov.CovarianceKernel, dim: int) -> float:
    """Supremum over x of the Riesz potential of the kernel's radial envelope.

    The envelope is radially nonincreasing, so the supremum is I(0), the
    sphere's area times the kernel's closed-form radial_moment: inf for a
    divergent potential (positive constant level, power decay with exponent
    <= 2).  A kernel without a closed form raises ValueError naming it.
    """
    if dim < 3:
        raise ValueError(f"Riesz potential requires dim >= 3, got {dim}")
    return surface_area(dim) * kernel.radial_moment()


def green_potential_sup(kernel: cov.CovarianceKernel, dim: int) -> float:
    """sup_x int G(x, y) g(|y|) dy, the Green-normalized potential.

    G(x, y) = Gamma(dim/2 - 1) / (4 pi^(dim/2)) |x - y|^(2 - dim) is the Green
    function of Brownian motion run at speed 2 (the difference of two
    independent unit Brownian motions), defined for dim >= 3.
    """
    if dim < 3:
        raise ValueError(f"Green potential requires dim >= 3, got {dim}")
    constant = math.gamma(dim / 2.0 - 1.0) / (4.0 * math.pi ** (dim / 2.0))
    return constant * riesz_potential_sup(kernel, dim)


def khasminskii_bound(s: float) -> float:
    """Exponential moment bound 1/(1-s) for an additive functional whose
    expected total mass is s < 1."""
    if not 0 <= s < 1:
        raise ValueError(f"bound requires 0 <= s < 1, got {s}")
    return 1.0 / (1.0 - s)


def weight_domination_constant(rho: float, t_max: float, dim: int) -> float:
    """Empirical constant C with heat_flow(weight) <= C * weight on the grid.

    Scans a geometric ladder of times in (0, t_max] and maximizes the ratio
    P_t(phi_rho) / phi_rho over all cells; finite output certifies the
    domination numerically on the chosen box.
    """
    cells = {1: 256, 2: 64, 3: 16}[dim]
    grid = Grid(dim, max(8.0, 8.0 * math.sqrt(t_max)), cells)
    phi = GridFunction.from_callable(grid, PolynomialWeight(rho))
    best = 1.0
    for t in np.geomspace(t_max / 64.0, t_max, 8):
        flowed = apply_heat_semigroup(phi, float(t))
        ratio = float(np.max(flowed.values / phi.values))
        best = max(best, ratio)
    if not np.isfinite(best):
        raise FloatingPointError("weight domination ratio overflowed")
    return best
