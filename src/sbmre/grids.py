"""Periodic lattice geometry and grid-sampled fields.

All field solvers in this package work on a uniform periodic lattice over the
centered box [-L/2, L/2)^d with d in {1, 2, 3}.  Cell centers sit at
``i*h - L/2`` with ``h = L/cells``, so the origin is a lattice point whenever
``cells`` is even.  Integrals are cell sums times the cell volume ``h^d``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-extent/2, extent/2)^dim."""

    dim: int
    extent: float
    cells: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        if self.cells < 2:
            raise ValueError(f"need at least 2 cells per axis, got {self.cells}")

    @property
    def spacing(self) -> float:
        return self.extent / self.cells

    @property
    def shape(self) -> tuple:
        return (self.cells,) * self.dim

    @property
    def n_points(self) -> int:
        return self.cells**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return self.extent**self.dim

    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return np.arange(self.cells) * self.spacing - self.extent / 2.0

    def points(self) -> np.ndarray:
        """All cell centers as an (n_points, dim) array in C order."""
        mesh = np.meshgrid(*(self.axis(),) * self.dim, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_index(self, x) -> tuple:
        """Multi-index of the cell center nearest to point x (periodic wrap)."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        idx = np.rint((x + self.extent / 2.0) / self.spacing).astype(int)
        return tuple(int(i) % self.cells for i in idx)

    def angular_frequencies(self) -> np.ndarray:
        """Angular frequencies of one axis on the rfft half-spectrum, the
        layout of ``np.fft.rfft`` output; every axis has the same ones."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.cells, d=self.spacing)


@dataclass
class GridFunction:
    """A real scalar field sampled at the cell centers of a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = values

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.points()), dtype=float).reshape(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.shape, float(value)))

    def integral(self) -> float:
        return self.grid.cell_volume * float(np.sum(self.values))

    def at(self, x) -> float:
        """Value at the cell nearest to point x."""
        return float(self.values[self.grid.nearest_index(x)])

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


class PolynomialWeight:
    """Reference weight x -> (1+|x|^2)^(-rho/2) used to bound readouts and dual states."""

    def __init__(self, rho: float):
        if not rho > 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.rho = float(rho)

    def __call__(self, points) -> np.ndarray:
        # points carry a trailing coordinate axis: shape (..., dim)
        points = np.asarray(points, dtype=float)
        sq = np.sum(points * points, axis=-1)
        return (1.0 + sq) ** (-self.rho / 2.0)
