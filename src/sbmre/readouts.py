"""Readout (test-function) catalog for empirical pairings.

A readout evaluates at arbitrary points of R^d (trailing coordinate axis).
The smooth entries also expose their Laplacian and their exact heat flow;
the martingale-residual and mean-measure checks consume those directly, so
closed forms here double as oracles for the quadrature-based heat tools.

Catalog names accepted by parse_readout: ``constant``, ``constant(v)`` (v >= 0),
``gaussian_bump(center, width)``, ``indicator_ball(center, radius)``.
Scalar centers are broadcast across axes.
"""

import math
import re
from dataclasses import dataclass

import numpy as np


def _radii_sq(points, center) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return np.sum((points - center) ** 2, axis=-1)


@dataclass(frozen=True)
class ConstantReadout:
    value: float = 1.0

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.full(points.shape[:-1], self.value)

    def laplacian(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1])

    def heat_flow(self, t: float, points) -> np.ndarray:
        return self(points)


@dataclass(frozen=True)
class GaussianBump:
    """exp(-|x - center|^2 / (2 width^2)); closed under the heat flow."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")

    def __call__(self, points) -> np.ndarray:
        return np.exp(-_radii_sq(points, self.center) / (2.0 * self.width**2))

    def laplacian(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        dim = points.shape[-1]
        r2 = _radii_sq(points, self.center)
        w2 = self.width**2
        return np.exp(-r2 / (2.0 * w2)) * (r2 / w2 - dim) / w2

    def heat_flow(self, t: float, points) -> np.ndarray:
        """P_t applied to the bump: another Gaussian with width^2 + t."""
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        points = np.asarray(points, dtype=float)
        dim = points.shape[-1]
        w2 = self.width**2
        amp = (w2 / (w2 + t)) ** (dim / 2.0)
        return amp * np.exp(-_radii_sq(points, self.center) / (2.0 * (w2 + t)))


@dataclass(frozen=True)
class BallIndicator:
    center: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def __call__(self, points) -> np.ndarray:
        return (_radii_sq(points, self.center) <= self.radius**2).astype(float)

    def laplacian(self, points):
        raise TypeError("indicator readout is not twice differentiable")


_CATALOG_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_readout(text: str):
    """Build a readout from its config-file name, e.g. 'gaussian_bump(0, 0.5)'."""
    match = _CATALOG_RE.match(text)
    if not match:
        raise ValueError(f"unparseable readout: {text!r}")
    name, raw = match.group(1), match.group(2)
    args = [float(a) for a in raw.split(",")] if raw else []
    if not all(math.isfinite(a) for a in args):
        raise ValueError(f"readout arguments must be finite, got {text!r}")
    if name == "constant":
        if len(args) > 1:
            raise ValueError(f"constant takes at most one argument, got {text!r}")
        if args and args[0] < 0:  # readouts seed the routes' initial data, which are >= 0
            raise ValueError(f"constant must be nonnegative, got {text!r}")
        return ConstantReadout(*args)
    if name == "gaussian_bump":
        if len(args) != 2:
            raise ValueError(f"gaussian_bump takes (center, width), got {text!r}")
        return GaussianBump(center=args[0], width=args[1])
    if name == "indicator_ball":
        if len(args) != 2:
            raise ValueError(f"indicator_ball takes (center, radius), got {text!r}")
        return BallIndicator(center=args[0], radius=args[1])
    raise ValueError(f"unknown readout {name!r}; "
                     "choices: constant, gaussian_bump, indicator_ball")
