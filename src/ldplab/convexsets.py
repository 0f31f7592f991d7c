"""Symmetric convex neighborhoods and their Minkowski gauge.

Two shapes are supported: open axis-aligned boxes given by per-axis radii,
and open Euclidean balls.  The gauge M_V(y) = inf{t >= 0 : y in t*V} is
computed in closed form for both; membership in t*V is the strict test
M_V(y) < t, matching open sets.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import pairings


@dataclass(frozen=True)
class BoxShape:
    """Open box prod_j (-r_j, r_j)."""

    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if any(r <= 0 for r in self.radii):
            raise ValueError(f"box radii must be positive, got {self.radii}")

    @property
    def dim(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class BallShape:
    """Open Euclidean ball of given radius."""

    radius: float
    dim: int = 1

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        if self.dim not in (1, 2):
            raise ValueError(f"ball dim must be 1 or 2, got {self.dim}")


def gauge(shape, y) -> float:
    """Minkowski gauge of y with respect to the shape (0 at the origin)."""
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(shape, BoxShape):
        return float(np.max(np.abs(arr) / np.asarray(shape.radii)))
    if isinstance(shape, BallShape):
        return float(np.linalg.norm(arr) / shape.radius)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def gauge_array(shape, points: np.ndarray) -> np.ndarray:
    """Vectorized gauge for an (N, k) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(shape, BoxShape):
        return np.max(np.abs(pts) / np.asarray(shape.radii)[None, :], axis=1)
    if isinstance(shape, BallShape):
        return np.linalg.norm(pts, axis=1) / shape.radius
    raise TypeError(f"unsupported shape {type(shape).__name__}")


@dataclass(frozen=True)
class ConvexNbhd:
    """Open neighborhood center + (1 - shrink) * V for a symmetric shape V."""

    center: tuple
    shape: object
    shrink: float = 0.0

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", tuple(float(c) for c in center))
        if not 0.0 <= self.shrink < 1.0:
            raise ValueError(f"shrink must lie in [0, 1), got {self.shrink}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def member_mask(self, points: np.ndarray) -> np.ndarray:
        """Strict membership for an (N, k) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return gauge_array(self.shape, pts - np.asarray(self.center)[None, :]) \
            < 1.0 - self.shrink

    def shrunk(self, eps: float) -> "ConvexNbhd":
        """Same center and shape with shrink factor eps (replaces any prior)."""
        return ConvexNbhd(self.center, self.shape, eps)

    def support_inf(self, lam):
        """inf over the closure of <lam, x> (used by the Chernoff bound).

        One tilt of shape (k,) gives a float; an (G, k) grid of tilts gives
        a (G,) array whose rows equal their one-tilt values bit for bit.
        """
        arr = np.asarray(lam, dtype=float)
        pts = np.atleast_2d(arr)
        if arr.ndim > 2 or pts.shape[1] != self.dim:
            raise ValueError(f"tilts must have {self.dim} coordinates, got "
                             f"shape {arr.shape}")
        scale = 1.0 - self.shrink
        base = pairings(pts, [self.center])[:, 0]
        if isinstance(self.shape, BoxShape):
            spread = pairings(np.abs(pts), [self.shape.radii])[:, 0]
        elif isinstance(self.shape, BallShape):
            spread = np.linalg.norm(pts, axis=1) * self.shape.radius
        else:
            raise TypeError(f"unsupported shape {type(self.shape).__name__}")
        out = base - scale * spread
        return out if arr.ndim == 2 else float(out[0])
