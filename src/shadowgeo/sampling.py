"""Deterministic point generators: Fibonacci sphere grids and seeded samplers."""

from __future__ import annotations

import math

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform points on S^2, deterministic in n."""
    if n < 1:
        raise ValueError("need at least one grid point")
    n = int(n)
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _sphere_blocks(n: int, seed: int, dim: int, block: int):
    """:func:`sample_sphere`'s points ``block`` rows at a time; n = 0 gives one empty block.

    The points do not depend on the block size, but for the redraw of a row
    of norm below 1e-12 (probability about 1e-36) at the end of its block.
    """
    rng = np.random.default_rng(seed)
    for lo in range(0, max(n, 1), block):
        v = rng.standard_normal((min(block, n - lo), dim))
        norms = np.linalg.norm(v, axis=1)
        while (bad := norms < 1e-12).any():
            v[bad] = rng.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(v, axis=1)
        yield v / norms[:, None]


def sample_sphere(n: int, seed: int, dim: int = 3) -> np.ndarray:
    """n uniform points on the unit sphere in R^dim, seeded: ``_sphere_blocks`` as one block."""
    return next(_sphere_blocks(n, seed, dim, max(n, 1)))
