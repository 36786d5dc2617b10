"""Inverse of d/dt + ad(b) on g-valued Fourier series over the circle.

b is given by its ambient coordinates and converted once to coweight
coordinates (`field.coweight_coordinates`) for its root pairings.

Series live in the complexified root-space basis [H_1..H_r, X_alpha for
the positive roots alpha in `root_pairings` order, then X_-alpha in the
same order] where ad(b) is diagonal: 0 on the Cartan coordinates and
2 pi i alpha(b) on X_alpha (the exponential convention exp(b) = 1 iff b is
in the coroot lattice).  Mode n of the operator multiplies coordinate
X_alpha by 2 pi i (n + alpha(b)) and Cartan coordinates by 2 pi i n, so
for regular b the operator is invertible exactly on the admissible space:
all root-space modes plus the nonzero Cartan modes.

The closed form T(b) . int_0^1 e^{s ad(b)} f(t+s) ds evaluates, mode by
mode on root coordinates, to that same division; on Cartan-valued modes
the formula's t-part averages to a constant and cannot invert d/dt, so
this implementation divides modes directly and rejects inputs whose mean
has a Cartan component (the admissibility constraint).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .field import coweight_coordinates, format_vector, is_regular, root_pairings
from .roots import RootSystem

CONSTRAINT_TOL = 0.0  # largest Cartan component an admissible series' mean may have


class CircleOperatorData:
    """A regular Cartan element b (ambient coordinates) plus truncation order, with its
    root pairings."""

    __slots__ = ("rs", "b", "order", "pairings")

    def __init__(self, rs: RootSystem, b: tuple, order: int):
        b = tuple(b)
        exact = root_pairings(rs, coweight_coordinates(rs, b))
        if not is_regular(exact):
            raise PreconditionError(f"b = {format_vector(b)} is singular; T(b) is undefined")
        if order < 0:
            raise PreconditionError("truncation order must be >= 0")
        pair = tuple(map(float, exact))
        self.rs, self.b, self.order = rs, b, order
        self.pairings = pair + tuple(-x for x in pair)  # alpha(b), then -alpha(b), alpha > 0

    @property
    def dim(self) -> int:
        return self.rs.rank + len(self.pairings)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues 2 pi i (mode + shift) of d/dt + ad(b), a row per mode -order..order;
        the shift is 0 on the Cartan coordinates and alpha(b) on X_alpha."""
        modes = np.arange(-self.order, self.order + 1)[:, None]
        shift = np.concatenate([np.zeros(self.rs.rank), self.pairings])
        return 2j * math.pi * (modes + shift)


def _check_series(data: CircleOperatorData, coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    n = 2 * data.order + 1
    if c.shape != (n, data.dim):
        raise PreconditionError(
            f"series shape {c.shape} does not match truncation order "
            f"{data.order} and algebra dimension {data.dim}"
        )
    return c


def apply_operator(data: CircleOperatorData, coeffs: np.ndarray) -> np.ndarray:
    """(d/dt + ad(b)) f, mode by mode."""
    return data.spectrum * _check_series(data, coeffs)


def circle_inverse_apply(data: CircleOperatorData, coeffs: np.ndarray) -> np.ndarray:
    """Apply (d/dt + ad(b))^{-1} on the admissible truncated space.

    Rejects series whose zero mode has a Cartan component larger than
    CONSTRAINT_TOL (the mean of an admissible series lies in the root
    complement, where ad(b) is invertible).
    """
    c = _check_series(data, coeffs)
    r = data.rs.rank
    mean_t = np.abs(c[data.order, :r])
    if np.any(mean_t > CONSTRAINT_TOL):
        raise PreconditionError(
            "series violates the admissibility constraint: its mean has a "
            f"Cartan component of size {float(mean_t.max())!r}"
        )
    invertible = np.ones(c.shape, dtype=bool)
    invertible[data.order, :r] = False  # annihilated direction; inverse not defined there
    return np.divide(c, data.spectrum, out=np.zeros_like(c), where=invertible)


def random_admissible_series(
    data: CircleOperatorData, rng: np.random.Generator
) -> np.ndarray:
    """Random truncated series satisfying the mean-in-root-part constraint."""
    n = 2 * data.order + 1
    c = rng.standard_normal((n, data.dim)) + 1j * rng.standard_normal((n, data.dim))
    c[data.order, : data.rs.rank] = 0.0
    return c
