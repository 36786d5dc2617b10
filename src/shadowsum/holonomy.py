"""Holonomy as ordered exponential products, and the closed-form Wilson values.

The n-point approximation of the holonomy of a matrix-valued connection
along a loop is prod_{j=1..n} exp((1/n) A(l'(t))|_{t=j/n}) with factors
multiplied left to right in increasing j.  The ribbon variant averages the
sampled algebra element over the transverse parameter inside each factor.
For t-valued (abelian) connections the product collapses to the exponential
of a Riemann sum, so the limit is exp of the loop integral.

For links whose projected ribbons stay embedded and disjoint, the gauge-
field average of the Wilson loop product has the closed form

    prod_i Tr_{rho_i}( exp( int_0^1 ( oint_{(R_i^(s))_u} (A_c + B dt) ) du ) )

whose argument is t-valued; traces are evaluated through characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .reps import WeightSystem, character_eval, weyl_dimension
from .roots import RootSystem

MAX_HOLONOMY_FACTORS = 2**16  # budget of `holonomy` and `ribbon_holonomy`: n factors
MAX_REP_DIM = 256  # budget of the `holonomy` command: dimension of the coloured module

LoopSampler = Callable[[float], tuple]
ConnectionSampler = Callable[[tuple], np.ndarray]


def _require_factors(n: int) -> None:
    if n < 1:
        raise PreconditionError(f"holonomy needs n >= 1, got {n}")
    if n > MAX_HOLONOMY_FACTORS:
        raise PreconditionError(
            f"holonomy with n = {n} factors; the budget is {MAX_HOLONOMY_FACTORS}"
        )


def require_rep_dim(rs: RootSystem, color: Sequence[int]) -> None:
    """Refuse a colour whose module is larger than MAX_REP_DIM, by its exact
    Weyl dimension, before any multiplicity or dim x dim matrix is built."""
    dim = weyl_dimension(rs, color)
    if dim > MAX_REP_DIM:
        raise PreconditionError(
            f"the module of highest weight {tuple(color)} of {rs.type_label}{rs.rank} has "
            f"dimension {dim}; the budget is {MAX_REP_DIM}"
        )


def holonomy(loop: LoopSampler, connection: ConnectionSampler, n: int) -> np.ndarray:
    """Ordered product prod_{j=1..n} exp((1/n) A(l'(j/n))).

    `loop(t)` returns whatever point/velocity data the connection sampler
    needs; `connection` returns the matrix A(l'(t)) in a chosen faithful
    representation.
    """
    _require_factors(n)
    import scipy.linalg  # here, not at the top: it is most of the CLI's import time
    out = None
    for j in range(1, n + 1):
        a = np.asarray(connection(loop(j / n)), dtype=complex)
        f = scipy.linalg.expm(a / n)
        out = f if out is None else out @ f
    return out


def ribbon_holonomy(
    loop_family: Callable[[float, float], tuple],
    connection: ConnectionSampler,
    n: int,
    u_nodes: int = 16,
) -> np.ndarray:
    """Ribbon variant: each factor exponentiates the u-average of A(R_u'(t)).

    The transverse average int_0^1 ... du uses Gauss-Legendre nodes.
    """
    _require_factors(n)
    import scipy.linalg  # here, not at the top: it is most of the CLI's import time
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    us = 0.5 * (x + 1.0)
    ws = 0.5 * w
    out = None
    for j in range(1, n + 1):
        t = j / n
        a = None
        for u, wu in zip(us, ws):
            sample = np.asarray(connection(loop_family(t, u)), dtype=complex)
            a = wu * sample if a is None else a + wu * sample
        f = scipy.linalg.expm(a / n)
        out = f if out is None else out @ f
    return out


def scaled_ribbon(
    loop_family: Callable[[float, float], tuple], s: float
) -> Callable[[float, float], tuple]:
    """The width-s subribbon R^(s)(t, u) = R(t, s (u - 1/2) + 1/2)."""
    return lambda t, u: loop_family(t, s * (u - 0.5) + 0.5)


def weight_rep_matrix(ws: WeightSystem, b: Sequence[float]) -> np.ndarray:
    """Matrix of b in the weight basis of the module: diag(2 pi i beta(b)).

    Faithful on the torus whenever the module's weights span the weight
    lattice; enough for the abelian holonomy cross-checks.
    """
    rs = ws.rs
    entries = []
    for labels, m in sorted(ws.multiplicities.items()):
        beta = rs.from_labels(labels)
        entries.extend([2j * math.pi * float(rs.inner(beta, tuple(b)))] * m)
    return np.diag(entries)


# -- closed-form Wilson values -------------------------------------------------


@dataclass(frozen=True)
class VerticalRibbon:
    """A ribbon wrapping the vertical circle `winding` times over one sphere point.

    sigma(t, u) is constant; the S^1 coordinate moves with speed `winding`.
    """

    sigma: tuple
    winding: int

    def loop(self, t: float, u: float) -> tuple:
        return (self.sigma, (0.0,) * len(self.sigma), float(self.winding))


def wilson_closed_form(
    rs: RootSystem,
    ribbons: Sequence[Callable[[float, float], tuple]],
    colors: Sequence[WeightSystem],
    a_form: Callable[[tuple, tuple], Sequence[float]] | None,
    b_field: Callable[[tuple], Sequence[float]],
    t_nodes: int = 256,
    u_nodes: int = 16,
) -> complex:
    """prod_i Tr_{rho_i} exp( int_0^1 ( oint (A_c + B dt) ) du ), via characters.

    Each ribbon sampler maps (t, u) to (sigma, dsigma/dt, dtau/dt); the
    1-form part contributes a_form(sigma, dsigma/dt) and the field part
    B(sigma) * dtau/dt, both t-valued.  The double integral is a uniform
    Riemann sum in t (exact for vertical ribbons) and Gauss in u.
    """
    if len(ribbons) != len(colors):
        raise PreconditionError(
            f"{len(ribbons)} ribbons but {len(colors)} colors"
        )
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    us = 0.5 * (x + 1.0)
    ws = 0.5 * w
    total = 1.0 + 0j
    for ribbon, color in zip(ribbons, colors):
        v = np.zeros(rs.ambient_dim)
        for u, wu in zip(us, ws):
            for j in range(1, t_nodes + 1):
                t = j / t_nodes
                sigma, dsigma, dtau = ribbon(t, u)
                contrib = np.zeros(rs.ambient_dim)
                if a_form is not None:
                    contrib += np.asarray(a_form(sigma, dsigma), dtype=float)
                contrib += float(dtau) * np.asarray(b_field(sigma), dtype=float)
                v += wu * contrib / t_nodes
        total *= character_eval(color, tuple(v))
    return total
