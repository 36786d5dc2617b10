"""Holonomy of t-valued connections, and the closed-form Wilson values.

A t-valued (abelian) connection is sampled as its weight-phase vector: the
diagonal of A in a weight basis of the module (`weight_phases`).  Its
factors commute, so the n-point ordered product
prod_{j=1..n} exp((1/n) A(l'(j/n))) is, entry by entry, exp of the Riemann
sum (1/n) sum_j A(l'(j/n)), and the limit is exp of the loop integral.  The
ribbon variant averages the sample over the transverse parameter inside
each factor.  Non-abelian (matrix-valued) connections are not handled.

For links whose projected ribbons stay embedded and disjoint, the gauge-
field average of the Wilson loop product has the closed form

    prod_i Tr_{rho_i}( exp( int_0^1 ( oint_{(R_i^(s))_u} (A_c + B dt) ) du ) )

whose argument is t-valued; traces are evaluated through characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def _exp_riemann_sum(samples: Iterable[np.ndarray], n: int) -> np.ndarray:
    """exp((1/n) sum_j a_j) for weight-phase vectors a_j: the ordered product
    of n commuting diagonal factors exp(a_j / n), entry by entry."""
    total = np.asarray(sum(np.asarray(a, dtype=complex) for a in samples))
    if total.ndim != 1:
        raise PreconditionError(f"a connection sample must be a 1-D phase vector, not {total.shape}")
    return np.exp(total / n)


def holonomy(loop: LoopSampler, connection: ConnectionSampler, n: int) -> np.ndarray:
    """Weight phases of prod_{j=1..n} exp((1/n) A(l'(j/n))), as a 1-D vector.

    `loop(t)` returns whatever point/velocity data the connection sampler
    needs; `connection` returns A(l'(t)) as its weight-phase vector (see
    `weight_phases`).
    """
    _require_factors(n)
    return _exp_riemann_sum((connection(loop(j / n)) for j in range(1, n + 1)), n)


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
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    us = 0.5 * (x + 1.0)
    ws = 0.5 * w
    averages = (
        np.tensordot(ws, [connection(loop_family(j / n, u)) for u in us], axes=1)
        for j in range(1, n + 1)
    )
    return _exp_riemann_sum(averages, n)


def weight_phases(ws: WeightSystem, b: Sequence[float]) -> np.ndarray:
    """b in the weight basis of the module, as its diagonal: 2 pi i beta(b) for
    every weight beta, repeated by multiplicity, in sorted label order.

    beta(b) = sum_i label_i(beta) <omega_i, b>: exact for rational b."""
    rs = ws.rs
    pairings = [rs.inner(w, tuple(b)) for w in rs.fundamental_weights]
    entries = []
    for labels, m in sorted(ws.multiplicities.items()):
        beta_b = sum(c * p for c, p in zip(labels, pairings))
        entries.extend([2j * math.pi * float(beta_b)] * m)
    return np.array(entries)


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
                sigma, dsigma, dtau = ribbon(j / t_nodes, u)
                contrib = float(dtau) * np.asarray(b_field(sigma), dtype=float)
                if a_form is not None:
                    contrib = np.asarray(a_form(sigma, dsigma), dtype=float) + contrib
                v += wu * contrib / t_nodes
        total *= character_eval(color, tuple(v))
    return total
