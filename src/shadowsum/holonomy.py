"""Holonomy of t-valued connections, and the closed-form Wilson values.

A t-valued (abelian) connection is sampled as its weight-phase vector: the
diagonal of A in a weight basis of the module (`weight_phases`).  Its
factors commute, so the n-point ordered product
prod_{j=1..n} exp((1/n) A(l'(j/n))) is, entry by entry, exp of the Riemann
sum (1/n) sum_j A(l'(j/n)), and the limit is exp of the loop integral.
Non-abelian (matrix-valued) connections are not handled.

Samplers take node arrays, as `det_rig_quadrature`'s do: each is called
once with every node and returns an (N, dim) array, or a (dim,) array for a
sample that is the same at every node (broadcast, never copied N times).

For links whose projected ribbons stay embedded and disjoint, the gauge-
field average of the Wilson loop product has the closed form

    prod_i Tr_{rho_i}( exp( int_0^1 ( oint_{(R_i^(s))_u} (A_c + B dt) ) du ) )

whose argument is t-valued, so each trace is the sum of exp over the
module's weight phases at it (`weight_phases`, the one evaluator of beta(b)).
A t-valued value b is passed as its coweight coordinates x (see `roots`), so
beta(b) = sum_j label_j(beta) x_j.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .reps import WeightSystem, weyl_dimension
from .roots import RootSystem

MAX_HOLONOMY_FACTORS = 2**16  # budget of `holonomy`: n factors
MAX_REP_DIM = 256  # budget of the `holonomy` command: dimension of the coloured module
T_NODES = 256  # uniform Riemann sum along each ribbon: exact for trigonometric degree < 256
U_NODES = 16  # Gauss-Legendre nodes across each ribbon


def require_rep_dim(rs: RootSystem, color: Sequence[int]) -> None:
    """Refuse a colour whose module is larger than MAX_REP_DIM, by its exact
    Weyl dimension, before any multiplicity or dim x dim matrix is built."""
    dim = weyl_dimension(rs, color)
    if dim > MAX_REP_DIM:
        raise PreconditionError(
            f"the module of highest weight {tuple(color)} of {rs.type_label}{rs.rank} has "
            f"dimension {dim}; the budget is {MAX_REP_DIM}"
        )


def _rows(sample, n: int) -> np.ndarray:
    """A sampler's return as an (n, dim) array; a (dim,) sample is a broadcast view."""
    sample = np.asarray(sample)
    if sample.ndim == 1 or (sample.ndim == 2 and sample.shape[0] == n):
        return np.broadcast_to(sample, (n, sample.shape[-1]))
    raise PreconditionError(
        f"a sample must be a 1-D vector or an ({n}, dim) array, not {sample.shape}"
    )


def holonomy(connection: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """Weight phases of prod_{j=1..n} exp((1/n) A(l'(j/n))), as a 1-D vector.

    `connection(t)` gets the n parameters t = j/n at once and returns A(l'(t))
    as weight-phase vectors (see `weight_phases`), one row per parameter.
    """
    if n < 1:
        raise PreconditionError(f"holonomy needs n >= 1, got {n}")
    if n > MAX_HOLONOMY_FACTORS:
        raise PreconditionError(
            f"holonomy with n = {n} factors; the budget is {MAX_HOLONOMY_FACTORS}"
        )
    phases = _rows(np.asarray(connection(np.arange(1, n + 1) / n), dtype=complex), n)
    return np.exp(phases.sum(axis=0) / n)


def weight_phases(ws: WeightSystem, x: Sequence[float]) -> np.ndarray:
    """b in the weight basis of the module, as its diagonal: 2 pi i beta(b) for
    every weight beta, repeated by multiplicity, in sorted label order.

    beta(b) = sum_j label_j(beta) x_j for b with coweight coordinates x: exact
    for rational x."""
    if len(x) != ws.rs.rank:
        raise PreconditionError(f"expected {ws.rs.rank} coweight coordinates, got {len(x)}")
    entries = []
    for labels, m in sorted(ws.multiplicities.items()):
        beta_b = sum(c * p for c, p in zip(labels, x))
        entries.extend([2j * math.pi * float(beta_b)] * m)
    return np.array(entries)


def weight_trace(v: np.ndarray) -> complex:
    """The trace of a diagonal given in `weight_phases` order, each entry added to
    its mirror.  Negation reverses sorted label order, so the weight -beta sits at
    the mirrored index of beta; for a self-dual module the two entries are
    conjugate and the trace is exactly real."""
    return complex((v + v[::-1]).sum() / 2)


# -- closed-form Wilson values -------------------------------------------------


def vertical_ribbon(winding: int) -> Callable:
    """A ribbon wrapping the vertical circle `winding` times over one sphere point:
    sigma is constant and the S^1 coordinate moves with speed `winding`."""
    return lambda t, u: ((0.0, 0.0), (0.0, 0.0), float(winding))


def wilson_closed_form(
    ribbons: Sequence[Callable[[np.ndarray, np.ndarray], tuple]],
    colors: Sequence[WeightSystem],
    a_form: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    b_field: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """prod_i Tr_{rho_i} exp( int_0^1 ( oint (A_c + B dt) ) du ), via `weight_phases`.

    Each ribbon sampler maps the grid arrays (t, u) to (sigma, dsigma/dt,
    dtau/dt); the 1-form part contributes a_form(sigma, dsigma/dt) and the
    field part B(sigma) * dtau/dt, both t-valued and in coweight coordinates.
    The double integral is a uniform Riemann sum over T_NODES in t (exact for
    vertical ribbons) and Gauss over U_NODES in u.
    """
    if len(ribbons) != len(colors):
        raise PreconditionError(
            f"{len(ribbons)} ribbons but {len(colors)} colors"
        )
    x, w = np.polynomial.legendre.leggauss(U_NODES)
    t, u = np.meshgrid(np.arange(1, T_NODES + 1) / T_NODES, 0.5 * (x + 1.0), indexing="ij")
    weights = np.tile(0.5 * w / T_NODES, T_NODES)
    total = 1.0 + 0j
    for ribbon, color in zip(ribbons, colors):
        sigma, dsigma, dtau = ribbon(t.ravel(), u.ravel())
        field = np.asarray(b_field(sigma), dtype=float)
        integrand = np.asarray(dtau, dtype=float)[..., None] * field
        if a_form is not None:
            integrand = integrand + np.asarray(a_form(sigma, dsigma), dtype=float)
        integral = weights @ _rows(integrand, weights.size)
        total *= weight_trace(np.exp(weight_phases(color, integral)))
    return total
