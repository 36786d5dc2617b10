"""Holonomy of t-valued connections, and the closed-form Wilson values.

A t-valued (abelian) connection is sampled as its weight-phase vector: the
diagonal of A in a weight basis of the module (`weight_phases`).  Its
factors commute, so the n-point ordered product
prod_{j=1..n} exp((1/n) A(l'(j/n))) is, entry by entry, exp of the Riemann
sum (1/n) sum_j A(l'(j/n)), and the limit is exp of the loop integral.
Non-abelian (matrix-valued) connections are not handled.

The module is plain Python (`math`, `cmath`) and loads no numpy.  Samplers
take node lists: each is called once with every node and returns n rows,
one per node, or one row (a 1-D vector) for a sample that is the same at
every node, which is used as it is and never copied n times.  Any sequence
or array of these shapes is accepted; results are lists of floats or
complex numbers.

For links whose projected ribbons stay embedded and disjoint, the gauge-
field average of the Wilson loop product has the closed form

    prod_i Tr_{rho_i}( exp( int_0^1 ( oint_{(R_i^(s))_u} (A_c + B dt) ) du ) )

whose argument is t-valued, so each trace is the sum of exp over the
module's weight phases at it (`weight_phases`, the one evaluator of beta(b)).
A t-valued value b is passed as its coweight coordinates x (see `roots`), so
beta(b) = sum_j label_j(beta) x_j.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

from .errors import PreconditionError
from .reps import WeightSystem, weyl_dimension
from .roots import RootSystem

MAX_HOLONOMY_FACTORS = 2**16  # budget of `holonomy`: n factors
MAX_REP_DIM = 256  # budget of the `holonomy` command: dimension of the coloured module
T_NODES = 256  # uniform Riemann sum along each ribbon: exact for trigonometric degree < 256
U_NODES = 16  # Gauss-Legendre nodes across each ribbon


def require_rep_dim(rs: RootSystem, color: Sequence[int]) -> None:
    """Refuse a colour whose module is larger than MAX_REP_DIM, by its exact
    Weyl dimension, before any multiplicity is computed."""
    dim = weyl_dimension(rs, color)
    if dim > MAX_REP_DIM:
        raise PreconditionError(
            f"the module of highest weight {tuple(color)} of {rs.type_label}{rs.rank} has "
            f"dimension {dim}; the budget is {MAX_REP_DIM}"
        )


def _shape(sample) -> tuple[int, ...]:
    """The lengths of `sample`, of its first entry, of that entry's first entry, ...:
    numpy's shape for a regular nested sequence, () for a number."""
    shape = []
    while True:
        try:
            size = len(sample)
        except TypeError:  # a number, or a 0-d array
            return tuple(shape)
        shape.append(size)
        if not size:
            return tuple(shape)
        sample = sample[0]


def _rows(sample, n: int) -> list:
    """A sampler's return as its rows: [sample] for a 1-D sample, else its n rows."""
    shape = _shape(sample)
    if len(shape) == 1:
        return [sample]
    if len(shape) == 2 and shape[0] == n:
        if all(len(row) == shape[1] for row in sample):
            return list(sample)
        shape = "rows of unequal lengths"
    raise PreconditionError(
        f"a sample must be a 1-D vector or an ({n}, dim) array, not {shape}"
    )


def holonomy(connection: Callable[[list[float]], Sequence], n: int) -> list[complex]:
    """Weight phases of prod_{j=1..n} exp((1/n) A(l'(j/n))), as a list.

    `connection(t)` gets the n parameters t = j/n at once, as a list, and
    returns A(l'(t)) as weight-phase vectors (see `weight_phases`), one row per
    parameter, or one row for all.  Column means are taken by `math.fsum`.
    """
    if n < 1:
        raise PreconditionError(f"holonomy needs n >= 1, got {n}")
    if n > MAX_HOLONOMY_FACTORS:
        raise PreconditionError(
            f"holonomy with n = {n} factors; the budget is {MAX_HOLONOMY_FACTORS}"
        )
    rows = _rows(connection([j / n for j in range(1, n + 1)]), n)
    if len(rows) == 1:
        means = rows[0]
    else:
        means = [complex(math.fsum(z.real for z in col), math.fsum(z.imag for z in col)) / n
                 for col in zip(*rows)]
    return [cmath.exp(z) for z in means]


def weight_phases(ws: WeightSystem, x: Sequence[float]) -> list[complex]:
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
    return entries


def weight_trace(v: Sequence[complex]) -> complex:
    """The trace of a diagonal given in `weight_phases` order, each entry added to
    its mirror.  Negation reverses sorted label order, so the weight -beta sits at
    the mirrored index of beta; for a self-dual module the two entries are
    conjugate and the trace is exactly real."""
    pairs = [a + b for a, b in zip(v, reversed(v))]
    return complex(math.fsum(z.real for z in pairs), math.fsum(z.imag for z in pairs)) / 2


# -- closed-form Wilson values -------------------------------------------------


def gauss_legendre(m: int) -> tuple[list[float], list[float]]:
    """The m-point Gauss-Legendre rule on [-1, 1], nodes increasing: each positive
    node by Newton's method on P_m from the three-term recurrence
    j P_j = (2j - 1) z P_{j-1} - (j - 1) P_{j-2}, started at cos(pi (i + 3/4) / (m + 1/2)),
    its weight 2 / ((1 - z^2) P_m'(z)^2), and the negative half by symmetry."""
    nodes, weights = [0.0] * m, [0.0] * m
    for i in range((m + 1) // 2):
        z = math.cos(math.pi * (i + 0.75) / (m + 0.5))
        for _ in range(100):
            p, q = 1.0, 0.0  # P_j(z), P_{j-1}(z)
            for j in range(1, m + 1):
                p, q = ((2 * j - 1) * z * p - (j - 1) * q) / j, p
            dp = m * (z * p - q) / (z * z - 1.0)  # P_m'(z)
            step = p / dp
            z -= step
            if abs(step) <= 1e-16:
                break
        nodes[i], nodes[m - 1 - i] = -z, z
        weights[i] = weights[m - 1 - i] = 2.0 / ((1.0 - z * z) * dp * dp)
    return nodes, weights


def vertical_ribbon(winding: int) -> Callable:
    """A ribbon wrapping the vertical circle `winding` times over one sphere point:
    sigma is constant and the S^1 coordinate moves with speed `winding`."""
    return lambda t, u: ((0.0, 0.0), (0.0, 0.0), float(winding))


def wilson_closed_form(
    ribbons: Sequence[Callable[[list[float], list[float]], tuple]],
    colors: Sequence[WeightSystem],
    a_form: Callable[[Sequence, Sequence], Sequence] | None,
    b_field: Callable[[Sequence], Sequence],
) -> complex:
    """prod_i Tr_{rho_i} exp( int_0^1 ( oint (A_c + B dt) ) du ), via `weight_phases`.

    Each ribbon sampler maps the node lists (t, u) to (sigma, dsigma/dt,
    dtau/dt), dtau/dt a number or one per node; the 1-form part contributes
    a_form(sigma, dsigma/dt) and the field part B(sigma) * dtau/dt, both
    t-valued and in coweight coordinates.  The double integral is a uniform
    Riemann sum over T_NODES in t (exact for vertical ribbons) and Gauss over
    U_NODES in u, each column summed by `math.fsum`; an integrand that is the
    same at every node is one row times the sum of the weights.
    """
    if len(ribbons) != len(colors):
        raise PreconditionError(
            f"{len(ribbons)} ribbons but {len(colors)} colors"
        )
    x, w = gauss_legendre(U_NODES)
    t = [j / T_NODES for j in range(1, T_NODES + 1) for _ in x]
    u = [0.5 * (xk + 1.0) for _ in range(T_NODES) for xk in x]
    weights = [0.5 * wk / T_NODES for _ in range(T_NODES) for wk in w]
    n = len(weights)
    total = 1.0 + 0j
    for ribbon, color in zip(ribbons, colors):
        sigma, dsigma, dtau = ribbon(t, u)
        speeds = [dtau] if _shape(dtau) == () else list(dtau)
        field = _rows(b_field(sigma), n)
        forms = _rows(a_form(sigma, dsigma), n) if a_form is not None else [[0.0] * len(field[0])]
        parts = (speeds, field, forms)
        copies = n if n in map(len, parts) else 1  # one row per node, or one for all
        rows = [[d * f + a for f, a in zip(fr, ar, strict=True)]
                for d, fr, ar in zip(*(p * copies if len(p) == 1 else p for p in parts),
                                     strict=True)]
        if len(rows) == 1:
            integral = [math.fsum(weights) * v for v in rows[0]]
        else:
            integral = [math.fsum(c * v for c, v in zip(weights, col)) for col in zip(*rows)]
        total *= weight_trace([cmath.exp(p) for p in weight_phases(color, integral)])
    return total
