"""Closed forms and quadrature for the torus-gauge determinant kernels.

A field value b in the Cartan subalgebra is passed as its coweight
coordinates x (`roots.RootSystem.coweight_coordinates`), so every alpha(b)
is a label combination of x.  For such b,

    det(id_k - e^{ad b}|_k)        = prod_{alpha>0} 4 sin^2(pi alpha(b))
    det^{1/2}(id_k - e^{ad b}|_k)  = prod_{alpha>0} 2 sin(pi alpha(b))

(the half-power keeps its sign; only its square is the full determinant).
The regularized determinant of a t-valued field B on a closed surface is

    prod_{alpha>0} exp( int log(2 sin(pi alpha(B))) R_g/(4 pi) dmu_g )

with log the principal branch restricted to the nonzero reals.  Constant
fields reduce to det^{1/2}(...)^chi by Gauss-Bonnet, which is det(...)^{chi/2}
for even chi and keeps the half-power's sign for odd chi; step fields reduce to
face-wise half-power determinants raised to the face Euler numbers
(`regularize.det_rig_step`), provided the metric gives the projected
ribbons vanishing geodesic curvature (the standing metric assumption), so
that the curvature measure of each face is 4 pi chi(face).

The closed forms and the quadrature run in Python floats (`math`, `cmath`), so
no `det` job loads numpy.  `det_rig_quadrature` evaluates the integral for the
one field a command gives it, a constant one on the round sphere, on the
Gauss-Legendre rule of `gauss_legendre`.  The general rule, for fields that
vary over the surface, is the test-side oracle `sphere_rule` in
`tests/test_determinants.py`, which also checks `gauss_legendre` against
numpy's `leggauss`.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from .errors import PreconditionError
from .roots import RootSystem, format_vector, is_regular

MAX_QUAD_NODES = 2**21  # budget of `det_rig_quadrature`: n_theta * n_phi nodes
MAX_QUAD_THETA = 2048  # budget of its Gauss-Legendre order, O(n^2) time: 0.25-0.4 s on 2 vCPUs
SINGULAR_TOL = 1e-12  # distance of alpha(B) from an integer that counts as singular


def root_sines(rs: RootSystem, x: Sequence) -> list[float]:
    """[2 sin(pi alpha(b))] per positive root, in `root_pairings` order, at b with coweight
    coordinates x: the one evaluator of the root sine."""
    return [2.0 * math.sin(math.pi * float(v)) for v in rs.root_pairings(x)]


def det_k(rs: RootSystem, x: Sequence) -> float:
    """prod_{alpha>0} 4 sin^2(pi alpha(b)) at b with coweight coordinates x; vanishes on
    singular b."""
    return math.prod(s ** 2 for s in root_sines(rs, x))


def det_half(rs: RootSystem, x: Sequence) -> float:
    """Signed half-power prod_{alpha>0} 2 sin(pi alpha(b)); its square is det_k."""
    return math.prod(root_sines(rs, x))


def det_rig_constant(rs: RootSystem, x: Sequence, chi: int) -> float:
    """det_half(b)^chi for a constant regular field on a surface of Euler number chi,
    computed as det_k(b)^(chi/2) for even chi; an odd power keeps the sign of det_half.

    A power that is not a finite nonzero double (large |chi|) is refused.
    """
    if not is_regular(rs, x):
        raise PreconditionError(f"constant field value x = {format_vector(x)} is singular")
    try:
        out = det_k(rs, x) ** (chi / 2.0) if chi % 2 == 0 else det_half(rs, x) ** chi
    except (OverflowError, ZeroDivisionError):  # a root sine that rounds to 0, chi < 0
        out = math.inf
    if not 0.0 < abs(out) < math.inf:
        raise PreconditionError(
            f"det_half(b)^chi at chi = {chi} is not a finite nonzero double ({out})"
        )
    return out


# -- quadrature on the round sphere ------------------------------------------


def gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes increasing: each positive
    node by Newton's method on P_n from the three-term recurrence
    j P_j = (2j - 1) z P_{j-1} - (j - 1) P_{j-2}, started at cos(pi (i + 3/4) / (n + 1/2)),
    its weight 2 / ((1 - z^2) P_n'(z)^2), and the negative half by symmetry.
    O(n^2) time and O(n) memory."""
    coeffs = [((2 * j - 1) / j, (j - 1) / j) for j in range(1, n + 1)]
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, q = 1.0, 0.0  # P_j(z), P_{j-1}(z)
            for a, c in coeffs:
                p, q = a * z * p - c * q, p
            dp = n * (z * p - q) / (z * z - 1.0)  # P_n'(z)
            step = p / dp
            z -= step
            if abs(step) <= 1e-16:
                break
        nodes[i], nodes[n - 1 - i] = -z, z
        weights[i] = weights[n - 1 - i] = 2.0 / ((1.0 - z * z) * dp * dp)
    return nodes, weights


def det_rig_quadrature(rs: RootSystem, x: Sequence, n_theta: int, n_phi: int) -> float:
    """Quadrature of the regularized determinant of the constant field x on the unit
    round sphere (R_g = 2), by the Gauss-Legendre x uniform product rule on an
    n_theta x n_phi grid.

    The field is the same at every node, so the root logarithms are summed once and
    that sum is weighted by R_g/(4 pi) times the total weight of the rule: the n_phi
    equal weights of the uniform rule sum to 2 pi and the Gauss-Legendre weights to
    2, so by Gauss-Bonnet the value is det_half(b)^2, up to the rounding of the
    weights.  The grid is never built.  A grid past MAX_QUAD_NODES nodes, an empty
    one or an order past MAX_QUAD_THETA is refused before any node is computed.  A field with some
    alpha(B) within SINGULAR_TOL of an integer is rejected at grid node 0.  A
    non-negligible imaginary residue raises, since the value on a closed surface is
    real.
    """
    if n_theta * n_phi > MAX_QUAD_NODES:
        raise PreconditionError(
            f"a {n_theta}x{n_phi} quadrature grid has {n_theta * n_phi} nodes; "
            f"the budget is {MAX_QUAD_NODES}"
        )
    if n_theta < 1 or n_phi < 1:
        raise PreconditionError(f"a {n_theta}x{n_phi} quadrature grid has no nodes")
    if n_theta > MAX_QUAD_THETA:
        raise PreconditionError(
            f"a Gauss-Legendre rule of order n_theta = {n_theta} takes O(n_theta^2) time; "
            f"the budget is {MAX_QUAD_THETA}"
        )
    cos_theta, w = gauss_legendre(n_theta)
    for pair in map(float, rs.root_pairings(x)):
        if abs(pair - round(pair)) <= SINGULAR_TOL:  # the first singular root
            raise PreconditionError(
                f"field is singular at grid node 0 (coords {(math.acos(cos_theta[0]), 0.0)}, "
                f"alpha(B) = {pair!r})"
            )
    # log(2 sin(pi alpha(B))) on the principal branch: ln|.|, plus i pi on the negatives
    two_sin = root_sines(rs, x)
    logs = complex(math.fsum(math.log(abs(s)) for s in two_sin),
                   math.pi * sum(s < 0 for s in two_sin))
    value = cmath.exp(2.0 / (4.0 * math.pi) * (2.0 * math.pi) * math.fsum(w) * logs)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise PreconditionError(
            f"determinant came out non-real ({value!r}); the field crosses the "
            "singular set between grid nodes"
        )
    return value.real
