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

The closed forms run in Python floats.  `det_rig_quadrature` evaluates the
integral for the one field a command gives it, a constant one on the round
sphere, and imports numpy only when it runs, so a plain `det` job loads none.
The general rule, for fields that vary over the surface, is the test-side
oracle `sphere_rule` in `tests/test_determinants.py`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import PreconditionError
from .roots import RootSystem, format_vector, is_regular

MAX_QUAD_NODES = 2**21  # budget of `det_rig_quadrature`: n_theta * n_phi nodes
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


def det_rig_quadrature(rs: RootSystem, x: Sequence, n_theta: int, n_phi: int) -> float:
    """Quadrature of the regularized determinant of the constant field x on the unit
    round sphere (R_g = 2), by the Gauss-Legendre x uniform product rule on an
    n_theta x n_phi grid.

    The field is the same at every node, so the root logarithms are summed once and
    that sum is weighted by w_i R_g/(4 pi) at the nodes: by Gauss-Bonnet the value is
    det_half(b)^2, up to the rounding of the weights.  A field with some alpha(B)
    within SINGULAR_TOL of an integer is rejected at grid node 0.  A non-negligible
    imaginary residue raises, since the value on a closed surface is real.
    """
    if n_theta * n_phi > MAX_QUAD_NODES:
        raise PreconditionError(
            f"a {n_theta}x{n_phi} quadrature grid has {n_theta * n_phi} nodes; "
            f"the budget is {MAX_QUAD_NODES}"
        )
    import numpy as np

    cos_theta, w = np.polynomial.legendre.leggauss(n_theta)
    pairs = np.array([float(v) for v in x]) @ np.array(rs.positive_root_labels, dtype=float).T
    singular = np.abs(pairs - np.round(pairs)) <= SINGULAR_TOL
    if singular.any():
        r = int(np.argmax(singular))  # the first singular root
        raise PreconditionError(
            f"field is singular at grid node 0 (coords {(float(np.arccos(cos_theta[0])), 0.0)}, "
            f"alpha(B) = {float(pairs[r])!r})"
        )
    # log(2 sin(pi alpha(B))) on the principal branch: ln|.|, plus i pi on the negatives
    two_sin = 2.0 * np.sin(math.pi * pairs)
    logs = np.log(np.abs(two_sin)).sum() + 1j * math.pi * (two_sin < 0).sum()
    weights = (np.repeat(w[:, None], n_phi, axis=1) * (2.0 * math.pi / n_phi)).ravel()
    value = np.exp((weights * 2.0 / (4.0 * math.pi) * logs).sum())
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise PreconditionError(
            f"determinant came out non-real ({value!r}); the field crosses the "
            "singular set between grid nodes"
        )
    return float(value.real)
