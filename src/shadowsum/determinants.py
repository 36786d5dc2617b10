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

The closed forms run in Python floats; numpy is imported only inside the
quadrature (`round_sphere_metric`, `det_rig_quadrature`), so a plain `det`
job loads none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import PreconditionError
from .roots import RootSystem, format_vector, is_regular

if TYPE_CHECKING:
    from numpy import ndarray

MAX_QUAD_NODES = 2**21  # budget of `round_sphere_metric`: n_theta * n_phi nodes
AREA_TOL = 1e-8  # quadrature mass against the declared area
CURVATURE_TOL = 1e-6  # curvature integral against 4 pi chi (Gauss-Bonnet)
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


# -- quadrature on surfaces ---------------------------------------------------


class SphereMetricSample(NamedTuple):
    """Quadrature data for a closed surface: nodes, weights, curvature samples.

    `nodes` is an (n, 2) array of (theta, phi)-style coordinates handed to
    field samplers; `weights` integrates smooth functions against the area
    measure; `scalar_curvature` holds R_g at the nodes.  The weights must
    reproduce the total area, and the curvature integral must equal
    4 pi chi by Gauss-Bonnet.
    """

    nodes: ndarray
    weights: ndarray
    scalar_curvature: ndarray
    area: float
    euler: int

    def validate(self) -> None:
        mass = float(self.weights.sum())
        if abs(mass - self.area) > AREA_TOL:
            raise PreconditionError(
                f"quadrature mass {mass!r} differs from declared area {self.area!r}"
            )
        total_curv = float(self.weights @ self.scalar_curvature)
        if abs(total_curv - 4.0 * math.pi * self.euler) > CURVATURE_TOL:
            raise PreconditionError(
                f"curvature integral {total_curv!r} != 4 pi chi = "
                f"{4.0 * math.pi * self.euler!r}"
            )


def round_sphere_metric(n_theta: int, n_phi: int) -> SphereMetricSample:
    """Gauss-Legendre x uniform product rule on the unit round sphere (R_g = 2)."""
    if n_theta * n_phi > MAX_QUAD_NODES:
        raise PreconditionError(
            f"a {n_theta}x{n_phi} quadrature grid has {n_theta * n_phi} nodes; "
            f"the budget is {MAX_QUAD_NODES}"
        )
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n_theta)  # x = cos(theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ww = np.repeat(w[:, None], n_phi, axis=1) * (2.0 * math.pi / n_phi)
    nodes = np.stack([tt.ravel(), pp.ravel()], axis=1)
    weights = ww.ravel()
    curv = np.full(nodes.shape[0], 2.0)
    return SphereMetricSample(
        nodes=nodes, weights=weights, scalar_curvature=curv,
        area=4.0 * math.pi, euler=2,
    )


def det_rig_quadrature(
    rs: RootSystem,
    sampler: Callable[[ndarray, ndarray], ndarray],
    metric: SphereMetricSample,
) -> float:
    """Quadrature evaluation of the regularized determinant of a smooth field.

    sampler(theta, phi) maps the node coordinate arrays to the coweight
    coordinates x of B: an (n, rank) array, or a (rank,) one for a constant
    field.  Every alpha(B) comes from one product of x with the (rank, |R+|)
    label matrix, so a constant field has one row of |R+| pairings.  Each
    row's logarithms are summed over the roots, and only that sum is
    broadcast to the nodes and weighted.  A node where some alpha(B) is
    within SINGULAR_TOL of an integer is rejected: the error names, for the
    first such root, the node where alpha(B) lies nearest an integer.  On a
    closed surface the result is real; a non-negligible imaginary residue
    raises, since it signals a field that is not regular across the whole grid.
    """
    import numpy as np

    metric.validate()
    n = metric.nodes.shape[0]
    sample = np.asarray(sampler(metric.nodes[:, 0], metric.nodes[:, 1]), dtype=float)
    labels = np.array(rs.positive_root_labels, dtype=float).T
    pairs = sample @ labels  # (|R+|,) for a constant field, else (n, |R+|)
    dist = np.abs(pairs - np.round(pairs))
    singular = dist <= SINGULAR_TOL
    if singular.any():
        pairs, dist, singular = (np.broadcast_to(a, (n, labels.shape[1]))
                                 for a in (pairs, dist, singular))
        r = int(np.argmax(singular.any(axis=0)))
        i = int(np.argmin(dist[:, r]))
        raise PreconditionError(
            f"field is singular at grid node {i} "
            f"(coords {tuple(metric.nodes[i].tolist())}, alpha(B) = {float(pairs[i, r])!r})"
        )
    # log(2 sin(pi alpha(B))) on the principal branch: ln|.|, plus i pi on the negatives
    two_sin = 2.0 * np.sin(math.pi * pairs)
    logs = np.log(np.abs(two_sin)).sum(axis=-1) + 1j * math.pi * (two_sin < 0).sum(axis=-1)
    rweight = metric.weights * metric.scalar_curvature / (4.0 * math.pi)
    total = (rweight * logs).sum()
    value = np.exp(total)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise PreconditionError(
            f"determinant came out non-real ({value!r}); the field crosses the "
            "singular set between grid nodes"
        )
    return float(value.real)
