"""Closed forms and quadrature for the torus-gauge determinant kernels.

For b in the Cartan subalgebra,

    det(id_k - e^{ad b}|_k)        = prod_{alpha>0} 4 sin^2(pi alpha(b))
    det^{1/2}(id_k - e^{ad b}|_k)  = prod_{alpha>0} 2 sin(pi alpha(b))

(the half-power keeps its sign; only its square is the full determinant).
The regularized determinant of a t-valued field B on a closed surface is

    prod_{alpha>0} exp( int log(2 sin(pi alpha(B))) R_g/(4 pi) dmu_g )

with log the principal branch restricted to the nonzero reals.  Constant
fields reduce to det(...)^{chi/2} by Gauss-Bonnet; step fields reduce to
face-wise half-power determinants raised to the face Euler numbers,
provided the metric gives the projected ribbons vanishing geodesic
curvature (the standing metric assumption), so that the curvature measure
of each face is 4 pi chi(face).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .diagrams import ShadowDiagram
from .errors import PreconditionError
from .roots import RootSystem, format_vector, is_regular

MAX_QUAD_NODES = 2**21  # budget of `round_sphere_metric`: n_theta * n_phi nodes


def _pairings(rs: RootSystem, b: Sequence) -> list[float]:
    """alpha(b) for every positive root, as floats."""
    return [float(rs.inner(alpha, tuple(b))) for alpha in rs.positive_roots]


def det_k(rs: RootSystem, b: Sequence) -> float:
    """prod_{alpha>0} 4 sin^2(pi alpha(b)); vanishes on singular b."""
    out = 1.0
    for x in _pairings(rs, b):
        out *= 4.0 * math.sin(math.pi * x) ** 2
    return out


def det_half(rs: RootSystem, b: Sequence) -> float:
    """Signed half-power prod_{alpha>0} 2 sin(pi alpha(b)); its square is det_k."""
    out = 1.0
    for x in _pairings(rs, b):
        out *= 2.0 * math.sin(math.pi * x)
    return out


def det_rig_constant(rs: RootSystem, b: Sequence, chi: int) -> float:
    """det_k(b)^(chi/2) for a constant regular field on a surface of Euler number chi.

    A power that is not a finite positive double (large |chi|) is refused.
    """
    if not is_regular(rs, tuple(b)):
        raise PreconditionError(f"constant field value {format_vector(b)} is singular")
    try:
        out = det_k(rs, b) ** (chi / 2.0)
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise PreconditionError(
            f"det_k(b)^(chi/2) at chi = {chi} is not a finite positive double ({out})"
        )
    return out


@dataclass(frozen=True)
class SteppedField:
    """A t-valued field constant on each face of a diagram.

    `values[i]` is the (rational) ambient coordinate tuple on face i, in the
    diagram's face order.  The empty diagram makes this a constant field on
    the bare sphere.
    """

    diagram: ShadowDiagram
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.values) != len(self.diagram.faces):
            raise PreconditionError(
                f"stepped field needs one value per face: got {len(self.values)} "
                f"values for {len(self.diagram.faces)} faces"
            )

    @staticmethod
    def constant(diagram_or_b, b: Sequence | None = None) -> "SteppedField":
        """SteppedField.constant(b) for the bare sphere, or (diagram, b)."""
        from .diagrams import build_diagram

        if b is None:
            diagram, b = build_diagram([]), diagram_or_b
        else:
            diagram = diagram_or_b
        v = tuple(Fraction(x) for x in b)
        return SteppedField(diagram=diagram, values=(v,) * len(diagram.faces))


def det_rig_step(rs: RootSystem, field: SteppedField) -> float:
    """prod_faces det_half(b_face)^chi(face); rejects singular face values."""
    out = 1.0
    for face, b in zip(field.diagram.faces, field.values):
        if not is_regular(rs, b):
            raise PreconditionError(
                f"face {face.face_id!r} carries the singular value {format_vector(b)}"
            )
        out *= det_half(rs, b) ** face.euler
    return out


# -- quadrature on surfaces ---------------------------------------------------


@dataclass(frozen=True)
class SphereMetricSample:
    """Quadrature data for a closed surface: nodes, weights, curvature samples.

    `nodes` is an (n, 2) array of (theta, phi)-style coordinates handed to
    field samplers; `weights` integrates smooth functions against the area
    measure; `scalar_curvature` holds R_g at the nodes.  The weights must
    reproduce the total area, and the curvature integral must equal
    4 pi chi by Gauss-Bonnet.
    """

    nodes: np.ndarray
    weights: np.ndarray
    scalar_curvature: np.ndarray
    area: float
    euler: int

    def validate(self, area_tol: float = 1e-8, curv_tol: float = 1e-6) -> None:
        mass = float(self.weights.sum())
        if abs(mass - self.area) > area_tol:
            raise PreconditionError(
                f"quadrature mass {mass!r} differs from declared area {self.area!r}"
            )
        total_curv = float(self.weights @ self.scalar_curvature)
        if abs(total_curv - 4.0 * math.pi * self.euler) > curv_tol:
            raise PreconditionError(
                f"curvature integral {total_curv!r} != 4 pi chi = "
                f"{4.0 * math.pi * self.euler!r}"
            )


def round_sphere_metric(n_theta: int = 64, n_phi: int = 128) -> SphereMetricSample:
    """Gauss-Legendre x uniform product rule on the unit round sphere (R_g = 2)."""
    if n_theta * n_phi > MAX_QUAD_NODES:
        raise PreconditionError(
            f"a {n_theta}x{n_phi} quadrature grid has {n_theta * n_phi} nodes; "
            f"the budget is {MAX_QUAD_NODES}"
        )
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


def flat_torus_metric(n: int = 32) -> SphereMetricSample:
    """Zero-curvature diagnostics grid (chi = 0); kills the determinant integrand."""
    u = (np.arange(n) + 0.5) / n
    uu, vv = np.meshgrid(u, u, indexing="ij")
    nodes = np.stack([uu.ravel(), vv.ravel()], axis=1)
    weights = np.full(nodes.shape[0], 1.0 / (n * n))
    curv = np.zeros(nodes.shape[0])
    return SphereMetricSample(nodes=nodes, weights=weights, scalar_curvature=curv,
                              area=1.0, euler=0)


def _principal_log_2sin(x: np.ndarray) -> np.ndarray:
    """log(x) for real nonzero x: ln|x| + i pi on the negatives."""
    out = np.log(np.abs(x)).astype(complex)
    out += 1j * math.pi * (x < 0)
    return out


def det_rig_quadrature(
    rs: RootSystem,
    sampler: Callable[[np.ndarray, np.ndarray], np.ndarray],
    metric: SphereMetricSample,
    singular_tol: float = 1e-12,
) -> float:
    """Quadrature evaluation of the regularized determinant of a smooth field.

    sampler(theta, phi) maps the node coordinate arrays to the ambient
    coordinates of B: an (n, dim) array, or a (dim,) one that broadcasts (a
    constant field).  Any node where some alpha(B) is within singular_tol of
    an integer is rejected (named in the error).  On a closed surface the
    result is real; a non-negligible imaginary residue raises, since it
    signals a field that is not regular across the whole grid.
    """
    metric.validate()
    sample = np.asarray(sampler(metric.nodes[:, 0], metric.nodes[:, 1]), dtype=float)
    values = np.broadcast_to(sample, (metric.nodes.shape[0], rs.ambient_dim))
    scale = float(rs.form_scale)
    rweight = metric.weights * metric.scalar_curvature / (4.0 * math.pi)
    total = 0j
    for alpha in rs.positive_roots:
        av = np.array([float(x) for x in alpha]) * scale
        pair = values @ av
        dist = np.abs(pair - np.round(pair))
        if np.any(dist <= singular_tol):
            i = int(np.argmin(dist))
            raise PreconditionError(
                f"field is singular at grid node {i} "
                f"(coords {tuple(metric.nodes[i])}, alpha(B) = {pair[i]!r})"
            )
        total += rweight @ _principal_log_2sin(2.0 * np.sin(math.pi * pair))
    value = np.exp(total)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise PreconditionError(
            f"determinant came out non-real ({value!r}); the field crosses the "
            "singular set between grid nodes"
        )
    return float(value.real)
