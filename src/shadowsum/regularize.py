"""Regularization sequences for the indicator of the regular set and the
determinant: trigonometric-polynomial cutoffs and polynomial exp/log.

Fields are stepped (`SteppedField`): one exact value per face of a
diagram, in coweight coordinates x (see `roots`).  The n-th stage works on
the n-th barycentric refinement of a face mesh compatible with the diagram,
simulated combinatorially: every face is subdivided fourfold per step, so
stage n has N_n = max(1, #faces) * 4^n cells and each cell inherits its
face's (exact) field value.

Indicator.  A smooth 1-periodic bump psi_n vanishes exactly on the
integers and equals 1 outside the 1/(4n)-neighborhood of them; its
truncated Fourier series p_n, recentred so that p_n(0) = 0, is the
cell-wise cutoff.  The stage value is

    prod_{cells F} prod_{alpha>0} pbar_n(alpha(B(F)))

which is exactly zero as soon as some alpha(B(F)) is an integer (arguments
are reduced mod 1 in exact rational arithmetic before evaluation), and
tends to 1 on fields bounded away from the singular set.

Determinant.  exp is replaced by its degree-n Taylor polynomial and log by
a polynomial log^(n) converging uniformly to the principal log on the compact
pieces of [-2, -1/n] u [1/n, 2]; the integral reduces to Euler-number
weights per face under the standing metric assumption.  By parity log^(n)
is built from two real Chebyshev interpolants in y = x^2 on [1/n^2, 4],
whose error on [1/n, 2] also bounds it on [-2, -1/n] (see `log_poly`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .determinants import det_rig_constant, root_sines
from .diagrams import ShadowDiagram, build_diagram
from .errors import PreconditionError
from .roots import RootSystem, format_vector, is_regular

# -- stepped fields -----------------------------------------------------------


class SteppedField:
    """A t-valued field constant on each face of a diagram.

    `values[i]` is the (rational) coweight coordinate tuple x on face i, in the
    diagram's face order.  The empty diagram makes this a constant field on
    the bare sphere.
    """

    __slots__ = ("diagram", "values")

    def __init__(self, diagram: ShadowDiagram, values: tuple[tuple[Fraction, ...], ...]):
        if len(values) != len(diagram.faces):
            raise PreconditionError(
                f"stepped field needs one value per face: got {len(values)} "
                f"values for {len(diagram.faces)} faces"
            )
        self.diagram, self.values = diagram, values

    @staticmethod
    def constant(x: Sequence) -> SteppedField:
        """The constant field with coweight coordinates x on the bare sphere."""
        return SteppedField(diagram=build_diagram([]), values=(tuple(Fraction(v) for v in x),))


def det_rig_step(rs: RootSystem, field: SteppedField) -> float:
    """prod_faces det_half(b_face)^chi(face), the limit of `det_rig_n` as n grows: the
    product of the faces' constant-field values (`det_rig_constant`), which refuses a
    power that is not a finite nonzero double; rejects singular face values."""
    out = 1.0
    for face, x in zip(field.diagram.faces, field.values):
        if not is_regular(rs, x):
            raise PreconditionError(
                f"face {face.face_id!r} carries the singular value x = {format_vector(x)}"
            )
        out *= det_rig_constant(rs, x, face.euler)
    return out


# -- smooth periodic bump and its trig-polynomial approximation ---------------

_BUMP_C = 0.25  # transition fits inside the C/n-neighborhood of the integers
# Accuracy floor of `trig_cutoff`: double precision does not reach below it, so
# no cutoff records a smaller sup error.
CUTOFF_FLOOR = 1e-12


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 at t <= 0, 1 at t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return f / (f + g)


def bump(n: int, x: np.ndarray) -> np.ndarray:
    """psi_n: 1-periodic, 0 exactly on Z, 1 at distance >= 1/(4n) from Z."""
    s0 = math.sin(math.pi * _BUMP_C / n) ** 2
    return _smooth_step(np.sin(math.pi * x) ** 2 / s0)


class TrigCutoff:
    """Recentred truncated Fourier series of the bump, pbar_n = p_n - p_n(0).

    Guarantees pbar_n(m) = 0 exactly for integer m; `sup_error` is the
    measured uniform distance to psi_n on a dense grid, at least CUTOFF_FLOOR.
    """

    def __init__(self, n: int, coeffs: np.ndarray, sup_error: float):
        self.n = n
        self.coeffs = coeffs  # cosine coefficients, constant recentred
        self.sup_error = sup_error

    def __call__(self, x: Fraction | float) -> float:
        x = x - math.floor(x)  # exact for Fraction and float alike
        if x == 0:
            return 0.0
        m = np.arange(len(self.coeffs))
        return float(self.coeffs @ np.cos(2.0 * math.pi * m * float(x)))


def trig_cutoff(n: int) -> TrigCutoff:
    """Build pbar_n from the whole cosine series of one 2^13-point FFT of psi_n.

    The error is measured once, on a grid four times as fine, and floored at
    CUTOFF_FLOOR, which double precision does not reach below.
    """
    K = 1 << 13
    spectrum = np.fft.rfft(bump(n, np.arange(K) / K)) / K
    a = 2.0 * spectrum.real  # psi is even: cosine series
    a[0] = spectrum[0].real
    a[0] -= a.sum()  # recentre: pbar = p - p(0) vanishes at the integers
    dense_n = 4 * K
    z = np.zeros(dense_n // 2 + 1, dtype=complex)
    z[0] = a[0] * dense_n
    z[1 : len(a)] = a[1:] * (dense_n / 2.0)
    vals = np.fft.irfft(z, n=dense_n)
    err = float(np.max(np.abs(vals - bump(n, np.arange(dense_n) / dense_n))))
    return TrigCutoff(n, a, max(err, CUTOFF_FLOOR))


def total_cells(field: SteppedField, n: int) -> int:
    """N_n: cells of the n-th fourfold refinement of the field's faces."""
    if n < 1:
        raise PreconditionError(f"regularization index must be >= 1, got {n}")
    return max(1, len(field.diagram.faces)) * 4 ** n


def _require_trusted_stage(rs: RootSystem, n: int, cells_total: float, sup_error: float) -> None:
    """Refuse stage n when its error bound N_n |R+| sup_error is not below 1.

    Exact for any n: the integer N_n |R+| (inf: too large to form) is compared with 1/sup_error.
    """
    if cells_total * len(rs.positive_root_labels) >= 1.0 / sup_error:
        raise PreconditionError(
            f"regularize stage n = {n} cannot be trusted: its error bound N_n |R+| sup_error "
            f"is at least 1 (N_n = #faces * 4^{n} cells, |R+| = {len(rs.positive_root_labels)}, "
            f"sup_error >= {sup_error:.2e})"
        )


def regularized_indicator(rs: RootSystem, n: int, field: SteppedField) -> float:
    """Stage-n regularized indicator of "the field is everywhere regular".

    Exactly 0 whenever some alpha(value) is an integer (exact rational
    test); close to 1 when every value keeps all alpha-pairings at least
    1/n away from the integers.  Refused (PreconditionError) when the error
    bound N_n |R+| sup_error is not below 1: first against CUTOFF_FLOOR,
    before the cutoff is built, then against the cutoff's own sup error.
    """
    # From 2n >= e on, 4^n >= 2^e > 1/CUTOFF_FLOOR fails the first check alone: no huge N_n
    e = math.frexp(1.0 / CUTOFF_FLOOR)[1]
    cells_total = total_cells(field, n) if 2 * n < e else math.inf
    _require_trusted_stage(rs, n, cells_total, CUTOFF_FLOOR)
    cut = trig_cutoff(n)
    _require_trusted_stage(rs, n, cells_total, cut.sup_error)
    cells = 4 ** n  # per face
    out = 1.0
    for x in field.values:
        face_factor = 1.0
        for pairing in rs.root_pairings(x):
            v = cut(pairing)
            if v == 0.0:
                return 0.0
            face_factor *= v
        out *= face_factor ** cells
    return out


# -- polynomial exp/log sequences ---------------------------------------------


def exp_poly(n: int, z: complex) -> complex:
    """Degree-n Taylor polynomial of exp at 0."""
    term = total = 1.0 + 0j
    for j in range(1, n + 1):
        term *= z / j
        total += term
    return total


class LogPoly:
    """One polynomial approximating the principal log on [-2,-1/n] u [1/n, 2].

    log^(n)(x) = q_e(x^2) + i pi/2 - (i pi/2) x q_o(x^2), where q_e and q_o
    interpolate (1/2) ln y and y^(-1/2) in y = x^2 on [1/n^2, 4]; `coeffs`
    holds their Chebyshev coefficients in y, one column each.  Converges
    uniformly to ln|x| + i pi H(-x) on every compact subset of [-2, 2]
    minus 0 as n grows.
    """

    def __init__(self, n: int, coeffs: np.ndarray):
        self.n = n
        self.coeffs = coeffs

    def _parts(self, x):
        """(q_e(x^2), x q_o(x^2)), by Clenshaw in y."""
        lo = 1.0 / (self.n * self.n)
        t = (2.0 * x * x - 4.0 - lo) / (4.0 - lo)  # y = x^2 mapped from [1/n^2, 4] to [-1, 1]
        even, odd = np.polynomial.chebyshev.chebval(t, self.coeffs)
        return even, x * odd

    def __call__(self, x: float) -> complex:
        even, odd = self._parts(x)
        return complex(even, 0.5 * math.pi * (1.0 - odd))

    @property
    def sup_error(self) -> float:
        """The largest error on 4000 equispaced points of [1/n, 2]; by parity the
        error at -x has the modulus of the error at x, so it bounds [-2, -1/n] too."""
        x = np.linspace(1.0 / self.n, 2.0, 4000)
        even, odd = self._parts(x)
        return float(np.max(np.hypot(even - np.log(x), 0.5 * math.pi * (1.0 - odd))))


def log_poly(n: int) -> LogPoly:
    """Build log^(n) by Chebyshev interpolation in y = x^2, of a degree fixed by n.

    ln|x| is even and pi H(-x) - pi/2 is odd, so log^(n) = even + i pi/2 -
    (i pi/2) odd with even(x) = (1/2) ln x^2 and odd(x) = x (x^2)^(-1/2) =
    sign x: two real functions of y = x^2 (the odd one times x), each
    interpolated once on [1/n^2, 4].

    The singularity y = 0 lies 1/n^2 below that interval, so the error falls
    like (1 + 1/n)^-deg: degree ceil(n ln(2/target)) in y (at most 1000) meets
    the target max(4^-n, 2e-11) on n = 1..18.  From n = 19 on rounding holds
    the error at 2-7e-11.
    """
    target = max(4.0 ** (-n), 2e-11)
    deg = min(math.ceil(n * math.log(2.0 / target)), 1000)
    lo = 1.0 / (n * n)
    mid, half = (4.0 + lo) / 2.0, (4.0 - lo) / 2.0
    even = np.polynomial.chebyshev.chebinterpolate(lambda t: 0.5 * np.log(mid + half * t), deg)
    odd = np.polynomial.chebyshev.chebinterpolate(lambda t: 1.0 / np.sqrt(mid + half * t), deg)
    return LogPoly(n, np.stack([even, odd], axis=1))


def det_rig_n(rs: RootSystem, n: int, field: SteppedField) -> complex:
    """Stage-n regularized determinant of a stepped (or constant) field.

    prod_{alpha>0} exp^(n)( sum_faces log^(n)(2 sin(pi alpha(b_face))) * chi(face) ),
    using that the curvature measure of each face is 4 pi chi(face) under
    the standing metric assumption and that the mesh refines the faces, so
    cell means reproduce the face values exactly.  Defined (finite) for any
    bounded field, singular values included.
    """
    if n < 1:
        raise PreconditionError(f"regularization index must be >= 1, got {n}")
    lp = log_poly(n)
    total = 1.0 + 0j
    for column in zip(*(root_sines(rs, x) for x in field.values)):  # one root, every face
        acc = 0j
        for face, s in zip(field.diagram.faces, column):
            acc += lp(s) * face.euler
        total *= exp_poly(n, acc)
    return total
