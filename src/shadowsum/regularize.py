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
a polynomial fit converging uniformly to the principal log on the compact
pieces of [-2, -1/n] u [1/n, 2]; the integral reduces to Euler-number
weights per face under the standing metric assumption.  By parity the log
fit is two real fits on [1/n, 2], which also measure its error on
[-2, -1/n] (see `log_poly`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .determinants import det_half
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
    """prod_faces det_half(b_face)^chi(face), the limit of `det_rig_n` as n grows;
    rejects singular face values."""
    out = 1.0
    for face, x in zip(field.diagram.faces, field.values):
        if not is_regular(rs, x):
            raise PreconditionError(
                f"face {face.face_id!r} carries the singular value x = {format_vector(x)}"
            )
        out *= det_half(rs, x) ** face.euler
    return out


# -- smooth periodic bump and its trig-polynomial approximation ---------------

_BUMP_C = 0.25  # transition fits inside the C/n-neighborhood of the integers
# Accuracy floor of `trig_cutoff`: double precision does not reach below it, so
# no cutoff is asked for, or records, a smaller sup error.
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


def trig_cutoff(n: int, target: float) -> TrigCutoff:
    """Build pbar_n with sup error below `target` where feasible.

    Accuracy below CUTOFF_FLOOR is not reachable in double precision; the
    builder floors the target there and records the achieved error.
    """
    target = max(target, CUTOFF_FLOOR)
    K = 1 << 13
    spectrum = np.fft.rfft(bump(n, np.arange(K) / K)) / K
    dense_n = 4 * K
    psi_dense = bump(n, np.arange(dense_n) / dense_n)
    best = None
    M = max(8 * n, 32)
    while True:
        M = min(M, len(spectrum) - 1)
        a = np.zeros(M + 1)
        a[0] = spectrum[0].real
        a[1:] = 2.0 * spectrum[1 : M + 1].real  # psi is even: cosine series
        a[0] -= a.sum()  # recentre: pbar = p - p(0) vanishes at the integers
        z = np.zeros(dense_n // 2 + 1, dtype=complex)
        z[0] = a[0] * dense_n
        z[1 : M + 1] = a[1:] * (dense_n / 2.0)
        vals = np.fft.irfft(z, n=dense_n)
        err = float(np.max(np.abs(vals - psi_dense)))
        if best is None or err < best[1]:
            best = (a, err)
        if err <= target or M == len(spectrum) - 1:
            break
        M *= 2
    return TrigCutoff(n, best[0], max(best[1], CUTOFF_FLOOR))


def total_cells(field: SteppedField, n: int) -> int:
    """N_n: cells of the n-th fourfold refinement of the field's faces."""
    if n < 1:
        raise PreconditionError(f"regularization index must be >= 1, got {n}")
    return max(1, len(field.diagram.faces)) * 4 ** n


def cutoff_accuracy_target(rs: RootSystem, cells_total: int) -> float:
    """Per-factor accuracy making the whole product 1/N_n^2-close to 1.

    The product has N_n * |R+| factors (N_n = `cells_total`), so the
    per-factor budget is 1/(8 N_n^3 |R+|).  Below CUTOFF_FLOOR the builder
    clips it, and the stage's error bound is then only N_n |R+| sup_error,
    which passes 1 by n = 16 on a one-face A1 field; `regularized_indicator`
    refuses such stages.
    """
    return 1.0 / (8.0 * cells_total ** 3 * len(rs.positive_root_labels))


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
    cut = trig_cutoff(n, cutoff_accuracy_target(rs, cells_total))
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

    Complex coefficients in the Chebyshev basis on [-2, 2]; converges
    uniformly to ln|x| + i pi H(-x) on every compact subset of
    [-2, 2] minus 0 as n grows.
    """

    def __init__(self, n: int, coeffs: np.ndarray, sup_error: float):
        self.n = n
        self.coeffs = coeffs
        self.sup_error = sup_error

    def __call__(self, x: float) -> complex:
        return complex(np.polynomial.chebyshev.chebval(x / 2.0, self.coeffs))


def log_poly(n: int) -> LogPoly:
    """Build log^(n), fitting until sup error <= 4^-n or floor.

    ln|x| is even and pi H(-x) - pi/2 is odd, so on sample points symmetric
    about 0 the least-squares fit splits into two real fits on x > 0: ln x
    in T_{2j}(x/2) and sign x = 1 in T_{2j+1}(x/2), giving
    log^(n) = even + i pi/2 - (i pi/2) odd.  The error at -x has the modulus
    of the error at x, so `sup_error` is measured on [1/n, 2] alone.

    Degrees run over 4n 2^j (at least 8, at most 1000).  The fit error behaves
    like e^(-deg/2n), so the target needs about 2n ln(1/target); the search
    starts one doubling below that, skipping fits it would discard.
    """
    target = max(4.0 ** (-n), 2e-11)
    a = 1.0 / n
    t = np.cos(np.pi * (np.arange(1200) + 0.5) / 1200)
    x = (a + 2.0) / 2.0 + (2.0 - a) / 2.0 * t
    ln_x = np.log(x)
    xd = np.linspace(a, 2.0, 4000)
    ln_xd = np.log(xd)
    best = None
    deg = max(8, 4 * n)
    while 2 * deg < 2 * n * math.log(1.0 / target):
        deg *= 2
    while True:
        deg = min(deg, 1000)
        v = np.polynomial.chebyshev.chebvander(x / 2.0, deg)
        even, *_ = np.linalg.lstsq(v[:, 0::2], ln_x, rcond=None)
        odd, *_ = np.linalg.lstsq(v[:, 1::2], np.ones_like(x), rcond=None)
        coef = np.empty(deg + 1, dtype=complex)
        coef[0::2] = even
        coef[1::2] = -0.5j * math.pi * odd
        coef[0] += 0.5j * math.pi
        vals = np.polynomial.chebyshev.chebval(xd / 2.0, coef)
        err = float(np.max(np.abs(vals - ln_xd)))
        if best is None or err < best[1]:
            best = (coef, err)
        if err <= target or deg >= 1000:
            break
        deg *= 2
    return LogPoly(n, best[0], best[1])


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
    for column in zip(*map(rs.root_pairings, field.values)):  # one root, every face
        acc = 0j
        for face, x in zip(field.diagram.faces, column):
            acc += lp(2.0 * math.sin(math.pi * float(x))) * face.euler
        total *= exp_poly(n, acc)
    return total
