"""Regularization sequences for the indicator of the regular set and the
determinant: trigonometric-polynomial cutoffs and polynomial exp/log.

Fields are stepped: one (euler, alpha(b)) pair per face of a diagram, in face
order, the value held as its exact root pairings (see `field`); a field is read
through each face's Euler number and value alone, so no function here takes a
diagram.  The n-th stage works on the n-th barycentric refinement of a
face mesh compatible with the diagram, simulated combinatorially: every face
is subdivided fourfold per step, so stage n has N_n = max(1, #faces) * 4^n
cells and each cell inherits its face's (exact) field value.

Indicator.  A smooth 1-periodic bump psi_n vanishes exactly on the
integers and equals 1 outside the 1/(4n)-neighborhood of them; its
truncated Fourier series p_n, recentred so that p_n(0) = 0, is the
cell-wise cutoff.  The stage value is

    prod_{cells F} prod_{alpha>0} pbar_n(alpha(B(F)))

which is exactly zero as soon as some alpha(B(F)) is an integer (arguments
are reduced mod 1 in exact rational arithmetic before evaluation), and
tends to 1 on fields bounded away from the singular set.  `require_stage`
admits a stage once, from |R+| and the face count alone, and hands out its cutoff.

Determinant.  exp is replaced by its degree-n Taylor polynomial and log by
a polynomial log^(n) converging uniformly to the principal log on the compact
pieces of [-2, -1/n] u [1/n, 2]; the integral reduces to Euler-number
weights per face under the standing metric assumption.  By parity log^(n)
is built from two real Chebyshev interpolants in y = x^2 on [1/n^2, 4],
whose error on [1/n, 2] also bounds it on [-2, -1/n] (see `log_poly`);
`det_rig_n` returns the stage with a bound on its relative distance to its limit,
both from one pass over the root sines.

Both sequences run in Python floats (`math`, exact `fractions` for the
residues), evaluated only at the points a stage reads, so no `regularize` job
loads numpy.  The cutoff's sup error is a function of n alone and is
tabulated (`CUTOFF_SUP_ERRORS`); its measurement on a dense grid, and the
log^(n) error measurement, are oracles in `tests/test_regularize.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .determinants import principal_log_sum, root_sines
from .errors import PreconditionError, require_budget, shown

# -- stepped fields -----------------------------------------------------------


def stepped_field(faces: Sequence, values: Sequence) -> tuple[tuple, ...]:
    """The field with `values[i]` on face i of a diagram (`diagrams.Face`): one
    (euler, value) pair per face, in face order.  The kernels read each value as
    its root pairings alpha(b) (see `field`)."""
    if len(values) != len(faces):
        raise PreconditionError(
            f"stepped field needs one value per face: got {len(values)} "
            f"values for {len(faces)} faces"
        )
    return tuple((face.euler, v) for face, v in zip(faces, values))


def constant_field(pairings: Sequence) -> tuple[tuple, ...]:
    """The constant field with root pairings alpha(b): the bare sphere's one face,
    with chi = 2, as `diagrams.build_diagram([])` makes it."""
    return ((2, tuple(map(Fraction, pairings))),)


# -- smooth periodic bump and its trig-polynomial approximation ---------------

_BUMP_C = 0.25  # transition fits inside the C/n-neighborhood of the integers
_K = 1 << 13  # samples of the bump per period
# Accuracy floor of `trig_cutoff`: double precision does not reach below it, so
# no cutoff records a smaller sup error.
CUTOFF_FLOOR = 1e-12
# max(sup |pbar_n - psi_n|, CUTOFF_FLOOR) for the stages n = 1..19 that the
# CUTOFF_FLOOR check admits, measured once on the 4K-point grid, i.e. a function of
# n alone: the measurement is the oracle of `tests/test_regularize.py`.
CUTOFF_SUP_ERRORS = {
    **dict.fromkeys(range(1, 9), CUTOFF_FLOOR),
    9: 1.7988943668001411e-12,
    10: 6.932121543457015e-12,
    11: 1.5457191082646204e-11,
    12: 4.978017997814277e-11,
    13: 1.0460965427228075e-10,
    14: 2.449602742871093e-10,
    15: 9.079661467126243e-10,
    16: 1.407845506840033e-09,
    17: 2.332414927863624e-09,
    18: 5.444493300643671e-09,
    19: 9.710241832827649e-09,
}


# Budget of `regularized_indicator`: Dirichlet terms, one per sample of the cutoff's
# window at every face and positive root, about 0.5 us each on a 2-core VM (E8 at
# n = 1: 491,880 terms on one face took 0.25 s, 2,459,400 on five faces 1.12 s)
MAX_CUTOFF_TERMS = 10**6


def _cutoff_span(n: int) -> int:
    """The samples psi_n(j/K) below 1 have |j| <= span."""
    return _K // (4 * n) + 1


def _bump(n: int, x: float) -> float:
    """psi_n: 1-periodic, 0 exactly on Z, 1 at distance >= 1/(4n) from Z; a C^infinity
    step of t = sin^2(pi x) / sin^2(pi C/n), 0 at t <= 0 and 1 at t >= 1."""
    s = math.sin(math.pi * x)
    t = s * s / math.sin(math.pi * _BUMP_C / n) ** 2
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    f, g = math.exp(-1.0 / t), math.exp(-1.0 / (1.0 - t))
    return f / (f + g)


class TrigCutoff:
    """Recentred truncated Fourier series of the bump, pbar_n = p_n - p_n(0).

    p_n is the cosine series of degree K/2 of the K = 2^13 samples psi_j = psi_n(j/K),
    Nyquist term at full weight, so p_n(x) = (1/K) sum_j psi_j D(x - j/K) with the
    Dirichlet kernel D(t) = sin((K+1) pi t) / sin(pi t).  Since sum_j D(x - j/K) = K and
    D(-j/K) = (-1)^j for j != 0, only the pairs (j, w_j = 1 - psi_j) with psi_j < 1
    enter:

        pbar_n(x) = 1 - (1/K) sum_j w_j [D(x - j/K) - (-1)^j].

    Guarantees pbar_n(m) = 0 exactly for integer m; `sup_error` is the tabulated
    uniform distance to psi_n (CUTOFF_SUP_ERRORS), at least CUTOFF_FLOOR.
    """

    def __init__(self, n: int, pairs: list[tuple[int, float]], sup_error: float):
        self.n = n
        self.pairs = pairs  # (j, (-1)^j w_j) for |j| <= K/2 with w_j > 0
        self.alternating_sum = math.fsum(v for _, v in pairs)  # sum_j (-1)^j w_j
        self.sup_error = sup_error

    def __call__(self, x: Fraction | float) -> float:
        """pbar_n at x, read from the exact residue of x: with x - round(x) = (m + r)/K,
        m an integer and |r| <= 1/2 exact, x - j/K = (e + r)/K and
        (K+1)(x - j/K) = e + (e/K + r (K+1)/K) for e = m - j, so
        D(x - j/K) = (-1)^e sin(pi (e/K + r (K+1)/K)) / sin(pi (e + r)/K) with small
        float arguments only."""
        x = Fraction(x)
        x -= round(x)
        if x == 0:
            return 0.0
        m = round(x * _K)
        r = x * _K - m
        r_f, rho = float(r), float(r * (_K + 1) / _K)
        terms = []
        for j, v in self.pairs:
            e = m - j
            den = math.sin(math.pi * (e + r_f) / _K)  # 0 only at x = j/K, where D = K + 1
            terms.append(v * (math.sin(math.pi * (e / _K + rho)) / den if den else _K + 1.0))
        # (-1)^e = (-1)^m (-1)^j, and (-1)^j is in the pair's weight
        s = math.fsum(terms)
        return 1.0 - ((s if m % 2 == 0 else -s) - self.alternating_sum) / _K


def trig_cutoff(n: int) -> TrigCutoff:
    """Build pbar_n from the K = 2^13 samples of psi_n.  Those below 1 lie within
    K/(4n) + 1 of the integers, so only about K/(2n) pairs are kept.

    Its sup error is read from CUTOFF_SUP_ERRORS, so n is a stage that table holds,
    as every stage `require_stage` admits is.
    """
    span = _cutoff_span(n)
    pairs = []
    for j in range(-span, span + 1):
        w = 1.0 - _bump(n, j / _K)
        if w > 0.0:
            pairs.append((j, -w if j % 2 else w))
    return TrigCutoff(n, pairs, CUTOFF_SUP_ERRORS[n])


def total_cells(faces: int, n: int) -> int:
    """N_n: cells of the n-th fourfold refinement of `faces` faces (at least one)."""
    if n < 1:
        raise PreconditionError(f"regularization index must be >= 1, got {shown(n)}")
    return max(1, faces) * 4 ** n


def require_stage(roots: int, n: int, faces: int) -> TrigCutoff:
    """Admit stage n on `faces` faces of a group with |R+| = `roots`, reading no field
    value, and return its cutoff.  Refused, in this order: n < 1 (`total_cells`); an
    error bound N_n |R+| sup_error not below 1 (sup_error from CUTOFF_SUP_ERRORS, the
    integer N_n |R+| compared exactly with 1/sup_error); max(1, #faces) |R+| (2 span + 1)
    Dirichlet terms past MAX_CUTOFF_TERMS.  The table ends where A1 on one face, the
    least N_n |R+|, fails at CUTOFF_FLOOR, so a later stage is checked as the first one
    past it, at CUTOFF_FLOOR: it fails for every group, and no huge N_n is formed."""
    sup_error = CUTOFF_SUP_ERRORS.get(n, CUTOFF_FLOOR)
    if total_cells(faces, min(n, max(CUTOFF_SUP_ERRORS) + 1)) * roots >= 1.0 / sup_error:
        raise PreconditionError(
            f"regularize stage n = {shown(n)} cannot be trusted: its error bound N_n |R+| "
            f"sup_error is at least 1 (N_n = #faces * 4^{shown(n)} cells, |R+| = {roots}, "
            f"sup_error >= {sup_error:.2e})"
        )
    faces = max(1, faces)
    require_budget(faces * roots * (2 * _cutoff_span(n) + 1), MAX_CUTOFF_TERMS,
                   f"the stage-{n} cutoff at {faces} faces x {roots} positive roots",
                   "Dirichlet terms")
    return trig_cutoff(n)


def regularized_indicator(cut: TrigCutoff, field: Sequence[tuple]) -> float:
    """Regularized indicator of "the field is everywhere regular" at the stage n =
    `cut.n` of the cutoff `require_stage` admitted.

    Exactly 0 whenever some alpha(value) is an integer (exact rational
    test); close to 1 when every value keeps all alpha-pairings at least
    1/n away from the integers.  A regular field whose stage value underflows
    also gives 0.0 (each face factor is raised to the power 4^n), which the
    `regularize` document's "singular" (`field.is_regular`) tells apart.
    """
    cells = 4 ** cut.n  # per face
    out = 1.0
    for _, pairings in field:
        face_factor = 1.0
        for pairing in pairings:
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
    interpolate (1/2) ln y and y^(-1/2) in y = x^2 on [1/n^2, 4] at the `degree` + 1
    first-kind Chebyshev points; `nodes` holds (t_k, weight_k, q_e, q_o) per point, t
    the image of y in [-1, 1].  Converges uniformly to ln|x| + i pi H(-x) on every
    compact subset of [-2, 2] minus 0 as n grows.
    """

    def __init__(self, n: int, degree: int, nodes: list[tuple[float, float, float, float]]):
        self.n = n
        self.degree = degree
        self.nodes = nodes

    def _parts(self, x: float) -> tuple[float, float]:
        """(q_e(x^2), x q_o(x^2)), by the second barycentric formula in y, O(degree)."""
        lo = 1.0 / (self.n * self.n)
        t = (2.0 * x * x - 4.0 - lo) / (4.0 - lo)  # y = x^2 mapped from [1/n^2, 4] to [-1, 1]
        even = odd = den = 0.0
        for t_k, w_k, e_k, o_k in self.nodes:
            if t == t_k:
                return e_k, x * o_k
            c = w_k / (t - t_k)
            even += c * e_k
            odd += c * o_k
            den += c
        return even / den, x * (odd / den)

    def __call__(self, x: float) -> complex:
        even, odd = self._parts(x)
        return complex(even, 0.5 * math.pi * (1.0 - odd))


def _log_target(n: int) -> float:
    """The uniform error max(4^-n, 2e-11) that log^(n) meets on [1/n, 2], n = 1..18."""
    return max(4.0 ** (-n), 2e-11)


def log_poly(n: int) -> LogPoly:
    """Build log^(n) by Chebyshev interpolation in y = x^2, of a degree fixed by n.

    ln|x| is even and pi H(-x) - pi/2 is odd, so log^(n) = even + i pi/2 -
    (i pi/2) odd with even(x) = (1/2) ln x^2 and odd(x) = x (x^2)^(-1/2) =
    sign x: two real functions of y = x^2 (the odd one times x), each
    sampled once on [1/n^2, 4] at the first-kind Chebyshev points
    t_k = sin(pi (2k - deg) / (2 deg + 2)), whose barycentric weights are
    (-1)^k cos(pi (2k - deg) / (2 deg + 2)) (Berrut and Trefethen, SIAM Rev. 46, 2004):
    no coefficients are computed.

    The singularity y = 0 lies 1/n^2 below that interval, so the error falls
    like (1 + 1/n)^-deg: degree ceil(n ln(2/target)) in y (at most 1000) meets
    the target max(4^-n, 2e-11) on n = 1..18.  From n = 19 on rounding holds
    the error at 2-7e-11.
    """
    deg = min(math.ceil(n * math.log(2.0 / _log_target(n))), 1000)
    lo = 1.0 / (n * n)
    mid, half = (4.0 + lo) / 2.0, (4.0 - lo) / 2.0
    nodes = []
    for k in range(deg + 1):
        phi = 0.5 * math.pi / (deg + 1) * (2 * k - deg)
        t = math.sin(phi)
        y = mid + half * t
        nodes.append((t, -math.cos(phi) if k % 2 else math.cos(phi),
                      0.5 * math.log(y), 1.0 / math.sqrt(y)))
    return LogPoly(n, deg, nodes)


def det_rig_n(n: int, field: Sequence[tuple]) -> tuple[complex, float | None]:
    """Stage-n regularized determinant of a stepped (or constant) field and its
    relative error bound against the limit prod_faces det_half(b_face)^chi(face), from
    one pass over the roots.

    The value is prod_{alpha>0} exp^(n)(sum_faces log^(n)(2 sin(pi alpha(b_face))) chi(face)),
    using that the curvature measure of each face is 4 pi chi(face) under
    the standing metric assumption and that the mesh refines the faces, so
    cell means reproduce the face values exactly.  A face of chi = 0 is a factor 1
    of both, so only the faces of chi != 0 are read.  Defined (finite) for any
    bounded field, singular values included; a singular face of chi > 0 sends the
    limit to 0 and one of chi < 0 past every bound, so there the stage bounds
    nothing.

    The bound is prod_{alpha>0} (1 + r_alpha) - 1.  Per root,
    z = sum_faces chi(face) log(2 sin(pi alpha(b_face))) (principal branch) and the
    stage reads exp^(n)(z + d) with |d| <= eps = target * sum_faces |chi(face)|,
    target the log^(n) error `_log_target`.  With w = |z| + eps,

        r_alpha = (w^(n+1)/(n+1)! e^w + |e^z| expm1(eps)) / |e^z|

    bounds the Taylor remainder at z + d plus |e^(z+d) - e^z|, relative to |e^z|.
    None where log^(n) has no stated accuracy: a root sine below 1/n in modulus on
    some face of chi != 0 (singular values included) or a stage past n = 18; None too
    for a bound that is not a finite double.
    """
    if n < 1:
        raise PreconditionError(f"regularization index must be >= 1, got {shown(n)}")
    field = [(euler, a) for euler, a in field if euler]  # a face of chi = 0 counts for 1
    lp = log_poly(n)
    chis = [euler for euler, _ in field]
    eps = _log_target(n) * sum(map(abs, chis))
    total = 1.0 + 0j
    bound = 1.0 if n <= 18 else None
    for column in zip(*(root_sines(a) for _, a in field)):  # one root, every face
        acc = 0j
        for chi, s in zip(chis, column):
            acc += lp(s) * chi
        total *= exp_poly(n, acc)
        if bound is None or any(abs(s) < 1.0 / n for s in column):
            bound = None
            continue
        z = principal_log_sum(column, chis)
        w = abs(z) + eps
        try:  # w^(n+1)/(n+1)! e^(w - Re z), in logarithms
            r = math.exp((n + 1) * math.log(w) - math.lgamma(n + 2) + w - z.real)
        except OverflowError:  # the product, and so the bound, is no finite double
            r = math.inf
        bound *= 1.0 + r + math.expm1(eps)
    return total, (bound - 1.0 if bound is not None and math.isfinite(bound) else None)
