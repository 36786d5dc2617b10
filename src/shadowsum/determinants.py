"""Closed forms for the torus-gauge determinant kernels.

A field value b in the Cartan subalgebra enters every kernel as its root
pairings alpha(b), one per positive root (`field.root_pairings`),
formed once where the value enters the program.  For such b,

    det(id_k - e^{ad b}|_k)        = prod_{alpha>0} 4 sin^2(pi alpha(b))
    det^{1/2}(id_k - e^{ad b}|_k)  = prod_{alpha>0} 2 sin(pi alpha(b))

(the half-power keeps its sign; only its square is the full determinant).
The regularized determinant of a t-valued field B on a closed surface is

    prod_{alpha>0} exp( int log(2 sin(pi alpha(B))) R_g/(4 pi) dmu_g )

with log the principal branch restricted to the nonzero reals.  Constant
fields reduce to det^{1/2}(...)^chi by Gauss-Bonnet, which is det(...)^{chi/2}
for even chi and keeps the half-power's sign for odd chi; step fields reduce to
the product over faces of `det_rig_constant` at the face's value and Euler
number (the limit of `regularize.det_rig_n`), provided the metric gives the
projected ribbons vanishing geodesic curvature (the standing metric
assumption), so that the curvature measure of each face is 4 pi chi(face).

The closed forms run in Python floats (`math`), so no `det` job loads numpy.
On the one field a command gives the surface integral, a constant one on the
round sphere, it is exp(2L) for the root-log sum L (`principal_log_sum`),
which `det --diagnostics` prints; any product rule integrates a constant
exactly.  The general rule, for fields that vary over the surface, is the
test-side oracle `sphere_rule` in `tests/test_determinants.py`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import PreconditionError, shown
from .field import format_vector, is_regular


def root_sines(pairings: Sequence) -> list[float]:
    """[2 sin(pi alpha(b))] per root pairing alpha(b), in the order given: the one
    evaluator of the root sine."""
    return [2.0 * math.sin(math.pi * float(v)) for v in pairings]


def det_k(pairings: Sequence) -> float:
    """prod_{alpha>0} 4 sin^2(pi alpha(b)) over the root pairings alpha(b); vanishes on
    singular b."""
    return math.prod(s ** 2 for s in root_sines(pairings))


def det_half(pairings: Sequence) -> float:
    """Signed half-power prod_{alpha>0} 2 sin(pi alpha(b)); its square is det_k."""
    return math.prod(root_sines(pairings))


def det_rig_constant(pairings: Sequence, chi: int) -> float:
    """det_half(b)^chi for a constant regular field on a surface of Euler number chi,
    computed as det_k(b)^(chi/2) for even chi; an odd power keeps the sign of det_half.

    A power that is not a finite nonzero double (large |chi|) is refused.
    """
    if not is_regular(pairings):
        raise PreconditionError(f"singular constant field alpha(b) = {format_vector(pairings)}")
    try:
        out = det_k(pairings) ** (chi / 2.0) if chi % 2 == 0 else det_half(pairings) ** chi
    except (OverflowError, ZeroDivisionError):  # a root sine that rounds to 0, chi < 0
        out = math.inf
    if not 0.0 < abs(out) < math.inf:
        raise PreconditionError(
            f"det_half(b)^chi at chi = {shown(chi)} is not a finite nonzero double ({out})"
        )
    return out


def principal_log_sum(sines: Sequence[float], coeffs: Sequence[int]) -> complex:
    """sum_i c_i log(s_i) over nonzero root sines s_i, log the principal branch
    ln|s| + i pi [s < 0]: the one evaluator of a root-log sum."""
    return complex(math.fsum(c * math.log(abs(s)) for c, s in zip(coeffs, sines)),
                   math.pi * sum(c for c, s in zip(coeffs, sines) if s < 0))

