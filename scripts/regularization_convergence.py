#!/usr/bin/env python3
"""Convergence tables for the stage-n regularizations.

Prints, for a constant field with alpha(b) = 1/2 and for a two-face step
field, the regularized indicator and determinant at n = 1..12 against their
closed-form limits, beside the determinant's error bound, each stage's log^(n)
degree in y = x^2, its largest error on 4000 equispaced points of [1/n, 2] and
the cutoff's tabulated sup error.  Field values are given as their A1 root
pairings alpha(b).
"""

import math
from fractions import Fraction as Q

from shadowsum.determinants import det_rig_constant
from shadowsum.diagrams import build_diagram
from shadowsum.regularize import (
    constant_field,
    det_rig_n,
    log_poly,
    regularized_indicator,
    require_stage,
    stepped_field,
)


def log_error(lp):
    """The largest |log^(n)(x) - ln x| on 4000 equispaced points of [1/n, 2]."""
    lo = 1.0 / lp.n
    return max(abs(lp(x) - math.log(x)) for x in (lo + (2.0 - lo) * i / 3999 for i in range(4000)))


def table(field, target, title):
    print(f"\n{title}  (closed form {target:.10f})")
    print(f"{'n':>3} {'indicator':>22} {'det_rig_n':>26} {'|det err|':>12} {'rel bound':>10}"
          f" {'log deg':>8} {'log err':>10} {'cut err':>10}")
    for n in range(1, 13):
        cut = require_stage(1, n, len(field))  # |R+| = 1 on A1
        ind = regularized_indicator(cut, field)
        det, bound = det_rig_n(n, field)
        lp = log_poly(n)
        print(f"{n:>3} {ind:>22.14f} {det.real:>14.8f}{det.imag:>+12.2e}j"
              f" {abs(det - target):>12.3e} {'null' if bound is None else f'{bound:.2e}':>10}"
              f" {lp.degree:>8} {log_error(lp):>10.2e} {cut.sup_error:>10.2e}")


def main():
    a = (Q(1, 2),)
    const = constant_field(a)
    table(const, det_rig_constant(a, 2), "constant field, alpha(b) = 1/2")

    diagram = build_diagram(
        [{"id": "c", "parent": None, "winding": 1, "positive_side": "inside", "color": [0]}]
    )
    step = stepped_field(diagram.faces, ((Q(1, 2),), (Q(1, 3),)))
    table(step, math.prod(det_rig_constant(a, euler) for euler, a in step),
          "step field, faces alpha(b) = 1/2 and 1/3")

    singular = stepped_field(diagram.faces, ((Q(1, 2),), (Q(2),)))
    print("\nsingular step field: indicator =",
          [regularized_indicator(require_stage(1, n, 2), singular) for n in range(1, 9)])


if __name__ == "__main__":
    main()
