"""Field values b in the Cartan subalgebra t, where they enter and leave the program.

A field value b is held as its coweight coordinates x_j = <omega_j, b>, so
b = sum_j x_j coroot(alpha_j): a rational or float tuple of length `rank`.  A
pairing is then an integer-label combination of x: beta(b) = sum_j label_j(beta) x_j
for a weight beta, and alpha(b) = sum_j label_j(alpha) x_j (`root_pairings`), the
tuple the kernels read, formed once where b enters the program.  The simple roots
are read from the root system's integer table of doubled simple roots, halved as
exact `Fraction` tuples (`simple_roots`), with the invariant product
`form_scale` times the dot product.  `coweight_coordinates` is the one reader of
those ambient vectors: it turns ambient coordinates of b into x.  Regularity
tests are exact; floats appear only at the trigonometric layer in other modules.

Rationals enter and leave the root data here, so this module loads `fractions`
and `roots` does not.  The kernel commands (`kernel_cli`), `determinants` and
`circleop` load it; no lattice command (`shadow`, `fusion`, `qdim`, `validate`)
does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .roots import RootSystem


def form_scale(rs: RootSystem) -> Fraction:
    """c, where the invariant product is <x,y> = c * dot(x,y) on ambient vectors."""
    return Fraction(*rs.form_scale_ratio)


def simple_roots(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """The simple roots alpha_i in ambient coordinates, exact."""
    return tuple(tuple(Fraction(a, 2) for a in v) for v in rs.doubled_simple_roots)


def cartan_inverse(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """C^-1 = adj(C) / det(C), exact."""
    return tuple(tuple(Fraction(a, rs.cartan_det) for a in row) for row in rs.cartan_adjugate)


def coweight_coordinates(rs: RootSystem, b: Sequence) -> tuple:
    """x_j = <omega_j, b> = sum_i (C^-1)_ji alpha_i(b) of b given by ambient coordinates.

    A part of b orthogonal to every root drops out.  Exact for rational b.
    """
    b = tuple(b)
    if len(b) != rs.ambient_dim:
        raise PreconditionError(
            f"a field value of {rs.name} needs {rs.ambient_dim} "
            f"ambient coordinates, got {len(b)}"
        )
    scale = form_scale(rs)
    simple = [scale * sum(a * c for a, c in zip(alpha, b)) for alpha in simple_roots(rs)]
    return tuple(sum(c * v for c, v in zip(row, simple)) for row in cartan_inverse(rs))


def root_pairings(rs: RootSystem, x: Sequence) -> tuple:
    """alpha(b) = sum_j label_j(alpha) x_j per positive root, in `positive_root_labels`
    order, for the field value b with coweight coordinates x; exact for rational x."""
    if len(x) != rs.rank:
        raise PreconditionError(f"expected {rs.rank} coweight coordinates, got {len(x)}")
    return tuple(sum(c * v for c, v in zip(lab, x) if c) for lab in rs.positive_root_labels)


def is_regular(pairings: Sequence) -> bool:
    """True iff no root pairing alpha(b) (`root_pairings`) is an integer.

    Exact for rational pairings; a float pairing counts as integral only when it is
    exactly integral as a float.
    """
    for v in pairings:
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return False
        elif float(v).is_integer():
            return False
    return True


def format_vector(x: Sequence) -> str:
    """A point for messages: rationals as p/q, e.g. (1/3, -1/3), not Fraction(1, 3)."""
    return "(" + ", ".join(map(str, x)) + ")"
