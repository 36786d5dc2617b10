"""Holonomy of constant t-valued connections, and the closed-form Wilson value.

A t-valued (abelian) connection is given as its weight-phase vector: the
diagonal of A in a weight basis of the module (`weight_phases`).  The one
connection a command evaluates is constant along the loop, so the n-point
ordered product prod_{j=1..n} exp((1/n) A) has n equal commuting factors and
is exp(A) entry by entry, one exponential per weight whatever n is: the
`holonomy` command's `product_trace` is `weight_trace` of those exponentials.
Non-abelian (matrix-valued) connections are not handled.  The module is plain
Python (`math`, `cmath`) and loads no numpy.

The one ribbon a command evaluates is vertical: it winds w times around the
S^1 factor over a sphere point where the field is constant at b.  Its
torus-gauge Wilson value is the character of the colour at exp(w b)
(`wilson_closed_form`), one weight sum over the exact residues of w beta(b).
The ordered product of a connection that varies along the loop, and the
general ribbon formula for ribbons that move across a non-constant field,
live in the tests (`tests/test_holonomy.py`) as oracles, until a command
feeds such a field.  A t-valued value b is passed as its coweight
coordinates x (see `field`), so beta(b) = sum_j label_j(beta) x_j.
"""

from __future__ import annotations

import cmath
import math
from numbers import Rational
from operator import mul
from typing import Sequence

from .errors import PreconditionError, require_budget, shown
from .reps import WeightSystem, _check_dominant
from .roots import RootSystem

MAX_REP_DIM = 256  # budget of the `holonomy` command: dimension of the coloured module


def require_rep_dim(rs: RootSystem, color: Sequence[int]) -> None:
    """Refuse a colour whose module is larger than MAX_REP_DIM, before any multiplicity
    is computed.  The Weyl dimension prod_{alpha>0} <lam+rho, alpha> / <rho, alpha> is
    multiplied out only until it passes the budget: each ratio is at least 1, so a
    partial product is a lower bound, and a refusal that stopped early says so."""
    lam_rho = [a + 1 for a in _check_dominant(rs, color)]
    num = den = 1  # products of weight_form_den <lam+rho, alpha> and <rho, alpha>, as in reps
    for j, r in enumerate(rs.root_forms, 1):
        num, den = num * sum(map(mul, lam_rho, r)), den * sum(r)
        if num > MAX_REP_DIM * den:
            break
    # the dimension is an integer at least num / den, so the ceiling is a lower bound too
    require_budget(-(-num // den), MAX_REP_DIM,
                   f"the module of highest weight {shown(tuple(color))} of {rs.name}",
                   "dimensions" + " or more" * (j < len(rs.root_forms)))


def weight_phases(ws: WeightSystem, x: Sequence) -> list[complex]:
    """b in the weight basis of the module, as its diagonal: 2 pi i beta(b) for
    every weight beta, repeated by multiplicity, in sorted label order.

    beta(b) = sum_j label_j(beta) x_j for b with coweight coordinates x.  An
    exact (rational) beta(b) is reduced to beta - round(beta), in [-1/2, 1/2],
    before its one float, which changes no exponential; a float one is used
    as it is, so the map stays linear in float x."""
    if len(x) != ws.rs.rank:
        raise PreconditionError(f"expected {ws.rs.rank} coweight coordinates, got {len(x)}")
    entries = []
    for labels, m in sorted(ws.multiplicities.items()):
        beta_b = sum(c * p for c, p in zip(labels, x))
        if isinstance(beta_b, Rational):
            beta_b -= round(beta_b)
        entries.extend([2j * math.pi * float(beta_b)] * m)
    return entries


def weight_trace(v: Sequence[complex]) -> complex:
    """The trace of a diagonal given in `weight_phases` order, each entry added to
    its mirror.  Negation reverses sorted label order, so the weight -beta sits at
    the mirrored index of beta; for a self-dual module the two entries are
    conjugate and the trace is exactly real."""
    pairs = [a + b for a, b in zip(v, reversed(v))]
    return complex(math.fsum(z.real for z in pairs), math.fsum(z.imag for z in pairs)) / 2


def wilson_closed_form(ws: WeightSystem, x: Sequence, winding: int) -> complex:
    """Tr_rho exp(winding b): the Wilson value of a vertical ribbon winding `winding`
    times over a point where the field has coweight coordinates x, which is the
    character of the module `ws` at exp(winding b).  Exact x gives every phase
    from the exact residue of winding * beta(b) (`weight_phases`)."""
    return weight_trace([cmath.exp(p) for p in weight_phases(ws, [winding * v for v in x])])
