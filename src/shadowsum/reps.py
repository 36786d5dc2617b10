"""Dominant weights, level alphabets, weight multiplicities, characters.

Weights are handled by their integer coordinates in the fundamental-weight
basis ("labels").  The Freudenthal recursion (Humphreys, Introduction to Lie
Algebras, 22.3) and the Weyl dimension run in integers on `label_form`, which
is weight_form_den times the invariant form; the factor cancels in each ratio.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .roots import RootSystem, dominant_weights_up_to_level

Labels = tuple[int, ...]

# Budget of `level_alphabet`: candidate label vectors scanned, prod_i (floor((k-g)/a_i) + 1).
MAX_ALPHABET_BOX = 10**5


@dataclass(frozen=True)
class LevelAlphabet:
    """The dominant weights integrable at level k - g: <lambda, theta> <= k - g."""

    rs: RootSystem
    k: int
    elements: tuple[Labels, ...]
    _positions: dict[Labels, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_positions", {lam: i for i, lam in enumerate(self.elements)})

    def __contains__(self, labels) -> bool:
        return tuple(labels) in self._positions

    def index(self, labels) -> int:
        try:
            return self._positions[tuple(labels)]
        except KeyError:
            raise ValueError(f"{tuple(labels)} is not in the level alphabet") from None


def level_alphabet(rs: RootSystem, k: int) -> LevelAlphabet:
    """All dominant weights with <lambda, theta> <= k - g.

    Requires k > g; at and below the dual Coxeter number the state sum
    degenerates and is out of scope here.  The box of candidates scanned,
    one range per comark a_i, must hold at most MAX_ALPHABET_BOX vectors.
    """
    g = rs.dual_coxeter
    if k <= g:
        raise PreconditionError(
            f"level bound violated: need k > g, got k = {k} with dual Coxeter "
            f"number g = {g} for {rs.type_label}{rs.rank} "
            f"(the alphabet requires <lambda, theta> <= k - g)"
        )
    box = math.prod((k - g) // a + 1 for a in rs.comarks)
    if box > MAX_ALPHABET_BOX:
        raise PreconditionError(
            f"the level alphabet of {rs.type_label}{rs.rank} at k = {k} scans {box} "
            f"candidate weights; the budget is {MAX_ALPHABET_BOX}"
        )
    elems = dominant_weights_up_to_level(rs, k - g)
    return LevelAlphabet(rs=rs, k=k, elements=tuple(elems))


@dataclass(frozen=True)
class WeightSystem:
    """Full multiplicity table of one irreducible highest-weight module."""

    rs: RootSystem
    highest: Labels
    multiplicities: dict[Labels, int]

    def dimension(self) -> int:
        return sum(self.multiplicities.values())


def weyl_dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """dim = prod_{alpha>0} <lam+rho, alpha> / <rho, alpha>, an exact integer."""
    lam = _check_dominant(rs, lam)
    rho = (1,) * rs.rank
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    num = math.prod(rs.label_form(lam_rho, al) for al in rs.positive_root_labels)
    dim, rem = divmod(num, math.prod(rs.label_form(rho, al) for al in rs.positive_root_labels))
    assert rem == 0
    return dim


def _check_dominant(rs: RootSystem, lam: Sequence[int]) -> Labels:
    t = tuple(int(v) for v in lam)
    if len(t) != rs.rank or any(ti != v for ti, v in zip(t, lam)) or any(v < 0 for v in t):
        raise PreconditionError(
            f"weight {tuple(lam)} is not dominant for {rs.type_label}{rs.rank}: "
            "expected nonnegative integer fundamental-weight coordinates"
        )
    return t


def weight_multiplicities(rs: RootSystem, lam: Sequence[int]) -> WeightSystem:
    """Weight multiplicity table by the Freudenthal recursion (exact).

    Weights of the module are found breadth-first from the highest weight by
    subtracting simple roots; a candidate is kept iff the recursion gives a
    positive multiplicity.
    """
    lam = _check_dominant(rs, lam)
    rho = (1,) * rs.rank

    def norm_shifted(mu: Labels) -> int:
        v = tuple(a + b for a, b in zip(mu, rho))
        return rs.label_form(v, v)

    lam_norm = norm_shifted(lam)
    mult: dict[Labels, int] = {lam: 1}
    frontier = [lam]
    while frontier:
        candidates: set[Labels] = set()
        for w in frontier:
            for s in rs.cartan_matrix:
                candidates.add(tuple(a - b for a, b in zip(w, s)))
        frontier = []
        for mu in sorted(candidates):
            if mu in mult:
                continue
            denom = lam_norm - norm_shifted(mu)
            if denom <= 0:
                continue
            acc = 0
            for al in rs.positive_root_labels:
                j = 1
                while True:
                    up = tuple(a + j * b for a, b in zip(mu, al))
                    m = mult.get(up)
                    if m is None:
                        break
                    acc += 2 * m * rs.label_form(up, al)
                    j += 1
            if acc == 0:
                continue
            m_mu, rem = divmod(acc, denom)
            assert rem == 0 and m_mu > 0, (lam, mu, acc, denom)
            mult[mu] = m_mu
            frontier.append(mu)

    ws = WeightSystem(rs=rs, highest=lam, multiplicities=mult)
    if ws.dimension() != weyl_dimension(rs, lam):
        raise AssertionError(
            f"Freudenthal total {ws.dimension()} != Weyl dimension "
            f"{weyl_dimension(rs, lam)} for {rs.type_label}{rs.rank} weight {lam}"
        )
    return ws


def character_eval(ws: WeightSystem, b: Sequence) -> complex:
    """Character value sum_beta m(beta) e^{2 pi i beta(b)} at b in t.

    With the convention exp(b) = identity iff b lies in the coroot lattice,
    the phases use the 2 pi i factor and the value is periodic under
    translations of b by coroots.  Exact rational b gets its phase reduced
    mod 1 before any float rounding.
    """
    rs = ws.rs
    total = 0j
    for labels, m in ws.multiplicities.items():
        beta = rs.from_labels(labels)
        phase = rs.inner(beta, tuple(b))
        if isinstance(phase, Fraction):
            phase = phase - math.floor(phase)
        total += m * cmath.exp(2j * math.pi * float(phase))
    return total
