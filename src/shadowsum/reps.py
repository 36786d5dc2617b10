"""Dominant weights, level alphabets, weight multiplicities, Weyl and quantum dimensions.

Weights are handled by their integer coordinates in the fundamental-weight
basis ("labels").  The Freudenthal recursion (Humphreys, Introduction to Lie
Algebras, 22.3) and the Weyl dimension run in integers on `label_form`, which is
weight_form_den times the invariant form, and on `root_forms`, its values on the
positive roots; the factor cancels in each ratio.  Multiplicities are W-invariant,
so the recursion runs on dominant weights (Stembridge, Adv. Math. 136, 1998), reads
each m through `roots.to_dominant` and expands orbits with `roots.weyl_orbit`.  The
one Weyl product prod_{alpha>0} <lam+rho, alpha> / <rho, alpha> forms its integer
row once, lazily (`_weyl_row`): `weyl_dimension` divides it exactly,
`quantum_dimension`, its q-analogue at level k, in floats, and `require_rep_dim`,
the `holonomy` budget, only until it passes MAX_REP_DIM.  The level alphabet is
enumerated label by label and budgeted by its weight-root pairs |A| |R+|, the
work of the sine products `qdim` spends on it.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import OracleError, PreconditionError, require_budget, shown
from .roots import RootSystem, to_dominant, weyl_orbit

Labels = tuple[int, ...]

# Budget of `level_alphabet`: weight-root pairs |A| |R+|, one sine ratio each in `qdim`.
MAX_ALPHABET_PAIRS = 3 * 10**5
MAX_REP_DIM = 256  # budget of the `holonomy` command: dimension of the coloured module


class LevelAlphabet:
    """The dominant weights integrable at level k - g: <lambda, theta> <= k - g."""

    __slots__ = ("rs", "k", "elements", "_positions")

    def __init__(self, rs: RootSystem, k: int, elements: tuple[Labels, ...]):
        self.rs, self.k, self.elements = rs, k, elements
        self._positions = {lam: i for i, lam in enumerate(elements)}

    def __contains__(self, labels) -> bool:
        return tuple(labels) in self._positions

    def index(self, labels) -> int:
        """The position of `labels`, which every caller derives from the alphabet, so a
        miss is a broken invariant: OracleError, not a refusal of input."""
        try:
            return self._positions[tuple(labels)]
        except KeyError:
            raise OracleError(f"{tuple(labels)} is not in the level alphabet") from None

    def require(self, labels: Sequence[int], name: str) -> Labels:
        """`labels` as an int tuple; PreconditionError, naming it `name`, unless it is
        in the alphabet, each label read exactly, as an integer."""
        t = _of_rank(self.rs, tuple(int(v) for v in labels))
        if t != tuple(labels) or t not in self:
            raise PreconditionError(
                f"{name} = {shown(tuple(labels))} is not integrable at level "
                f"{self.k - self.rs.dual_coxeter} for {self.rs.name} at k = {self.k}"
            )
        return t


def level_alphabet(rs: RootSystem, k: int) -> LevelAlphabet:
    """All dominant weights with <lambda, theta> <= k - g, in lexicographic order.

    Requires k > g; at and below the dual Coxeter number the state sum
    degenerates and is out of scope here.  The labels are chosen in order:
    label i runs from 0 to rem // a_i, where a_i is its comark and rem the level
    the labels before it leave unused.  Every prefix extends to a weight, so the
    prefixes of each length are at most |A|.  The first label alone takes
    (k - g) // a_1 + 1 values, a lower bound on |A| read before any prefix is
    built, and the enumeration stops once the prefixes pass the budget of
    MAX_ALPHABET_PAIRS weight-root pairs: a refused level costs at most rank
    (MAX_ALPHABET_PAIRS // |R+| + 1) prefixes, and its refusal gives the lower
    bound on |A| |R+| reached.
    """
    g = rs.dual_coxeter
    if k <= g:
        raise PreconditionError(
            f"level bound violated: need k > g, got k = {shown(k)} with dual Coxeter "
            f"number g = {g} for {rs.name} (the alphabet requires <lambda, theta> <= k - g)"
        )
    roots = len(rs.root_forms)
    most = MAX_ALPHABET_PAIRS // roots  # the largest alphabet admitted
    what = f"the level alphabet of {rs.name} at k = {shown(k)}"
    require_budget(((k - g) // rs.comarks[0] + 1) * roots, MAX_ALPHABET_PAIRS, what,
                   "weight-root pairs or more")
    prefixes = [((), k - g)]  # (labels chosen, level left), in lexicographic order
    for a in rs.comarks:
        prefixes = list(itertools.islice(
            ((p + (v,), rem - a * v) for p, rem in prefixes for v in range(rem // a + 1)),
            most + 1))
        require_budget(len(prefixes) * roots, MAX_ALPHABET_PAIRS, what,
                       "weight-root pairs or more")
    return LevelAlphabet(rs=rs, k=k, elements=tuple(p for p, _ in prefixes))


class WeightSystem(NamedTuple):
    """Full multiplicity table of one irreducible highest-weight module."""

    rs: RootSystem
    multiplicities: dict[Labels, int]

    def dimension(self) -> int:
        return sum(self.multiplicities.values())


def _weyl_row(rs: RootSystem, labels: Labels) -> Iterator[tuple[int, int]]:
    """Per positive root alpha, weight_form_den (<lam+rho, alpha>, <rho, alpha>) from
    `root_forms`, lazily; rho has every label 1, so the second is sum(r)."""
    lam_rho = [a + 1 for a in labels]
    return ((sum(map(mul, lam_rho, r)), sum(r)) for r in rs.root_forms)


def weyl_dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """dim = prod_{alpha>0} <lam+rho, alpha> / <rho, alpha>, an exact integer."""
    nums, dens = zip(*_weyl_row(rs, _check_dominant(rs, lam)))
    dim, rem = divmod(math.prod(nums), math.prod(dens))
    if rem:
        raise OracleError(f"Weyl dimension of {rs.name} weight {shown(tuple(lam))} "
                          f"leaves the remainder {rem}")
    return dim


def require_rep_dim(rs: RootSystem, color: Sequence[int]) -> None:
    """Refuse a colour whose module is larger than MAX_REP_DIM, before any multiplicity
    is computed.  The Weyl product, each ratio at least 1, is multiplied out only until
    it passes the budget: a partial product is a lower bound, and the refusal says so."""
    num = den = 1
    for j, (a, b) in enumerate(_weyl_row(rs, _check_dominant(rs, color)), 1):
        num, den = num * a, den * b
        if num > MAX_REP_DIM * den:
            break
    # the dimension is an integer at least num / den, so the ceiling is a lower bound too
    require_budget(-(-num // den), MAX_REP_DIM,
                   f"the module of highest weight {shown(tuple(color))} of {rs.name}",
                   "dimensions" + " or more" * (j < len(rs.root_forms)))


def quantum_dimension(alphabet: LevelAlphabet, lam: Sequence[int]) -> float:
    """dim_q = prod_{alpha>0} sin(pi <lam+rho, alpha>/k) / sin(pi <rho, alpha>/k).

    Strictly positive on the level alphabet: for integrable lam every
    <lam+rho, alpha> lies strictly between 0 and k.
    """
    k, d = alphabet.k, alphabet.rs.weight_form_den
    out = 1.0
    for a, b in _weyl_row(alphabet.rs, alphabet.require(lam, "lambda")):
        out *= math.sin(math.pi * (a / d) / k) / math.sin(math.pi * (b / d) / k)
    return out


def _of_rank(rs: RootSystem, t: tuple) -> tuple:
    if len(t) != rs.rank:
        raise PreconditionError(
            f"{shown(t)} has {len(t)} label{'s' * (len(t) != 1)}; {rs.name} needs {rs.rank}")
    return t


def _check_dominant(rs: RootSystem, lam: Sequence[int]) -> Labels:
    t = _of_rank(rs, tuple(int(v) for v in lam))
    if any(ti != v for ti, v in zip(t, lam)) or any(v < 0 for v in t):
        raise PreconditionError(
            f"weight {shown(tuple(lam))} is not dominant for {rs.name}: "
            "expected nonnegative integer fundamental-weight coordinates"
        )
    return t


def weight_multiplicities(rs: RootSystem, lam: Sequence[int]) -> WeightSystem:
    """Weight multiplicity table by the Freudenthal recursion (exact).

    m is W-invariant, so the recursion runs on the dominant weights of V(lam) only
    (Moody and Patera, Bull. AMS 7, 1982): the dominant mu <= lam, reached from lam
    through dominant weights one positive root at a time (Stembridge, Adv. Math.
    136, 1998), by decreasing |mu + rho|^2, which is smaller for dominant mu < nu
    (Humphreys, 13.4).  So m(mu + j alpha), read at its dominant W-conjugate, is
    known before mu; the j-walk stops at the first weight not in V(lam), as
    alpha-strings are unbroken (Humphreys, 21.2 and 22.3).  Each dominant weight's
    orbit (`weyl_orbit`) is then expanded with its multiplicity.
    """
    lam = _check_dominant(rs, lam)
    dominant, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        for al in rs.positive_root_labels:
            nu = tuple(a - b for a, b in zip(mu, al))
            if min(nu) >= 0 and nu not in dominant:
                dominant.add(nu)
                todo.append(nu)

    def norm_shifted(mu: Labels) -> int:
        v = tuple(a + 1 for a in mu)  # mu + rho
        return rs.label_form(v, v)

    # per positive root alpha: alpha, its row r of root_forms (label_form(mu, alpha) = mu . r)
    # and label_form(alpha, alpha), the step of label_form(mu + j alpha, alpha) in j
    roots = [(al, r, sum(map(mul, al, r)))
             for al, r in zip(rs.positive_root_labels, rs.root_forms)]
    lam_norm = norm_shifted(lam)
    mult: dict[Labels, int] = {lam: 1}
    for mu in sorted(dominant, key=norm_shifted, reverse=True)[1:]:  # lam comes first
        acc = 0
        for al, r, al_norm in roots:
            up, form = mu, sum(map(mul, mu, r))
            while True:  # up = mu + j alpha, form = label_form(up, alpha), j = 1, 2, ...
                up = tuple(a + b for a, b in zip(up, al))
                form += al_norm
                m = mult.get(to_dominant(rs.cartan_matrix, up)[0])
                if m is None:
                    break
                acc += 2 * m * form
        m_mu, rem = divmod(acc, lam_norm - norm_shifted(mu))
        if rem or m_mu <= 0:
            raise OracleError(f"Freudenthal gives {rs.name} weight {mu} of {lam} the "
                              f"multiplicity {acc}/{lam_norm - norm_shifted(mu)}")
        mult[mu] = m_mu

    ws = WeightSystem(rs=rs, multiplicities={
        w: m for mu, m in mult.items() for w, _ in weyl_orbit(rs, mu)})
    if ws.dimension() != (dim := weyl_dimension(rs, lam)):
        raise OracleError(f"Freudenthal total {ws.dimension()} != Weyl dimension {dim} "
                          f"for {rs.name} weight {lam}")
    return ws
