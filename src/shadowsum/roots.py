"""Root-system data for the simple Lie types A..G at rank <= 8.

Everything is stored as exact rationals in a fixed orthogonal ambient basis
per type (the standard orthonormal realizations).  The invariant scalar
product is the Euclidean dot product rescaled so that every short coroot
has squared length 2; equivalently, long roots have squared length 2.
Regularity and lattice tests are exact; floats appear only at the
trigonometric layer in other modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError

Vector = tuple[Fraction, ...]

# (dim g, |W|) per type: dim g validates construction; |W| is `weyl_group_order`.
_DIM_AND_ORDER = {
    "A": lambda n: ((n + 1) ** 2 - 1, math.factorial(n + 1)),
    "B": lambda n: (n * (2 * n + 1), 2**n * math.factorial(n)),
    "C": lambda n: (n * (2 * n + 1), 2**n * math.factorial(n)),
    "D": lambda n: (n * (2 * n - 1), 2 ** (n - 1) * math.factorial(n)),
    "E": {6: (78, 51_840), 7: (133, 2_903_040), 8: (248, 696_729_600)}.get,
    "F": {4: (52, 1_152)}.get,
    "G": {2: (14, 12)}.get,
}

_VALID_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": (6, 7, 8),
    "F": (4,),
    "G": (2,),
}


def _vec(*xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def _e(i: int, dim: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def _add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def _sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def _scale(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def _simple_roots(type_label: str, rank: int) -> tuple[list[Vector], int, Fraction]:
    """Simple roots in the standard ambient realization.

    Returns (simple roots, ambient dimension, form scale c) where the
    invariant product is <x,y> = c * dot(x,y).
    """
    t = type_label
    if t == "A":
        dim = rank + 1
        roots = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(rank)]
        return roots, dim, Fraction(1)
    if t in ("B", "C", "D"):
        dim = rank
        roots = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(rank - 1)]
        if t == "B":
            roots.append(_e(rank - 1, dim))
            return roots, dim, Fraction(1)
        if t == "C":
            roots.append(_scale(Fraction(2), _e(rank - 1, dim)))
            return roots, dim, Fraction(1, 2)
        roots.append(_add(_e(rank - 2, dim), _e(rank - 1, dim)))
        return roots, dim, Fraction(1)
    if t == "E":
        dim = 8
        half = Fraction(1, 2)
        a1 = tuple(
            half if i in (0, 7) else -half for i in range(8)
        )  # (e1+e8)/2 - (e2+...+e7)/2
        a2 = _add(_e(0, 8), _e(1, 8))
        rest = [_sub(_e(i + 1, 8), _e(i, 8)) for i in range(6)]  # e_{i+1}-e_i
        roots = [a1, a2] + rest
        return roots[:rank], dim, Fraction(1)
    if t == "F":
        dim = 4
        half = Fraction(1, 2)
        roots = [
            _sub(_e(1, 4), _e(2, 4)),
            _sub(_e(2, 4), _e(3, 4)),
            _e(3, 4),
            (half, -half, -half, -half),
        ]
        return roots, dim, Fraction(1)
    if t == "G":
        dim = 3
        roots = [
            _sub(_e(0, 3), _e(1, 3)),
            _vec(-2, 1, 1),
        ]
        return roots, dim, Fraction(1, 3)
    raise AssertionError(t)


@dataclass(frozen=True)
class RootSystem:
    """Immutable root/coroot/weight data of one simple type.

    All vectors are Fraction tuples in the ambient basis.  `cartan[i][j]`
    is <alpha_i, coroot(alpha_j)>; weights are frequently handled through
    their integer coordinates in the fundamental-weight basis ("labels"),
    i.e. label_j(x) = <x, coroot(alpha_j)>.
    """

    type_label: str
    rank: int
    ambient_dim: int
    form_scale: Fraction
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    roots: tuple[Vector, ...]
    simple_coroots: tuple[Vector, ...]
    fundamental_weights: tuple[Vector, ...]
    weyl_vector: Vector
    highest_root: Vector
    dual_coxeter: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    comarks: tuple[int, ...]
    # label_j(alpha) = <alpha, coroot(alpha_j)> of each positive root, in positive_roots order
    positive_root_labels: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    # integer Gram data for label arithmetic: weight_form_den * <w_i, w_j>
    weight_gram_num: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    weight_form_den: int = field(repr=False, default=1)

    # -- basic bilinear algebra -------------------------------------------

    def inner(self, x: Sequence, y: Sequence):
        """The normalized invariant product <x,y>.

        Exact when both arguments are rational; float otherwise.
        """
        if len(x) != self.ambient_dim or len(y) != self.ambient_dim:
            raise PreconditionError(
                f"dimension mismatch: expected ambient dimension {self.ambient_dim}, "
                f"got {len(x)} and {len(y)}"
            )
        s = sum(a * b for a, b in zip(x, y))
        if isinstance(s, Fraction):
            return self.form_scale * s
        return float(self.form_scale) * s

    def coroot(self, alpha: Vector) -> Vector:
        n = self.inner(alpha, alpha)
        return _scale(Fraction(2) / n, alpha)

    # -- label (fundamental-weight) coordinates ---------------------------

    def from_labels(self, labels: Sequence) -> Vector:
        if len(labels) != self.rank:
            raise PreconditionError(
                f"expected {self.rank} fundamental-weight coordinates, got {len(labels)}"
            )
        v = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for c, w in zip(labels, self.fundamental_weights):
            v = _add(v, _scale(Fraction(c), w))
        return v

    def label_form(self, m: Sequence[int], n: Sequence[int]) -> Fraction:
        """<x,y> for x,y given by integer labels (exact)."""
        num = 0
        for i, mi in enumerate(m):
            if mi == 0:
                continue
            row = self.weight_gram_num[i]
            num += mi * sum(r * nj for r, nj in zip(row, n))
        return Fraction(num, self.weight_form_den)

    def simple_root_labels(self, i: int) -> tuple[int, ...]:
        return self.cartan_matrix[i]

    def level_of_labels(self, m: Sequence[int]) -> int:
        """<x, theta> for x given by integer labels: the comark-weighted sum."""
        return sum(a * mi for a, mi in zip(self.comarks, m))

    def _solve_in_basis(self, basis: Sequence[Vector], x: Sequence) -> list[Fraction] | None:
        """Solve x = sum c_i basis_i exactly via the Gram system."""
        n = len(basis)
        gram = [[self.inner(basis[i], basis[j]) for j in range(n)] for i in range(n)]
        rhs = [self.inner(basis[i], x) for i in range(n)]
        coeffs = _solve_rational(gram, rhs)
        if coeffs is None:
            return None
        recon = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for c, b in zip(coeffs, basis):
            recon = _add(recon, _scale(c, b))
        if recon != tuple(Fraction(v) for v in x):
            return None  # x outside the span of the basis
        return coeffs


def _solve_rational(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over Fractions; None when singular."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _invert_rational(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    cols = []
    for j in range(n):
        rhs = [Fraction(1 if i == j else 0) for i in range(n)]
        col = _solve_rational(mat, rhs)
        if col is None:
            raise AssertionError("singular matrix")
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def parse_type_label(label: str) -> tuple[str, int]:
    """Split a label like "B3" into ("B", 3); raises on malformed labels."""
    label = label.strip()
    kind, rank = label[:1].upper(), label[1:]
    if kind not in set("ABCDEFG") or not (rank.isascii() and rank.isdigit()):
        raise PreconditionError(f"invalid type label {label!r}; expected e.g. A1 .. G2")
    return kind, int(rank)


def build_root_system(type_label: str, rank: int | None = None) -> RootSystem:
    """Construct the full root system of a simple type of rank <= 8.

    Accepts either build_root_system("G", 2) or build_root_system("G2").
    """
    if rank is None:
        type_label, rank = parse_type_label(type_label)
    t = type_label.upper()
    if t not in _VALID_RANKS or rank not in _VALID_RANKS[t]:
        raise PreconditionError(
            f"invalid simple type ({type_label!r}, rank {rank}); supported: "
            "A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4, G2"
        )

    simple, dim, scale = _simple_roots(t, rank)
    tmp = RootSystem(
        type_label=t,
        rank=rank,
        ambient_dim=dim,
        form_scale=scale,
        simple_roots=tuple(simple),
        positive_roots=(),
        roots=(),
        simple_coroots=(),
        fundamental_weights=(),
        weyl_vector=(),
        highest_root=(),
        dual_coxeter=0,
        cartan_matrix=(),
        comarks=(),
    )
    simple_coroots = tuple(tmp.coroot(a) for a in simple)

    cartan = tuple(
        tuple(int(tmp.inner(simple[i], simple_coroots[j])) for j in range(rank))
        for i in range(rank)
    )

    # Reflection closure of the simple roots gives all roots.
    all_roots: set[Vector] = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            c = tmp.inner(beta, simple_coroots[i])
            new = _sub(beta, _scale(Fraction(c), simple[i]))
            if new not in all_roots:
                all_roots.add(new)
                frontier.append(new)

    expected = _DIM_AND_ORDER[t](rank)[0]
    if len(all_roots) != expected - rank:
        raise AssertionError(
            f"{t}{rank}: generated {len(all_roots)} roots, expected {expected - rank}"
        )

    # Positivity: nonnegative coefficients in the simple-root basis.
    cartan_inv = _invert_rational([[Fraction(c) for c in row] for row in cartan])
    positive, positive_labels = [], []
    for beta in sorted(all_roots):
        labels = tuple(int(tmp.inner(beta, cr)) for cr in simple_coroots)
        coeffs = [
            sum(labels[j] * cartan_inv[j][i] for j in range(rank))
            for i in range(rank)
        ]
        if all(c >= 0 for c in coeffs):
            positive.append(beta)
            positive_labels.append(labels)
    if 2 * len(positive) != len(all_roots):
        raise AssertionError(f"{t}{rank}: positivity split failed")

    rho = tuple(Fraction(0) for _ in range(dim))
    for beta in positive:
        rho = _add(rho, beta)
    rho = _scale(Fraction(1, 2), rho)

    # Fundamental weights: dual basis to the simple coroots inside span(roots).
    fw = []
    for i in range(rank):
        w = tuple(Fraction(0) for _ in range(dim))
        for j in range(rank):
            w = _add(w, _scale(cartan_inv[i][j], simple[j]))
        fw.append(w)
    fundamental_weights = tuple(fw)
    if rho != _add_all(fundamental_weights, dim):
        raise AssertionError(f"{t}{rank}: rho != sum of fundamental weights")

    # Highest root: the unique long root in the closed fundamental chamber.
    max_norm = max(tmp.inner(b, b) for b in all_roots)
    chamber = [
        b
        for b in all_roots
        if tmp.inner(b, b) == max_norm
        and all(tmp.inner(b, cr) >= 0 for cr in simple_coroots)
    ]
    if len(chamber) != 1:
        raise AssertionError(f"{t}{rank}: highest root not unique: {chamber}")
    theta = chamber[0]
    if max_norm != 2:
        raise AssertionError(f"{t}{rank}: long roots have norm {max_norm}, expected 2")

    pair = tmp.inner(theta, rho)
    if pair.denominator != 1:
        raise AssertionError(f"{t}{rank}: <theta, rho> = {pair} not an integer")
    g = 1 + int(pair)

    # Comarks: coefficients of coroot(theta) in the simple-coroot basis.
    comarks_f = tmp._solve_in_basis(simple_coroots, tmp.coroot(theta))
    if comarks_f is None or any(c.denominator != 1 or c < 0 for c in comarks_f):
        raise AssertionError(f"{t}{rank}: bad comarks {comarks_f}")
    comarks = tuple(int(c) for c in comarks_f)

    gram = [
        [tmp.inner(fundamental_weights[i], fundamental_weights[j]) for j in range(rank)]
        for i in range(rank)
    ]
    den = 1
    for row in gram:
        for v in row:
            den = den * v.denominator // _gcd(den, v.denominator)
    gram_num = tuple(
        tuple(int(v * den) for v in row) for row in gram
    )

    short_coroot_norm = min(tmp.inner(c, c) for c in map(tmp.coroot, positive))
    if short_coroot_norm != 2:
        raise AssertionError(
            f"{t}{rank}: short coroots have norm {short_coroot_norm}, expected 2"
        )

    return RootSystem(
        type_label=t,
        rank=rank,
        ambient_dim=dim,
        form_scale=scale,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        roots=tuple(sorted(all_roots)),
        simple_coroots=simple_coroots,
        fundamental_weights=fundamental_weights,
        weyl_vector=rho,
        highest_root=theta,
        dual_coxeter=g,
        cartan_matrix=cartan,
        comarks=comarks,
        positive_root_labels=tuple(positive_labels),
        weight_gram_num=gram_num,
        weight_form_den=den,
    )


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _add_all(vs: Iterable[Vector], dim: int) -> Vector:
    s = tuple(Fraction(0) for _ in range(dim))
    for v in vs:
        s = _add(s, v)
    return s


def is_regular(rs: RootSystem, b: Sequence) -> bool:
    """True iff alpha(b) is not an integer for every positive root alpha.

    Exact for rational coordinates; for float coordinates a value counts as
    integral only when it is exactly integral as a float.
    """
    for alpha in rs.positive_roots:
        v = rs.inner(alpha, b)
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return False
        elif float(v).is_integer():
            return False
    return True


def weyl_orbit(rs: RootSystem, lam: Sequence) -> list[tuple[Vector, int]]:
    """Orbit of lam under the Weyl group, with determinant signs.

    Orbit enumeration is breadth-first over simple reflections; generators
    fixing a point are skipped (stabilizer pruning), so each element carries
    the sign of one group element producing it.  Signs are canonical when
    lam is regular.
    """
    start = tuple(Fraction(v) for v in lam)
    seen: dict[Vector, int] = {start: 1}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            sv = seen[v]
            for i in range(rs.rank):
                c = rs.inner(v, rs.simple_coroots[i])
                if c == 0:
                    continue  # reflection stabilizes v
                w = _sub(v, _scale(Fraction(c), rs.simple_roots[i]))
                if w not in seen:
                    seen[w] = -sv
                    nxt.append(w)
        frontier = nxt
    return sorted(seen.items())


def weyl_group_order(rs: RootSystem) -> int:
    """|W| in closed form (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX)."""
    return _DIM_AND_ORDER[rs.type_label](rs.rank)[1]


def simple_reflection_matrix(rs: RootSystem, i: int) -> list[list[Fraction]]:
    """Matrix of the i-th simple reflection in the ambient basis."""
    dim = rs.ambient_dim
    cols = []
    for j in range(dim):
        e = _e(j, dim)
        c = rs.inner(e, rs.simple_coroots[i])
        cols.append(_sub(e, _scale(Fraction(c), rs.simple_roots[i])))
    return [[cols[j][i2] for j in range(dim)] for i2 in range(dim)]


def dominant_weights_up_to_level(rs: RootSystem, max_level: int) -> list[tuple[int, ...]]:
    """All dominant weights (as labels) with <lambda, theta> <= max_level."""
    if max_level < 0:
        return []
    caps = [max_level // a if a > 0 else max_level for a in rs.comarks]
    out = []
    for combo in itertools.product(*(range(c + 1) for c in caps)):
        if rs.level_of_labels(combo) <= max_level:
            out.append(combo)
    out.sort()
    return out
