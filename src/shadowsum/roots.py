"""Root-system data for the simple Lie types A..G at rank <= 8.

The root data are computed once, in integers, from the Cartan matrix
(Humphreys, Introduction to Lie Algebras and Representation Theory,
10-11): the positive roots are generated as integer coordinates in the
simple-root basis, and their labels, the highest root, the comarks and the
dual Coxeter number follow from those coordinates.  The one rational
computation is the exact inverse of the Cartan matrix, for the fundamental
weights and the integer Gram data of the form on labels.

Ambient vectors are exact `Fraction` tuples in a fixed orthogonal basis per
type (the standard orthonormal realizations); they serve callers that pair a
root with an ambient point b.  The invariant scalar product is the Euclidean
dot product rescaled so that every short coroot has squared length 2;
equivalently, long roots have squared length 2.  Regularity and lattice
tests are exact; floats appear only at the trigonometric layer in other
modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

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


def _combine(coeffs: Sequence, vectors: Sequence[Vector]) -> Vector:
    """sum_i coeffs[i] * vectors[i], exactly."""
    terms = [(Fraction(c), v) for c, v in zip(coeffs, vectors) if c]
    return tuple(sum((c * v[d] for c, v in terms), Fraction(0)) for d in range(len(vectors[0])))


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

    Vectors are Fraction tuples in the ambient basis.  `cartan[i][j]` is
    <alpha_i, coroot(alpha_j)>; weights are mostly handled through their
    integer coordinates in the fundamental-weight basis ("labels"),
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
    # label_j(alpha) = <alpha, coroot(alpha_j)> of each positive root, in positive_roots
    # order, and of the highest root
    positive_root_labels: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    highest_root_labels: tuple[int, ...] = field(repr=False, default=())
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
        return _combine(labels, self.fundamental_weights)

    def label_form(self, m: Sequence[int], n: Sequence[int]) -> int:
        """weight_form_den * <x,y> for x,y given by integer labels: an exact integer."""
        num = 0
        for i, mi in enumerate(m):
            if mi == 0:
                continue
            row = self.weight_gram_num[i]
            num += mi * sum(r * nj for r, nj in zip(row, n))
        return num

    def level_of_labels(self, m: Sequence[int]) -> int:
        """<x, theta> for x given by integer labels: the comark-weighted sum."""
        return sum(a * mi for a, mi in zip(self.comarks, m))


def format_vector(x: Sequence) -> str:
    """A point for messages: rationals as p/q, e.g. (1/3, -1/3), not Fraction(1, 3)."""
    return "(" + ", ".join(map(str, x)) + ")"


def _invert_rational(mat: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over Fractions."""
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise AssertionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


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
    The positive roots are the closure of the simple roots under the simple
    reflections s_i(c) = c - label_i(c) e_i in simple-root coordinates c,
    keeping the results with non-negative coordinates; label(c) = c C.
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
    norms = [scale * sum(a * a for a in alpha) for alpha in simple]  # |alpha_i|^2
    simple_coroots = tuple(_scale(2 / n, alpha) for alpha, n in zip(simple, norms))
    cartan = tuple(
        tuple(int(scale * sum(a * b for a, b in zip(alpha, cr))) for cr in simple_coroots)
        for alpha in simple
    )

    labels_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    frontier = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    while frontier:
        c = frontier.pop()
        if c in labels_of:
            continue
        labels_of[c] = lab = tuple(
            sum(ci * row[j] for ci, row in zip(c, cartan)) for j in range(rank)
        )
        for i, li in enumerate(lab):
            if li and c[i] >= li:
                frontier.append(c[:i] + (c[i] - li,) + c[i + 1:])

    expected = _DIM_AND_ORDER[t](rank)[0]
    if 2 * len(labels_of) != expected - rank:
        raise AssertionError(
            f"{t}{rank}: generated {2 * len(labels_of)} roots, expected {expected - rank}"
        )
    if [sum(col) for col in zip(*labels_of.values())] != [2] * rank:
        raise AssertionError(f"{t}{rank}: rho != sum of fundamental weights")
    root_norms = [
        sum(ci * li * n for ci, li, n in zip(c, lab, norms)) / 2 for c, lab in labels_of.items()
    ]
    long_norm, short_coroot_norm = max(root_norms), min(4 / n for n in root_norms)
    if long_norm != 2 or short_coroot_norm != 2:
        raise AssertionError(
            f"{t}{rank}: long roots have norm {long_norm} and short coroots "
            f"{short_coroot_norm}, expected 2"
        )

    theta = max(labels_of, key=sum)  # the root of greatest height
    comarks_f = [c * n / 2 for c, n in zip(theta, norms)]
    if any(a.denominator != 1 for a in comarks_f):
        raise AssertionError(f"{t}{rank}: bad comarks {comarks_f}")
    comarks = tuple(int(a) for a in comarks_f)

    cartan_inv = _invert_rational(cartan)
    fundamental_weights = tuple(_combine(row, simple) for row in cartan_inv)
    gram = [[cartan_inv[i][j] * norms[j] / 2 for j in range(rank)] for i in range(rank)]
    den = math.lcm(*(v.denominator for row in gram for v in row))

    positive = sorted((_combine(c, simple), lab) for c, lab in labels_of.items())
    return RootSystem(
        type_label=t,
        rank=rank,
        ambient_dim=dim,
        form_scale=scale,
        simple_roots=tuple(simple),
        positive_roots=tuple(v for v, _ in positive),
        roots=tuple(sorted([v for v, _ in positive] + [_scale(-1, v) for v, _ in positive])),
        simple_coroots=simple_coroots,
        fundamental_weights=fundamental_weights,
        weyl_vector=_combine((1,) * rank, fundamental_weights),
        highest_root=_combine(theta, simple),
        dual_coxeter=1 + sum(comarks),
        cartan_matrix=cartan,
        comarks=comarks,
        positive_root_labels=tuple(lab for _, lab in positive),
        highest_root_labels=labels_of[theta],
        weight_gram_num=tuple(tuple(int(v * den) for v in row) for row in gram),
        weight_form_den=den,
    )


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


def weyl_orbit(rs: RootSystem, labels: Sequence) -> list[tuple[tuple, int]]:
    """Orbit of a weight, given by its labels, under the Weyl group, with signs.

    Orbit enumeration is breadth-first over the simple reflections
    s_i(m) = m - m_i C[i] on labels; generators fixing a point (m_i = 0)
    are skipped (stabilizer pruning), so each element carries the sign of
    one group element producing it.  Signs are canonical when the weight is
    regular.  Labels of any number type are accepted; returns sorted
    (labels, sign) pairs.
    """
    start = tuple(labels)
    if len(start) != rs.rank:
        raise PreconditionError(f"expected {rs.rank} labels, got {len(start)}")
    seen = {start: 1}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            sign = seen[m]
            for mi, row in zip(m, rs.cartan_matrix):
                if mi == 0:
                    continue  # reflection stabilizes m
                w = tuple(x - mi * r for x, r in zip(m, row))
                if w not in seen:
                    seen[w] = -sign
                    nxt.append(w)
        frontier = nxt
    return sorted(seen.items())


def weyl_group_order(rs: RootSystem) -> int:
    """|W| in closed form (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX)."""
    return _DIM_AND_ORDER[rs.type_label](rs.rank)[1]


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
