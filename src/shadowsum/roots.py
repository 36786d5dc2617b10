"""Root-system data for the simple Lie types A..G at rank <= 8.

The root data are computed once, in integers, from the Cartan matrix
(Humphreys, Introduction to Lie Algebras and Representation Theory,
10-11): the positive roots are generated as integer coordinates in the
simple-root basis, and their labels, the highest root, the comarks and the
dual Coxeter number follow from those coordinates.  The inverse of the
Cartan matrix is held as adj(C) and det(C) > 0, from fraction-free elimination,
so the Gram data of the form on labels are integers too.  The simple roots
come from one integer table, twice each simple root in a fixed orthogonal
basis per type (the standard orthonormal realizations of Bourbaki's Plates
I-IX), where the invariant product is the form scale times the dot product,
rescaled so that every short coroot has squared length 2; equivalently, long
roots have squared length 2.  The table gives the Cartan matrix and the order
of the positive roots.  Every field of a root system is an integer, so this
module loads no `fractions`: the rational views of the data and the field
values b that are read through them are `field`'s.

The Weyl group acts on labels by the simple reflections.  `weyl_orbit` lists
an orbit with signs; `to_dominant` is the one walk to the dominant chamber of
the Cartan matrix it is given: on `cartan_matrix` it serves Freudenthal in
`reps` and the Verlinde dual of `fusion_table`, and on `affine_cartan_matrix`,
whose chamber is the fundamental alcove, it is the whole alcove fold of
`fusion`; `weyl_group_order` reads |W| from the root heights.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Sequence

from .errors import OracleError, PreconditionError, shown

# {type: {supported rank: dim g}}: dim g validates construction.
_TYPES = {
    "A": {n: (n + 1) ** 2 - 1 for n in range(1, 9)},
    "B": {n: n * (2 * n + 1) for n in range(2, 9)},
    "C": {n: n * (2 * n + 1) for n in range(2, 9)},
    "D": {n: n * (2 * n - 1) for n in range(4, 9)},
    "E": {6: 78, 7: 133, 8: 248},
    "F": {4: 52},
    "G": {2: 14},
}


def _doubled_simple_roots(
        t: str, rank: int) -> tuple[list[tuple[int, ...]], int, tuple[int, int]]:
    """(2 alpha_i per simple root as an integer tuple, ambient dimension, form scale c as
    (numerator, denominator)) in the standard realization (Bourbaki, Lie Groups and Lie
    Algebras, Ch. VI, Plates I-IX), where the invariant product is <x,y> = c * dot(x,y).
    Every coordinate of a simple root is a multiple of 1/2, so the table is exact.
    """
    dim = {"A": rank + 1, "E": 8, "F": 4, "G": 3}.get(t, rank)

    def e(*signed: int) -> tuple[int, ...]:
        """2 sum_i +-eps_|i| over signed 1-based indices: e(1, -2) is 2(eps_1 - eps_2)."""
        v = [0] * dim
        for i in signed:
            v[abs(i) - 1] += 2 if i > 0 else -2
        return tuple(v)

    chain = [e(i, -i - 1) for i in range(1, dim)]  # eps_i - eps_{i+1}
    if t == "A":
        return chain, dim, (1, 1)
    if t in "BCD":
        last = {"B": e(rank), "C": e(rank, rank), "D": e(rank - 1, rank)}[t]
        return chain + [last], dim, (1, 2) if t == "C" else (1, 1)
    if t == "E":  # (e1+e8)/2 - (e2+...+e7)/2, e1+e2, then e_{i+1}-e_i
        roots = [(1, -1, -1, -1, -1, -1, -1, 1), e(1, 2)] + [e(i + 1, -i) for i in range(1, 7)]
        return roots[:rank], dim, (1, 1)
    if t == "F":  # e2-e3, e3-e4, e4, (e1-e2-e3-e4)/2
        return chain[1:] + [e(4), (1, -1, -1, -1)], dim, (1, 1)
    return [e(1, -2), e(-1, -1, 2, 3)], dim, (1, 3)  # G2: e1-e2, -2e1+e2+e3


class RootSystem(NamedTuple):
    """Immutable root/weight data of one simple type.

    `cartan[i][j]` is <alpha_i, coroot(alpha_j)>; weights are handled through
    their integer coordinates in the fundamental-weight basis ("labels"),
    i.e. label_j(x) = <x, coroot(alpha_j)>, and field values through their
    coweight coordinates x (`field`).  Every field is an int or a tuple of ints;
    `field.form_scale`, `field.simple_roots` and `field.cartan_inverse` build
    their `Fraction` values from them.
    """

    type_label: str
    rank: int
    ambient_dim: int
    form_scale_ratio: tuple[int, int]  # the form scale c as (numerator, denominator)
    doubled_simple_roots: tuple[tuple[int, ...], ...]  # 2 alpha_i in ambient coordinates
    dual_coxeter: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    affine_cartan_matrix: tuple[tuple[int, ...], ...]  # row, column 0: alpha_0 = delta - theta
    cartan_adjugate: tuple[tuple[int, ...], ...]  # adj(C) = det(C) C^-1
    cartan_det: int  # det(C) > 0
    comarks: tuple[int, ...]
    # label_j(alpha) of each positive root, sorted by the root's ambient coordinates,
    # and of the highest root
    positive_root_labels: tuple[tuple[int, ...], ...]
    highest_root_labels: tuple[int, ...]
    # integer Gram data for label arithmetic: weight_form_den * <w_i, w_j>
    weight_gram_num: tuple[tuple[int, ...], ...]
    weight_form_den: int
    # the row G labels(alpha) of each positive root, in that order: label_form(m, alpha) = m . row
    root_forms: tuple[tuple[int, ...], ...]

    @property
    def name(self) -> str:
        """The type label, e.g. "G2": `parse_type_label` read backwards."""
        return f"{self.type_label}{self.rank}"

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


def _adjugate(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj(M), det(M)) of an integer matrix whose leading principal minors are all
    positive, as a Cartan matrix's are, by fraction-free Gauss-Jordan elimination
    (Bareiss, Math. Comp. 22, 1968) on [M | I]: step `col` takes row `col` as pivot
    and sets every other row to (p * row - f * pivot row) / (previous pivot), a
    division that is exact.  So no row is swapped, the pivots are the leading minors,
    and [M | I] ends as [det(M) I | adj(M)]."""
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        p, pivot = a[col][col], a[col]
        if p <= 0:
            raise OracleError(f"leading minor {col + 1} of {mat} is {p}, not positive")
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], pivot)]
        prev = p
    return [row[n:] for row in a], prev


def parse_type_label(label: str) -> tuple[str, int]:
    """Split a label like "B3" into ("B", 3); raises on malformed labels.

    A rank of more than 20 digits is read as its first 20 digits times a power of
    ten, so a rank past CPython's limit on int parsing reaches the refusal of an
    unsupported rank, where `shown` names it by its order of magnitude.
    """
    label = label.strip()
    kind, rank = label[:1].upper(), label[1:]
    if kind not in set("ABCDEFG") or not (rank.isascii() and rank.isdigit()):
        raise PreconditionError(f"invalid type label {label!r}; expected e.g. A1 .. G2")
    digits = rank.lstrip("0") or "0"
    return kind, int(digits[:20]) * 10 ** max(0, len(digits) - 20)


def build_root_system(type_label: str) -> RootSystem:
    """Construct the full root system of a simple type of rank <= 8, e.g. "G2".

    The positive roots are the closure of the simple roots under the simple
    reflections s_i(c) = c - label_i(c) e_i in simple-root coordinates c,
    keeping the results with non-negative coordinates; label(c) = c C.
    """
    t, rank = parse_type_label(type_label)
    if rank not in _TYPES.get(t, {}):
        raise PreconditionError(
            f"invalid simple type ({t!r}, rank {shown(rank)}); supported: "
            + ", ".join(f"{u}{min(r)}" + f"-{u}{max(r)}" * (len(r) > 1) for u, r in _TYPES.items())
        )

    doubled, dim, (scale_num, scale_den) = _doubled_simple_roots(t, rank)
    dots = [[sum(map(mul, x, y)) for y in doubled] for x in doubled]  # 4 dot(alpha_i, alpha_j)
    cartan = tuple(tuple(2 * v // dots[j][j] for j, v in enumerate(row)) for row in dots)
    # |alpha_i|^2 = norms[i] / (4 scale_den), as c = scale_num / scale_den
    norms = [scale_num * dots[i][i] for i in range(rank)]

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

    expected = _TYPES[t][rank]
    if 2 * len(labels_of) != expected - rank:
        raise OracleError(
            f"{t}{rank}: generated {2 * len(labels_of)} roots, expected {expected - rank}"
        )
    if [sum(col) for col in zip(*labels_of.values())] != [2] * rank:
        raise OracleError(f"{t}{rank}: rho != sum of fundamental weights")
    # |beta|^2 = sum_i c_i label_i(beta) |alpha_i|^2 / 2, so a long root has squared length
    # long_norm / (8 scale_den); when that is 2, so is 4 / 2, that of a short coroot
    long_norm = max(sum(map(mul, c, map(mul, lab, norms))) for c, lab in labels_of.items())
    if long_norm != 16 * scale_den:
        raise OracleError(f"{t}{rank}: long roots have norm {long_norm}/{8 * scale_den}, "
                          "expected 2")

    theta = max(labels_of, key=sum)  # the root of greatest height
    comarks, rest = zip(*(divmod(c * n, 8 * scale_den) for c, n in zip(theta, norms)))
    if any(rest):
        raise OracleError(f"{t}{rank}: bad comarks, theta = {theta}")

    # <omega_i, omega_j> = adj_ij |alpha_j|^2 / (2 det) = gram[i][j] / q, reduced over den
    adj, det = _adjugate(cartan)
    q = 8 * scale_den * det
    gram = [[a * n for a, n in zip(row, norms)] for row in adj]
    den = math.lcm(*(q // math.gcd(v, q) for row in gram for v in row))

    # Positive roots in the order of their ambient coordinates, formed in integers from 2 alpha_i
    positive = tuple(labels_of[c] for c in sorted(
        labels_of, key=lambda c: [sum(ci * v[d] for ci, v in zip(c, doubled)) for d in range(dim)]
    ))
    gram_num = tuple(tuple(v * den // q for v in row) for row in gram)
    return RootSystem(
        type_label=t,
        rank=rank,
        ambient_dim=dim,
        form_scale_ratio=(scale_num, scale_den),
        doubled_simple_roots=tuple(doubled),
        dual_coxeter=1 + sum(comarks),
        cartan_matrix=cartan,
        # <alpha_i, coroot(alpha_0)> = -<alpha_i, sum_j comark_j coroot(alpha_j)>
        affine_cartan_matrix=((2, *(-t for t in labels_of[theta])),) + tuple(
            (-sum(map(mul, row, comarks)), *row) for row in cartan),
        cartan_adjugate=tuple(map(tuple, adj)),
        cartan_det=det,
        comarks=comarks,
        positive_root_labels=positive,
        highest_root_labels=labels_of[theta],
        weight_gram_num=gram_num,
        weight_form_den=den,
        root_forms=tuple(tuple(sum(map(mul, row, al)) for row in gram_num) for al in positive),
    )


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


def to_dominant(cartan: Sequence, labels: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(the dominant conjugate of a weight given by its labels, (-1)^(reflections))
    under the Weyl group of a Cartan matrix, finite or affine.

    Each step reflects in the simple root of the first negative label,
    s_i(m) = m - m_i cartan[i], until no label is negative.  s_i permutes the positive
    roots other than alpha_i, so each step removes one wall between the weight and the
    dominant chamber, and the walk ends at the weight's one dominant conjugate after
    l(w) steps (Humphreys, 10.3): on an affine matrix, for every weight of positive
    level, which lies in the Tits cone (Kac, Infinite-Dimensional Lie Algebras, 3.12).
    """
    m, sign = list(labels), 1
    while True:
        i = next((i for i, v in enumerate(m) if v < 0), None)
        if i is None:
            return tuple(m), sign
        mi = m[i]
        m, sign = [v - mi * c for v, c in zip(m, cartan[i])], -sign


def weyl_group_order(rs: RootSystem) -> int:
    """|W| = prod_{alpha>0} (ht alpha + 1) / ht alpha (Macdonald, Math. Ann. 199, 1972).

    labels(alpha) . (row sums of adj(C)) is det(C) ht alpha, so the product is read in
    integers from those heights h: prod(h + det(C)) // prod(h).
    """
    det, heights = rs.cartan_det, [sum(row) for row in rs.cartan_adjugate]
    h = [sum(map(mul, al, heights)) for al in rs.positive_root_labels]
    return math.prod(v + det for v in h) // math.prod(h)
