"""Projected ribbon links on the sphere: faces, gleams, and the state sum.

A diagram is a family of disjoint circles on S^2 organized as a nesting
forest (no partial overlaps: that encodes the standing embedded-ribbons
assumption).  Faces are the complementary regions; each circle borders
exactly two of them and contributes +wind to the face on its positive side
and -wind to the other, so gleams always sum to zero while the face Euler
characteristics sum to chi(S^2) = 2.

The invariant of a colored diagram is

    |L| = sum_{colorings phi} prod_i N^{phi(Y^-_i)}_{gamma_i phi(Y^+_i)}
          * prod_Y dim(phi(Y))^chi(Y)
          * exp(pi i <phi(Y), phi(Y)+2 rho> / k)^{gleam(Y)}

summed over all maps from faces to the level alphabet.  The phase exponent
is kept as the integer weight_form_den <phi, phi+2 rho> (the root system's
`label_form`) and reduced modulo 2k weight_form_den before its one float
division.  Every factor is
local to one circle (an edge of the region tree) or one face (a node), so
`contract_state_sum` evaluates the sum exactly by eliminating faces from
the leaves up, in O(#faces |A|^2).  The enumerator `state_sum` lists the
individual terms: depth-first in region-tree order, pruned on vanishing
fusion factors, accumulated in a compensated (error-tracking) sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .fusion import fusion_matrices, quantum_dimension
from .reps import Labels, LevelAlphabet

OUTER_FACE = "outer"


@dataclass(frozen=True)
class Circle:
    circle_id: str
    parent: str | None
    winding: int
    positive_side: str  # "inside" | "outside"
    color: Labels


@dataclass(frozen=True)
class Face:
    face_id: str
    boundary: tuple[str, ...]  # ids of adjacent circles
    euler: int
    gleam: int


@dataclass(frozen=True)
class ShadowDiagram:
    circles: tuple[Circle, ...]
    faces: tuple[Face, ...]  # region-tree preorder; outer face first


def _face_id_of(circle_id: str | None) -> str:
    return OUTER_FACE if circle_id is None else f"in:{circle_id}"


def build_diagram(circles: Iterable[Circle | dict]) -> ShadowDiagram:
    """Validate the nesting forest and derive faces, Euler numbers, gleams.

    The face inside circle c (and outside c's children) gets chi = 1 - #children;
    the outer face gets chi = 2 - #roots.  Rejects containment cycles and
    dangling parent references as violations of the disjointness assumption.
    """
    cs: list[Circle] = []
    for c in circles:
        if isinstance(c, dict):
            c = Circle(
                circle_id=str(c["id"]),
                parent=None if c.get("parent") is None else str(c["parent"]),
                winding=int(c["winding"]),
                positive_side=str(c["positive_side"]),
                color=tuple(int(x) for x in c["color"]),
            )
        cs.append(c)

    ids = [c.circle_id for c in cs]
    if len(set(ids)) != len(ids):
        raise PreconditionError(f"duplicate circle ids in {ids}")
    by_id = {c.circle_id: c for c in cs}
    for c in cs:
        if c.positive_side not in ("inside", "outside"):
            raise PreconditionError(
                f"circle {c.circle_id}: positive_side must be 'inside' or 'outside', "
                f"got {c.positive_side!r}"
            )
        if c.parent is not None and c.parent not in by_id:
            raise PreconditionError(
                f"circle {c.circle_id} is parented to unknown circle {c.parent!r}"
            )
    # Forest check: walking parents must terminate at a root.  Each circle is
    # walked once: ON_WALK marks the current walk, REACHES_ROOT earlier ones.
    ON_WALK, REACHES_ROOT = 1, 2
    state: dict[str, int] = {}
    for c in cs:
        walk = []
        cur = c.circle_id
        while cur is not None and cur not in state:
            state[cur] = ON_WALK
            walk.append(cur)
            cur = by_id[cur].parent
        if cur is not None and state[cur] == ON_WALK:
            raise PreconditionError(
                f"containment cycle through circle {cur!r} violates the "
                "disjoint-circles assumption"
            )
        for cid in walk:
            state[cid] = REACHES_ROOT

    children: dict[str | None, list[str]] = {None: []}
    for c in cs:
        children.setdefault(c.circle_id, [])
    for c in cs:
        children.setdefault(c.parent, []).append(c.circle_id)
    for v in children.values():
        v.sort()

    # Faces in region-tree preorder.
    order: list[str | None] = [None]
    stack = list(reversed(children[None]))
    while stack:
        cid = stack.pop()
        order.append(cid)
        stack.extend(reversed(children[cid]))

    gleams = {_face_id_of(cid): 0 for cid in order}
    for c in cs:
        inner = _face_id_of(c.circle_id)
        outer = _face_id_of(c.parent)
        s = 1 if c.positive_side == "inside" else -1
        gleams[inner] += s * c.winding
        gleams[outer] -= s * c.winding

    faces = []
    for cid in order:
        fid = _face_id_of(cid)
        kids = children[None if cid is None else cid]
        if cid is None:
            boundary = tuple(kids)
            euler = 2 - len(kids)
        else:
            boundary = tuple([cid] + kids)
            euler = 1 - len(kids)
        faces.append(Face(face_id=fid, boundary=boundary, euler=euler, gleam=gleams[fid]))

    return ShadowDiagram(circles=tuple(cs), faces=tuple(faces))


@dataclass
class KahanComplex:
    """Compensated complex accumulator; exact zeros leave the state untouched."""

    total: complex = 0j
    _comp: complex = 0j

    def add(self, term: complex) -> None:
        if term == 0:
            return
        y = term - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class StateSumResult:
    value: complex
    abs_sum: float  # sum of |term| over all colorings: the scale of rounding error
    colorings_total: int
    colorings_retained: int
    terms: tuple[tuple[tuple[Labels, ...], complex], ...] | None = None


@dataclass(frozen=True)
class TermData:
    """Per-diagram tables shared by the contraction and the enumerator.

    Build it once with `prepare_terms` and pass it to both to reuse the fusion
    matrices, as `shadow --diagnostics` does.
    """

    k: int
    form_den: int  # the root system's weight_form_den
    gleams: tuple[int, ...]
    qdims: tuple[float, ...]
    phase_q: tuple[int, ...]  # form_den <phi, phi + 2 rho> per alphabet entry
    # circles as (face index of Y^-, face index of Y^+, color labels)
    circle_faces: tuple[tuple[int, int, Labels], ...]
    fusion: dict[Labels, np.ndarray]  # N_gamma for each circle color gamma


def prepare_terms(diagram: ShadowDiagram, alphabet: LevelAlphabet) -> TermData:
    """The term tables of `diagram`; the fusion matrices of all its circle
    colours share one budget (MAX_FUSION_COEFFS), checked before any is built."""
    rs = alphabet.rs
    for c in diagram.circles:
        if c.color not in alphabet:
            raise PreconditionError(
                f"circle {c.circle_id}: color {c.color} is outside the level alphabet "
                f"of {rs.type_label}{rs.rank} at k = {alphabet.k}"
            )
    rho2 = (2,) * rs.rank
    qdims = tuple(quantum_dimension(alphabet, lam) for lam in alphabet.elements)
    phase_q = tuple(
        rs.label_form(lam, tuple(a + b for a, b in zip(lam, rho2)))
        for lam in alphabet.elements
    )
    idx = {f.face_id: i for i, f in enumerate(diagram.faces)}
    circle_faces = []
    for c in diagram.circles:
        inner = idx[_face_id_of(c.circle_id)]
        outer = idx[_face_id_of(c.parent)]
        plus, minus = (inner, outer) if c.positive_side == "inside" else (outer, inner)
        circle_faces.append((minus, plus, c.color))
    return TermData(
        k=alphabet.k,
        form_den=rs.weight_form_den,
        gleams=tuple(f.gleam for f in diagram.faces),
        qdims=qdims,
        phase_q=phase_q,
        circle_faces=tuple(circle_faces),
        fusion=fusion_matrices(alphabet, (c.color for c in diagram.circles)),
    )


def contract_state_sum(
    diagram: ShadowDiagram, alphabet: LevelAlphabet, data: TermData | None = None
) -> StateSumResult:
    """Sum the invariant over all area colorings by elimination on the region tree.

    Face f carries the weight w_f(a) = dim(a)^chi_f exp(i pi gleam_f <a, a+2rho>/k)
    and circle gamma joins a face to its parent through the matrix
    N_gamma[a, b] = N^a_{gamma b} (a the color of Y^-, b that of Y^+).  In
    reverse preorder every face is finished before its parent, which then
    absorbs the message N_gamma m_f (parent is Y^-) or N_gamma^T m_f (parent
    is Y^+), so m_f = w_f * prod_children messages and the sum is sum m_outer.
    Since N >= 0, the same pass over |w_f| gives sum |term|, and over the
    support N != 0 with exact ints the number of nonvanishing colorings.

    chi_f is 1 - #children (2 - #roots for the outer face), so dim^chi_f
    underflows on faces with many children.  Face f is weighted by
    dim^(chi_f + #children_f) instead, which is 1 or 2, and each message it
    absorbs is divided by dim of its color.  A value or abs_sum that is not
    a finite double is refused.
    """
    data = data or prepare_terms(diagram, alphabet)
    n_faces = len(data.gleams)
    n_colors = len(alphabet.elements)

    qdims = np.array(data.qdims)
    abs_w = np.empty((n_faces, n_colors))
    w = np.empty((n_faces, n_colors), dtype=complex)
    period = 2 * data.k * data.form_den  # exp(i pi q / k) has period 2k in q: reduce, then divide
    for f, gleam in enumerate(data.gleams):
        angles = [(gleam * q) % period / data.form_den for q in data.phase_q]
        abs_w[f] = qdims ** (1 if f else 2)  # dim^(chi_f + #children_f)
        w[f] = abs_w[f] * np.exp(1j * math.pi / data.k * np.array(angles))

    # N_gamma in floats for the sums, and its support N != 0 in exact ints for the count
    fusion_mats = {
        gamma: (mat.astype(float), (mat != 0).astype(int).astype(object))
        for gamma, mat in data.fusion.items()
    }
    link: list[tuple[int, Labels, bool] | None] = [None] * n_faces  # face -> parent
    for minus, plus, gamma in data.circle_faces:
        # preorder puts the circle's inner face (the child) after its outer face
        child, parent = max(minus, plus), min(minus, plus)
        link[child] = (parent, gamma, parent == minus)

    # w[f], abs_w[f] and counts[f] become the messages m_f as children are absorbed
    counts = np.ones((n_faces, n_colors), dtype=int).astype(object)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        for f in range(n_faces - 1, 0, -1):
            parent, gamma, parent_is_minus = link[f]
            mat, support = fusion_mats[gamma]
            if not parent_is_minus:
                mat, support = mat.T, support.T
            w[parent] *= (mat @ w[f]) / qdims
            abs_w[parent] *= (mat @ abs_w[f]) / qdims
            counts[parent] *= support @ counts[f]

    value, abs_sum = complex(w[0].sum()), float(abs_w[0].sum())
    if not (cmath.isfinite(value) and math.isfinite(abs_sum)):
        raise PreconditionError(
            f"the state sum is not a finite double (value {value}, sum |term| {abs_sum})"
        )
    return StateSumResult(
        value=value,
        abs_sum=abs_sum,
        colorings_total=n_colors**n_faces,
        colorings_retained=int(counts[0].sum()),
    )


def term_value(data: TermData, coloring: Sequence[int]) -> complex:
    """Canonical per-coloring term; factors multiplied in fixed circle and face order.

    prod_f dim^chi_f is taken as dim(outer)^2 times, circle by circle,
    dim(inner face) / dim(outer face), the scaling of the contraction: a face
    with many children would underflow dim^chi_f.
    """
    n_product = 1
    dim_product = data.qdims[coloring[0]] ** 2
    for minus, plus, gamma in data.circle_faces:
        n_product *= int(data.fusion[gamma][coloring[minus], coloring[plus]])
        if n_product == 0:
            return 0j
        # preorder puts the circle's inner face after its outer face
        inner, outer = coloring[max(minus, plus)], coloring[min(minus, plus)]
        dim_product *= data.qdims[inner] / data.qdims[outer]
    exponent = sum(g * data.phase_q[ci] for g, ci in zip(data.gleams, coloring))
    # exp(i pi q / k) has period 2k in q: reduce the integer d q, then divide once
    exponent = exponent % (2 * data.k * data.form_den) / data.form_den
    return n_product * dim_product * complex(
        math.cos(math.pi * exponent / data.k),
        math.sin(math.pi * exponent / data.k),
    )


def state_sum(
    diagram: ShadowDiagram,
    alphabet: LevelAlphabet,
    diagnostics: bool = False,
    data: TermData | None = None,
) -> StateSumResult:
    """Sum the invariant by enumerating every area coloring (exponential).

    Colorings are enumerated depth-first over faces in region-tree order,
    lexicographically, with an explicit stack; a branch is cut as soon as
    some circle's fusion factor vanishes.  With diagnostics the nonvanishing
    terms are listed.  `contract_state_sum` gives the same value in
    polynomial time; this enumerator lists terms and serves as its oracle.
    """
    data = data or prepare_terms(diagram, alphabet)
    n_faces = len(diagram.faces)
    n_colors = len(alphabet.elements)

    # circles whose fusion factor becomes decidable once face f is colored
    # (in region-tree order that is the inner face, except for inside-out
    # orientations where it is still the later of the two faces).
    ready_at: list[list[tuple[int, int, Labels]]] = [[] for _ in range(n_faces)]
    for minus, plus, gamma in data.circle_faces:
        ready_at[max(minus, plus)].append((minus, plus, gamma))

    acc = KahanComplex()
    abs_acc = KahanComplex()
    terms: list[tuple[tuple[Labels, ...], complex]] = []
    coloring = [0] * n_faces
    next_color = [0] * n_faces  # next color to try at each face on the stack
    retained = 0
    face = 0
    while face >= 0:
        ci = next_color[face]
        if ci == n_colors:
            face -= 1
            continue
        next_color[face] = ci + 1
        coloring[face] = ci
        if any(
            data.fusion[gamma][coloring[minus], coloring[plus]] == 0
            for minus, plus, gamma in ready_at[face]
        ):
            continue
        if face + 1 < n_faces:
            face += 1
            next_color[face] = 0
            continue
        t = term_value(data, coloring)
        retained += 1
        acc.add(t)
        abs_acc.add(abs(t))
        if diagnostics:
            terms.append((tuple(alphabet.elements[c] for c in coloring), t))

    return StateSumResult(
        value=acc.total,
        abs_sum=abs_acc.total.real,
        colorings_total=n_colors**n_faces,
        colorings_retained=retained,
        terms=tuple(terms) if diagnostics else None,
    )


def empty_link_value(alphabet: LevelAlphabet) -> float:
    """sum_lambda dim_q(lambda)^2, the bare-sphere state sum."""
    return sum(quantum_dimension(alphabet, lam) ** 2 for lam in alphabet.elements)
