"""Link files and the projected ribbon links they describe: faces, gleams, the state sum.

A link file holds one JSON object, read by `read_link` and nothing else:
    { "group": "A1", "k": 4,
      "circles": [ { "id": str, "parent": str | null (optional), "winding": int,
                     "positive_side": "inside" | "outside",
                     "color": [fundamental-weight coords] } ] }

A diagram is a family of disjoint circles on S^2 organized as a nesting
forest (no partial overlaps: that encodes the standing embedded-ribbons
assumption).  Faces are the complementary regions; each circle borders
exactly two of them and contributes +wind to the face on its positive side
and -wind to the other, so gleams always sum to zero while the face Euler
characteristics sum to chi(S^2) = 2.

Faces are integers, numbered once by `build_diagram` in a preorder walk of
the region tree: 0 is the outer face, and the face inside a circle follows
its outer face, the children of a face taken by sorted circle id.  Each
circle records its inner and outer face index, so every non-outer face has
exactly one bounding circle and every later stage reads the indices
instead of deriving them.  `regularize --face-values` lists face values in
this order.

The invariant of a colored diagram is

    |L| = sum_{colorings phi} prod_i N^{phi(Y^+_i)}_{gamma_i phi(Y^-_i)}
          * prod_Y dim(phi(Y))^chi(Y)
          * exp(pi i <phi(Y), phi(Y)+2 rho> / k)^{gleam(Y)}

summed over all maps from faces to the level alphabet, where Y^+_i and
Y^-_i are the faces on the positive and the other side of circle i.  The
other reading, N^{phi(Y^-_i)}_{gamma_i phi(Y^+_i)}, gives the same value:
conjugating every colour turns one into the other and leaves dim and the
twist unchanged.  A diagram and its alphabet become numbers once, in
`prepare_terms` (`TermData`: the alphabet's labels, gleams, quantum
dimensions, phase exponents and each circle's fusion rows), and the state sum
reads only those tables.  The phase exponent
is kept as the integer weight_form_den <phi, phi+2 rho> (the root system's
`label_form`) and reduced modulo 2k weight_form_den before its one float
division.  Every factor is local to one circle (an edge of the region
tree) or one face (a node), so `contract_state_sum` evaluates the sum
exactly by eliminating faces from the leaves up.  Each circle's fusion
factor is held by rows (`fusion.Rows`): rows[outer colour] maps each inner
colour of a nonzero N to N, so the elimination costs O(#faces * nonzeros)
in Python floats, complexes and ints, where a dense matrix would cost
O(#faces |A|^2); it is the one evaluator of the value, of sum |term| and of
the number of terms.  `list_terms` only lists the nonvanishing terms (for
`shadow --diagnostics`): depth-first in region-tree order, each face
coloured only by the nonzero entries of the same rows.  The module
uses neither numpy nor `cmath` (a phase is complex(cos t, sin t)), and loads
`reps` and `fusion` only where it runs them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import BudgetError, PreconditionError

if TYPE_CHECKING:
    from .fusion import Rows
    from .reps import Labels, LevelAlphabet


class Circle(NamedTuple):
    circle_id: str
    parent: str | None
    winding: int
    positive_side: str  # "inside" | "outside"
    color: Labels
    inner: int  # index of the face inside the circle
    outer: int  # index of the face outside it: the parent's inner face, or 0


class Face(NamedTuple):
    euler: int
    gleam: int


class ShadowDiagram(NamedTuple):
    circles: tuple[Circle, ...]  # in file order
    faces: tuple[Face, ...]  # region-tree preorder; outer face first


_TOP_KEYS = {"group", "k", "circles"}
_CIRCLE_KEYS = {"id", "parent", "winding", "positive_side", "color"}


def _is_int(x) -> bool:
    """A JSON integer; bools are ints to Python but not to the link schema."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_link(doc, group: str | None = None, k: int | None = None, *,
              level: bool = True) -> tuple[tuple | None, list[dict]]:
    """Read a link document: ((RootSystem, LevelAlphabet | None, ShadowDiagram) | None,
    problems).

    `group` and `k` are the flags; they win over the file's keys.  Every
    problem is recorded once as {"code", "message"}, in this order: the
    top-level keys, a missing level and the circles' keys (code "parse"),
    then the group ("group"), the level bound ("level-bound"), the alphabet's
    budget ("budget"), each colour against the level alphabet ("color"), each
    positive_side ("positive-side") and the nesting forest ("assumption-1").
    A parse problem ends the reading, and a check that an earlier problem
    makes impossible is skipped.  The link is None if anything was recorded.
    With level=False (a stepped field, which uses no level alphabet) the
    level is neither required nor checked, the colours go unchecked, and
    the alphabet is None.
    """
    from .roots import build_root_system

    problems: list[dict] = []

    def problem(code: str, message: str) -> None:
        problems.append({"code": code, "message": message})

    if not isinstance(doc, dict):
        problem("parse", "link file must hold a JSON object")
        return None, problems
    if set(doc) - _TOP_KEYS:
        problem("parse", f"unknown top-level keys {sorted(set(doc) - _TOP_KEYS)}")
    if "group" in doc and not isinstance(doc["group"], str):
        problem("parse", "file key 'group' must be a string such as \"A1\"")
    elif group is None and "group" not in doc:
        problem("parse", "no group given (flag --group or file key 'group')")
    if "k" in doc and not _is_int(doc["k"]):
        problem("parse", "file key 'k' must be an integer")
    if level and k is None and "k" not in doc:
        problem("parse", "no level given (flag --k or file key 'k')")
    circles = doc.get("circles")
    if not isinstance(circles, list):
        problem("parse", "link file needs a 'circles' array")
        return None, problems
    for i, c in enumerate(circles):
        if not isinstance(c, dict):
            problem("parse", f"circle #{i} must be an object")
            continue
        if _CIRCLE_KEYS - {"parent"} - set(c) or set(c) - _CIRCLE_KEYS:
            problem("parse", f"circle #{i} must have the keys id, winding, positive_side, "
                             f"color and optionally parent; it has {sorted(c)}")
        parent = c.get("parent")
        if not isinstance(c.get("id", ""), str) or not (parent is None or isinstance(parent, str)):
            problem("parse", f"circle #{i}: id and parent must be strings")
        if not _is_int(c.get("winding", 0)):
            problem("parse", f"circle #{i}: winding must be an integer")
        color = c.get("color", [])
        if not isinstance(color, list) or not all(_is_int(x) for x in color):
            problem("parse", f"circle #{i}: color must be an array of integer coordinates")
    if problems:
        return None, problems

    rs = alphabet = diagram = None
    try:
        rs = build_root_system(doc.get("group") if group is None else group)
    except PreconditionError as e:
        problem("group", str(e))
    if rs is not None and level:
        from .reps import level_alphabet

        try:
            alphabet = level_alphabet(rs, doc.get("k") if k is None else k)
        except PreconditionError as e:
            problem("budget" if isinstance(e, BudgetError) else "level-bound", str(e))
    if alphabet is not None:
        for c in circles:
            if tuple(c["color"]) not in alphabet:
                problem("color", f"circle {c['id']}: color {c['color']} is outside the level "
                                 f"alphabet of {rs.name} at k = {alphabet.k}")
    sides = [c for c in circles if c["positive_side"] not in ("inside", "outside")]
    for c in sides:
        problem("positive-side", f"circle {c['id']}: positive_side must be 'inside' or 'outside'")
    if not sides:
        try:
            diagram = build_diagram(circles)
        except PreconditionError as e:
            problem("assumption-1", str(e))
    return (None if problems else (rs, alphabet, diagram)), problems


def build_diagram(circles: Iterable[dict]) -> ShadowDiagram:
    """Validate the nesting forest of link-file circle dicts and derive faces,
    Euler numbers, gleams.

    Faces are numbered in one preorder walk of the region tree: the outer
    face is 0, and each circle's inner face comes after its parent's, the
    children of a face taken by sorted circle id.  The face inside circle c
    (and outside c's children) gets chi = 1 - #children; the outer face gets
    chi = 2 - #roots.  Rejects, as violations of the disjointness assumption,
    duplicate ids, containment cycles (circles the walk never reaches) and
    dangling parent references.  The circles' keys, types and positive_side
    values are `read_link`'s to check.
    """
    docs = list(circles)
    ids = [c["id"] for c in docs]
    if len(set(ids)) != len(ids):
        raise PreconditionError(f"duplicate circle ids in {ids}")
    parent = {cid: c.get("parent") for cid, c in zip(ids, docs)}
    children: dict[str | None, list[str]] = {cid: [] for cid in [None, *ids]}
    for cid in ids:
        if parent[cid] is not None and parent[cid] not in parent:
            raise PreconditionError(
                f"circle {cid} is parented to unknown circle {parent[cid]!r}"
            )
        children[parent[cid]].append(cid)
    for v in children.values():
        v.sort()

    face_of: dict[str | None, int] = {}  # None: the outer face; else the face inside
    stack: list[str | None] = [None]
    while stack:
        cid = stack.pop()
        face_of[cid] = len(face_of)
        stack.extend(reversed(children[cid]))
    if len(face_of) <= len(ids):
        # The parents of a circle the walk missed never reach a root: follow
        # them until one repeats, which lies on the cycle.
        cur, seen = next(cid for cid in ids if cid not in face_of), set()
        while cur not in seen:
            seen.add(cur)
            cur = parent[cur]
        raise PreconditionError(
            f"containment cycle through circle {cur!r} violates the "
            "disjoint-circles assumption"
        )

    cs = []
    gleams = [0] * len(face_of)
    for cid, c in zip(ids, docs):
        circle = Circle(
            circle_id=cid,
            parent=parent[cid],
            winding=c["winding"],
            positive_side=c["positive_side"],
            color=tuple(c["color"]),
            inner=face_of[cid],
            outer=face_of[parent[cid]],
        )
        s = circle.winding if circle.positive_side == "inside" else -circle.winding
        gleams[circle.inner] += s
        gleams[circle.outer] -= s
        cs.append(circle)
    faces = tuple(Face(euler=(2 if cid is None else 1) - len(children[cid]), gleam=gleams[f])
                  for cid, f in face_of.items())
    return ShadowDiagram(circles=tuple(cs), faces=faces)


class StateSumResult(NamedTuple):
    value: complex
    abs_sum: float  # sum of |term| over all colorings: the scale of rounding error
    colorings_total: int
    colorings_retained: int


class TermData(NamedTuple):
    """The numbers of a coloured diagram that the state sum reads: the one input of
    `contract_state_sum` and `list_terms`, which see no diagram and no alphabet.

    Build it once with `prepare_terms` and pass it to both, as `shadow
    --diagnostics` does, so the fusion matrices are built once.
    """

    elements: tuple[Labels, ...]  # the level alphabet's labels; colours index them
    k: int
    form_den: int  # the root system's weight_form_den
    gleams: tuple[int, ...]
    qdims: tuple[float, ...]
    phase_q: tuple[int, ...]  # form_den <phi, phi + 2 rho> per alphabet entry
    # circles in file order as (inner face, outer face, rows): the rows of the
    # circle's fusion factor M with colour a outside and b inside, rows[a] =
    # {b: M[a, b]} with b increasing; that is N_gamma for positive side inside
    # and its transpose otherwise.  Circles of one colour and side share rows.
    circles: tuple[tuple[int, int, Rows], ...]


def prepare_terms(diagram: ShadowDiagram, alphabet: LevelAlphabet) -> TermData:
    """The term tables of `diagram`; `fusion_matrices` builds the matrices of all
    its circle colours under one budget (MAX_FUSION_COEFFS), checked before
    anything is built, and refuses a colour outside the alphabet before its folds."""
    from .fusion import fusion_matrices
    from .reps import quantum_dimension

    fusion = fusion_matrices(alphabet, (c.color for c in diagram.circles))
    rs = alphabet.rs
    rho2 = (2,) * rs.rank
    qdims = tuple(quantum_dimension(alphabet, lam) for lam in alphabet.elements)
    phase_q = tuple(
        rs.label_form(lam, tuple(a + b for a, b in zip(lam, rho2)))
        for lam in alphabet.elements
    )
    oriented = {}
    for g, side in dict.fromkeys((c.color, c.positive_side) for c in diagram.circles):
        rows = fusion[g]
        if side == "outside":  # the transpose; visiting a in order keeps its keys increasing
            transposed = [{} for _ in rows]
            for a, row in enumerate(rows):
                for b, n in row.items():
                    transposed[b][a] = n
            rows = transposed
        oriented[g, side] = rows
    return TermData(
        elements=alphabet.elements,
        k=alphabet.k,
        form_den=rs.weight_form_den,
        gleams=tuple(f.gleam for f in diagram.faces),
        qdims=qdims,
        phase_q=phase_q,
        circles=tuple((c.inner, c.outer, oriented[c.color, c.positive_side])
                      for c in diagram.circles),
    )


def contract_state_sum(data: TermData) -> StateSumResult:
    """Sum the invariant over all area colorings by elimination on the region tree.

    Face f carries the weight w_f(a) = dim(a)^chi_f exp(i pi gleam_f <a, a+2rho>/k)
    and the circle bounding f joins it to its outer face through M[a, b],
    the fusion factor with a outside and b inside.  In reverse preorder
    every face is finished before its outer face, which then absorbs the
    message M m_f, so m_f = w_f * prod_children messages and the sum is
    sum m_outer.  Each message is absorbed row by row, over the nonzero
    entries of M only.  Since M >= 0, the same pass over |w_f| gives sum
    |term|, and over the support M != 0 with exact ints the number of
    nonvanishing colorings.

    chi_f is 1 - #children (2 - #roots for the outer face), so dim^chi_f
    underflows on faces with many children.  Face f is weighted by
    dim^(chi_f + #children_f) instead, which is 1 or 2, and each message it
    absorbs is divided by dim of its color.  A value or abs_sum that is not
    a finite double is refused.
    """
    n_colors = len(data.elements)
    qdims = data.qdims
    turn = math.pi / data.k
    period = 2 * data.k * data.form_den  # exp(i pi q / k) has period 2k in q: reduce, then divide
    # w[f], abs_w[f] and counts[f] become the messages m_f as children are absorbed
    w, abs_w, counts = [], [], []
    for f, gleam in enumerate(data.gleams):
        mags = list(qdims) if f else [d * d for d in qdims]  # dim^(chi_f + #children_f)
        abs_w.append(mags)
        phases = [turn * ((gleam * q) % period / data.form_den) for q in data.phase_q]
        w.append([m * complex(math.cos(t), math.sin(t)) for m, t in zip(mags, phases)])
        counts.append([1] * n_colors)

    bounding = {inner: (outer, rows) for inner, outer, rows in data.circles}
    for f in range(len(data.gleams) - 1, 0, -1):
        outer, rows = bounding[f]
        w_f, abs_f, count_f = w[f], abs_w[f], counts[f]
        w_o, abs_o, count_o = w[outer], abs_w[outer], counts[outer]
        for a, (row, d) in enumerate(zip(rows, qdims)):
            msg, abs_msg, count_msg = 0j, 0.0, 0
            for b, n in row.items():
                msg += n * w_f[b]
                abs_msg += n * abs_f[b]
                count_msg += count_f[b]
            w_o[a] *= msg / d
            abs_o[a] *= abs_msg / d
            count_o[a] *= count_msg

    value, abs_sum = complex(sum(w[0])), float(sum(abs_w[0]))
    if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(abs_sum)):
        raise PreconditionError(
            f"the state sum is not a finite double (value {value}, sum |term| {abs_sum})"
        )
    return StateSumResult(
        value=value,
        abs_sum=abs_sum,
        colorings_total=n_colors ** len(data.gleams),
        colorings_retained=sum(counts[0]),
    )


def term_value(data: TermData, coloring: Sequence[int]) -> complex:
    """Canonical term of a coloring that `list_terms` reaches (every fusion factor
    nonzero); factors multiplied in fixed circle and face order.

    prod_f dim^chi_f is taken as dim(outer)^2 times, circle by circle, dim(inner
    face) / dim(outer face), the scaling of the contraction: a face with many
    children would underflow dim^chi_f.
    """
    n_product = 1
    dim_product = data.qdims[coloring[0]] ** 2
    for inner, outer, rows in data.circles:
        n_product *= rows[coloring[outer]][coloring[inner]]
        dim_product *= data.qdims[coloring[inner]] / data.qdims[coloring[outer]]
    exponent = sum(g * data.phase_q[ci] for g, ci in zip(data.gleams, coloring))
    # exp(i pi q / k) has period 2k in q: reduce the integer d q, then divide once
    exponent = exponent % (2 * data.k * data.form_den) / data.form_den
    return n_product * dim_product * complex(
        math.cos(math.pi * exponent / data.k),
        math.sin(math.pi * exponent / data.k),
    )


def list_terms(data: TermData) -> list[tuple[tuple[Labels, ...], complex]]:
    """Every nonvanishing term as (face colours in face order, term), lexicographically.

    Colorings are enumerated depth-first over faces in region-tree order with
    a stack of iterators: face 0 runs over the alphabet, every later face over
    the increasing keys of its bounding circle's row at its outer face's colour
    (coloured earlier).  Exponential: `contract_state_sum` evaluates the sum.
    """
    n_faces = len(data.gleams)
    bounding = {inner: (outer, rows) for inner, outer, rows in data.circles}

    terms: list[tuple[tuple[Labels, ...], complex]] = []
    coloring = [0] * n_faces
    stack = [iter(range(len(data.elements)))]  # stack[f]: the colours left at face f
    while stack:
        face = len(stack) - 1
        ci = next(stack[face], None)
        if ci is None:
            stack.pop()
            continue
        coloring[face] = ci
        if face + 1 < n_faces:
            outer, rows = bounding[face + 1]
            stack.append(iter(rows[coloring[outer]]))
            continue
        terms.append(
            (tuple(data.elements[c] for c in coloring), term_value(data, coloring))
        )
    return terms
