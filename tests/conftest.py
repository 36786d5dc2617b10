import cmath
import functools
import json
import math
import operator
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shadowsum import cli
from shadowsum.determinants import det_rig_constant
from shadowsum.diagrams import build_diagram, contract_state_sum, prepare_terms, read_link
from shadowsum.errors import PreconditionError
from shadowsum.field import cartan_inverse, form_scale, simple_roots
from shadowsum.fusion import fusion_matrices
from shadowsum.fusion_table import _s_matrix, build_fusion_table
from shadowsum.regularize import regularized_indicator, require_stage
from shadowsum.reps import level_alphabet
from shadowsum.roots import build_root_system, weyl_orbit


SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"


def bench_workloads():
    """The benchmark's job generator, `bench/workloads.py`, as a module.

    Its one reader is `test_diagrams._bench_reference_links`, the one Tier-1 test that
    reads `bench/`: it pairs each shadow slot with its value in `bench/references.json`,
    which is recorded once and never re-recorded.  The comparison corpus and every
    other test hold their jobs and colours themselves, so an edit of the benchmark
    moves none of them."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def src_env() -> dict:
    """The environment for a subprocess that imports shadowsum from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_main(capsys, *args):
    """cli.main in this process: (exit code, the one JSON document on stdout)."""
    rc = cli.main([str(a) for a in args])
    out = capsys.readouterr().out
    return rc, json.loads(out)


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="session")
def a1k4(a1):
    return level_alphabet(a1, 4)


@pytest.fixture(scope="session")
def a1k4_table(a1k4):
    return build_fusion_table(a1k4)


def table_array(flat):
    """The flat fusion table, |A|^3 ints in (lam, mu, nu) index order, as the
    int64 array T[lam, mu, nu]."""
    n = round(len(flat) ** (1 / 3))
    assert n ** 3 == len(flat)
    return np.array(flat, dtype=np.int64).reshape(n, n, n)


def densify(rows, n):
    """The n x n int64 matrix of a fusion matrix held by rows, rows[a] = {b: M[a, b]}."""
    mat = np.zeros((n, n), dtype=np.int64)
    for a, row in enumerate(rows):
        for b, c in row.items():
            mat[a, b] = c
    return mat


def fusion_rows(alphabet, gamma):
    """N_gamma by rows, as `fusion_matrices` builds it for the one colour gamma."""
    return fusion_matrices(alphabet, [gamma])[tuple(gamma)]


def _combine(coeffs, vectors):
    """sum_i coeffs[i] * vectors[i], exactly."""
    terms = [(Fraction(c), v) for c, v in zip(coeffs, vectors) if c]
    return tuple(sum((c * v[d] for c, v in terms), Fraction(0)) for d in range(len(vectors[0])))


class Ambient:
    """The ambient realization of a root system: exact Fraction vectors in the
    orthonormal basis of `simple_roots(rs)`, with <x, y> = form_scale(rs) * dot(x, y).

    The tests' oracle for the label arithmetic the library runs on.  The roots
    are generated here, as the orbit of the simple roots under the simple
    reflections, with none of the library's labels; the fundamental weights
    come from `cartan_inverse(rs)`, which the duality check tests.  Any other
    attribute (rank, cartan_matrix, positive_root_labels, ...) is the root
    system's.
    """

    def __init__(self, rs):
        self.rs = rs
        self.form_scale, self.simple_roots = form_scale(rs), simple_roots(rs)
        self.simple_coroots = tuple(map(self.coroot, self.simple_roots))
        # in integers: twice a root has integer coordinates
        doubled = [tuple(int(2 * a) for a in alpha) for alpha in self.simple_roots]
        roots, frontier = set(doubled), list(doubled)
        while frontier:
            v = frontier.pop()
            for alpha in doubled:
                n = 2 * sum(map(operator.mul, v, alpha)) // sum(map(operator.mul, alpha, alpha))
                w = tuple(a - n * b for a, b in zip(v, alpha))
                if w not in roots:
                    roots.add(w)
                    frontier.append(w)
        self.roots = tuple(sorted(tuple(Fraction(a, 2) for a in v) for v in roots))
        self.fundamental_weights = tuple(
            _combine(row, self.simple_roots) for row in cartan_inverse(rs))
        self.weyl_vector = self.from_labels((1,) * rs.rank)
        self.positive_roots = tuple(a for a in self.roots if self.inner(a, self.weyl_vector) > 0)
        self.highest_root = self.from_labels(rs.highest_root_labels)

    def __getattr__(self, name):
        return getattr(self.rs, name)

    def inner(self, x, y):
        """The normalized invariant product <x,y>; exact when both arguments are rational."""
        if len(x) != self.ambient_dim or len(y) != self.ambient_dim:
            raise PreconditionError(
                f"dimension mismatch: expected ambient dimension {self.ambient_dim}, "
                f"got {len(x)} and {len(y)}"
            )
        s = sum(a * b for a, b in zip(x, y))
        return self.form_scale * s if isinstance(s, Fraction) else float(self.form_scale) * s

    def coroot(self, alpha):
        return tuple(2 * a / self.inner(alpha, alpha) for a in alpha)

    def from_labels(self, labels):
        """The weight sum_j labels_j omega_j."""
        if len(labels) != self.rank:
            raise PreconditionError(
                f"expected {self.rank} fundamental-weight coordinates, got {len(labels)}"
            )
        return _combine(labels, self.fundamental_weights)

    def root_pairings(self, b):
        """alpha(b) for the positive roots in ambient order: the oracle of `root_pairings`."""
        return tuple(self.inner(alpha, tuple(b)) for alpha in self.positive_roots)

    def weight_pairings(self, b):
        """<omega_j, b>: the coweight coordinates of b, the oracle of `coweight_coordinates`."""
        return tuple(self.inner(w, tuple(b)) for w in self.fundamental_weights)


@functools.cache
def ambient(rs):
    """The ambient oracle of a root system, built once per type."""
    return Ambient(rs)


def from_labels(rs, labels):
    """The field value b = sum_j labels_j omega_j in coweight coordinates x_j = <omega_j, b>."""
    amb = ambient(rs)
    return amb.weight_pairings(amb.from_labels(labels))


def alphas(rs, labels):
    """The root pairings alpha(b) at b = sum_j labels_j omega_j, in ambient order: the
    kernels' input, formed by the ambient oracle rather than by `root_pairings`."""
    amb = ambient(rs)
    return amb.root_pairings(amb.from_labels(labels))


def stage_indicator(n, field):
    """The stage-n regularized indicator of `field`, its stage admitted as `regularize`
    admits it, with |R+| the length of a face's pairing tuple."""
    cut = require_stage(len(field[0][1]), n, len(field))
    return regularized_indicator(cut, field)


def det_rig_step(field):
    """prod_faces det_half(b_face)^chi(face), the limit of `regularize.det_rig_n` on a
    stepped field of (euler, alpha(b)) pairs: the product of the faces' constant-field
    values, each refused as `det_rig_constant` refuses it."""
    return math.prod(det_rig_constant(a, euler) for euler, a in field)


def character_eval(ws, b):
    """Character value sum_beta m(beta) e^{2 pi i beta(b)} at b in t: the exact-rational
    oracle of `weight_phases`.

    b is given by ambient coordinates.  With the convention exp(b) = identity
    iff b lies in the coroot lattice, the phases use the 2 pi i factor and the
    value is periodic under translations of b by coroots.  Exact rational b
    gets its phase reduced mod 1 before any float rounding.
    """
    rs = ambient(ws.rs)
    total = 0j
    for labels, m in ws.multiplicities.items():
        beta = rs.from_labels(labels)
        phase = rs.inner(beta, tuple(b))
        if isinstance(phase, Fraction):
            phase = phase - math.floor(phase)
        total += m * cmath.exp(2j * math.pi * float(phase))
    return total


def all_weights_multiplicities(rs, lam):
    """{weight: multiplicity} of V(lam) by Freudenthal's recursion over every weight:
    the oracle of `reps.weight_multiplicities`, which recurses on dominant weights.

    Weights are found breadth-first from lam by subtracting simple roots, each layer
    in sorted order; a candidate is kept iff the recursion gives it a positive
    multiplicity, and m(mu + j alpha) is read at mu + j alpha itself, so no Weyl
    group action (`to_dominant`, `weyl_orbit`) is used.
    """
    lam = tuple(lam)

    def norm_shifted(mu):
        v = tuple(a + 1 for a in mu)
        return rs.label_form(v, v)

    lam_norm = norm_shifted(lam)
    mult = {lam: 1}
    frontier = [lam]
    while frontier:
        candidates = {tuple(a - b for a, b in zip(w, s))
                      for w in frontier for s in rs.cartan_matrix}
        frontier = []
        for mu in sorted(candidates):
            if mu in mult or (denom := lam_norm - norm_shifted(mu)) <= 0:
                continue
            acc = 0
            for al, r in zip(rs.positive_root_labels, rs.root_forms):
                up = tuple(a + b for a, b in zip(mu, al))
                while up in mult:  # label_form(up, alpha) = up . r
                    acc += 2 * mult[up] * sum(map(operator.mul, up, r))
                    up = tuple(a + b for a, b in zip(up, al))
            if acc:
                m, rem = divmod(acc, denom)
                assert rem == 0 and m > 0, (lam, mu, acc, denom)
                mult[mu] = m
                frontier.append(mu)
    return mult


def verlinde_link_value(alphabet, components):
    """The state sum of a flat forest from the modular S-matrix alone: the oracle
    for whole links.

    `components` holds one (colour, winding, positive_side) per circle, every
    circle a root of the forest, every winding +1 or -1.  Chern-Simons theory
    on S^2 x S^1 (Witten, Commun. Math. Phys. 121, 1989) gives

        D^2 dim V(lam_1 .. lam_n) prod_i theta_{lam_i}^{s_i},

    with D^2 = 1 / S_00^2, theta_lam = exp(i pi <lam, lam + 2 rho> / k), and
    dim V from the Verlinde formula (Verlinde, Nucl. Phys. B 300, 1988):
    sum_sigma S_{0 sigma}^{2-n} prod_i S_{lam_i sigma}.  A circle of winding -1
    runs down the S^1, which is its dual colour running up: S_{lam* sigma} is
    conj(S_{lam sigma}).  s_i is the gleam the circle gives its inner face:
    the winding, negated when the positive side is outside.  S is
    `fusion_table._s_matrix` scaled so that S_00 > 0 and the row of 0 has unit norm;
    nothing here folds, builds a fusion matrix or runs Freudenthal.
    """
    rs, k = alphabet.rs, alphabet.k
    s = np.array(_s_matrix(alphabet)[0])
    zero = alphabet.index((0,) * rs.rank)
    s0 = s[zero]
    S = s * (abs(s0[zero]) / s0[zero]) / math.sqrt(np.sum(np.abs(s0) ** 2))
    S0 = S[zero].real
    dim_v = S0 ** (2 - len(components))
    twist = 1 + 0j
    for color, winding, side in components:
        if winding not in (1, -1):
            raise ValueError(f"the oracle covers windings +-1, not {winding}")
        row = S[alphabet.index(color)]
        dim_v = dim_v * (row if winding == 1 else row.conj())
        q = rs.label_form(color, tuple(c + 2 for c in color))
        gleam = winding if side == "inside" else -winding
        twist *= cmath.exp(1j * math.pi * gleam * q / (k * rs.weight_form_den))
    return complex(dim_v.sum()) / S0[zero] ** 2 * twist


def flat_forest(components):
    """Side-by-side circles, one per (colour, winding, positive_side)."""
    return build_diagram([{"id": str(i), "winding": w, "positive_side": side, "color": list(c)}
                          for i, (c, w, side) in enumerate(components)])


def simple_reflection_matrix(rs, i):
    """Matrix of the i-th simple reflection v -> v - <v, coroot_i> alpha_i in the ambient basis."""
    rs = ambient(rs)
    alpha, coroot = rs.simple_roots[i], rs.simple_coroots[i]
    return [[int(r == c) - rs.form_scale * coroot[c] * alpha[r] for c in range(rs.ambient_dim)]
            for r in range(rs.ambient_dim)]


def reflect_simple(rs, shifted, i):
    """The i-th simple reflection of a rho-shifted point in labels: m_j - m_i C_ij."""
    return tuple(m - shifted[i] * c for m, c in zip(shifted, rs.cartan_matrix[i]))


def reflect_affine(rs, k, shifted):
    """Reflection of a rho-shifted point in the wall <x, theta> = k."""
    excess = rs.level_of_labels(shifted) - k
    return tuple(m - excess * t for m, t in zip(shifted, rs.highest_root_labels))


def fold_point(rs, k, shifted):
    """One point folded into the level-k alcove, one reflection at a time:
    (folded point, sign), or (None, 0) on a wall.  The reference for
    `QuantumWeylGroup.fold`."""
    m, sign = tuple(shifted), 1
    while True:
        neg = next((i for i, v in enumerate(m) if v < 0), None)
        if neg is not None:
            m, sign = reflect_simple(rs, m, neg), -sign
        elif 0 in m or rs.level_of_labels(m) == k:
            return None, 0
        elif rs.level_of_labels(m) > k:
            m, sign = reflect_affine(rs, k, m), -sign
        else:
            return m, sign


def level_rank_dual(labels, level):
    """The SU(level) weight level-rank dual to the SU(N) weight `labels` of level at
    most `level` (Naculich and Schnitzer, Nucl. Phys. B 347, 1990): its Young diagram,
    with row j of length labels_j + ... + labels_{N-1}, transposed, with the full
    columns (of height `level`) removed, read back as level - 1 labels."""
    rows = [sum(labels[j:]) for j in range(len(labels))]
    transposed = [sum(r >= c for r in rows) for c in range(1, level + 1)]
    kept = [t - transposed[-1] for t in transposed]
    return tuple(kept[c] - kept[c + 1] for c in range(level - 1))


def random_forest_diagram(rng: random.Random, alphabet, max_circles=6, max_wind=3):
    """Random nesting forest with colors drawn from the alphabet."""
    n = rng.randint(0, max_circles)
    circles = []
    for i in range(n):
        parent = None
        if i > 0 and rng.random() < 0.6:
            parent = str(rng.randrange(i))
        circles.append(
            {
                "id": str(i),
                "parent": parent,
                "winding": rng.randint(-max_wind, max_wind),
                "positive_side": rng.choice(["inside", "outside"]),
                "color": list(rng.choice(alphabet.elements)),
            }
        )
    return build_diagram(circles)


def random_link(rng: random.Random, group, k, colours, max_circles=5):
    """A link document of 1..max_circles circles in a random nesting forest, each
    coloured from `colours`, with a winding in +-1..+-3 and either positive side."""
    circles = []
    for i in range(rng.randint(1, max_circles)):
        circles.append({"id": str(i),
                        "parent": str(rng.randrange(i)) if i and rng.random() < 0.6 else None,
                        "winding": rng.choice((1, -1)) * rng.randint(1, 3),
                        "positive_side": rng.choice(("inside", "outside")),
                        "color": list(rng.choice(colours))})
    return {"group": group, "k": k, "circles": circles}


def link_value(doc):
    """The state sum of a link document, read and contracted as `shadow` does it."""
    link, problems = read_link(doc)
    assert link is not None, problems
    _, alphabet, diagram = link
    return contract_state_sum(prepare_terms(diagram, alphabet))


def mirror_link(doc):
    """The link with every winding negated; its value is the conjugate."""
    return dict(doc, circles=[dict(c, winding=-c["winding"]) for c in doc["circles"]])


def dual_link(doc):
    """The link with every circle coloured by its dual -w0 gamma, the dominant point of
    the Weyl orbit of -gamma; its value is unchanged."""
    (rs, _, _), _ = read_link(doc)

    def dual(gamma):
        return next(list(p) for p, _ in weyl_orbit(rs, [-v for v in gamma]) if min(p) >= 0)

    return dict(doc, circles=[dict(c, color=dual(c["color"])) for c in doc["circles"]])


def _parented(**parents):
    """Link-file circles (A1 colour [0]) from id=parent keywords, in keyword order."""
    return [{"id": cid, "parent": p, "winding": 1, "positive_side": "inside", "color": [0]}
            for cid, p in parents.items()]


# Containment cycles that no existing tree check reaches head on, as
# (name, circles, ids of the circles that lie on a cycle).
CYCLE_FORESTS = [
    ("hangs-inside-two-cycle", _parented(c="a", a="b", b="a"), {"a", "b"}),
    ("two-disjoint-cycles", _parented(r=None, a="b", b="a", c="d", d="c"), {"a", "b", "c", "d"}),
    ("self-parent-beside-tree", _parented(r=None, s="r", t="s", x="x"), {"x"}),
]
