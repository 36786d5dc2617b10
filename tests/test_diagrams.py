import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BENCH, CYCLE_FORESTS, bench_workloads, densify, dual_link, flat_forest,
                      fusion_rows, link_value, mirror_link, random_forest_diagram, random_link,
                      table_array, verlinde_link_value)
from shadowsum.determinants import det_k
from shadowsum.diagrams import build_diagram, contract_state_sum, list_terms, prepare_terms
from shadowsum.errors import PreconditionError
from shadowsum.field import root_pairings
from shadowsum import cli, fusion, fusion_table, reps
from shadowsum.fusion import QuantumWeylGroup
from shadowsum.fusion_table import build_fusion_table
from shadowsum.holonomy import weight_phases, weight_trace
from shadowsum.reps import level_alphabet, quantum_dimension, weight_multiplicities
from shadowsum.roots import build_root_system


def circle(cid, parent=None, winding=1, side="inside", color=(0,)):
    return {
        "id": cid,
        "parent": parent,
        "winding": winding,
        "positive_side": side,
        "color": list(color),
    }


def face_names(diagram):
    """Each face's name in face order: "outer" for face 0, "in:<circle id>" for the
    face inside each circle (`Circle.inner`)."""
    names = ["outer"] * len(diagram.faces)
    for c in diagram.circles:
        names[c.inner] = f"in:{c.circle_id}"
    return names


def by_name(diagram):
    return dict(zip(face_names(diagram), diagram.faces))


def empty_link_value(alphabet):
    """sum_lambda dim_q(lambda)^2, the bare-sphere state sum."""
    return sum(quantum_dimension(alphabet, lam) ** 2 for lam in alphabet.elements)


def naive_terms(diagram, alphabet, table):
    """Full product-space enumeration with plain nested loops; no pruning.

    `table` is the full fusion table T[lam, mu, nu].  Mirrors the canonical
    term arithmetic (integer fusion product and dim(inner)/dim(outer) ratios
    in circle order after dim(outer face)^2, exact rational phase exponent)
    so the nonvanishing (coloring, term) pairs, in lexicographic order, can
    be compared with zero tolerance.
    """
    rs = alphabet.rs
    k = alphabet.k
    qdims = [quantum_dimension(alphabet, lam) for lam in alphabet.elements]
    rho2 = (2,) * rs.rank
    phase_q = [
        Fraction(rs.label_form(lam, tuple(a + b for a, b in zip(lam, rho2))), rs.weight_form_den)
        for lam in alphabet.elements
    ]
    gleams = [f.gleam for f in diagram.faces]
    inner_of = {c.circle_id: c.inner for c in diagram.circles}
    circles = []
    for c in diagram.circles:
        inner = c.inner
        outer = 0 if c.parent is None else inner_of[c.parent]
        plus, minus = (inner, outer) if c.positive_side == "inside" else (outer, inner)
        circles.append((minus, plus, alphabet.index(c.color), inner, outer))
    terms = []
    for coloring in itertools.product(range(len(alphabet.elements)), repeat=len(gleams)):
        n_product = 1
        dim_product = qdims[coloring[0]] ** 2
        for minus, plus, gamma, inner, outer in circles:
            n_product *= int(table[coloring[minus], gamma, coloring[plus]])
            if n_product == 0:
                break
            dim_product *= qdims[coloring[inner]] / qdims[coloring[outer]]
        if n_product == 0:
            continue
        exponent = Fraction(0)
        for fi, ci in enumerate(coloring):
            exponent += gleams[fi] * phase_q[ci]
        exponent = exponent % (2 * k)
        term = n_product * dim_product * complex(
            math.cos(math.pi * float(exponent) / k),
            math.sin(math.pi * float(exponent) / k),
        )
        terms.append((tuple(alphabet.elements[c] for c in coloring), term))
    return terms


class TestBuildDiagram:
    def test_empty(self):
        d = build_diagram([])
        assert len(d.faces) == 1
        f = d.faces[0]
        assert f.euler == 2 and f.gleam == 0

    def test_single_circle(self):
        d = build_diagram([circle("c", winding=1, side="inside")])
        by_id = by_name(d)
        assert by_id["in:c"].euler == 1 and by_id["in:c"].gleam == 1
        assert by_id["outer"].euler == 1 and by_id["outer"].gleam == -1

    def test_two_nested(self):
        d = build_diagram(
            [circle("a", winding=2), circle("b", parent="a", winding=5)]
        )
        by_id = by_name(d)
        # middle annulus: inside a, outside b
        assert by_id["in:a"].euler == 0
        assert by_id["in:a"].gleam == 2 - 5
        d2 = build_diagram(
            [circle("a", winding=2), circle("b", parent="a", winding=5, side="outside")]
        )
        assert by_name(d2)["in:a"].gleam == 2 + 5

    def test_gleam_of_face_examples(self):
        def gleams(d):
            return {name: f.gleam for name, f in by_name(d).items()}

        d = build_diagram([circle("c", winding=3, side="inside")])
        assert gleams(d)["outer"] == -3
        assert gleams(build_diagram([]))["outer"] == 0
        d2 = build_diagram(
            [
                circle("a", winding=1, side="inside"),
                circle("b", parent="a", winding=1, side="outside"),
            ]
        )
        assert gleams(d2)["in:a"] == 2

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionError) as ei:
            build_diagram(
                [circle("a", parent="b"), circle("b", parent="a")]
            )
        assert "cycle" in str(ei.value)

    def test_self_parent_rejected(self):
        with pytest.raises(PreconditionError):
            build_diagram([circle("a", parent="a")])

    def test_unknown_parent_rejected(self):
        with pytest.raises(PreconditionError):
            build_diagram([circle("a", parent="ghost")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PreconditionError):
            build_diagram([circle("a"), circle("a")])

    @pytest.mark.parametrize("name,circles,on_cycle", CYCLE_FORESTS,
                             ids=[name for name, _, _ in CYCLE_FORESTS])
    def test_cycle_named_by_a_circle_on_it(self, name, circles, on_cycle):
        """Whatever the file order, the message names a circle on a cycle,
        never one that only hangs inside it or a circle of a valid tree."""
        for order in itertools.permutations(circles):
            with pytest.raises(PreconditionError, match="containment cycle") as ei:
                build_diagram(order)
            named = str(ei.value).split("'")[1]
            assert named in on_cycle, (name, [c["id"] for c in order], str(ei.value))


# Two roots, "m" a leaf and "p" with children "q" and "r": listed by sorted id
# the Euler numbers are [0, 1, -1, 1, 1]; in file order they would differ.
TWO_LEVEL = [circle("p", winding=2), circle("r", parent="p", winding=-1, side="outside"),
             circle("q", parent="p", winding=3), circle("m", winding=-2, side="outside")]
TWO_LEVEL_FACES = ["outer", "in:m", "in:p", "in:q", "in:r"]


class TestFaceOrder:
    def test_preorder_by_sorted_id_whatever_the_file_order(self):
        want = build_diagram(TWO_LEVEL).faces
        assert [f.euler for f in want] == [0, 1, -1, 1, 1]
        rng = random.Random(13)
        for order in [TWO_LEVEL] + [rng.sample(TWO_LEVEL, len(TWO_LEVEL)) for _ in range(12)]:
            d = build_diagram(order)
            assert face_names(d) == TWO_LEVEL_FACES and d.faces == want

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_circles_record_their_faces(self, seed):
        d = random_forest_diagram(random.Random(seed), level_alphabet(build_root_system("A1"), 4))
        by_id = {c.circle_id: c for c in d.circles}
        assert sorted(c.inner for c in d.circles) == list(range(1, len(d.faces)))
        for c in d.circles:
            children = sum(child.parent == c.circle_id for child in d.circles)
            assert d.faces[c.inner].euler == 1 - children
            assert c.outer == (0 if c.parent is None else by_id[c.parent].inner)

    def test_regularize_reads_face_values_in_face_order(self, tmp_path, capsys, a1):
        """The stage-n determinant of the stepped field tends to
        prod_f (2 sin(pi alpha_f))^chi_f; values follow TWO_LEVEL_FACES."""
        alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(2, 5)]
        values = ";".join(f"{a / 2},{-a / 2}" for a in alphas)  # A1: alpha(x, -x) = 2x
        chis = [0, 1, -1, 1, 1]
        want = math.prod((2 * math.sin(math.pi * a)) ** chi for a, chi in zip(alphas, chis))
        in_file_order = math.prod((2 * math.sin(math.pi * a)) ** chi
                                  for a, chi in zip(alphas, [0, -1, 1, 1, 1]))
        assert abs(want - in_file_order) > 0.5
        path = tmp_path / "two_level.json"
        path.write_text(json.dumps({"group": "A1", "circles": TWO_LEVEL}))
        assert cli.main(["regularize", "--n", "12", str(path), "--face-values", values]) == 0
        got = json.loads(capsys.readouterr().out)["det_rig_n"]
        assert complex(got["re"], got["im"]) == pytest.approx(want, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_forest_invariants_property(seed, a1k4):
    rng = random.Random(seed)
    d = random_forest_diagram(rng, a1k4)
    assert sum(f.euler for f in d.faces) == 2
    assert sum(f.gleam for f in d.faces) == 0
    assert len(d.faces) == len(d.circles) + 1


class TestStateSum:
    def test_empty_link_a1_k4(self, a1k4):
        d = build_diagram([])
        r = contract_state_sum(prepare_terms(d, a1k4))
        assert abs(r.value - 4.0) < 1e-9
        assert abs(empty_link_value(a1k4) - 4.0) < 1e-9

    def test_wind0_trivial_color(self, a1k4):
        d = build_diagram([circle("c", winding=0, color=(0,))])
        r = contract_state_sum(prepare_terms(d, a1k4))
        assert abs(r.value - 4.0) < 1e-9

    def test_single_circle_brute_force(self, a1k4, a1k4_table):
        data = prepare_terms(build_diagram([circle("c", winding=1, color=(1,))]), a1k4)
        r = contract_state_sum(data)
        val = 0j
        for a in range(3):
            for b in range(3):
                n = table_array(a1k4_table)[b, 1, a]
                val += (
                    n
                    * quantum_dimension(a1k4, (a,))
                    * quantum_dimension(a1k4, (b,))
                    * cmath.exp(1j * math.pi * a * (a + 2) / 8)
                    * cmath.exp(-1j * math.pi * b * (b + 2) / 8)
                )
        assert abs(r.value - val) < 1e-12
        assert abs(r.value - sum(t for _, t in list_terms(data))) < 1e-12  # diagnostics consistency

    def test_trivially_colored_wind0_circles_match_empty(self, a1):
        for k in (4, 5):
            al = level_alphabet(a1, k)
            expect = contract_state_sum(prepare_terms(build_diagram([]), al)).value
            for n in (1, 2, 3):
                circles = [
                    circle(str(i), parent=str(i - 1) if i and i % 2 else None,
                           winding=0, color=(0,))
                    for i in range(n)
                ]
                got = contract_state_sum(prepare_terms(build_diagram(circles), al)).value
                assert abs(got - expect) < 1e-9

    def test_color_outside_alphabet_rejected(self, a1k4):
        d = build_diagram([circle("c", color=(3,))])
        with pytest.raises(PreconditionError):
            prepare_terms(d, a1k4)

    @pytest.mark.parametrize("label,k", [("A1", 5), ("A2", 5), ("B2", 5)])
    def test_double_reversal_invariance(self, label, k):
        rs = build_root_system(label)
        al = level_alphabet(rs, k)
        rng = random.Random(20240 + k)
        for _ in range(6):
            d = random_forest_diagram(rng, al, max_circles=4, max_wind=2)
            flipped = [
                circle(
                    c.circle_id,
                    parent=c.parent,
                    winding=-c.winding,
                    side="outside" if c.positive_side == "inside" else "inside",
                    color=c.color,
                )
                for c in d.circles
            ]
            v1 = contract_state_sum(prepare_terms(d, al)).value
            v2 = contract_state_sum(prepare_terms(build_diagram(flipped), al)).value
            assert abs(v1 - v2) < 1e-9


def all_small_diagrams():
    """Every diagram shape with <= 3 faces: none, one circle, two nested,
    two side-by-side; windings in [-2, 2], both side flags."""
    yield []
    for w, side in itertools.product(range(-2, 3), ("inside", "outside")):
        yield [circle("a", winding=w, side=side)]
    for w1, w2, s1, s2, nested in itertools.product(
        range(-2, 3), range(-2, 3), ("inside", "outside"), ("inside", "outside"), (True, False)
    ):
        yield [
            circle("a", winding=w1, side=s1),
            circle("b", parent="a" if nested else None, winding=w2, side=s2),
        ]


def test_pruned_equals_naive_exactly(a1):
    """Zero-tolerance agreement, term by term, between the pruned DFS and naive loops."""
    for k in (3, 4, 5):
        al = level_alphabet(a1, k)
        ft = table_array(build_fusion_table(al))
        colors = list(al.elements)
        rng = random.Random(99)
        for shape in all_small_diagrams():
            cs = [dict(c, color=list(rng.choice(colors))) for c in shape]
            d = build_diagram(cs)
            assert list_terms(prepare_terms(d, al)) == naive_terms(d, al, ft)


UNKNOT_A1K4 = [circle("c", winding=1, color=(1,))]  # four terms cancelling to exactly 0


@pytest.mark.parametrize(
    "label,k", [("A1", 3), ("A1", 4), ("A1", 5), ("A1", 6), ("A2", 5), ("B2", 5)]
)
def test_contraction_matches_enumerator(label, k):
    """Tree contraction against the correctly rounded sum of the listed terms
    on random forests of <= 6 circles.

    The tolerance is relative to sum |term|: sums that cancel to zero (such
    as the A1 k=4 unknot colored [1]) have no meaningful value-relative error.
    """
    al = level_alphabet(build_root_system(label), k)
    rng = random.Random(f"contract:{label}:{k}")
    diagrams = [random_forest_diagram(rng, al, max_circles=6) for _ in range(12)]
    if (label, k) == ("A1", 4):
        diagrams.append(build_diagram(UNKNOT_A1K4))
    for d in diagrams:
        data = prepare_terms(d, al)
        got = contract_state_sum(data)
        terms = [t for _, t in list_terms(data)]
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        abs_sum = math.fsum(abs(t) for t in terms)
        assert abs(got.value - want) <= 1e-12 * abs_sum
        assert got.colorings_retained == len(terms)
        assert got.colorings_total == len(al.elements) ** len(d.faces)
        assert abs(got.abs_sum - abs_sum) <= 1e-12 * abs_sum


def test_unknot_a1k4_cancels(a1k4):
    r = contract_state_sum(prepare_terms(build_diagram(UNKNOT_A1K4), a1k4))
    assert r.colorings_retained == 4
    assert abs(r.value) <= 1e-15 * r.abs_sum


def test_verlinde_oracle_known_values(a1k4):
    """The S-matrix oracle on A1 k=4 flat forests with hand-derived values:
    D^2 = 4 and theta_[1] = exp(3 pi i / 8)."""
    theta = cmath.exp(3j * math.pi / 8)
    one, two = (1,), (2,)
    cases = [
        ([(one, 1, "inside")], 0),  # no invariant in V_[1]
        ([(one, 1, "inside"), (one, 1, "inside")], 4 * theta**2),
        ([(one, 1, "inside"), (one, -1, "inside")], 4),
        ([(one, 1, "inside")] * 4, -8j),  # dim V = 2, theta^4 = -i
        ([(two, 1, "inside")] * 3, 0),
    ]
    for components, want in cases:
        assert abs(verlinde_link_value(a1k4, components) - want) < 1e-12, components
        got = contract_state_sum(prepare_terms(flat_forest(components), a1k4)).value
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize(
    "label,k", [("A1", 4), ("A1", 7), ("A2", 6), ("A3", 6), ("B2", 6), ("C3", 6), ("G2", 7)]
)
def test_flat_forests_match_verlinde(label, k):
    """The contraction against the S-matrix oracle on flat forests of |winding| = 1
    circles with random colours, orientations and positive sides, up to 16
    circles (|A|^17 colourings, far beyond the enumerator)."""
    al = level_alphabet(build_root_system(label), k)
    rng = random.Random(f"verlinde:{label}:{k}")
    for n in [*range(7), 10, 16]:
        components = [(rng.choice(al.elements), rng.choice((1, -1)),
                       rng.choice(("inside", "outside"))) for _ in range(n)]
        got = contract_state_sum(prepare_terms(flat_forest(components), al))
        assert abs(got.value - verlinde_link_value(al, components)) <= 1e-12 * got.abs_sum


def torus_gauge_value(alphabet, components):
    """The state sum of a flat forest from the torus-gauge sum (Blau and Thompson,
    Nucl. Phys. B 408, 1993) on the program's own kernels: for circles of
    winding w_i = +-1,

        prod_i theta_{lam_i}^{s_i} sum_sigma det_k(b_sigma) prod_i chi_{lam_i}(e^{w_i b_sigma})
            / det_k(b_0),

    b_sigma = (sigma + rho)/k over the level alphabet, passed as its coweight
    coordinates x_j = <omega_j, sigma + rho>/k.  chi is the trace of the
    `weight_phases` diagonal, theta and s_i as in `verlinde_link_value`.  It
    shares Freudenthal with the fusion matrices, and nothing else: no fold, no
    fusion matrix, no S-matrix.
    """
    rs, k = alphabet.rs, alphabet.k
    den = rs.weight_form_den * k

    def coweights(sigma):
        shifted = [v + 1 for v in sigma]
        return [Fraction(sum(g * v for g, v in zip(row, shifted)), den) for row in rs.weight_gram_num]

    modules = {color: weight_multiplicities(rs, color) for color, _, _ in components}
    total = 0j
    for sigma in alphabet.elements:
        x = coweights(sigma)
        term = det_k(root_pairings(rs, x))
        for color, winding, _ in components:
            term *= weight_trace(np.exp(weight_phases(modules[color], [winding * v for v in x])))
        total += term
    twist = 1 + 0j
    for color, winding, side in components:
        q = rs.label_form(color, tuple(c + 2 for c in color))
        gleam = winding if side == "inside" else -winding
        twist *= cmath.exp(1j * math.pi * gleam * q / den)
    return twist * total / det_k(root_pairings(rs, coweights((0,) * rs.rank)))


@pytest.mark.parametrize(
    "label,k,sizes",
    [("A1", 4, range(1, 5)), ("A1", 7, range(1, 5)), ("A2", 6, range(1, 5)),
     ("B2", 6, range(1, 5)), ("A3", 6, range(1, 5)), ("C3", 6, range(1, 5)),
     ("G2", 7, range(1, 5)), ("E6", 13, range(1, 5)), ("E6", 14, (4,))],
)
def test_flat_forests_match_torus_gauge(monkeypatch, label, k, sizes):
    """The contraction against the torus-gauge sum on flat forests of |winding| = 1
    circles with random colours, orientations and positive sides.  A forest of n
    circles holds n // 2 pairs of one colour run both ways, so that even n has an
    invariant, and one more random circle for odd n.  E6 runs here though its
    S-matrix is over the Verlinde budget."""
    al = level_alphabet(build_root_system(label), k)
    rng = random.Random(f"torus:{label}:{k}")
    sides = ("inside", "outside")
    forests = []
    for n in sizes:
        components = []
        for _ in range(n // 2):
            color, winding = rng.choice(al.elements), rng.choice((1, -1))
            components += [(color, winding, rng.choice(sides)), (color, -winding, rng.choice(sides))]
        if n % 2:
            components.append((rng.choice(al.elements), rng.choice((1, -1)), rng.choice(sides)))
        forests.append(components)
    results = [contract_state_sum(prepare_terms(flat_forest(components), al))
               for components in forests]

    def disabled(*args, **kwargs):
        raise AssertionError("the torus-gauge sum used fusion data")

    monkeypatch.setattr(QuantumWeylGroup, "fold", disabled)
    monkeypatch.setattr(fusion, "fusion_matrices", disabled)
    monkeypatch.setattr(fusion_table, "_s_matrix", disabled)
    for components, got in zip(forests, results):
        want = torus_gauge_value(al, components)
        assert abs(got.value - want) <= 1e-12 * got.abs_sum, components


# (group, k) of the symmetry draws; E6 at k = 13 is coloured by its two fundamentals
# in the alphabet, omega_1 and omega_6, which are each other's dual.
SYMMETRY_LEVELS = [("A1", 6), ("A2", 6), ("A3", 6), ("B2", 6), ("G2", 7), ("E6", 13)]


def _symmetry_colours(label, k):
    elements = level_alphabet(build_root_system(label), k).elements
    return [e for e in elements if any(e)] if label == "E6" else elements


@pytest.mark.parametrize("label,k", SYMMETRY_LEVELS)
def test_mirror_conjugates_and_duals_keep_the_value(label, k):
    """On 20 random nesting forests, windings in +-1..+-3: negating every winding
    conjugates the value, and colouring every circle by its dual leaves it."""
    colours = _symmetry_colours(label, k)
    rng = random.Random(f"symmetry:{label}")
    for _ in range(20):
        doc = random_link(rng, label, k, colours)
        got = link_value(doc)
        mirrored, dual = link_value(mirror_link(doc)), link_value(dual_link(doc))
        assert abs(mirrored.value - got.value.conjugate()) <= 1e-12 * got.abs_sum, doc
        assert abs(dual.value - got.value) <= 1e-12 * got.abs_sum, doc


@pytest.mark.parametrize("label,k", SYMMETRY_LEVELS)
def test_rerooting_the_sphere(label, k):
    """Circle b nested in a, seen from a point of the sphere inside a, is the flat
    pair with a's inside and outside exchanged: the two values agree with a's
    positive side flipped, on 20 random draws of colours, windings in +-1..+-3
    and sides."""
    colours = _symmetry_colours(label, k)
    rng = random.Random(f"reroot:{label}")
    flip = {"inside": "outside", "outside": "inside"}
    for _ in range(20):
        a, b = ({"id": cid, "parent": None, "winding": rng.choice((1, -1)) * rng.randint(1, 3),
                 "positive_side": rng.choice(("inside", "outside")),
                 "color": list(rng.choice(colours))} for cid in "ab")
        nested = link_value({"group": label, "k": k, "circles": [a, dict(b, parent="a")]})
        flat = link_value({"group": label, "k": k, "circles": [
            dict(a, positive_side=flip[a["positive_side"]]), b]})
        assert abs(nested.value - flat.value) <= 1e-12 * nested.abs_sum, (a, b)


def test_contraction_deep_chain_is_iterative(a1):
    """1500 nested circles: no recursion in the forest check or the contraction."""
    al = level_alphabet(a1, 3)
    n = 1500
    d = build_diagram(
        [circle(str(i), parent=str(i - 1) if i else None, winding=1, color=(1,)) for i in range(n)]
    )
    r = contract_state_sum(prepare_terms(d, al))
    # at level 1, fusing with (1,) swaps the two colors: adjacent faces alternate
    assert r.colorings_retained == 2
    assert r.colorings_total == 2 ** (n + 1)
    assert math.isfinite(abs(r.value)) and abs(r.value) <= r.abs_sum


def _bench_reference_links():
    """Every shadow input the benchmark records a reference for, with its key.

    This is the one Tier-1 reader of `bench/` left: it must pair each existing slot
    with its entry in `bench/references.json`, which is never re-recorded, so it reads
    the slots where the references were taken.  A new slot goes in a new section of
    the workloads, with its own references.  Editing an existing `shadow` slot (its
    level, colours or shape) fails `test_abs_sum_matches_bench_references` by design:
    the edited link no longer has the recorded value."""
    wl = bench_workloads()
    refs = json.loads((BENCH / "references.json").read_text())
    for workload, slots in (("statesum_deep", wl.STATESUM_SLOTS), ("fusion_wide", wl.FUSION_WIDE_SLOTS)):
        for name, group, k, parents, colors, sides in slots:
            n = len(parents)
            for v, windings in enumerate(wl.winding_pool(name, n)):
                doc = wl.link_document(group, k, parents, colors, sides, windings,
                                       [f"c{i}" for i in range(n)], list(range(n)), False)
                yield doc, refs[f"{workload}/{name}/{v}"]


def test_abs_sum_matches_bench_references():
    """abs_sum and value against the references recorded from the enumerator.

    Each recorded abs_sum is a plain left-to-right float sum of the listed
    |term|, so it carries up to (retained - 1) ulp-scale roundings.
    """
    checked = 0
    for doc, ref in _bench_reference_links():
        al = level_alphabet(build_root_system(doc["group"]), doc["k"])
        r = contract_state_sum(prepare_terms(build_diagram(doc["circles"]), al))
        want = complex(ref["re"], ref["im"])
        assert abs(r.value - want) <= 1e-9 * ref["abs_sum"]
        assert abs(r.abs_sum - ref["abs_sum"]) <= r.colorings_retained * 2.0**-52 * ref["abs_sum"]
        checked += 1
    assert checked == 96


def side_by_side_closed_form(alphabet, n, gamma, winding):
    """n root circles colored gamma, positive side inside, as a sum over the outer color.

    The outer face has chi = 2 - n and gleam -n*winding; each inner face has
    chi = 1 and gleam winding.  With phi_a(g) = exp(i pi g <a, a+2rho>/k) and
    m_a = sum_b N^a_{gamma b} dim(b) phi_b(winding), the state sum is
    sum_a dim(a)^2 phi_a(-n winding) (m_a / dim(a))^n.  Returns (value, sum |term|).
    """
    rs, k = alphabet.rs, alphabet.k

    def phase(lam, g):
        q = g * Fraction(rs.label_form(lam, tuple(x + 2 for x in lam)), rs.weight_form_den)
        q %= 2 * k
        return cmath.exp(1j * math.pi * float(q) / k)

    els = alphabet.elements
    dims = [quantum_dimension(alphabet, lam) for lam in els]
    fusion = densify(fusion_rows(alphabet, gamma), len(els))
    value = abs_sum = 0
    for a, lam in enumerate(els):
        m = sum(fusion[a, b] * dims[b] * phase(nu, winding) for b, nu in enumerate(els))
        m_abs = sum(fusion[a, b] * dims[b] for b in range(len(els)))
        value += dims[a] ** 2 * phase(lam, -n * winding) * (m / dims[a]) ** n
        abs_sum += dims[a] ** 2 * (m_abs / dims[a]) ** n
    return value, abs_sum


@pytest.mark.parametrize(
    "label,k,n,gamma,winding",
    [
        ("A1", 10, 700, (0,), 0),  # the empty-link value; dim^chi underflowed to 22.94
        ("A1", 10, 1000, (1,), 1),  # about 9.02e280
        ("A1", 5, 3, (2,), -2),
        ("A2", 5, 40, (1, 0), 2),
        ("B2", 6, 60, (0, 1), 1),
    ],
)
def test_contraction_side_by_side_closed_form(label, k, n, gamma, winding):
    """Many children on one face: the contraction keeps its scale."""
    al = level_alphabet(build_root_system(label), k)
    d = build_diagram([circle(f"c{i}", winding=winding, color=gamma) for i in range(n)])
    r = contract_state_sum(prepare_terms(d, al))
    value, abs_sum = side_by_side_closed_form(al, n, gamma, winding)
    assert abs(r.value - value) <= 1e-9 * abs_sum
    assert r.abs_sum == pytest.approx(abs_sum, rel=1e-9)
    if gamma == (0,) and winding == 0:
        assert r.value.real == pytest.approx(empty_link_value(al), rel=1e-12)


def test_contraction_refuses_non_finite(a1):
    """2000 circles colored [1] at A1 k=10 overflow a double: exit 3, not Infinity/NaN."""
    al = level_alphabet(a1, 10)
    d = build_diagram([circle(f"c{i}", winding=1, color=(1,)) for i in range(2000)])
    with pytest.raises(PreconditionError, match="not a finite double"):
        contract_state_sum(prepare_terms(d, al))


def _shadow_cli(tmp_path, capsys, doc, *flags):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["shadow", str(path), *flags])
    return rc, json.loads(capsys.readouterr().out)


def test_diagnostics_terms_sum_to_value(tmp_path, capsys, monkeypatch):
    """700 side-by-side [0] circles at A1 k=10: the listed terms keep their scale,
    and the contraction and the listing share the one matrix of colour [0]."""
    built = []
    build = fusion.fusion_matrices

    def recorded(al, gammas):
        matrices = build(al, gammas)
        built.extend(matrices)
        return matrices

    monkeypatch.setattr(fusion, "fusion_matrices", recorded)
    doc = {"group": "A1", "k": 10,
           "circles": [circle(f"c{i}", winding=0, color=(0,)) for i in range(700)]}
    rc, out = _shadow_cli(tmp_path, capsys, doc, "--diagnostics")
    assert rc == 0
    assert built == [(0,)]
    assert len(out["terms"]) == 9
    total = sum(complex(t["term"]["re"], t["term"]["im"]) for t in out["terms"])
    value = complex(out["value"]["re"], out["value"]["im"])
    assert abs(total - value) <= 1e-12 * out["abs_sum"]
    assert value.real == pytest.approx(52.3606797749979, rel=1e-12)


def test_shadow_beyond_the_full_table_budget(tmp_path, capsys):
    """A2 k=20 has 171 weights: 171^3 table entries exceed the budget, 171^2 per circle do not."""
    al = level_alphabet(build_root_system("A2"), 20)
    assert len(al.elements) == 171
    doc = {"group": "A2", "k": 20,
           "circles": [circle(f"c{i}", winding=1, color=(1, 1)) for i in range(2)]}
    rc, out = _shadow_cli(tmp_path, capsys, doc)
    assert rc == 0
    value, abs_sum = side_by_side_closed_form(al, 2, (1, 1), 1)
    assert abs(complex(out["value"]["re"], out["value"]["im"]) - value) <= 1e-9 * abs_sum
    with pytest.raises(PreconditionError, match="budget"):
        build_fusion_table(al)


def test_shadow_refuses_many_colours_before_building(tmp_path, capsys, monkeypatch):
    """26 distinct colours at A1 k=200 need 26 * 199^2 > 10^6 coefficients: exit 3, no matrix built."""
    def unbuilt(*args):
        raise AssertionError("a fusion matrix was built before the budget check")

    monkeypatch.setattr(fusion, "weight_multiplicities", unbuilt)
    monkeypatch.setattr(QuantumWeylGroup, "fold", unbuilt)
    doc = {"group": "A1", "k": 200, "circles": [circle(f"c{i}", color=(i,)) for i in range(26)]}
    rc, out = _shadow_cli(tmp_path, capsys, doc)
    assert rc == 3
    assert "26 fusion matrices" in out["error"]["message"]
    assert "1029626 coefficients; the budget is 1000000" in out["error"]["message"]


def test_shadow_refuses_before_any_quantum_dimension(tmp_path, capsys, monkeypatch):
    """At A1 k=100001 one colour needs 100000^2 > 10^6 coefficients: exit 3 before
    a quantum dimension of the 100,000 weights is computed."""
    def uncomputed(alphabet, lam):
        raise AssertionError("a quantum dimension was computed before the budget check")

    monkeypatch.setattr(reps, "quantum_dimension", uncomputed)
    doc = {"group": "A1", "k": 100001, "circles": [circle("a", color=(1,))]}
    rc, out = _shadow_cli(tmp_path, capsys, doc)
    assert rc == 3
    assert "10000000000 coefficients; the budget is 1000000" in out["error"]["message"]


@pytest.mark.parametrize("c", [1, 500])
def test_outside_orientation_is_the_transpose(a1, c):
    """At A1 k=1000 a circle with positive side outside gets the transposed rows
    of N_c, which equal the dense transpose; positive side inside gets N_c."""
    al = level_alphabet(a1, 1000)
    n = len(al.elements)
    dense = densify(fusion_rows(al, (c,)), n)
    d = build_diagram([circle("in", color=(c,)), circle("out", side="outside", color=(c,))])
    (_, _, inside), (_, _, outside) = prepare_terms(d, al).circles
    assert (densify(inside, n) == dense).all()
    assert (densify(outside, n) == dense.T).all()
    assert all(list(row) == sorted(row) for row in outside)


def test_outside_orientation_on_a_non_self_dual_colour():
    """At A2 k=6 N_(1,0) is not symmetric, so only a real transpose passes: the
    outside rows are N_(1,0)^T = N_(0,1), the matrix of the dual colour, with keys
    increasing, and differ from the inside rows."""
    al = level_alphabet(build_root_system("A2"), 6)
    n = len(al.elements)
    dense = densify(fusion_rows(al, (1, 0)), n)
    d = build_diagram([circle("in", color=(1, 0)), circle("out", side="outside", color=(1, 0))])
    (_, _, inside), (_, _, outside) = prepare_terms(d, al).circles
    assert (densify(inside, n) == dense).all()
    assert (densify(outside, n) == dense.T).all()
    assert outside == fusion_rows(al, (0, 1))
    assert outside != inside and (dense != dense.T).any()
    assert all(list(row) == sorted(row) for row in outside)
