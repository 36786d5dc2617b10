import cmath
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_forest_diagram
from shadowsum.diagrams import (
    KahanComplex,
    build_diagram,
    contract_state_sum,
    empty_link_value,
    state_sum,
)
from shadowsum.errors import PreconditionError
from shadowsum import cli, fusion
from shadowsum.fusion import build_fusion_table, fusion_matrix, quantum_dimension
from shadowsum.reps import level_alphabet
from shadowsum.roots import build_root_system


def circle(cid, parent=None, winding=1, side="inside", color=(0,)):
    return {
        "id": cid,
        "parent": parent,
        "winding": winding,
        "positive_side": side,
        "color": list(color),
    }


def naive_state_sum(diagram, alphabet, table):
    """Full product-space enumeration with plain nested loops; no pruning.

    `table` is the full fusion table T[lam, mu, nu].  Mirrors the canonical
    term arithmetic (integer fusion product and dim(inner)/dim(outer) ratios
    in circle order after dim(outer face)^2, exact rational phase exponent)
    so agreement can be checked with zero tolerance.
    """
    rs = alphabet.rs
    k = alphabet.k
    qdims = [quantum_dimension(alphabet, lam) for lam in alphabet.elements]
    rho2 = (2,) * rs.rank
    phase_q = [
        Fraction(rs.label_form(lam, tuple(a + b for a, b in zip(lam, rho2))), rs.weight_form_den)
        for lam in alphabet.elements
    ]
    face_ids = [f.face_id for f in diagram.faces]
    gleams = [f.gleam for f in diagram.faces]
    circles = []
    for c in diagram.circles:
        inner = face_ids.index(f"in:{c.circle_id}")
        outer = face_ids.index("outer" if c.parent is None else f"in:{c.parent}")
        plus, minus = (inner, outer) if c.positive_side == "inside" else (outer, inner)
        circles.append((minus, plus, alphabet.index(c.color), inner, outer))
    acc = KahanComplex()
    n_nonzero = 0
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
        n_nonzero += 1
        acc.add(term)
    return acc.total, n_nonzero


class TestBuildDiagram:
    def test_empty(self):
        d = build_diagram([])
        assert len(d.faces) == 1
        f = d.faces[0]
        assert f.euler == 2 and f.gleam == 0

    def test_single_circle(self):
        d = build_diagram([circle("c", winding=1, side="inside")])
        by_id = {f.face_id: f for f in d.faces}
        assert by_id["in:c"].euler == 1 and by_id["in:c"].gleam == 1
        assert by_id["outer"].euler == 1 and by_id["outer"].gleam == -1

    def test_two_nested(self):
        d = build_diagram(
            [circle("a", winding=2), circle("b", parent="a", winding=5)]
        )
        by_id = {f.face_id: f for f in d.faces}
        # middle annulus: inside a, outside b
        assert by_id["in:a"].euler == 0
        assert by_id["in:a"].gleam == 2 - 5
        d2 = build_diagram(
            [circle("a", winding=2), circle("b", parent="a", winding=5, side="outside")]
        )
        assert {f.face_id: f for f in d2.faces}["in:a"].gleam == 2 + 5

    def test_gleam_of_face_examples(self):
        def gleams(d):
            return {f.face_id: f.gleam for f in d.faces}

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

    def test_bad_side_rejected(self):
        with pytest.raises(PreconditionError):
            build_diagram([circle("a", side="left")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PreconditionError):
            build_diagram([circle("a"), circle("a")])


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
        r = state_sum(d, a1k4)
        assert abs(r.value - 4.0) < 1e-9
        assert abs(empty_link_value(a1k4) - 4.0) < 1e-9

    def test_wind0_trivial_color(self, a1k4):
        d = build_diagram([circle("c", winding=0, color=(0,))])
        r = state_sum(d, a1k4)
        assert abs(r.value - 4.0) < 1e-9

    def test_single_circle_brute_force(self, a1k4, a1k4_table):
        d = build_diagram([circle("c", winding=1, color=(1,))])
        r = state_sum(d, a1k4, diagnostics=True)
        val = 0j
        for a in range(3):
            for b in range(3):
                n = a1k4_table[b, 1, a]
                val += (
                    n
                    * quantum_dimension(a1k4, (a,))
                    * quantum_dimension(a1k4, (b,))
                    * cmath.exp(1j * math.pi * a * (a + 2) / 8)
                    * cmath.exp(-1j * math.pi * b * (b + 2) / 8)
                )
        assert abs(r.value - val) < 1e-12
        assert abs(r.value - sum(t for _, t in r.terms)) < 1e-12  # diagnostics consistency

    def test_trivially_colored_wind0_circles_match_empty(self, a1):
        for k in (4, 5):
            al = level_alphabet(a1, k)
            expect = state_sum(build_diagram([]), al).value
            for n in (1, 2, 3):
                circles = [
                    circle(str(i), parent=str(i - 1) if i and i % 2 else None,
                           winding=0, color=(0,))
                    for i in range(n)
                ]
                got = state_sum(build_diagram(circles), al).value
                assert abs(got - expect) < 1e-9

    def test_color_outside_alphabet_rejected(self, a1k4):
        d = build_diagram([circle("c", color=(3,))])
        with pytest.raises(PreconditionError):
            state_sum(d, a1k4)
        with pytest.raises(PreconditionError):
            contract_state_sum(d, a1k4)

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
            v1 = state_sum(d, al).value
            v2 = state_sum(build_diagram(flipped), al).value
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
    """Zero-tolerance agreement between the pruned DFS and naive loops."""
    for k in (3, 4, 5):
        al = level_alphabet(a1, k)
        ft = build_fusion_table(al)
        colors = list(al.elements)
        rng = random.Random(99)
        for shape in all_small_diagrams():
            cs = [dict(c, color=list(rng.choice(colors))) for c in shape]
            d = build_diagram(cs)
            got = state_sum(d, al)
            want, n_nonzero = naive_state_sum(d, al, ft)
            assert got.value == want
            assert got.colorings_retained == n_nonzero


UNKNOT_A1K4 = [circle("c", winding=1, color=(1,))]  # four terms cancelling to exactly 0


@pytest.mark.parametrize(
    "label,k", [("A1", 3), ("A1", 4), ("A1", 5), ("A1", 6), ("A2", 5), ("B2", 5)]
)
def test_contraction_matches_enumerator(label, k):
    """Tree contraction against the enumerator on random forests of <= 6 circles.

    The tolerance is relative to sum |term|: sums that cancel to zero (such
    as the A1 k=4 unknot colored [1]) have no meaningful value-relative error.
    """
    al = level_alphabet(build_root_system(label), k)
    rng = random.Random(f"contract:{label}:{k}")
    diagrams = [random_forest_diagram(rng, al, max_circles=6) for _ in range(12)]
    if (label, k) == ("A1", 4):
        diagrams.append(build_diagram(UNKNOT_A1K4))
    for d in diagrams:
        got = contract_state_sum(d, al)
        want = state_sum(d, al, diagnostics=True)
        abs_sum = math.fsum(abs(t) for _, t in want.terms)
        assert abs(got.value - want.value) <= 1e-12 * abs_sum
        assert got.colorings_retained == want.colorings_retained
        assert got.colorings_total == want.colorings_total
        assert abs(got.abs_sum - abs_sum) <= 1e-12 * abs_sum
        assert abs(want.abs_sum - abs_sum) <= 1e-12 * abs_sum


def test_unknot_a1k4_cancels(a1k4):
    r = contract_state_sum(build_diagram(UNKNOT_A1K4), a1k4)
    assert r.colorings_retained == 4
    assert abs(r.value) <= 1e-15 * r.abs_sum


def test_contraction_deep_chain_is_iterative(a1):
    """1500 nested circles: no recursion in the forest check or the contraction."""
    al = level_alphabet(a1, 3)
    n = 1500
    d = build_diagram(
        [circle(str(i), parent=str(i - 1) if i else None, winding=1, color=(1,)) for i in range(n)]
    )
    r = contract_state_sum(d, al)
    # at level 1, fusing with (1,) swaps the two colors: adjacent faces alternate
    assert r.colorings_retained == 2
    assert r.colorings_total == 2 ** (n + 1)
    assert math.isfinite(abs(r.value)) and abs(r.value) <= r.abs_sum


def _bench_reference_links():
    """Every shadow input the benchmark records a reference for, with its key."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import workloads as wl
    finally:
        sys.path.remove(str(bench))
    refs = json.loads((bench / "references.json").read_text())
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
        r = contract_state_sum(build_diagram(doc["circles"]), al)
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
    fusion = fusion_matrix(alphabet, gamma)
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
    r = contract_state_sum(d, al)
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
        contract_state_sum(d, al)


def _shadow_cli(tmp_path, capsys, doc, *flags):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["shadow", str(path), *flags])
    return rc, json.loads(capsys.readouterr().out)


def test_diagnostics_terms_sum_to_value(tmp_path, capsys, monkeypatch):
    """700 side-by-side [0] circles at A1 k=10: the listed terms keep their scale,
    and the contraction and the listing share the one matrix of colour [0]."""
    built = []
    build = fusion.fusion_matrix
    monkeypatch.setattr(fusion, "fusion_matrix", lambda al, g: built.append(g) or build(al, g))
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
    def unbuilt(alphabet, gamma):
        raise AssertionError("a fusion matrix was built before the budget check")

    monkeypatch.setattr(fusion, "fusion_matrix", unbuilt)
    doc = {"group": "A1", "k": 200, "circles": [circle(f"c{i}", color=(i,)) for i in range(26)]}
    rc, out = _shadow_cli(tmp_path, capsys, doc)
    assert rc == 3
    assert "26 fusion matrices" in out["error"]["message"]
    assert "1029626 coefficients; the budget is 1000000" in out["error"]["message"]
