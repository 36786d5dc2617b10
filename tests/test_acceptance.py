"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import cmath
import math
import random
import time
from fractions import Fraction as Q

import numpy as np

from conftest import (
    alphas, ambient, from_labels, random_forest_diagram, stage_indicator, table_array)
from test_determinants import det_quadrature
from test_diagrams import all_small_diagrams, empty_link_value, naive_terms
from test_holonomy import (
    circling_ribbon,
    loop_holonomy,
    phase_map,
    ribbon_closed_form,
    ribbon_holonomy,
)
from shadowsum.circleop import (
    CircleOperatorData,
    apply_operator,
    circle_inverse_apply,
    random_admissible_series,
)
from shadowsum.determinants import det_half, det_k, det_rig_constant
from shadowsum.diagrams import build_diagram, contract_state_sum, list_terms, prepare_terms
from shadowsum.errors import PreconditionError
from shadowsum.fusion_table import build_fusion_table, verlinde_table
from shadowsum.regularize import constant_field, det_rig_n, stepped_field
from shadowsum.reps import level_alphabet, quantum_dimension, weight_multiplicities
from shadowsum.roots import build_root_system

SWEEP = [("A1", range(3, 11)), ("A2", range(4, 7)), ("B2", range(4, 7))]


def _sweep_tables():
    for label, ks in SWEEP:
        rs = build_root_system(label)
        for k in ks:
            alphabet = level_alphabet(rs, k)
            yield label, k, alphabet, table_array(build_fusion_table(alphabet))


def test_fusion_equivalence_full_sweep():
    """Quantum-Weyl-group coefficients equal the Verlinde oracle exactly."""
    t0 = time.time()
    triples = 0
    for label, k, alphabet, table in _sweep_tables():
        wrong = np.argwhere(table_array(verlinde_table(alphabet)) != table)
        assert len(wrong) == 0, (label, k, *(alphabet.elements[i] for i in wrong[0]))
        triples += table.size
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE PASS: fusion equivalence on {triples} triples "
          f"(A1 k<=10, A2 k<=6, B2 k<=6) in {elapsed:.1f}s")


def test_quantum_dimension_ring_property():
    """sum_nu N^lam_{mu nu} dim(nu) = dim(lam) dim(mu) to 1e-9 on the sweep."""
    worst = 0.0
    for label, k, alphabet, table in _sweep_tables():
        dims = [quantum_dimension(alphabet, lam) for lam in alphabet.elements]
        for l, lam in enumerate(alphabet.elements):
            for m, mu in enumerate(alphabet.elements):
                lhs = sum(int(table[l, m, n]) * dims[n] for n in range(len(dims)))
                err = abs(lhs - dims[l] * dims[m])
                worst = max(worst, err)
                assert err < 1e-9, (label, k, lam, mu)
    print(f"\nACCEPTANCE PASS: quantum-dimension ring property, worst residual {worst:.2e}")


def test_empty_link_values():
    """A1 k=4 gives 4; general (G,k) matches sum of squared quantum dimensions."""
    rs = build_root_system("A1")
    alphabet = level_alphabet(rs, 4)
    v = contract_state_sum(prepare_terms(build_diagram([]), alphabet)).value
    assert abs(v - 4.0) < 1e-9
    cases = [("A2", 5), ("B2", 6), ("C3", 6), ("G2", 6), ("D4", 7)]
    for label, k in cases:
        rs = build_root_system(label)
        alphabet = level_alphabet(rs, k)
        got = contract_state_sum(prepare_terms(build_diagram([]), alphabet)).value
        want = empty_link_value(alphabet)
        assert abs(got - want) < 1e-9, (label, k)
    print(f"\nACCEPTANCE PASS: empty-link values (A1 k=4 -> 4; {cases} both ways)")


def test_diagram_invariants_thousand_forests():
    """Exact chi and gleam sums on 1000 random forests of <= 6 circles."""
    rs = build_root_system("A1")
    alphabet = level_alphabet(rs, 5)
    rng = random.Random(123456)
    for _ in range(1000):
        d = random_forest_diagram(rng, alphabet, max_circles=6)
        assert sum(f.euler for f in d.faces) == 2
        assert sum(f.gleam for f in d.faces) == 0
        assert len(d.faces) == len(d.circles) + 1
    print("\nACCEPTANCE PASS: 1000 random forests satisfy sum chi = 2, sum gleam = 0, exactly")


def test_state_sum_oracle_equivalence():
    """Pruned enumeration lists the same terms as naive full enumeration, exactly, <= 3 faces."""
    rs = build_root_system("A1")
    count = 0
    for k in (3, 4, 5):
        alphabet = level_alphabet(rs, k)
        table = table_array(build_fusion_table(alphabet))
        rng = random.Random(31337 + k)
        for shape in all_small_diagrams():
            cs = [dict(c, color=list(rng.choice(alphabet.elements))) for c in shape]
            d = build_diagram(cs)
            got = list_terms(prepare_terms(d, alphabet))
            assert got == naive_terms(d, alphabet, table)  # zero tolerance
            count += 1
    print(f"\nACCEPTANCE PASS: pruned == naive term by term on {count} diagrams with <= 3 faces (A1, k <= 5)")


def test_determinant_closed_forms(capsys):
    """Gauss-Bonnet quadrature check within 1e-6; half-squares to 1e-12."""
    rs = build_root_system("A1")
    for x in (Q(1, 2), Q(1, 3), Q(2, 5)):
        got = det_quadrature(capsys, rs, [x])
        want = det_rig_constant(alphas(rs, [x]), 2)
        assert abs(got - want) < 1e-6, x
    rs2 = build_root_system("B2")
    rng = random.Random(7)
    for _ in range(50):
        labels = [Q(rng.randint(-20, 20), rng.randint(21, 40)) for _ in range(2)]
        a = alphas(rs2, labels)
        dk = det_k(a)
        assert abs(det_half(a) ** 2 - dk) <= 1e-12 * max(1.0, abs(dk))
    print("\nACCEPTANCE PASS: det_rig_quadrature matches det_k^(chi/2) (1e-6); "
          "det_half^2 = det_k (1e-12)")


def test_appendix_b_convergence():
    """det_rig_n within 1e-3 of the closed form by n = 12; indicator limits to n = 8."""
    rs = build_root_system("A1")
    a = alphas(rs, [Q(1, 2)])
    const = constant_field(a)
    target = det_rig_constant(a, 2)
    err = abs(det_rig_n(12, const)[0] - target)
    assert err <= 1e-3

    diagram = build_diagram(
        [{"id": "c", "parent": None, "winding": 1, "positive_side": "inside", "color": [0]}]
    )
    regular = stepped_field(diagram.faces, (alphas(rs, [Q(1, 2)]), alphas(rs, [Q(1, 3)])))
    singular = stepped_field(diagram.faces, (alphas(rs, [Q(1, 2)]), alphas(rs, [2])))
    for n in range(1, 9):
        assert stage_indicator(n, singular) == 0.0
    reg_errs = [abs(stage_indicator(n, regular) - 1.0) for n in range(1, 9)]
    assert reg_errs[-1] < 1e-3
    const_errs = [abs(stage_indicator(n, const) - 1.0) for n in range(1, 9)]
    assert const_errs[-1] < 1e-3
    print(f"\nACCEPTANCE PASS: |det_rig_12 - closed form| = {err:.2e} <= 1e-3; "
          f"indicator -> 1 on regular fields (final gap {reg_errs[-1]:.2e}), 0 on singular, n <= 8")


def test_operator_inverse_residual():
    """Composition residual <= 1e-10 at truncation 16 over 100 random regular b."""
    worst = 0.0
    rng = np.random.default_rng(2024)
    for label in ("A1", "A2"):
        rs = build_root_system(label)
        done = 0
        while done < 100:
            labels = [Q(int(rng.integers(-24, 25)), 49) for _ in range(rs.rank)]
            try:
                data = CircleOperatorData(rs=rs, b=ambient(rs).from_labels(labels), order=16)
            except PreconditionError:
                continue
            f = random_admissible_series(data, rng)
            g = circle_inverse_apply(data, f)
            res = float(np.max(np.abs(apply_operator(data, g) - f)))
            worst = max(worst, res)
            assert res <= 1e-10
            done += 1
    print(f"\nACCEPTANCE PASS: operator-inverse residual over 2x100 random b: worst {worst:.2e} <= 1e-10")


def test_holonomy_criteria():
    """O(1/n) abelian slope in [0.8, 1.2]; closed form vs direct product to 1e-6."""
    c = 0.37

    def conn(t):
        return (2j * math.pi * c * np.asarray(t))[:, None]

    want = cmath.exp(2j * math.pi * c * 0.5)
    ns = [16, 32, 64, 128, 256, 512]
    errs = [abs(loop_holonomy(conn, n)[0] - want) for n in ns]
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2

    rs = build_root_system("A1")
    ws = weight_multiplicities(rs, (1,))
    b = np.array([float(x) for x in from_labels(rs, [Q(1, 3)])])
    omega = np.array([float(x) for x in from_labels(rs, [1])])

    def a_form(sigma, dsigma):
        return 0.15 * dsigma[:, :1] * omega

    closed = ribbon_closed_form([circling_ribbon], [ws], a_form, lambda s: b)

    def conn_rib(sample, m=phase_map(ws)):
        sigma, dsigma, dtau = sample
        return (a_form(sigma, dsigma) + dtau * b) @ m

    direct = ribbon_holonomy(circling_ribbon, conn_rib, 4096).sum()
    gap = abs(closed - direct)
    assert gap < 1e-6
    print(f"\nACCEPTANCE PASS: holonomy slope {slope:.3f} in [0.8, 1.2]; "
          f"closed form vs direct ribbon product gap {gap:.2e} <= 1e-6")
