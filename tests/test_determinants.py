import math
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from shadowsum.determinants import (
    SteppedField,
    det_half,
    det_k,
    det_rig_constant,
    det_rig_quadrature,
    det_rig_step,
    flat_torus_metric,
    round_sphere_metric,
)
from shadowsum.diagrams import build_diagram
from shadowsum.errors import PreconditionError


def one_circle_diagram():
    return build_diagram(
        [{"id": "c", "parent": None, "winding": 1, "positive_side": "inside", "color": [0]}]
    )


class TestClosedForms:
    def test_det_k_examples(self, a1, a2):
        assert det_k(a1, a1.from_labels([Q(1, 2)])) == pytest.approx(4.0)
        assert det_k(a1, a1.simple_coroots[0]) == pytest.approx(0.0, abs=1e-12)
        b = a2.from_labels([Q(1, 3), Q(1, 3)])
        assert det_k(a2, b) == pytest.approx(27.0)

    def test_det_k_matrix_oracle_a1(self, a1):
        """e^{ad b} on the root plane is a rotation by 2 pi alpha(b)."""
        for x in (Q(1, 2), Q(1, 3), Q(5, 7)):
            b = a1.from_labels([x])
            angle = 2.0 * math.pi * float(a1.inner(a1.positive_roots[0], b))
            gen = np.array([[0.0, -angle], [angle, 0.0]])
            e = scipy.linalg.expm(gen)
            assert np.linalg.det(np.eye(2) - e) == pytest.approx(det_k(a1, b), rel=1e-10)

    def test_det_k_matrix_oracle_a2(self, a2):
        b = a2.from_labels([Q(1, 5), Q(1, 7)])
        blocks = []
        for alpha in a2.positive_roots:
            angle = 2.0 * math.pi * float(a2.inner(alpha, b))
            blocks.append(scipy.linalg.expm(np.array([[0.0, -angle], [angle, 0.0]])))
        e = scipy.linalg.block_diag(*blocks)
        assert np.linalg.det(np.eye(6) - e) == pytest.approx(det_k(a2, b), rel=1e-10)

    def test_det_half_examples(self, a1):
        assert det_half(a1, a1.from_labels([Q(1, 2)])) == pytest.approx(2.0)
        assert det_half(a1, a1.simple_coroots[0]) == pytest.approx(0.0, abs=1e-12)
        # sign retained, not absolute value
        assert det_half(a1, a1.from_labels([Q(3, 2)])) == pytest.approx(-2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.fractions(min_value=-3, max_value=3, max_denominator=40),
        y=st.fractions(min_value=-3, max_value=3, max_denominator=40),
    )
    def test_half_square_is_det_k(self, x, y, b2):
        b = b2.from_labels([x, y])
        assert abs(det_half(b2, b) ** 2 - det_k(b2, b)) <= 1e-12 * max(
            1.0, abs(det_k(b2, b))
        )

    def test_det_rig_constant(self, a1):
        assert det_rig_constant(a1, a1.from_labels([Q(1, 2)]), 2) == pytest.approx(4.0)
        assert det_rig_constant(a1, a1.from_labels([Q(1, 5)]), 0) == pytest.approx(1.0)
        assert det_rig_constant(a1, a1.from_labels([Q(1, 4)]), 2) == pytest.approx(2.0)

    def test_det_rig_constant_singular_rejected(self, a1):
        with pytest.raises(PreconditionError):
            det_rig_constant(a1, a1.from_labels([1]), 2)


class TestSteppedField:
    def test_wrong_value_count(self, a1):
        with pytest.raises(PreconditionError):
            SteppedField(diagram=one_circle_diagram(), values=((Q(0), Q(0)),))

    def test_det_rig_step_examples(self, a1):
        d = one_circle_diagram()
        b_half = a1.from_labels([Q(1, 2)])
        f = SteppedField(diagram=d, values=(b_half, b_half))
        assert det_rig_step(a1, f) == pytest.approx(4.0)
        mixed = SteppedField(diagram=d, values=(b_half, a1.from_labels([Q(1, 6)])))
        assert det_rig_step(a1, mixed) == pytest.approx(2.0)

    def test_constant_field_matches_chi2_closed_form(self, a1):
        b = a1.from_labels([Q(2, 7)])
        f = SteppedField.constant(b)
        assert det_rig_step(a1, f) == pytest.approx(det_rig_constant(a1, b, 2))

    def test_singular_face_rejected(self, a1):
        d = one_circle_diagram()
        f = SteppedField(diagram=d, values=(a1.from_labels([Q(1, 2)]), a1.from_labels([2])))
        with pytest.raises(PreconditionError) as ei:
            det_rig_step(a1, f)
        assert "in:c" in str(ei.value)

    def test_singular_face_message_shows_rationals(self, a1):
        values = (a1.from_labels([Q(1, 3)]), a1.from_labels([1]))
        with pytest.raises(PreconditionError) as ei:
            det_rig_step(a1, SteppedField(diagram=one_circle_diagram(), values=values))
        assert "(1/2, -1/2)" in str(ei.value) and "Fraction(" not in str(ei.value)


class TestMetricSamples:
    def test_round_sphere_invariants(self):
        m = round_sphere_metric(64, 128)
        assert abs(float(m.weights.sum()) - 4.0 * math.pi) < 1e-8
        assert abs(float(m.weights @ m.scalar_curvature) - 8.0 * math.pi) < 1e-6
        m.validate()

    def test_flat_patch_is_curvature_free(self):
        m = flat_torus_metric()
        m.validate()
        assert float(np.abs(m.scalar_curvature).max()) == 0.0


class TestQuadrature:
    def test_constant_matches_closed_form(self, a1):
        b = tuple(float(x) for x in a1.from_labels([Q(1, 2)]))
        m = round_sphere_metric(64, 128)
        v = det_rig_quadrature(a1, lambda t, p: b, m)
        assert abs(v - 4.0) < 1e-6

    def test_negative_branch_constant(self, a1):
        # alpha(b) = 3/2: the half-determinant is negative but chi = 2 squares it
        b = tuple(float(x) for x in a1.from_labels([Q(3, 2)]))
        v = det_rig_quadrature(a1, lambda t, p: b, round_sphere_metric(64, 128))
        assert abs(v - 4.0) < 1e-6

    def test_flat_patch_gives_one(self, a1):
        b = tuple(float(x) for x in a1.from_labels([Q(1, 2)]))
        assert det_rig_quadrature(a1, lambda t, p: b, flat_torus_metric()) == pytest.approx(1.0)

    def test_smooth_field_against_1d_oracle(self, a1):
        w = [float(c) for c in a1.fundamental_weights[0]]

        def sampler(theta, phi):
            return np.outer(0.5 + 0.2 * np.cos(theta), w)

        oracle = math.exp(
            quad(
                lambda t: math.log(2.0 * math.sin(math.pi * (0.5 + 0.2 * math.cos(t))))
                * math.sin(t),
                0.0,
                math.pi,
            )[0]
        )
        v = det_rig_quadrature(a1, sampler, round_sphere_metric(64, 128))
        assert abs(v - oracle) < 1e-6

    def test_grid_refinement_order_at_least_two(self, a1):
        w = [float(c) for c in a1.fundamental_weights[0]]

        def sampler(theta, phi):
            return np.outer(0.5 + 0.2 * np.cos(theta) * np.cos(theta), w)

        ref = det_rig_quadrature(a1, sampler, round_sphere_metric(128, 256))
        e_coarse = abs(det_rig_quadrature(a1, sampler, round_sphere_metric(4, 8)) - ref)
        e_fine = abs(det_rig_quadrature(a1, sampler, round_sphere_metric(8, 16)) - ref)
        assert e_fine <= e_coarse / 4.0 + 1e-12

    def test_singular_node_rejected(self, a1):
        b = tuple(float(x) for x in a1.simple_coroots[0])  # alpha(b) = 2
        with pytest.raises(PreconditionError) as ei:
            det_rig_quadrature(a1, lambda t, p: b, round_sphere_metric(8, 16))
        assert "node" in str(ei.value)


def test_quadrature_grid_budget_refuses_before_allocating():
    with pytest.raises(PreconditionError, match="budget"):
        round_sphere_metric(10**6, 10**6)
