import math
import sys
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import alphas, ambient, det_rig_step, from_labels, run_main
from shadowsum.determinants import det_half, det_k, det_rig_constant, root_sines
from shadowsum.diagrams import build_diagram
from shadowsum.errors import PreconditionError
from shadowsum.regularize import constant_field, stepped_field
from shadowsum.roots import build_root_system

SINGULAR_TOL = 1e-12  # distance of alpha(B) from an integer that `sphere_rule` counts as singular


def sphere_grid(n_theta: int, n_phi: int):
    """Gauss-Legendre x uniform product rule on the unit round sphere: the node
    coordinates theta and phi and the area weights, each one flat array."""
    x, w = np.polynomial.legendre.leggauss(n_theta)  # x = cos(theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    weights = np.repeat(w[:, None], n_phi, axis=1) * (2.0 * math.pi / n_phi)
    return tt.ravel(), pp.ravel(), weights.ravel()


def sphere_rule(rs, sampler, n_theta: int, n_phi: int) -> float:
    """The regularized determinant of a field that varies over the unit round sphere
    (R_g = 2), by the rule of `sphere_grid`: the oracle of `det --diagnostics`
    (`det_quadrature`) and of the step-field limit `det_rig_step` (`conftest`).
    sampler(theta, phi) maps the node arrays to the coweight coordinates x of B, an
    (n, rank) array, or a (rank,) one for a constant field."""
    theta, phi, weights = sphere_grid(n_theta, n_phi)
    pairs = np.asarray(sampler(theta, phi), dtype=float) @ np.array(
        rs.positive_root_labels, dtype=float).T
    assert (np.abs(pairs - np.round(pairs)) > SINGULAR_TOL).all(), "singular node"
    two_sin = 2.0 * np.sin(math.pi * pairs)
    logs = np.log(np.abs(two_sin)).sum(axis=-1) + 1j * math.pi * (two_sin < 0).sum(axis=-1)
    value = np.exp((weights * 2.0 / (4.0 * math.pi) * logs).sum())
    assert abs(value.imag) <= 1e-8 * max(1.0, abs(value.real)), value
    return float(value.real)


def det_quadrature(capsys, rs, labels) -> float:
    """The round-sphere integral of the constant field b = sum_j labels_j omega_j as
    `det --diagnostics` prints it, b given by its ambient coordinates."""
    b = ",".join(map(str, ambient(rs).from_labels(labels)))
    rc, doc = run_main(capsys, "det", "--group", rs.name, f"--b={b}", "--diagnostics")
    assert rc == 0, doc
    return doc["det_rig_quadrature"]


def one_circle_diagram():
    return build_diagram(
        [{"id": "c", "parent": None, "winding": 1, "positive_side": "inside", "color": [0]}]
    )


class TestClosedForms:
    def test_det_k_examples(self, a1, a2):
        assert det_k(alphas(a1, [Q(1, 2)])) == pytest.approx(4.0)
        assert det_k(alphas(a1, [2])) == pytest.approx(0.0, abs=1e-12)  # b = coroot
        assert det_k(alphas(a2, [Q(1, 3), Q(1, 3)])) == pytest.approx(27.0)

    def test_det_k_matrix_oracle_a1(self, a1):
        """e^{ad b} on the root plane is a rotation by 2 pi alpha(b)."""
        amb = ambient(a1)
        for x in (Q(1, 2), Q(1, 3), Q(5, 7)):
            b = amb.from_labels([x])
            angle = 2.0 * math.pi * float(amb.inner(amb.positive_roots[0], b))
            gen = np.array([[0.0, -angle], [angle, 0.0]])
            e = scipy.linalg.expm(gen)
            assert np.linalg.det(np.eye(2) - e) == pytest.approx(
                det_k(amb.root_pairings(b)), rel=1e-10)

    def test_det_k_matrix_oracle_a2(self, a2):
        amb = ambient(a2)
        b = amb.from_labels([Q(1, 5), Q(1, 7)])
        blocks = []
        for alpha in amb.positive_roots:
            angle = 2.0 * math.pi * float(amb.inner(alpha, b))
            blocks.append(scipy.linalg.expm(np.array([[0.0, -angle], [angle, 0.0]])))
        e = scipy.linalg.block_diag(*blocks)
        assert np.linalg.det(np.eye(6) - e) == pytest.approx(
            det_k(amb.root_pairings(b)), rel=1e-10)

    def test_det_half_examples(self, a1):
        assert det_half(alphas(a1, [Q(1, 2)])) == pytest.approx(2.0)
        assert det_half(alphas(a1, [2])) == pytest.approx(0.0, abs=1e-12)
        # sign retained, not absolute value
        assert det_half(alphas(a1, [Q(3, 2)])) == pytest.approx(-2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.fractions(min_value=-3, max_value=3, max_denominator=40),
        y=st.fractions(min_value=-3, max_value=3, max_denominator=40),
    )
    def test_half_square_is_det_k(self, x, y, b2):
        a = alphas(b2, [x, y])
        assert abs(det_half(a) ** 2 - det_k(a)) <= 1e-12 * max(1.0, abs(det_k(a)))

    def test_det_rig_constant(self, a1):
        assert det_rig_constant(alphas(a1, [Q(1, 2)]), 2) == pytest.approx(4.0)
        assert det_rig_constant(alphas(a1, [Q(1, 5)]), 0) == pytest.approx(1.0)
        assert det_rig_constant(alphas(a1, [Q(1, 4)]), 2) == pytest.approx(2.0)

    def test_det_rig_constant_singular_rejected(self, a1):
        with pytest.raises(PreconditionError):
            det_rig_constant(alphas(a1, [1]), 2)


class TestSteppedField:
    def test_wrong_value_count(self, a1):
        """One value per face, refused with the count's own message before any
        field is built."""
        with pytest.raises(PreconditionError, match="^stepped field needs one value per "
                                                    "face: got 1 values for 2 faces$"):
            stepped_field(one_circle_diagram().faces, ((Q(0),),))

    def test_constant_field_is_the_bare_sphere(self, a1):
        """`constant_field` is `stepped_field` on the faces of the empty diagram: one
        face, with chi = 2, its value held as Fractions."""
        a = (1, 0.5, Q(1, 3))
        assert constant_field(a) == stepped_field(build_diagram([]).faces,
                                                  [tuple(map(Q, a))])
        assert constant_field(a) == ((2, (Q(1), Q(1, 2), Q(1, 3))),)

    def test_det_rig_step_examples(self, a1):
        d = one_circle_diagram()
        b_half = alphas(a1, [Q(1, 2)])
        f = stepped_field(d.faces, (b_half, b_half))
        assert det_rig_step(f) == pytest.approx(4.0)
        mixed = stepped_field(d.faces, (b_half, alphas(a1, [Q(1, 6)])))
        assert det_rig_step(mixed) == pytest.approx(2.0)

    def test_constant_field_matches_chi2_closed_form(self, a1):
        b = alphas(a1, [Q(2, 7)])
        f = constant_field(b)
        assert det_rig_step(f) == pytest.approx(det_rig_constant(b, 2))

    def test_odd_faces_multiply_to_det_rig_step(self, a1):
        """Two discs (chi = 1 each) at x = 2/3 and 1/4: det_half is -sqrt 3 and 2, so the
        step value -2 sqrt 3 is the product of the faces' constant-field values."""
        values = (alphas(a1, [Q(4, 3)]), alphas(a1, [Q(1, 2)]))
        f = stepped_field(one_circle_diagram().faces, values)
        assert f == tuple((1, a) for a in values)
        faces = math.prod(det_rig_constant(a, euler) for euler, a in f)
        assert faces == pytest.approx(-2.0 * math.sqrt(3.0), rel=1e-15)

    def test_vanishing_root_sine_under_negative_chi_refused(self, a1):
        """Three flat circles leave the outer face chi = -1; an outer value alpha(b) =
        2 10^-400 is regular but its root sine rounds to 0, and 0^-1 is no double."""
        circles = [{"id": c, "parent": None, "winding": 1, "positive_side": "inside",
                    "color": [0]} for c in "abc"]
        d = build_diagram(circles)
        values = tuple(alphas(a1, [Q(2, 10**400)] if face.euler == -1 else [Q(2, 3)])
                       for face in d.faces)
        assert [face.euler for face in d.faces] == [-1, 1, 1, 1]
        euler, outer = stepped_field(d.faces, values)[0]
        with pytest.raises(PreconditionError, match="^det_half.*not a finite nonzero double"):
            det_rig_constant(outer, euler)

    def test_singular_face_rejected(self, a1):
        d = one_circle_diagram()
        f = stepped_field(d.faces, (alphas(a1, [Q(1, 2)]), alphas(a1, [2])))
        with pytest.raises(PreconditionError):
            det_rig_step(f)

    def test_singular_face_message_shows_rationals(self, a2):
        """alpha_1(b) = 2/3 and alpha_2(b) = 1/3 force theta(b) = 1 on the inner face."""
        values = (alphas(a2, [Q(1, 5), Q(1, 7)]), alphas(a2, [Q(1, 3), Q(2, 3)]))
        euler, inner = stepped_field(one_circle_diagram().faces, values)[1]
        with pytest.raises(PreconditionError) as ei:
            det_rig_constant(inner, euler)
        assert "alpha(b) = (2/3, 1/3, 1)" in str(ei.value) and "Fraction(" not in str(ei.value)


class TestMetricSamples:
    def test_round_sphere_invariants(self):
        """The oracle's weights give the sphere's area, and its curvature integral is
        4 pi chi = 8 pi (Gauss-Bonnet)."""
        _, _, weights = sphere_grid(64, 128)
        assert abs(float(weights.sum()) - 4.0 * math.pi) < 1e-8
        assert abs(float(weights.sum() * 2.0) - 8.0 * math.pi) < 1e-6


class TestQuadrature:
    def test_constant_matches_closed_form(self, a1, capsys):
        v = det_quadrature(capsys, a1, [Q(1, 2)])
        assert abs(v - 4.0) < 1e-6

    def test_negative_branch_constant(self, a1, capsys):
        # alpha(b) = 3/2: the half-determinant is negative but chi = 2 squares it
        v = det_quadrature(capsys, a1, [Q(3, 2)])
        assert abs(v - 4.0) < 1e-6

    @pytest.mark.parametrize("label, labels", [
        ("A1", [Q(2, 7)]), ("B2", [Q(1, 13), Q(-2, 17)]), ("G2", [Q(1, 29), Q(2, 31)]),
        ("E8", [Q(1, p) for p in (31, 37, 41, 43, 47, 53, 59, 61)])])
    def test_constant_field_matches_the_sphere_rule(self, capsys, label, labels):
        """The production rule against the test-side general rule fed a constant
        sampler, on two grids, to 32 eps (1 + 2L), L = sum_alpha |log|2 sin(pi alpha(b))||:
        an error of a few eps in the exponent 2L is that much relative error in the
        value.  Measured: 0, 1.8e-15, 1.7e-15 and 7.6e-14 against bounds of
        1.3e-14, 8.2e-14, 8.4e-14 and 1.0e-12 on A1, B2, G2 and E8."""
        rs = build_root_system(label)
        a = alphas(rs, labels)
        xf = tuple(float(v) for v in from_labels(rs, labels))
        logs = math.fsum(abs(math.log(abs(s))) for s in root_sines(a))
        rel = 32 * sys.float_info.epsilon * (1 + 2 * logs)
        got = det_quadrature(capsys, rs, labels)
        for grid in ((8, 16), (64, 128)):
            want = sphere_rule(rs, lambda t, p: xf, *grid)
            assert got == pytest.approx(want, rel=rel, abs=0)

    @pytest.mark.parametrize("label, inside, outside", [
        ("A1", [Q(4, 3)], [Q(1, 2)]),
        ("G2", [Q(1, 7), Q(2, 11)], [Q(3, 13), Q(-1, 17)])])
    def test_hemispheres_match_det_rig_step(self, label, inside, outside):
        """A one-circle stepped field whose circle is the equator: each hemisphere has
        chi = 1 and the great circle no geodesic curvature, so the general rule with a
        hemisphere sampler is det_rig_step, sign included."""
        rs = build_root_system(label)
        x_in, x_out = from_labels(rs, inside), from_labels(rs, outside)
        field = stepped_field(one_circle_diagram().faces,
                              (alphas(rs, outside), alphas(rs, inside)))
        assert [euler for euler, _ in field] == [1, 1]
        want = det_rig_step(field)

        def sampler(theta, phi):
            north = (theta < math.pi / 2)[:, None]
            return np.where(north, [float(v) for v in x_in], [float(v) for v in x_out])

        for grid in ((8, 16), (64, 128)):
            assert sphere_rule(rs, sampler, *grid) == pytest.approx(want, rel=1e-12)

    def test_smooth_field_against_1d_oracle(self, a1):
        w = [float(c) for c in from_labels(a1, [1])]  # b = omega, alpha(b) = 1

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
        v = sphere_rule(a1, sampler, 64, 128)
        assert abs(v - oracle) < 1e-6

    def test_grid_refinement_order_at_least_two(self, a1):
        w = [float(c) for c in from_labels(a1, [1])]

        def sampler(theta, phi):
            return np.outer(0.5 + 0.2 * np.cos(theta) * np.cos(theta), w)

        ref = sphere_rule(a1, sampler, 128, 256)
        e_coarse = abs(sphere_rule(a1, sampler, 4, 8) - ref)
        e_fine = abs(sphere_rule(a1, sampler, 8, 16) - ref)
        assert e_fine <= e_coarse / 4.0 + 1e-12

    def test_singular_node_rejected(self, capsys):
        """b = coroot, alpha(b) = 2: `det` refuses the field exactly, before the integral."""
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", "2", "--diagnostics")
        assert rc == 3
        assert doc["error"]["message"] == "constant field value alpha(b) = 2 is singular"

    def test_root_sine_rounding_to_zero_refused(self, capsys):
        """alpha(B) = 2/10^400 is regular, but its sine rounds to 0.0, whose log is
        undefined: det_rig_constant, computed before the integral, refuses its power."""
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", f"2/{10**400}",
                           "--diagnostics")
        assert rc == 3
        assert doc["error"]["message"] == (
            "det_half(b)^chi at chi = 2 is not a finite nonzero double (0.0)")
