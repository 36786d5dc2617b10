import cmath
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from shadowsum.errors import PreconditionError
from shadowsum.holonomy import (
    MAX_HOLONOMY_FACTORS,
    MAX_REP_DIM,
    U_NODES,
    gauss_legendre,
    holonomy,
    require_rep_dim,
    vertical_ribbon,
    weight_phases,
    wilson_closed_form,
)
from conftest import ambient, character_eval, from_labels
from shadowsum.reps import weight_multiplicities, weyl_dimension
from shadowsum.roots import build_root_system


def ribbon_holonomy(loop_family, connection, n, u_nodes=16):
    """Direct ordered product of n ribbon factors, the oracle for the closed form.

    Factor j is exp((1/n) a_j), where a_j is the Gauss-Legendre u-average of
    connection(loop_family(j/n, u)).  The samplers take the whole (t, u) grid
    as arrays; the connection returns weight-phase rows (or one broadcast
    row).  Weight-phase factors are diagonal, so the n factors are multiplied
    entry by entry, one after another.
    """
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    t, u = np.meshgrid(np.arange(1, n + 1) / n, 0.5 * (x + 1.0), indexing="ij")
    phases = np.asarray(connection(loop_family(t.ravel(), u.ravel())), dtype=complex)
    phases = np.broadcast_to(phases, (n * u_nodes, phases.shape[-1])).reshape(n, u_nodes, -1)
    factors = np.exp(np.einsum("u,jud->jd", 0.5 * w, phases) / n)
    return np.prod(factors, axis=0)


def phase_map(ws):
    """The linear map x -> weight_phases(ws, x) as a matrix, so rows of coweight
    coordinates map to rows of weight phases: phases = rows @ phase_map(ws)."""
    return np.stack([weight_phases(ws, e) for e in np.eye(ws.rs.rank)])


def scaled_ribbon(loop_family, s):
    """The width-s subribbon R^(s)(t, u) = R(t, s (u - 1/2) + 1/2)."""
    return lambda t, u: loop_family(t, s * (u - 0.5) + 0.5)


def circling_ribbon(t, u):
    """sigma moves once around the unit circle while tau winds once."""
    ang = 2.0 * math.pi * np.asarray(t)
    sigma = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    dsigma = 2.0 * math.pi * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
    return sigma, dsigma, 1.0


class TestHolonomy:
    def test_vertical_constant_is_exact_for_every_n(self, a1):
        b = from_labels(a1, [Q(1, 3)])
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, b)
        want = np.exp(phases)
        for n in (1, 2, 7, 64):
            got = holonomy(lambda t: phases, n)
            assert len(got) == 2
            assert np.max(np.abs(got - want)) < 1e-12

    def test_abelian_limit_and_richardson(self, a1):
        # smooth t-valued connection with mean v: product tends to exp(v)
        v = 0.4

        def conn(t):
            return (2j * math.pi * (v + 0.3 * np.cos(2 * math.pi * np.asarray(t))))[:, None]

        want = cmath.exp(2j * math.pi * v)
        e64 = abs(holonomy(conn, 64)[0] - want)
        e128 = abs(holonomy(conn, 128)[0] - want)
        assert e128 <= e64 + 1e-12

    def test_sawtooth_error_slope_is_one(self):
        # A(t) = c t has a jump at the basepoint: the Riemann sum error is c/(2n)
        c = 0.37

        def conn(t):
            return (2j * math.pi * c * np.asarray(t))[:, None]

        want = cmath.exp(2j * math.pi * c * 0.5)
        ns = [16, 32, 64, 128, 256]
        errs = [abs(holonomy(conn, n)[0] - want) for n in ns]
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_connection_sampled_once_on_every_node(self):
        calls = []

        def conn(t):
            calls.append(t.copy())
            return np.zeros((len(t), 3))

        assert len(holonomy(conn, 8)) == 3
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.arange(1, 9) / 8)

    def test_bad_n_rejected(self):
        with pytest.raises(PreconditionError):
            holonomy(lambda t: np.zeros(1), 0)

    def test_matrix_sample_rejected(self, a1):
        """Samples are weight-phase vectors, one per node; a dense matrix is not one."""
        ws = weight_multiplicities(a1, (1,))
        with pytest.raises(PreconditionError, match="1-D"):
            holonomy(lambda t: np.zeros((2, 2)), 4)
        with pytest.raises(PreconditionError, match="unequal lengths"):
            holonomy(lambda t: [[0.0]] * 3 + [[0.0, 1.0]], 4)
        with pytest.raises(PreconditionError, match="1-D"):
            wilson_closed_form([vertical_ribbon(1)], [ws], None, lambda s: np.zeros((2, 2)))

    def test_weight_phases_trace_is_the_character(self, a2):
        ws = weight_multiplicities(a2, (1, 1))
        b = ambient(a2).from_labels([Q(1, 5), Q(1, 7)])
        phases = weight_phases(ws, from_labels(a2, [Q(1, 5), Q(1, 7)]))
        assert len(phases) == 8
        assert abs(np.exp(phases).sum() - character_eval(ws, b)) < 1e-12

    def test_wrong_coordinate_count_rejected(self, a2):
        with pytest.raises(PreconditionError, match="expected 2 coweight coordinates, got 1"):
            weight_phases(weight_multiplicities(a2, (1, 0)), (Q(1, 3),))

    def test_rep_dim_budget(self, a1):
        """A1 colour (m,) has Weyl dimension m + 1; the budget admits up to MAX_REP_DIM."""
        require_rep_dim(a1, (MAX_REP_DIM - 1,))
        for color in ((MAX_REP_DIM,), (100000,)):
            with pytest.raises(PreconditionError, match="budget"):
                require_rep_dim(a1, color)

    def test_factor_budget_refuses_before_the_first_factor(self):
        def never(_):
            raise AssertionError("sampled a factor")

        with pytest.raises(PreconditionError, match="budget"):
            holonomy(never, MAX_HOLONOMY_FACTORS + 1)


class TestRibbonHolonomy:
    def test_vertical_ribbon_matches_loop(self, a1):
        b = from_labels(a1, [Q(2, 7)])
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, b)
        got = ribbon_holonomy(lambda t, u: None, lambda _: phases, 16)
        want = holonomy(lambda t: phases, 16)
        assert got.shape == (2,) and len(want) == 2
        assert np.max(np.abs(got - want)) < 1e-12

    def test_scaled_ribbon_limit_recovers_core(self, a1):
        """s -> 0 shrinks the ribbon onto its core loop for a smooth connection."""
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, [float(x) for x in from_labels(a1, [Q(1, 5)])])

        def family(t, u):
            return u - 0.5

        def conn(du):
            scale = 1.0 + du * du  # nonlinear profile across the ribbon width
            return scale[:, None] * phases

        core = holonomy(lambda t: phases, 64)
        diffs = []
        for s in (1.0, 0.5, 0.25, 0.125):
            h = ribbon_holonomy(scaled_ribbon(family, s), conn, 64)
            diffs.append(float(np.max(np.abs(h - core))))
        assert diffs[-1] < diffs[0]
        assert all(diffs[i + 1] <= 0.3 * diffs[i] for i in range(len(diffs) - 1))


class TestWilsonClosedForm:
    def test_gauss_legendre_matches_numpy(self):
        """The U_NODES-point rule from Newton's method against numpy's leggauss, used
        here as an oracle only: nodes and weights to 1e-15, weights summing to 2."""
        x, w = gauss_legendre(U_NODES)
        want_x, want_w = np.polynomial.legendre.leggauss(U_NODES)
        assert max(abs(a - b) for a, b in zip(x, want_x, strict=True)) <= 1e-15
        assert max(abs(a - b) for a, b in zip(w, want_w, strict=True)) <= 1e-15
        assert math.fsum(w) == pytest.approx(2.0, abs=1e-15)

    def test_vertical_ribbon_constant_field(self, a1):
        b = ambient(a1).from_labels([Q(1, 3)])
        ws = weight_multiplicities(a1, (1,))
        bf = [float(x) for x in from_labels(a1, [Q(1, 3)])]
        got = wilson_closed_form([vertical_ribbon(1)], [ws], None, lambda s: bf)
        assert abs(got - character_eval(ws, b)) < 1e-9

    def test_trivial_color_gives_one(self, a1):
        ws = weight_multiplicities(a1, (0,))
        got = wilson_closed_form([vertical_ribbon(3)], [ws], None, lambda s: [0.5])
        assert got == pytest.approx(1.0)

    def test_step_field_winding_w(self, a1):
        # ribbon inside one face with wind w: the trace argument is w * b_face
        ws = weight_multiplicities(a1, (2,))
        b = ambient(a1).from_labels([Q(1, 5)])
        bf = [float(x) for x in from_labels(a1, [Q(1, 5)])]

        def field(sigma):
            inside = np.asarray(sigma)[..., 0] > 0.25
            return np.where(inside[..., None], bf, 0.0)

        for w in (-2, 1, 3):
            def ribbon(t, u, w=w):
                return (0.5, 0.5), (0.0, 0.0), float(w)

            got = wilson_closed_form([ribbon], [ws], None, field)
            want = character_eval(ws, tuple(w * x for x in b))
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize(
        "label, color, labels",
        [("A1", (1,), [Q(2, 11)]), ("B2", (1, 1), [Q(1, 13), Q(-2, 17)]),
         ("A2", (2, 2), [Q(3, 19), Q(-1, 23)]), ("G2", (1, 1), [Q(1, 29), Q(2, 31)])],
    )
    def test_vertical_windings_match_the_exact_character(self, label, color, labels):
        """Closed form at wind = ±1..3 against character_eval at the exact wind * b."""
        rs = build_root_system(label)
        ws = weight_multiplicities(rs, color)
        b = ambient(rs).from_labels(labels)
        bf = [float(x) for x in from_labels(rs, labels)]
        dim = weyl_dimension(rs, color)
        for wind in (-3, -2, -1, 1, 2, 3):
            got = wilson_closed_form([vertical_ribbon(wind)], [ws], None, lambda s: bf)
            want = character_eval(ws, tuple(wind * x for x in b))
            assert abs(got - want) <= 1e-12 * dim, (label, wind)

    def test_each_sampler_called_once_per_ribbon(self, a1):
        calls = {"ribbon": 0, "a_form": 0, "b_field": 0}

        def ribbon(t, u):
            calls["ribbon"] += 1
            return circling_ribbon(t, u)

        def a_form(sigma, dsigma):
            calls["a_form"] += 1
            return 0.1 * dsigma[:, :1]

        def b_field(sigma):
            calls["b_field"] += 1
            return np.array([0.2])

        colors = [weight_multiplicities(a1, (1,)), weight_multiplicities(a1, (2,))]
        wilson_closed_form([ribbon, ribbon], colors, a_form, b_field)
        assert calls == {"ribbon": 2, "a_form": 2, "b_field": 2}

    def test_matches_direct_ribbon_product(self, a1):
        """Closed form vs a high-n ordered product in the weight representation."""
        ws1 = weight_multiplicities(a1, (1,))
        ws2 = weight_multiplicities(a1, (2,))
        b = np.array([float(x) for x in from_labels(a1, [Q(1, 3)])])
        omega = np.array([float(x) for x in from_labels(a1, [1])])

        def a_form(sigma, dsigma):
            return 0.15 * dsigma[:, :1] * omega

        colors = [ws1, ws2]
        # nonvertical ribbon: sigma moves around a circle while tau winds once
        closed = wilson_closed_form(
            [circling_ribbon, circling_ribbon], colors, a_form, lambda s: b
        )

        direct = 1.0 + 0j
        for ws in colors:
            def conn(sample, m=phase_map(ws)):
                sigma, dsigma, dtau = sample
                return (a_form(sigma, dsigma) + dtau * b) @ m

            direct *= ribbon_holonomy(circling_ribbon, conn, 4096).sum()
        assert abs(closed - direct) < 1e-6

    def test_length_mismatch_rejected(self, a1):
        ws = weight_multiplicities(a1, (1,))
        with pytest.raises(PreconditionError):
            wilson_closed_form([], [ws], None, lambda s: [0.0])
