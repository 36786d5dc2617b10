import cmath
import importlib
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from shadowsum.errors import PreconditionError
from shadowsum.holonomy import (
    MAX_HOLONOMY_FACTORS,
    MAX_REP_DIM,
    VerticalRibbon,
    holonomy,
    require_rep_dim,
    ribbon_holonomy,
    weight_phases,
    wilson_closed_form,
)
from shadowsum.reps import character_eval, weight_multiplicities


def scaled_ribbon(loop_family, s):
    """The width-s subribbon R^(s)(t, u) = R(t, s (u - 1/2) + 1/2)."""
    return lambda t, u: loop_family(t, s * (u - 0.5) + 0.5)


class TestHolonomy:
    def test_vertical_constant_is_exact_for_every_n(self, a1):
        b = a1.from_labels([Q(1, 3)])
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, b)
        want = np.exp(phases)
        for n in (1, 2, 7, 64):
            got = holonomy(lambda t: None, lambda _: phases, n)
            assert got.shape == (2,)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_abelian_limit_and_richardson(self, a1):
        # smooth t-valued connection with mean v: product tends to exp(v)
        v = 0.4

        def conn(t):
            return np.array([2j * math.pi * (v + 0.3 * math.cos(2 * math.pi * t))])

        want = cmath.exp(2j * math.pi * v)
        e64 = abs(holonomy(lambda t: t, conn, 64)[0] - want)
        e128 = abs(holonomy(lambda t: t, conn, 128)[0] - want)
        assert e128 <= e64 + 1e-12

    def test_sawtooth_error_slope_is_one(self):
        # A(t) = c t has a jump at the basepoint: the Riemann sum error is c/(2n)
        c = 0.37

        def conn(t):
            return np.array([2j * math.pi * c * t])

        want = cmath.exp(2j * math.pi * c * 0.5)
        ns = [16, 32, 64, 128, 256]
        errs = [abs(holonomy(lambda t: t, conn, n)[0] - want) for n in ns]
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_bad_n_rejected(self):
        with pytest.raises(PreconditionError):
            holonomy(lambda t: t, lambda t: np.zeros(1), 0)

    def test_matrix_sample_rejected(self):
        """Samples are weight-phase vectors; a dense matrix is not one."""
        for product in (holonomy, ribbon_holonomy):
            with pytest.raises(PreconditionError, match="1-D"):
                product(lambda *t: None, lambda _: np.zeros((2, 2)), 4)

    def test_weight_phases_trace_is_the_character(self, a2):
        ws = weight_multiplicities(a2, (1, 1))
        b = a2.from_labels([Q(1, 5), Q(1, 7)])
        phases = weight_phases(ws, b)
        assert phases.shape == (8,)
        assert abs(np.exp(phases).sum() - character_eval(ws, b)) < 1e-12

    def test_rep_dim_budget(self, a1):
        """A1 colour (m,) has Weyl dimension m + 1; the budget admits up to MAX_REP_DIM."""
        require_rep_dim(a1, (MAX_REP_DIM - 1,))
        for color in ((MAX_REP_DIM,), (100000,)):
            with pytest.raises(PreconditionError, match="budget"):
                require_rep_dim(a1, color)

    def test_factor_budget_refuses_before_the_first_factor(self):
        def never(_):
            raise AssertionError("sampled a factor")

        for product in (holonomy, ribbon_holonomy):
            with pytest.raises(PreconditionError, match="budget"):
                product(never, never, MAX_HOLONOMY_FACTORS + 1)


class TestRibbonHolonomy:
    def test_vertical_ribbon_matches_loop(self, a1):
        b = a1.from_labels([Q(2, 7)])
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, b)
        got = ribbon_holonomy(lambda t, u: None, lambda _: phases, 16)
        want = holonomy(lambda t: None, lambda _: phases, 16)
        assert got.shape == want.shape == (2,)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_one_factor_count_per_job(self, a1, monkeypatch):
        """ribbon_holonomy does not go through the public holonomy (the package
        attribute `shadowsum.holonomy` is the function, so fetch the module)."""
        hol = importlib.import_module("shadowsum.holonomy")

        def never(*args):
            raise AssertionError("ribbon_holonomy called holonomy")

        monkeypatch.setattr(hol, "holonomy", never)
        phases = weight_phases(weight_multiplicities(a1, (1,)), a1.from_labels([Q(1, 3)]))
        assert hol.ribbon_holonomy(lambda t, u: None, lambda _: phases, 8).shape == (2,)

    def test_scaled_ribbon_limit_recovers_core(self, a1):
        """s -> 0 shrinks the ribbon onto its core loop for a smooth connection."""
        ws = weight_multiplicities(a1, (1,))
        b = [float(x) for x in a1.from_labels([Q(1, 5)])]

        def family(t, u):
            return (u - 0.5, t)

        def conn(sample):
            du, _ = sample
            scale = 1.0 + du * du  # nonlinear profile across the ribbon width
            return scale * weight_phases(ws, b)

        core = holonomy(lambda t: (0.0, t), conn, 64)
        diffs = []
        for s in (1.0, 0.5, 0.25, 0.125):
            fam = scaled_ribbon(family, s)
            h = ribbon_holonomy(fam, conn, 64)
            diffs.append(float(np.max(np.abs(h - core))))
        assert diffs[-1] < diffs[0]
        assert all(diffs[i + 1] <= 0.3 * diffs[i] for i in range(len(diffs) - 1))


class TestWilsonClosedForm:
    def test_vertical_ribbon_constant_field(self, a1):
        b = a1.from_labels([Q(1, 3)])
        ws = weight_multiplicities(a1, (1,))
        vr = VerticalRibbon(sigma=(0.0, 0.0), winding=1)
        bf = [float(x) for x in b]
        got = wilson_closed_form(a1, [vr.loop], [ws], None, lambda s: bf)
        assert abs(got - character_eval(ws, b)) < 1e-9

    def test_trivial_color_gives_one(self, a1):
        ws = weight_multiplicities(a1, (0,))
        vr = VerticalRibbon(sigma=(0.0, 0.0), winding=3)
        got = wilson_closed_form(a1, [vr.loop], [ws], None, lambda s: [0.7, -0.3])
        assert got == pytest.approx(1.0)

    def test_step_field_winding_w(self, a1):
        # ribbon inside one face with wind w: the trace argument is w * b_face
        ws = weight_multiplicities(a1, (2,))
        b = a1.from_labels([Q(1, 5)])
        bf = [float(x) for x in b]
        for w in (-2, 1, 3):
            vr = VerticalRibbon(sigma=(0.5, 0.5), winding=w)

            def field(sigma):
                return bf if sigma == (0.5, 0.5) else [0.0, 0.0]

            got = wilson_closed_form(a1, [vr.loop], [ws], None, field)
            want = character_eval(ws, tuple(w * x for x in b))
            assert abs(got - want) < 1e-9

    def test_matches_direct_ribbon_product(self, a1):
        """Closed form vs a high-n ordered product in the weight representation."""
        ws1 = weight_multiplicities(a1, (1,))
        ws2 = weight_multiplicities(a1, (2,))
        b = [float(x) for x in a1.from_labels([Q(1, 3)])]

        def a_form(sigma, dsigma):
            return [0.15 * dsigma[0] * float(x) for x in a1.fundamental_weights[0]]

        # nonvertical ribbon: sigma moves around a circle while tau winds once
        def family(t, u):
            ang = 2.0 * math.pi * t
            sigma = (math.cos(ang), math.sin(ang))
            dsigma = (-2.0 * math.pi * math.sin(ang), 2.0 * math.pi * math.cos(ang))
            return (sigma, dsigma, 1.0)

        colors = [ws1, ws2]
        closed = wilson_closed_form(
            a1, [family, family], colors, a_form, lambda s: b, t_nodes=512
        )

        direct = 1.0 + 0j
        for ws in colors:
            def conn(sample):
                sigma, dsigma, dtau = sample
                vec = np.asarray(a_form(sigma, dsigma), dtype=float) + dtau * np.asarray(b)
                return weight_phases(ws, vec)

            h = ribbon_holonomy(lambda t, u: family(t, u), conn, 4096)
            direct *= h.sum()
        assert abs(closed - direct) < 1e-6

    def test_length_mismatch_rejected(self, a1):
        ws = weight_multiplicities(a1, (1,))
        with pytest.raises(PreconditionError):
            wilson_closed_form(a1, [], [ws], None, lambda s: [0.0, 0.0])
