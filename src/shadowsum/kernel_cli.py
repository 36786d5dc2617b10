"""The kernel commands of the CLI: `det`, `regularize` and `holonomy`.

Each reads a field value b, given exactly, and runs a determinant,
regularization or holonomy kernel on it; their flags read rationals, so this
module loads `fractions`, and it converts them through `field`.  `cli.build_parser` imports it only when it adds one
of these commands (`HANDLERS`), so a lattice job (`shadow`, `fusion`, `qdim`,
`validate`) neither compiles this code nor loads `fractions`.  Each command
imports the modules it runs when it runs, as in `cli`.  `det --diagnostics`
prints the round-sphere integral of the constant field, exp(2L) for the root-log
sum L (`determinants.principal_log_sum`), which any product rule gives exactly,
and `holonomy`'s "product_trace" is `weight_trace` of exp(wind b), the product of
n equal commuting factors exp(wind b / n); so `det --quad-res` and `holonomy --n`
are checked but change no output.

Output for `regularize`: { "indicator", "singular", "det_rig_n": {"re", "im"},
"det_rig_n_bound", ... } at a stage n admitted once (`regularize.require_stage`);
"singular" is true iff some face has an integer root pairing; "det_rig_n_bound"
bounds |det_rig_n - limit| / |limit| and is null where log^(n) has no stated
accuracy, which includes every field singular on a face of chi != 0.
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction

from .cli import _c2j, _exact, _integer, _labels, _list_of, _read_link, _root_system
from .errors import ParseError, PreconditionError, shown
from .field import coweight_coordinates, format_vector, is_regular, root_pairings


def _reduced(x: tuple) -> tuple:
    """Exact coweight coordinates x reduced into [-1, 1] modulo 2, x - 2 round(x/2).

    Every command reads x only through integer-label pairings, of period 2 (the
    root sine) or 1, so no value changes, and no kernel sees a large float.
    """
    return tuple(v - 2 * round(v / 2) for v in x)


def _field_b(args, rs) -> tuple:
    """The field value of --b (ambient coordinates) or --alpha-b (A1), as coweight
    coordinates x (`_reduced`): on A1, alpha(b) = 2 x."""
    if args.b is not None:
        return _reduced(coweight_coordinates(rs, args.b))
    if args.alpha_b is not None:
        if rs.rank != 1:
            raise PreconditionError("--alpha-b is a rank-1 shorthand; use --b")
        return _reduced((args.alpha_b / 2,))
    raise PreconditionError("need --b (ambient coords) or --alpha-b (rank 1)")


def cmd_det(args) -> dict:
    from .determinants import det_half, det_k, det_rig_constant, principal_log_sum, root_sines

    if args.quad_res is not None and not args.diagnostics:
        raise ParseError("--quad-res needs --diagnostics")
    if args.diagnostics and args.chi != 2:
        raise PreconditionError("--diagnostics integrates over the round sphere, chi = 2, "
                                f"not --chi {shown(args.chi)}")
    rs = _root_system(args)
    a = root_pairings(rs, _field_b(args, rs))
    if not is_regular(a):
        typed = format_vector(args.b) if args.b is not None else f"alpha(b) = {args.alpha_b}"
        raise PreconditionError(f"constant field value {typed} is singular")
    out = {
        "group": rs.name,
        "det_k": det_k(a),
        "det_half": det_half(a),
        "chi": args.chi,
        "det_rig_constant": det_rig_constant(a, args.chi),
    }
    if args.diagnostics:
        import cmath

        # det_rig_constant refused a root sine of 0.0 above; e^{2 L}: the phase
        # e^{2 pi i m} of the negative sines leaves a rounding residue in .imag
        sines = root_sines(a)
        out["det_rig_quadrature"] = cmath.exp(2 * principal_log_sum(sines, [1] * len(sines))).real
    return out


def cmd_regularize(args) -> dict:
    from .regularize import (
        constant_field, det_rig_n, regularized_indicator, require_stage, stepped_field)

    if args.input is None:
        rs = _root_system(args)
        if args.face_values is not None:
            raise ParseError("--face-values needs a link file")
        cut = require_stage(len(rs.positive_root_labels), args.n, 1)  # constant_field's one face
        field = constant_field(root_pairings(rs, _field_b(args, rs)))
    else:
        if args.b is not None or args.alpha_b is not None:
            raise ParseError("a link file takes --face-values, not --b or --alpha-b")
        rs, _, diagram = _read_link(args, level=False)
        if args.face_values is None:
            raise PreconditionError("--face-values needed with a link file")
        field = stepped_field(diagram.faces, args.face_values)  # refuses a wrong count
        cut = require_stage(len(rs.positive_root_labels), args.n, len(field))
        field = tuple((euler, root_pairings(rs, _reduced(coweight_coordinates(rs, b))))
                      for euler, b in field)
    det, bound = det_rig_n(args.n, field)
    return {
        "group": rs.name,
        "n": args.n,
        "indicator": regularized_indicator(cut, field),
        "singular": not all(is_regular(pairings) for _, pairings in field),
        "det_rig_n": _c2j(det),
        "det_rig_n_bound": bound,
        "faces": len(field),
    }


def cmd_holonomy(args) -> dict:
    if args.n < 1:
        raise PreconditionError(f"holonomy needs n >= 1, got {shown(args.n)}")
    import cmath

    from .holonomy import weight_phases, weight_trace, wilson_closed_form
    from .reps import require_rep_dim, weight_multiplicities

    rs = _root_system(args)
    require_rep_dim(rs, args.color)
    x = _field_b(args, rs)
    ws = weight_multiplicities(rs, args.color)
    # Weights have integer labels, so both values are unchanged by a coroot-lattice vector
    # in b, an integer vector in x, and depend on the winding only modulo the lcm D of the
    # denominators of x.  weight_phases reduces each exact beta(b) before its float, so only
    # the winding, by which the product path multiplies float phases, is reduced here, mod D.
    period = math.lcm(*(v.denominator for v in x))
    wind = args.wind - period * round(Fraction(args.wind, period))
    closed = wilson_closed_form(ws, x, wind)
    product = weight_trace([cmath.exp(wind * p) for p in weight_phases(ws, x)])
    return {
        "group": rs.name,
        "color": list(args.color),
        "winding": args.wind,
        "n": args.n,
        "closed_form": _c2j(closed),
        "product_trace": _c2j(product),
    }


def _fraction(text: str) -> Fraction:
    """Fraction(text); ValueError past CPython's 4300-digit limit on int text, which
    int parsing enforces and exponent notation such as 1e5000 would bypass."""
    value = Fraction(text)
    str(value)  # raises past the limit
    return value


def _grid(text: str) -> tuple[int, int]:
    """Two positive integers joined by x, such as 64x128; ValueError or
    argparse.ArgumentTypeError otherwise."""
    n_theta, n_phi = map(int, text.split("x"))
    if min(n_theta, n_phi) < 1:
        raise argparse.ArgumentTypeError(text)
    return n_theta, n_phi


_rational = _exact(_fraction, "a rational number")
_rationals = _list_of(_fraction, "comma-joined rationals")


def _field(sp):
    one_of = sp.add_mutually_exclusive_group()
    one_of.add_argument("--b", type=_rationals, help="ambient coordinates of b, comma-joined")
    one_of.add_argument("--alpha-b", type=_rational,
                        help="rank-1 shorthand: the value alpha(b); excludes --b")


def _det_flags(sp):
    _field(sp)
    sp.add_argument("--chi", type=_integer, default=2, help="Euler number of the surface")
    sp.add_argument("--diagnostics", action="store_true", help="add the surface quadrature")
    sp.add_argument("--quad-res", type=_exact(_grid, "a grid such as 64x128"),
                    help="quadrature grid, e.g. 512x1024; with --diagnostics "
                         "(every grid gives the same value)")


def _regularize_flags(sp):
    sp.add_argument("input", nargs="?", help="link JSON file for a stepped field")
    sp.add_argument("--n", type=_integer, default=4, help="regularization index")
    _field(sp)
    sp.add_argument("--face-values", type=_list_of(_rationals, "';'-separated rational lists", ";"),
                    help="per-face ambient coords, ';'-separated")


def _holonomy_flags(sp):
    _field(sp)
    sp.add_argument("--color", type=_labels, default=(1,),
                    help="highest weight labels, comma-joined (default 1, a rank-1 colour)")
    sp.add_argument("--wind", type=_integer, default=1)
    sp.add_argument("--n", type=_integer, default=64)


# {name: (run, adds the command's own flags)}: the rows `cli.COMMANDS` leaves to this module
HANDLERS = {
    "det": (cmd_det, _det_flags),
    "regularize": (cmd_regularize, _regularize_flags),
    "holonomy": (cmd_holonomy, _holonomy_flags),
}
