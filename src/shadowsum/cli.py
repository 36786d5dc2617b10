"""Batch front end: parse link files, run the computations, emit JSON.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 ok, 2 parse failure (usage errors included), 3 precondition violation,
4 internal-oracle failure (`fusion --verify`, at the fixed tolerance
`fusion.ORACLE_TOL`), 141 stdout closed by its reader before the
document was written.  The keys of a --config JSON file are the
subcommand's long flag names; each becomes `--key=value` (`true`: a bare
`--key`) ahead of the command line, so explicit flags win.  Each command
imports the modules it runs when it runs, so a job loads no other
(`qdim`, `shadow`, `validate`, `fusion`, `holonomy` and `det`, with or
without `--diagnostics`, load no numpy; `det --diagnostics` is refused
(exit 3) past the `determinants.MAX_QUAD_NODES` grid and
`determinants.MAX_QUAD_THETA` order budgets).

Link files are read by `diagrams.read_link`, which holds their schema.
Output for `shadow`: { "value": {"re", "im"}, "abs_sum", "colorings", "retained",
optional "terms" }.  The per-term listing of --diagnostics is refused (exit 3)
when it would hold more than MAX_LISTED_TERMS terms.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import ParseError, PreconditionError, ShadowsumError

MAX_LISTED_TERMS = 10**6  # budget of the per-term listing of `shadow --diagnostics`
_QUAD_RES = (64, 128)  # `det --diagnostics` without --quad-res


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    except ValueError:  # an integer literal past CPython's limit on int parsing
        raise ParseError(f"{path} holds an integer longer than the "
                         f"{sys.get_int_max_str_digits()}-digit limit on input integers") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON too deeply") from None


def _read_link(args, level: bool = True):
    """The link file `args.input` as `diagrams.read_link` reads it; its first
    problem raised, ParseError for the schema and PreconditionError for the rest."""
    from .diagrams import read_link

    link, problems = read_link(_load_json(args.input), args.group, args.k if level else None,
                               level=level)
    if problems:
        error = ParseError if problems[0]["code"] == "parse" else PreconditionError
        raise error(problems[0]["message"])
    return link


def _c2j(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _root_system(args):
    from .roots import build_root_system

    if args.group is None:
        raise PreconditionError("missing --group")
    return build_root_system(args.group)


def _alphabet(args):
    from .reps import level_alphabet

    rs = _root_system(args)
    if args.k is None:
        raise PreconditionError("missing --k")
    return level_alphabet(rs, args.k)


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
        return _reduced(rs.coweight_coordinates(args.b))
    if args.alpha_b is not None:
        if rs.rank != 1:
            raise PreconditionError("--alpha-b is a rank-1 shorthand; use --b")
        return _reduced((args.alpha_b / 2,))
    raise PreconditionError("need --b (ambient coords) or --alpha-b (rank 1)")


def cmd_shadow(args) -> dict:
    from .diagrams import contract_state_sum, list_terms, prepare_terms

    rs, alphabet, diagram = _read_link(args)
    data = prepare_terms(diagram, alphabet)
    result = contract_state_sum(diagram, alphabet, data)
    out = {
        "group": f"{rs.type_label}{rs.rank}",
        "k": alphabet.k,
        "value": _c2j(result.value),
        "abs_sum": result.abs_sum,
        "colorings": result.colorings_total,
        "retained": result.colorings_retained,
    }
    if args.diagnostics:
        if result.colorings_retained > MAX_LISTED_TERMS:
            raise PreconditionError(
                f"--diagnostics would list {result.colorings_retained} terms; "
                f"the budget is {MAX_LISTED_TERMS}"
            )
        out["terms"] = [
            {"coloring": [list(c) for c in col], "term": _c2j(t)}
            for col, t in list_terms(diagram, alphabet, data)
        ]
    return out


def cmd_fusion(args) -> dict | list[str] | str:
    from .fusion import build_fusion_table, table_lines, verify_against_verlinde

    if args.format == "text" and not args.dump:
        raise ParseError("--format text lists every triple; it needs --dump")
    alphabet = _alphabet(args)
    table = build_fusion_table(alphabet)
    if args.verify:
        verify_against_verlinde(alphabet, table)
    if args.format == "text":
        return table_lines(alphabet, table)
    doc = {
        "group": f"{alphabet.rs.type_label}{alphabet.rs.rank}",
        "k": args.k,
        "alphabet": [list(w) for w in alphabet.elements],
        "entries": len(table),
        "verified": bool(args.verify),
    }
    if not args.dump:
        return doc
    # The same document with "entries" listing one {"lam", "mu", "n", "nu"} dict per
    # triple, as json.dumps(..., sort_keys=True) writes it: each label is serialized
    # once, and the list takes the place of the count, the only "entries" key.
    labels = [json.dumps(w) for w in doc["alphabet"]]
    entries = ", ".join(
        f'{{"lam": {l}, "mu": {m}, "n": {v}, "nu": {n}}}'
        for (l, m, n), v in zip(itertools.product(labels, repeat=3), table))
    head, tail = json.dumps(doc, sort_keys=True).split(f'"entries": {len(table)}')
    return f'{head}"entries": [{entries}]{tail}'


def cmd_qdim(args) -> dict:
    from .reps import quantum_dimension

    alphabet = _alphabet(args)
    if args.weight is not None:
        return {"weight": list(args.weight), "qdim": quantum_dimension(alphabet, args.weight)}
    return {
        "group": f"{alphabet.rs.type_label}{alphabet.rs.rank}",
        "k": args.k,
        "qdims": [
            {"weight": list(w), "qdim": quantum_dimension(alphabet, w)}
            for w in alphabet.elements
        ],
    }


def cmd_det(args) -> dict:
    from .determinants import det_half, det_k, det_rig_constant, det_rig_quadrature
    from .roots import format_vector, is_regular

    if args.quad_res is not None and not args.diagnostics:
        raise ParseError("--quad-res needs --diagnostics")
    if args.diagnostics and args.chi != 2:
        raise PreconditionError(
            f"--diagnostics integrates over the round sphere, chi = 2, not --chi {args.chi}")
    rs = _root_system(args)
    x = _field_b(args, rs)
    if not is_regular(rs, x):
        typed = format_vector(args.b) if args.b is not None else f"alpha(b) = {args.alpha_b}"
        raise PreconditionError(f"constant field value {typed} is singular")
    out = {
        "group": f"{rs.type_label}{rs.rank}",
        "det_k": det_k(rs, x),
        "det_half": det_half(rs, x),
        "chi": args.chi,
        "det_rig_constant": det_rig_constant(rs, x, args.chi),
    }
    if args.diagnostics:
        out["det_rig_quadrature"] = det_rig_quadrature(rs, x, *(args.quad_res or _QUAD_RES))
    return out


def cmd_regularize(args) -> dict:
    from .regularize import SteppedField, det_rig_n, regularized_indicator

    if args.input is None:
        rs = _root_system(args)
        if args.face_values is not None:
            raise ParseError("--face-values needs a link file")
        field = SteppedField.constant(_field_b(args, rs))
    else:
        if args.b is not None or args.alpha_b is not None:
            raise ParseError("a link file takes --face-values, not --b or --alpha-b")
        rs, _, diagram = _read_link(args, level=False)
        if args.face_values is None:
            raise PreconditionError("--face-values needed with a link file")
        values = tuple(_reduced(rs.coweight_coordinates(b)) for b in args.face_values)
        field = SteppedField(diagram=diagram, values=values)
    return {
        "group": f"{rs.type_label}{rs.rank}",
        "n": args.n,
        "indicator": regularized_indicator(rs, args.n, field),
        "det_rig_n": _c2j(det_rig_n(rs, args.n, field)),
        "faces": len(field.diagram.faces),
    }


def cmd_holonomy(args) -> dict:
    from .holonomy import (
        holonomy, require_rep_dim, weight_phases, weight_trace, wilson_closed_form)
    from .reps import weight_multiplicities

    rs = _root_system(args)
    x = _field_b(args, rs)
    require_rep_dim(rs, args.color)
    ws = weight_multiplicities(rs, args.color)
    # Weights have integer labels, so both values are unchanged by a coroot-lattice vector
    # in b, an integer vector in x, and depend on the winding only modulo the lcm D of the
    # denominators of x.  Take the least-absolute residues before floats: x - round(x),
    # in [-1/2, 1/2], and the winding modulo D.
    x = tuple(v - round(v) for v in x)
    period = math.lcm(*(v.denominator for v in x))
    wind = args.wind - period * round(Fraction(args.wind, period))
    closed = wilson_closed_form(ws, x, wind)
    phases = [wind * p for p in weight_phases(ws, x)]
    product = holonomy(phases, n=args.n)
    return {
        "group": f"{rs.type_label}{rs.rank}",
        "color": list(args.color),
        "winding": args.wind,
        "n": args.n,
        "closed_form": _c2j(closed),
        "product_trace": _c2j(weight_trace(product)),
    }


def cmd_validate(args) -> tuple[dict, int]:
    from .diagrams import read_link

    try:
        _, report = read_link(_load_json(args.input), args.group, args.k)
    except ParseError as e:  # unreadable or not JSON
        report = [{"code": "parse", "message": str(e)}]
    if not report:
        return {"ok": True, "report": report}, 0
    return {"ok": False, "report": report}, 2 if report[0]["code"] == "parse" else 3


def _list_of(convert, what: str, sep: str = ","):
    """An argparse type: `sep`-joined values, each read by `convert`."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(x) for x in text.split(sep))
        except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None

    return parse


def _exact(convert, what: str):
    """An argparse type: one exact value read by `convert`.  Malformed text, a zero
    denominator and more digits than CPython converts to text (4300, which int
    parsing enforces and exponent notation such as 1e5000 would bypass) are usage
    errors."""

    def parse(text: str):
        try:
            value = convert(text)
            str(value)
            return value
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None

    return parse


_rational = _exact(Fraction, "a rational number")
_winding = _exact(int, "an integer")


def _grid(text: str) -> tuple[int, int]:
    try:
        n_theta, n_phi = (int(x) for x in text.split("x"))
        if n_theta > 0 and n_phi > 0:
            return n_theta, n_phi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a grid such as 64x128, got {text!r}")


_labels = _list_of(int, "comma-joined integer labels")
_rationals = _list_of(_rational, "comma-joined rationals")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 2 with a JSON document."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="shadowsum",
        description="Shadow state sums in S^2 x S^1 and torus-gauge determinant kernels",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, with_k=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--group", help="simple type label, e.g. A1, B3, G2")
        if with_k:
            sp.add_argument("--k", type=int, help="level parameter k (requires k > g)")
        sp.add_argument("--config", help="JSON file of flag values, keyed by long flag name")
        sp.add_argument("--output", help="write the JSON document here instead of stdout")
        return sp

    def field(sp):
        one_of = sp.add_mutually_exclusive_group()
        one_of.add_argument("--b", type=_rationals, help="ambient coordinates of b, comma-joined")
        one_of.add_argument("--alpha-b", type=_rational,
                            help="rank-1 shorthand: the value alpha(b); excludes --b")

    sp = command("shadow", cmd_shadow, "state-sum invariant of a link file")
    sp.add_argument("--diagnostics", action="store_true", help="list every nonvanishing term")
    sp.add_argument("input", help="link JSON file")

    sp = command("fusion", cmd_fusion, "fusion coefficient table")
    sp.add_argument("--dump", action="store_true", help="list every triple")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--verify", action="store_true", help="cross-check against the Verlinde oracle")

    sp = command("qdim", cmd_qdim, "quantum dimensions of the level alphabet")
    sp.add_argument("--weight", type=_labels, help="one weight as comma-joined labels")

    sp = command("det", cmd_det, "determinant closed forms at a constant field", with_k=False)
    field(sp)
    sp.add_argument("--chi", type=int, default=2, help="Euler number of the surface")
    sp.add_argument("--diagnostics", action="store_true", help="add the surface quadrature")
    sp.add_argument("--quad-res", type=_grid,
                    help="quadrature grid, e.g. 512x1024; with --diagnostics "
                         f"(default {_QUAD_RES[0]}x{_QUAD_RES[1]})")

    sp = command("regularize", cmd_regularize, "regularized indicator and determinant stage n",
                 with_k=False)
    sp.add_argument("input", nargs="?", help="link JSON file for a stepped field")
    sp.add_argument("--n", type=int, default=4, help="regularization index")
    field(sp)
    sp.add_argument("--face-values", type=_list_of(_rationals, "';'-separated rational lists", ";"),
                    help="per-face ambient coords, ';'-separated")

    sp = command("holonomy", cmd_holonomy, "vertical-ribbon holonomy and its closed form",
                 with_k=False)
    field(sp)
    sp.add_argument("--color", type=_labels, default=(1,),
                    help="highest weight labels, comma-joined (default 1)")
    sp.add_argument("--wind", type=_winding, default=1)
    sp.add_argument("--n", type=int, default=64)

    sp = command("validate", cmd_validate, "report schema and assumption violations")
    sp.add_argument("input", help="link JSON file")
    return p


def _config_tokens(doc) -> list[str]:
    """--config keys as flags: {"alpha-b": "1/2", "dump": true} -> --alpha-b=1/2 --dump."""
    if not isinstance(doc, dict):
        raise ParseError("config file must hold a JSON object")
    tokens = []
    for key, value in doc.items():
        if value is True:
            tokens.append(f"--{key}")
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"--{key}={value if isinstance(value, str) else json.dumps(value)}")
        else:
            raise ParseError(f"config key {key!r}: expected a string, a number or true")
    return tokens


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args([args.command, *_config_tokens(_load_json(args.config)), *argv[1:]])


def _emit(text: str, path: str | None, status: int) -> int:
    """Write the document; a reader closing stdout early (`| head`) gives 141 = 128 + SIGPIPE.

    An --output path that cannot be written is a parse error, reported on stdout."""
    if path:
        try:
            with open(path, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            return _fail(ParseError(f"cannot write {path}: {e}"))
        return status
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the Python docs' recipe: stdout to devnull, so exit flushes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note("shadowsum: stdout was closed before the document was written")
        return 141
    return status


def _note(line: str) -> None:
    """One stderr line, best-effort: stderr may be the pipe a reader closed (`2>&1 | head`)."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:  # same recipe as for stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _fail(e: ShadowsumError) -> int:
    """One stderr line and the JSON error document on stdout; the error's exit code."""
    err = {"error": {"code": e.code, "exit": e.exit_code, "message": str(e)}}
    _note(f"shadowsum: {e.code}: {e}")
    return _emit(json.dumps(err, sort_keys=True), None, e.exit_code)


def _dumps(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True) with CPython's limit on the digits of an int
    lifted while it runs: `shadow`'s exact `colorings` can pass it, and input
    parsing keeps it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Pythons without the limit
        return json.dumps(doc, sort_keys=True)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_argv(argv)
        doc = args.run(args)
    except ShadowsumError as e:
        return _fail(e)

    doc, status = doc if isinstance(doc, tuple) else (doc, 0)
    if isinstance(doc, dict):
        doc = _dumps(doc)
    text = doc if isinstance(doc, str) else "\n".join(doc)
    return _emit(text, args.output, status)


if __name__ == "__main__":
    sys.exit(main())
