"""Batch front end: parse link files, run the computations, emit JSON.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 ok, 2 parse failure (usage errors included), 3 precondition violation,
4 internal-oracle failure (`fusion --verify`, at the fixed tolerance
`fusion.ORACLE_TOL`), 141 stdout closed by its reader before the
document was written.  The keys of a --config JSON file are the
subcommand's long flag names; each becomes `--key=value` (`true`: a bare
`--key`) ahead of the command line, so explicit flags win.  Each command
imports the modules it runs when it runs, so a job loads no other, and
no command loads numpy.  Every resource budget is refused (exit 3) through
`errors.require_budget`, before the work it counts.  `det --quad-res` is
checked but, like `holonomy --n`, changes no output.  A job process ends
through `run`, which skips the shutdown collection, and parses with the one
subcommand its first word names (`build_parser`).

Link files are read by `diagrams.read_link`, which holds their schema.
Output for `shadow`: { "value": {"re", "im"}, "abs_sum", "colorings", "retained",
optional "terms" }.  The per-term listing of --diagnostics is refused (exit 3)
when it would hold more than MAX_LISTED_TERMS terms.  Output for `regularize`:
{ "indicator", "singular", "det_rig_n": {"re", "im"}, "det_rig_n_bound", ... } at a
stage n admitted once (`regularize.require_stage`); "singular" is true iff some face
has an integer root pairing; "det_rig_n_bound" bounds |det_rig_n - limit| / |limit|
and is null where log^(n) has no stated accuracy.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import NoReturn

from . import __version__
from .errors import ParseError, PreconditionError, ShadowsumError, require_budget, shown

MAX_LISTED_TERMS = 10**6  # budget of the per-term listing of `shadow --diagnostics`


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
    result = contract_state_sum(data)
    out = {
        "group": rs.name,
        "k": alphabet.k,
        "value": _c2j(result.value),
        "abs_sum": result.abs_sum,
        "colorings": result.colorings_total,
        "retained": result.colorings_retained,
    }
    if args.diagnostics:
        require_budget(result.colorings_retained, MAX_LISTED_TERMS,
                       "the listing of --diagnostics", "terms")
        out["terms"] = [
            {"coloring": [list(c) for c in col], "term": _c2j(t)}
            for col, t in list_terms(data)
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
        "group": alphabet.rs.name,
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
        "group": alphabet.rs.name,
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
        raise PreconditionError("--diagnostics integrates over the round sphere, chi = 2, "
                                f"not --chi {shown(args.chi)}")
    rs = _root_system(args)
    a = rs.root_pairings(_field_b(args, rs))
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
        out["det_rig_quadrature"] = det_rig_quadrature(a)
    return out


def cmd_regularize(args) -> dict:
    from .regularize import (
        constant_field, det_rig_n, regularized_indicator, require_stage, stepped_field)
    from .roots import is_regular

    if args.input is None:
        rs = _root_system(args)
        if args.face_values is not None:
            raise ParseError("--face-values needs a link file")
        field = constant_field(rs.root_pairings(_field_b(args, rs)))
        cut = require_stage(len(rs.positive_root_labels), args.n, len(field))
    else:
        if args.b is not None or args.alpha_b is not None:
            raise ParseError("a link file takes --face-values, not --b or --alpha-b")
        rs, _, diagram = _read_link(args, level=False)
        if args.face_values is None:
            raise PreconditionError("--face-values needed with a link file")
        field = stepped_field(diagram.faces, args.face_values)  # refuses a wrong count
        cut = require_stage(len(rs.positive_root_labels), args.n, len(field))
        field = tuple((face_id, euler, rs.root_pairings(_reduced(rs.coweight_coordinates(b))))
                      for face_id, euler, b in field)
    det, bound = det_rig_n(args.n, field)
    return {
        "group": rs.name,
        "n": args.n,
        "indicator": regularized_indicator(cut, field),
        "singular": not all(is_regular(pairings) for _, _, pairings in field),
        "det_rig_n": _c2j(det),
        "det_rig_n_bound": bound,
        "faces": len(field),
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
    # denominators of x.  weight_phases reduces each exact beta(b) before its float, so only
    # the winding, by which the product path multiplies float phases, is reduced here, mod D.
    period = math.lcm(*(v.denominator for v in x))
    wind = args.wind - period * round(Fraction(args.wind, period))
    closed = wilson_closed_form(ws, x, wind)
    phases = [wind * p for p in weight_phases(ws, x)]
    product = holonomy(phases, n=args.n)
    return {
        "group": rs.name,
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


def _field(sp):
    one_of = sp.add_mutually_exclusive_group()
    one_of.add_argument("--b", type=_rationals, help="ambient coordinates of b, comma-joined")
    one_of.add_argument("--alpha-b", type=_rational,
                        help="rank-1 shorthand: the value alpha(b); excludes --b")


def _shadow_flags(sp):
    sp.add_argument("--diagnostics", action="store_true", help="list every nonvanishing term")
    sp.add_argument("input", help="link JSON file")


def _fusion_flags(sp):
    sp.add_argument("--dump", action="store_true", help="list every triple")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--verify", action="store_true", help="cross-check against the Verlinde oracle")


def _qdim_flags(sp):
    sp.add_argument("--weight", type=_labels, help="one weight as comma-joined labels")


def _det_flags(sp):
    _field(sp)
    sp.add_argument("--chi", type=int, default=2, help="Euler number of the surface")
    sp.add_argument("--diagnostics", action="store_true", help="add the surface quadrature")
    sp.add_argument("--quad-res", type=_grid,
                    help="quadrature grid, e.g. 512x1024; with --diagnostics "
                         "(every grid gives the same value)")


def _regularize_flags(sp):
    sp.add_argument("input", nargs="?", help="link JSON file for a stepped field")
    sp.add_argument("--n", type=int, default=4, help="regularization index")
    _field(sp)
    sp.add_argument("--face-values", type=_list_of(_rationals, "';'-separated rational lists", ";"),
                    help="per-face ambient coords, ';'-separated")


def _holonomy_flags(sp):
    _field(sp)
    sp.add_argument("--color", type=_labels, default=(1,),
                    help="highest weight labels, comma-joined (default 1, a rank-1 colour)")
    sp.add_argument("--wind", type=_winding, default=1)
    sp.add_argument("--n", type=int, default=64)


def _validate_flags(sp):
    sp.add_argument("input", help="link JSON file")


# (name, run, help, takes --k, adds the command's own flags), in the order of --help
COMMANDS = (
    ("shadow", cmd_shadow, "state-sum invariant of a link file", True, _shadow_flags),
    ("fusion", cmd_fusion, "fusion coefficient table", True, _fusion_flags),
    ("qdim", cmd_qdim, "quantum dimensions of the level alphabet", True, _qdim_flags),
    ("det", cmd_det, "determinant closed forms at a constant field", False, _det_flags),
    ("regularize", cmd_regularize, "regularized indicator and determinant stage n", False,
     _regularize_flags),
    ("holonomy", cmd_holonomy, "vertical-ribbon holonomy and its closed form", False,
     _holonomy_flags),
    ("validate", cmd_validate, "report schema and assumption violations", True,
     _validate_flags),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with the subparser of `command` alone when it names one of
    COMMANDS, else with all of them (no command, --help, --version, a typo).

    A job's argv parses the same either way, and its subcommand's help and usage
    errors read the same: the top-level usage, which lists every command, shows
    only where the full table is built."""
    p = _ArgumentParser(
        prog="shadowsum",
        description="Shadow state sums in S^2 x S^1 and torus-gauge determinant kernels",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    rows = [c for c in COMMANDS if c[0] == command] or COMMANDS
    for name, func, help_text, with_k, flags in rows:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=func)
        sp.add_argument("--group", help="simple type label, e.g. A1, B3, G2")
        if with_k:
            sp.add_argument("--k", type=int, help="level parameter k (requires k > g)")
        sp.add_argument("--config", help="JSON file of flag values, keyed by long flag name")
        sp.add_argument("--output", help="write the JSON document here instead of stdout")
        flags(sp)
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
    parser = build_parser(argv[0] if argv else None)
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


def run() -> NoReturn:
    """The process entry of `python -m shadowsum` and the `shadowsum` script: `main()`,
    then exit with its status, skipping the shutdown collection.

    gc.freeze() moves every live object into the permanent generation, which the
    collections of interpreter shutdown do not walk; atexit handlers and the
    flush of stdout and stderr still run.  Cyclic garbage still alive at exit is
    then never collected, so a `__del__` on it would not run: this package defines
    no `__del__` and no atexit handler, and opens every file object with `with`.
    `main()` itself never freezes, so in-process callers keep a normal collector."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
