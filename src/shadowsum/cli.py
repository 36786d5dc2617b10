"""Batch front end: parse link files, run the computations, emit JSON.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 ok, 2 parse failure (usage errors included), 3 precondition violation,
4 internal-oracle failure, 141 stdout closed by its reader before the
document was written.  The keys of a --config JSON file are the
subcommand's long flag names; each becomes `--key=value` (`true`: a bare
`--key`) ahead of the command line, so explicit flags win.

Link file schema, read by `parse_link` and nothing else:
    { "group": "A1", "k": 4,
      "circles": [ { "id": str, "parent": str | null (optional), "winding": int,
                     "positive_side": "inside" | "outside",
                     "color": [fundamental-weight coords] } ] }
Output for `shadow`: { "value": {"re", "im"}, "abs_sum", "colorings", "retained",
optional "terms" }.  The per-term listing of --diagnostics is refused (exit 3)
when it would hold more than MAX_LISTED_TERMS terms.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .determinants import (
    SteppedField,
    det_half,
    det_k,
    det_rig_constant,
    det_rig_quadrature,
    round_sphere_metric,
)
from .diagrams import build_diagram, contract_state_sum, prepare_terms, state_sum
from .errors import ParseError, PreconditionError, ShadowsumError
from .fusion import (
    build_fusion_table,
    quantum_dimension,
    table_entries,
    table_lines,
    verify_against_verlinde,
)
from .holonomy import (
    VerticalRibbon,
    holonomy,
    require_rep_dim,
    weight_phases,
    wilson_closed_form,
)
from .regularize import det_rig_n, regularized_indicator
from .reps import level_alphabet, weight_multiplicities
from .roots import build_root_system

MAX_LISTED_TERMS = 10**6  # budget of the per-term listing of `shadow --diagnostics`

_TOP_KEYS = {"group", "k", "circles"}
_CIRCLE_KEYS = {"id", "parent", "winding", "positive_side", "color"}


def _is_int(x) -> bool:
    """A JSON integer; bools are ints to Python but not to the link schema."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_link(doc, group: str | None = None, k: int | None = None, report: list | None = None):
    """Read a link document into (RootSystem, LevelAlphabet, ShadowDiagram).

    `group` and `k` are the flags; they win over the file's keys.  With
    report=None the first problem is raised: ParseError for the schema,
    PreconditionError for the rest.  Given a list, every problem is recorded
    once as {"code", "message"}, checks that an earlier problem makes
    impossible are skipped, and None is returned if anything was recorded.
    """

    def problem(code: str, message: str) -> None:
        if report is None:
            raise (ParseError if code == "parse" else PreconditionError)(message)
        report.append({"code": code, "message": message})

    if not isinstance(doc, dict):
        problem("parse", "link file must hold a JSON object")
        return None
    if set(doc) - _TOP_KEYS:
        problem("parse", f"unknown top-level keys {sorted(set(doc) - _TOP_KEYS)}")
    if "group" in doc and not isinstance(doc["group"], str):
        problem("parse", "file key 'group' must be a string such as \"A1\"")
    elif group is None and "group" not in doc:
        problem("parse", "no group given (flag --group or file key 'group')")
    if "k" in doc and not _is_int(doc["k"]):
        problem("parse", "file key 'k' must be an integer")
    elif k is None and "k" not in doc:
        problem("parse", "no level given (flag --k or file key 'k')")
    circles = doc.get("circles")
    if not isinstance(circles, list):
        problem("parse", "link file needs a 'circles' array")
        return None
    for i, c in enumerate(circles):
        if not isinstance(c, dict):
            problem("parse", f"circle #{i} must be an object")
            continue
        if _CIRCLE_KEYS - {"parent"} - set(c) or set(c) - _CIRCLE_KEYS:
            problem("parse", f"circle #{i} must have the keys id, winding, positive_side, "
                             f"color and optionally parent; it has {sorted(c)}")
        parent = c.get("parent")
        if not isinstance(c.get("id", ""), str) or not (parent is None or isinstance(parent, str)):
            problem("parse", f"circle #{i}: id and parent must be strings")
        if not _is_int(c.get("winding", 0)):
            problem("parse", f"circle #{i}: winding must be an integer")
        color = c.get("color", [])
        if not isinstance(color, list) or not all(_is_int(x) for x in color):
            problem("parse", f"circle #{i}: color must be an array of integer coordinates")
    if report:
        return None
    group = doc.get("group") if group is None else group
    k = doc.get("k") if k is None else k

    rs = alphabet = diagram = None
    try:
        rs = build_root_system(group)
    except PreconditionError as e:
        problem("group", str(e))
    if rs is not None:
        try:
            alphabet = level_alphabet(rs, k)
        except PreconditionError as e:
            problem("level-bound", str(e))
    if alphabet is not None:
        for c in circles:
            if tuple(c["color"]) not in alphabet:
                problem("color", f"circle {c['id']}: color {c['color']} is outside the level "
                                 f"alphabet of {rs.type_label}{rs.rank} at k = {k}")
    sides_ok = True
    for c in circles:
        if c["positive_side"] not in ("inside", "outside"):
            sides_ok = False
            problem("positive-side",
                    f"circle {c['id']}: positive_side must be 'inside' or 'outside'")
    if sides_ok:
        try:
            diagram = build_diagram(circles)
        except PreconditionError as e:
            problem("assumption-1", str(e))
    return None if report else (rs, alphabet, diagram)


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON too deeply") from None


def _c2j(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _root_system(args):
    if args.group is None:
        raise PreconditionError("missing --group")
    return build_root_system(args.group)


def _alphabet(args):
    rs = _root_system(args)
    if args.k is None:
        raise PreconditionError("missing --k")
    return level_alphabet(rs, args.k)


def _field_b(args, rs) -> tuple:
    if args.b is not None:
        if len(args.b) != rs.ambient_dim:
            raise PreconditionError(
                f"--b needs {rs.ambient_dim} ambient coordinates for "
                f"{rs.type_label}{rs.rank}, got {len(args.b)}"
            )
        return args.b
    if args.alpha_b is not None:
        if rs.rank != 1:
            raise PreconditionError("--alpha-b is a rank-1 shorthand; use --b")
        return rs.from_labels([args.alpha_b])
    raise PreconditionError("need --b (ambient coords) or --alpha-b (rank 1)")


def cmd_shadow(args) -> dict:
    rs, alphabet, diagram = parse_link(_load_json(args.input), args.group, args.k)
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
        listing = state_sum(diagram, alphabet, diagnostics=True, data=data)
        out["terms"] = [
            {"coloring": [list(c) for c in col], "term": _c2j(t)}
            for col, t in listing.terms
        ]
    return out


def cmd_fusion(args) -> dict | list[str]:
    alphabet = _alphabet(args)
    table = build_fusion_table(alphabet)
    if args.verify:
        verify_against_verlinde(alphabet, table, tol=args.oracle_tol)
    if args.format == "text":
        return table_lines(alphabet, table)
    entries = table.size
    if args.dump:
        entries = [
            {"lam": list(l), "mu": list(m), "nu": list(n), "n": v}
            for l, m, n, v in table_entries(alphabet, table)
        ]
    return {
        "group": args.group,
        "k": args.k,
        "alphabet": [list(w) for w in alphabet.elements],
        "entries": entries,
        "verified": bool(args.verify),
    }


def cmd_qdim(args) -> dict:
    alphabet = _alphabet(args)
    if args.weight is not None:
        return {"weight": list(args.weight), "qdim": quantum_dimension(alphabet, args.weight)}
    return {
        "group": args.group,
        "k": args.k,
        "qdims": [
            {"weight": list(w), "qdim": quantum_dimension(alphabet, w)}
            for w in alphabet.elements
        ],
    }


def cmd_det(args) -> dict:
    rs = _root_system(args)
    b = _field_b(args, rs)
    out = {
        "group": args.group,
        "det_k": det_k(rs, b),
        "det_half": det_half(rs, b),
        "chi": args.chi,
        "det_rig_constant": det_rig_constant(rs, b, args.chi),
    }
    if args.diagnostics:
        metric = round_sphere_metric(*args.quad_res)
        bf = tuple(float(x) for x in b)
        out["det_rig_quadrature"] = det_rig_quadrature(rs, lambda theta, phi: bf, metric)
    return out


def cmd_regularize(args) -> dict:
    rs = _root_system(args)
    if args.input is None:
        if args.face_values is not None:
            raise ParseError("--face-values needs a link file")
        field = SteppedField.constant(_field_b(args, rs))
    else:
        if args.b is not None or args.alpha_b is not None:
            raise ParseError("a link file takes --face-values, not --b or --alpha-b")
        _, _, diagram = parse_link(_load_json(args.input), args.group)
        if args.face_values is None:
            raise PreconditionError("--face-values needed with a link file")
        if any(len(v) != rs.ambient_dim for v in args.face_values):
            raise PreconditionError(
                f"each face value needs {rs.ambient_dim} ambient coordinates"
            )
        field = SteppedField(diagram=diagram, values=args.face_values)
    return {
        "group": args.group,
        "n": args.n,
        "indicator": regularized_indicator(rs, args.n, field),
        "det_rig_n": _c2j(det_rig_n(rs, args.n, field)),
        "faces": len(field.diagram.faces),
    }


def cmd_holonomy(args) -> dict:
    rs = _root_system(args)
    b = _field_b(args, rs)
    require_rep_dim(rs, args.color)
    ws = weight_multiplicities(rs, args.color)
    # Weights have integer labels, so both values depend on the winding only modulo the
    # lcm D of the denominators of <w_j, b>: take its least-absolute residue before floats.
    period = math.lcm(*(rs.inner(w, b).denominator for w in rs.fundamental_weights))
    wind = args.wind - period * round(Fraction(args.wind, period))
    ribbon = VerticalRibbon(sigma=(0.0, 0.0), winding=wind)
    bf = [float(x) for x in b]
    closed = wilson_closed_form(rs, [ribbon.loop], [ws], None, lambda s: bf)
    phases = weight_phases(ws, b) * wind
    product = holonomy(lambda t: None, lambda _: phases, args.n)
    return {
        "group": args.group,
        "color": list(args.color),
        "winding": args.wind,
        "n": args.n,
        "closed_form": _c2j(closed),
        "product_trace": _c2j(complex(product.sum())),
    }


def cmd_validate(args) -> tuple[dict, int]:
    report: list[dict] = []
    try:
        parse_link(_load_json(args.input), args.group, args.k, report)
    except ParseError as e:  # unreadable or not JSON
        report.append({"code": "parse", "message": str(e)})
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


def _double_sized(convert, what: str):
    """An argparse type: a value read by `convert` that a double holds (the kernels use floats)."""

    def parse(text: str):
        try:
            value = convert(text)
            float(value)
            return value
        except (ValueError, ZeroDivisionError, OverflowError):
            raise argparse.ArgumentTypeError(
                f"expected {what} within the range of a double, got {text!r}") from None

    return parse


_rational = _double_sized(Fraction, "a rational number")
_winding = _double_sized(int, "an integer")


def _grid(text: str) -> tuple[int, int]:
    try:
        n_theta, n_phi = (int(x) for x in text.split("x"))
        if n_theta > 0 and n_phi > 0:
            return n_theta, n_phi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a grid such as 64x128, got {text!r}")


def _oracle_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = None
    if tol is None or not 0.0 < tol < 0.5:  # nan and inf fail too
        raise argparse.ArgumentTypeError(
            f"expected a finite tolerance strictly between 0 and 0.5, got {text!r}")
    return tol


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
    sp.add_argument("--oracle-tol", type=_oracle_tol, default=1e-6,
                    help="rounding tolerance of the Verlinde oracle, in (0, 0.5)")

    sp = command("qdim", cmd_qdim, "quantum dimensions of the level alphabet")
    sp.add_argument("--weight", type=_labels, help="one weight as comma-joined labels")

    sp = command("det", cmd_det, "determinant closed forms at a constant field", with_k=False)
    field(sp)
    sp.add_argument("--chi", type=int, default=2, help="Euler number of the surface")
    sp.add_argument("--diagnostics", action="store_true", help="add the surface quadrature")
    sp.add_argument("--quad-res", type=_grid, default="64x128", help="quadrature grid, e.g. 512x1024")

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
        elif isinstance(value, (str, float)) or _is_int(value):
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_argv(argv)
        doc = args.run(args)
    except ShadowsumError as e:
        return _fail(e)

    doc, status = doc if isinstance(doc, tuple) else (doc, 0)
    text = "\n".join(doc) if isinstance(doc, list) else json.dumps(doc, sort_keys=True)
    return _emit(text, args.output, status)


if __name__ == "__main__":
    sys.exit(main())
