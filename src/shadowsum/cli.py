"""Batch front end: parse link files, run the computations, emit JSON.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 ok, 2 parse failure (usage errors included), 3 precondition violation,
4 any broken internal invariant (`errors.OracleError`: the checks of `roots`,
`reps`, `fusion` and `fusion_table`, and `fusion --verify` at the fixed tolerance
`fusion_table.ORACLE_TOL`), 141 stdout closed by its reader before the
document was written; a stdout that cannot be written otherwise (`> /dev/full`)
ends as an unwritable --output does, with exit 2 and its `shadowsum: parse:`
line on stderr.  The keys of a --config JSON file are the
subcommand's long flag names; each becomes `--key=value` (`true`: a bare
`--key`) ahead of the command line, so explicit flags win.  Each command
imports the modules it runs when it runs, so a job loads no other, and
no command loads numpy.  Every resource budget is refused (exit 3) through
`errors.require_budget`, before the work it counts.  A job process parses
with the one subcommand its first word names (`build_parser`), and ends
through `run`, which exits without tearing the interpreter down.  The kernel
commands `det`, `regularize` and `holonomy` live in `kernel_cli`, which
`build_parser` imports only when it adds one of them, so a lattice job
(`shadow`, `fusion`, `qdim`, `validate`) compiles none of their code and
loads no `fractions`.  Likewise only `fusion` loads `fusion_table`, so a
`shadow` job compiles the folding evaluator of `fusion` alone.

Link files are read by `diagrams.read_link`, which holds their schema.
Output for `shadow`: { "value": {"re", "im"}, "abs_sum", "colorings", "retained",
optional "terms" }.  The per-term listing of --diagnostics is refused (exit 3)
when it would hold more than MAX_LISTED_TERMS terms.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .errors import ParseError, PreconditionError, ShadowsumError, require_budget

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
    from .fusion_table import build_fusion_table, table_json, table_lines, verify_against_verlinde

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
    return table_json(doc, table) if args.dump else doc


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


def cmd_validate(args) -> tuple[dict, int]:
    from .diagrams import read_link

    try:
        _, report = read_link(_load_json(args.input), args.group, args.k)
    except ParseError as e:  # unreadable or not JSON
        report = [{"code": "parse", "message": str(e)}]
    if not report:
        return {"ok": True, "report": report}, 0
    return {"ok": False, "report": report}, 2 if report[0]["code"] == "parse" else 3


def _exact(convert, what: str):
    """An argparse type, the one reader of every value flag: one value read by
    `convert`, whose ValueError or ZeroDivisionError is a usage error, `expected
    {what}, got {text!r}`.  Each converter refuses a value past CPython's 4300-digit
    limit on int text itself: `int` by parsing, `kernel_cli._fraction` by converting."""

    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None

    return parse


def _list_of(convert, what: str, sep: str = ","):
    """An argparse type: `sep`-joined values, each read by `convert`, as one `_exact` tuple."""
    return _exact(lambda text: tuple(map(convert, text.split(sep))), what)


_integer = _exact(int, "an integer")
_labels = _list_of(int, "comma-joined integer labels")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 2 with a JSON document."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _shadow_flags(sp):
    sp.add_argument("--diagnostics", action="store_true", help="list every nonvanishing term")
    sp.add_argument("input", help="link JSON file")


def _fusion_flags(sp):
    sp.add_argument("--dump", action="store_true", help="list every triple")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--verify", action="store_true", help="cross-check against the Verlinde oracle")


def _qdim_flags(sp):
    sp.add_argument("--weight", type=_labels, help="one weight as comma-joined labels")


def _validate_flags(sp):
    sp.add_argument("input", help="link JSON file")


# (name, help, takes --k, (run, adds the command's own flags)), in the order of --help;
# a kernel command's pair is None here: it is `kernel_cli.HANDLERS[name]`, which a job
# loads only when `build_parser` adds that command
COMMANDS = (
    ("shadow", "state-sum invariant of a link file", True, (cmd_shadow, _shadow_flags)),
    ("fusion", "fusion coefficient table", True, (cmd_fusion, _fusion_flags)),
    ("qdim", "quantum dimensions of the level alphabet", True, (cmd_qdim, _qdim_flags)),
    ("det", "determinant closed forms at a constant field", False, None),
    ("regularize", "regularized indicator and determinant stage n", False, None),
    ("holonomy", "vertical-ribbon holonomy and its closed form", False, None),
    ("validate", "report schema and assumption violations", True,
     (cmd_validate, _validate_flags)),
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
    for name, help_text, with_k, handlers in rows:
        if handlers is None:
            from .kernel_cli import HANDLERS

            handlers = HANDLERS[name]
        func, flags = handlers
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=func)
        sp.add_argument("--group", help="simple type label, e.g. A1, B3, G2")
        if with_k:
            sp.add_argument("--k", type=_integer, help="level parameter k (requires k > g)")
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


def _write(stream, line: str) -> OSError | None:
    """Print and flush one line.  On OSError (a reader closed the pipe, `2>&1 | head`
    included, or the disk is full) the stream goes to devnull, the Python docs' recipe,
    so exit flushes nothing, and the error is returned."""
    try:
        print(line, file=stream, flush=True)
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return e
    return None


def _emit(text: str, path: str | None, status: int) -> int:
    """Write the document; a reader closing stdout early (`| head`) gives 141 = 128 + SIGPIPE.

    An --output path or a stdout that cannot be written otherwise is a parse error."""
    if path:
        try:
            with open(path, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            return _fail(ParseError(f"cannot write {path}: {e}"))
        return status
    error = _write(sys.stdout, text)
    if isinstance(error, BrokenPipeError):
        _write(sys.stderr, "shadowsum: stdout was closed before the document was written")
        return 141
    return _fail(ParseError(f"cannot write stdout: {error}")) if error else status


def _fail(e: ShadowsumError) -> int:
    """One stderr line and the JSON error document on stdout; the error's exit code."""
    err = {"error": {"code": e.code, "exit": e.exit_code, "message": str(e)}}
    _write(sys.stderr, f"shadowsum: {e.code}: {e}")
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
    then exit with its status without tearing the interpreter down.

    The registered atexit handlers run and stdout and stderr are flushed, which is
    all of interpreter shutdown that a job's output and exit code depend on; then
    os._exit ends the process, so no module is cleared and no object is collected
    or finalized.  So a `__del__` would not run: this package defines no `__del__`
    and no atexit handler, and opens every file object with `with`.  `main()` itself
    never exits, so in-process callers keep their interpreter."""
    status = main()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
