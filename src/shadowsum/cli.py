"""Batch front end: parse link files, run the computations, emit JSON.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 ok, 2 parse failure, 3 precondition violation, 4 internal-oracle failure.
Flags may be preloaded from a JSON config file (same keys as the flags);
explicit flags win.

Link file schema:
    { "group": "A1", "k": 4,
      "circles": [ { "id": ..., "parent": ... | null, "winding": int,
                     "positive_side": "inside" | "outside",
                     "color": [fundamental-weight coords] } ] }
Output for `shadow`: { "value": {"re", "im"}, "abs_sum", "colorings", "retained",
optional "terms" }.  The per-term listing of --diagnostics is refused (exit 3)
when it would hold more than MAX_LISTED_TERMS terms.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from dataclasses import dataclass
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
from .diagrams import build_diagram, contract_state_sum, state_sum
from .errors import ParseError, PreconditionError, ShadowsumError
from .fusion import (
    build_fusion_table,
    quantum_dimension,
    table_lines,
    verify_against_verlinde,
)
from .holonomy import VerticalRibbon, weight_rep_matrix, wilson_closed_form, ribbon_holonomy
from .regularize import det_rig_n, regularized_indicator
from .reps import level_alphabet, weight_multiplicities
from .roots import build_root_system

MAX_LISTED_TERMS = 10**6  # budget of the per-term listing of `shadow --diagnostics`


@dataclass
class JobConfig:
    command: str
    input_path: str | None = None
    group: str | None = None
    k: int | None = None
    output: str | None = None
    diagnostics: bool = False
    quad_res: str = "64x128"
    reg_n: int = 4
    oracle_tol: float = 1e-6
    dump: bool = False
    fmt: str = "json"
    b: str | None = None
    alpha_b: str | None = None
    chi: int = 2
    weight: str | None = None
    color: str | None = None
    winding: int = 1
    n_points: int = 64
    face_values: str | None = None
    verify: bool = False


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"cannot parse rational number {s!r}: {e}") from None


def _parse_b(cfg: JobConfig, rs) -> tuple:
    if cfg.b is not None:
        coords = [_parse_fraction(p) for p in cfg.b.split(",")]
        if len(coords) != rs.ambient_dim:
            raise PreconditionError(
                f"--b needs {rs.ambient_dim} ambient coordinates for "
                f"{rs.type_label}{rs.rank}, got {len(coords)}"
            )
        return tuple(coords)
    if cfg.alpha_b is not None:
        if rs.rank != 1:
            raise PreconditionError("--alpha-b is a rank-1 shorthand; use --b")
        return rs.from_labels([_parse_fraction(cfg.alpha_b)])
    raise PreconditionError("need --b (ambient coords) or --alpha-b (rank 1)")


def _require_group(cfg: JobConfig):
    if cfg.group is None:
        raise PreconditionError("missing --group")
    return build_root_system(cfg.group)


def _require_k(cfg: JobConfig) -> int:
    if cfg.k is None:
        raise PreconditionError("missing --k")
    return cfg.k


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None


def _c2j(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


_LINK_KEYS = {"id", "parent", "winding", "positive_side", "color"}


def _is_int(x) -> bool:
    """A JSON integer; bools are ints to Python but not to the link schema."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_link_document(doc: dict, cfg: JobConfig) -> tuple[str, int, list[dict]]:
    if not isinstance(doc, dict):
        raise ParseError("link file must hold a JSON object")
    group = cfg.group or doc.get("group")
    k = cfg.k if cfg.k is not None else doc.get("k")
    if group is None:
        raise ParseError("no group given (flag --group or file key 'group')")
    if not _is_int(k):
        raise ParseError("no integer level given (flag --k or file key 'k')")
    circles = doc.get("circles")
    if not isinstance(circles, list):
        raise ParseError("link file needs a 'circles' array")
    for i, c in enumerate(circles):
        if not isinstance(c, dict) or not {"id", "winding", "positive_side", "color"} <= set(c):
            raise ParseError(
                f"circle #{i} must be an object with id/winding/positive_side/color"
            )
        if not _is_int(c["winding"]):
            raise ParseError(f"circle #{i}: winding must be an integer")
        if not isinstance(c["color"], list) or not all(_is_int(x) for x in c["color"]):
            raise ParseError(f"circle #{i}: color must be an array of integer coordinates")
    return str(group), k, circles


def cmd_shadow(cfg: JobConfig) -> dict:
    if cfg.input_path is None:
        raise ParseError("shadow needs a link file")
    group, k, circles = _parse_link_document(_load_json(cfg.input_path), cfg)
    rs = build_root_system(group)
    alphabet = level_alphabet(rs, k)
    diagram = build_diagram(circles)
    table = build_fusion_table(alphabet)
    result = contract_state_sum(diagram, alphabet, table)
    out = {
        "group": group,
        "k": k,
        "value": _c2j(result.value),
        "abs_sum": result.abs_sum,
        "colorings": result.colorings_total,
        "retained": result.colorings_retained,
    }
    if cfg.diagnostics:
        if result.colorings_retained > MAX_LISTED_TERMS:
            raise PreconditionError(
                f"--diagnostics would list {result.colorings_retained} terms; "
                f"the budget is {MAX_LISTED_TERMS}"
            )
        listing = state_sum(diagram, alphabet, table, diagnostics=True)
        out["terms"] = [
            {"coloring": [list(c) for c in col], "term": _c2j(t)}
            for col, t in listing.terms
        ]
    return out


def cmd_fusion(cfg: JobConfig) -> dict | list[str]:
    rs = _require_group(cfg)
    alphabet = level_alphabet(rs, _require_k(cfg))
    table = build_fusion_table(alphabet)
    if cfg.verify:
        verify_against_verlinde(table, tol=cfg.oracle_tol)
    if cfg.fmt == "text":
        return table_lines(table)
    entries = [
        {"lam": list(l), "mu": list(m), "nu": list(n), "n": v}
        for (l, m, n), v in sorted(table.coefficients.items())
    ]
    return {
        "group": cfg.group,
        "k": cfg.k,
        "alphabet": [list(w) for w in alphabet.elements],
        "entries": entries if cfg.dump else len(entries),
        "verified": bool(cfg.verify),
    }


def cmd_qdim(cfg: JobConfig) -> dict:
    rs = _require_group(cfg)
    alphabet = level_alphabet(rs, _require_k(cfg))
    if cfg.weight is not None:
        w = tuple(int(x) for x in cfg.weight.split(","))
        return {"weight": list(w), "qdim": quantum_dimension(alphabet, w)}
    return {
        "group": cfg.group,
        "k": cfg.k,
        "qdims": [
            {"weight": list(w), "qdim": quantum_dimension(alphabet, w)}
            for w in alphabet.elements
        ],
    }


def cmd_det(cfg: JobConfig) -> dict:
    rs = _require_group(cfg)
    b = _parse_b(cfg, rs)
    out = {
        "group": cfg.group,
        "det_k": det_k(rs, b),
        "det_half": det_half(rs, b),
        "chi": cfg.chi,
        "det_rig_constant": det_rig_constant(rs, b, cfg.chi),
    }
    if cfg.diagnostics:
        try:
            nt, nph = cfg.quad_res.split("x")
            metric = round_sphere_metric(int(nt), int(nph))
        except ValueError:
            raise ParseError(f"bad --quad-res {cfg.quad_res!r}; expected e.g. 64x128")
        bf = tuple(float(x) for x in b)
        out["det_rig_quadrature"] = det_rig_quadrature(rs, lambda t, p: bf, metric)
    return out


def _stepped_field(cfg: JobConfig, rs) -> SteppedField:
    if cfg.input_path is not None:
        group, k, circles = _parse_link_document(_load_json(cfg.input_path), cfg)
        diagram = build_diagram(circles)
        if cfg.face_values is None:
            raise PreconditionError("--face-values needed with a link file")
        vals = []
        for part in cfg.face_values.split(";"):
            vals.append(tuple(_parse_fraction(x) for x in part.split(",")))
        if any(len(v) != rs.ambient_dim for v in vals):
            raise PreconditionError(
                f"each face value needs {rs.ambient_dim} ambient coordinates"
            )
        return SteppedField(diagram=diagram, values=tuple(vals))
    return SteppedField.constant(_parse_b(cfg, rs))


def cmd_regularize(cfg: JobConfig) -> dict:
    rs = _require_group(cfg)
    field = _stepped_field(cfg, rs)
    ind = regularized_indicator(rs, cfg.reg_n, field)
    det = det_rig_n(rs, cfg.reg_n, field)
    return {
        "group": cfg.group,
        "n": cfg.reg_n,
        "indicator": ind,
        "det_rig_n": _c2j(det),
        "faces": len(field.diagram.faces),
    }


def cmd_holonomy(cfg: JobConfig) -> dict:
    rs = _require_group(cfg)
    b = _parse_b(cfg, rs)
    color = tuple(int(x) for x in (cfg.color or "1").split(","))
    ws = weight_multiplicities(rs, color)
    ribbon = VerticalRibbon(sigma=(0.0, 0.0), winding=cfg.winding)
    bf = [float(x) for x in b]
    closed = wilson_closed_form(rs, [ribbon.loop], [ws], None, lambda s: bf)
    bmat = weight_rep_matrix(ws, b) * cfg.winding
    product = ribbon_holonomy(lambda t, u: None, lambda _: bmat, cfg.n_points)
    return {
        "group": cfg.group,
        "color": list(color),
        "winding": cfg.winding,
        "n": cfg.n_points,
        "closed_form": _c2j(closed),
        "product_trace": _c2j(complex(np.trace(product))),
    }


def cmd_validate(cfg: JobConfig) -> tuple[dict, int]:
    if cfg.input_path is None:
        raise ParseError("validate needs an input file")
    report: list[dict] = []

    def note(code: str, message: str) -> None:
        report.append({"code": code, "message": message})

    try:
        doc = _load_json(cfg.input_path)
        group, k, circles = _parse_link_document(doc, cfg)
    except ParseError as e:
        note("parse", str(e))
        return {"ok": False, "report": report}, 2

    rs = None
    try:
        rs = build_root_system(group)
    except PreconditionError as e:
        note("group", str(e))
    if rs is not None:
        if k <= rs.dual_coxeter:
            note(
                "level-bound",
                f"k = {k} violates k > g: the dual Coxeter number of "
                f"{rs.type_label}{rs.rank} is g = {rs.dual_coxeter}",
            )
        for i, c in enumerate(circles):
            col = c.get("color", [])
            if len(col) != rs.rank or any(x < 0 for x in col):
                note(
                    "color",
                    f"circle {c.get('id')}: color {col} is not a dominant weight "
                    f"label vector of length {rs.rank}",
                )
    for i, c in enumerate(circles):
        if c.get("positive_side") not in ("inside", "outside"):
            note("positive-side", f"circle {c.get('id')}: bad positive_side")
    try:
        build_diagram(circles)
    except PreconditionError as e:
        note("assumption-1", str(e))
    ok = not report
    return {"ok": ok, "report": report}, 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shadowsum",
        description="Shadow state sums in S^2 x S^1 and torus-gauge determinant kernels",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_k=True):
        sp.add_argument("--group", help="simple type label, e.g. A1, B3, G2")
        if with_k:
            sp.add_argument("--k", type=int, help="level parameter k (requires k > g)")
        sp.add_argument("--config", help="JSON file preloading these flags")
        sp.add_argument("--output", help="write the JSON document here instead of stdout")
        sp.add_argument("--diagnostics", action="store_true")

    sp = sub.add_parser("shadow", help="state-sum invariant of a link file")
    common(sp)
    sp.add_argument("input", nargs="?", help="link JSON file")

    sp = sub.add_parser("fusion", help="fusion coefficient table")
    common(sp)
    sp.add_argument("--dump", action="store_true", help="list every triple")
    sp.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    sp.add_argument("--verify", action="store_true", help="cross-check against the Verlinde oracle")
    sp.add_argument("--oracle-tol", type=float, default=1e-6)

    sp = sub.add_parser("qdim", help="quantum dimensions of the level alphabet")
    common(sp)
    sp.add_argument("--weight", help="one weight as comma-joined labels")

    sp = sub.add_parser("det", help="determinant closed forms at a constant field")
    common(sp, with_k=False)
    sp.add_argument("--b", help="ambient coordinates of b, comma-joined rationals")
    sp.add_argument("--alpha-b", dest="alpha_b", help="rank-1 shorthand: the value alpha(b)")
    sp.add_argument("--chi", type=int, default=2, help="Euler number of the surface")
    sp.add_argument("--quad-res", default="64x128", help="quadrature grid, e.g. 256x512")

    sp = sub.add_parser("regularize", help="regularized indicator and determinant stage n")
    common(sp, with_k=False)
    sp.add_argument("input", nargs="?", help="link JSON file for a stepped field")
    sp.add_argument("--n", dest="reg_n", type=int, default=4, help="regularization index")
    sp.add_argument("--b", help="ambient coordinates of a constant field")
    sp.add_argument("--alpha-b", dest="alpha_b")
    sp.add_argument("--face-values", help="per-face ambient coords, ';'-separated")

    sp = sub.add_parser("holonomy", help="vertical-ribbon holonomy and its closed form")
    common(sp, with_k=False)
    sp.add_argument("--b", help="ambient coordinates of the constant field")
    sp.add_argument("--alpha-b", dest="alpha_b")
    sp.add_argument("--color", help="highest weight labels, comma-joined (default 1)")
    sp.add_argument("--wind", dest="winding", type=int, default=1)
    sp.add_argument("--n", dest="n_points", type=int, default=64)

    sp = sub.add_parser("validate", help="report schema and assumption violations")
    common(sp)
    sp.add_argument("input", nargs="?", help="link JSON file")
    return p


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    cfg = JobConfig(command=args.command)
    merged: dict = {}
    if getattr(args, "config", None):
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise ParseError("config file must hold a JSON object")
        merged.update(doc)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            merged[key] = value
    for key, value in merged.items():
        name = {"input": "input_path", "format": "fmt", "wind": "winding", "n": "reg_n"}.get(key, key)
        if hasattr(cfg, name):
            setattr(cfg, name, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        status = 0
        if cfg.command == "shadow":
            doc = cmd_shadow(cfg)
        elif cfg.command == "fusion":
            doc = cmd_fusion(cfg)
        elif cfg.command == "qdim":
            doc = cmd_qdim(cfg)
        elif cfg.command == "det":
            doc = cmd_det(cfg)
        elif cfg.command == "regularize":
            doc = cmd_regularize(cfg)
        elif cfg.command == "holonomy":
            doc = cmd_holonomy(cfg)
        elif cfg.command == "validate":
            doc, status = cmd_validate(cfg)
        else:  # pragma: no cover
            raise ParseError(f"unknown command {cfg.command!r}")
    except ShadowsumError as e:
        err = {"error": {"code": e.code, "exit": e.exit_code, "message": str(e)}}
        print(json.dumps(err, sort_keys=True))
        print(f"shadowsum: {e.code}: {e}", file=sys.stderr)
        return e.exit_code

    if isinstance(doc, list):
        text = "\n".join(doc)
    else:
        text = json.dumps(doc, sort_keys=True)
    if cfg.output:
        with open(cfg.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
