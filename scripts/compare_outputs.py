#!/usr/bin/env python3
"""Compare the CLI's outputs from two source trees, byte for byte.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC --seeds 1 2

OLD_SRC and NEW_SRC are directories holding the shadowsum package, such as
the src/ of two checkouts.  The jobs are the benchmark's, built from
bench/workloads.py: every job of each workload for each seed and the layer
probe jobs, each shadow job's file also through `shadow --diagnostics` and
`validate`, and `--help` of the top-level parser and of each subcommand.
With seeds, it adds `det --diagnostics --b` and `holonomy --b` jobs on the
types the benchmark never runs (FIELD_JOBS), with b drawn per seed, runs
`det`, `regularize` and `holonomy` at large exact field values on A1 and G2
(LARGE_FIELDS), runs the kernels' refusals (REFUSAL_JOBS: a float-singular
field, an over-budget grid and an over-budget rule order through `det
--diagnostics`, and `holonomy` at n = 0 and at n past its factor budget),
and runs each malformed link document
of MALFORMED_LINKS, and HUGE_K_LINK, through `shadow`, `validate` and
`regularize`, so the error paths are compared too.  Each job runs as one
`python -m shadowsum` process per tree, in a fresh directory holding its
input files.  The exit code, stdout and the --output
file must agree byte for byte.  Prints one line per job that differs and a
summary line; exits 1 on any difference.  Where the differing outputs are
JSON, the line also gives the largest absolute and the largest relative
difference over the numeric leaves, each with its key path, such as
`max |Δ| 3e-16 at closed_form.re; max rel 5e-17 at closed_form.re`.

With no arguments it compares this checkout's src/ with itself on the probe
and help jobs only, which checks the script itself in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402

JOB_TIMEOUT_S = 600
COMMANDS = ("shadow", "fusion", "qdim", "det", "regularize", "holonomy", "validate")
# (group, ambient dimension, holonomy colour): types no benchmark job runs, each colour
# of dimension at most holonomy.MAX_REP_DIM (7, 6, 8, 27, 56 and 26)
FIELD_JOBS = [("B3", 3, "1,0,0"), ("C3", 3, "1,0,0"), ("D4", 4, "1,0,0,0"),
              ("E6", 8, "1,0,0,0,0,0"), ("E7", 8, "0,0,0,0,0,0,1"), ("F4", 4, "0,0,0,1")]
# Large exact field values, each one field value modulo 2 in every coweight coordinate
# with a small one: alpha(b) = 10000000000000000001/3 on A1 is 5/3 modulo 4, and the G2
# value is b = (5/7, 1/11, -3/13) plus 2 * 10**19 times the coroot (3, -3, 0) of alpha_1.
# Each runs through det (with and without the quadrature), regularize and holonomy.
LARGE_FIELDS = {"A1": ("--alpha-b=10000000000000000001/3", "2"),
                "G2": ("--b=420000000000000000005/7,-659999999999999999999/11,-3/13", "1,0")}

# The refusals of the det quadrature and of the holonomy product: alpha(b) within
# determinants.SINGULAR_TOL of 0, a grid past determinants.MAX_QUAD_NODES, a grid within
# it whose n_theta is past determinants.MAX_QUAD_THETA, and n below 1 and past
# holonomy.MAX_HOLONOMY_FACTORS.
REFUSAL_JOBS = {
    "det/float-singular": ["det", "--group", "A1", "--alpha-b", "1/1000000000000001",
                           "--diagnostics"],
    "det/grid-budget": ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics",
                        "--quad-res", "2048x2048"],
    "det/order-budget": ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics",
                         "--quad-res", "65536x32"],
    "holonomy/n=0": ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--n", "0"],
    "holonomy/n=65537": ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--n", "65537"],
}


def _circle(cid="a", parent=None, **fields):
    return {"id": cid, "parent": parent, "winding": 1, "positive_side": "inside",
            "color": [1], **fields}


# One A1 link document per report code of `validate`, and two that mix codes, so
# that a change in the order of the checks shows.
MALFORMED_LINKS = {
    "parse": {"group": "A1", "k": 4, "circles": [{"id": "a", "winding": 1,
                                                  "positive_side": "inside", "colour": [1]}]},
    "group": {"group": "Q9", "k": 4, "circles": [_circle()]},
    "level-bound": {"group": "A1", "k": 2, "circles": [_circle()]},
    "color": {"group": "A1", "k": 4, "circles": [_circle(color=[5])]},
    "positive-side": {"group": "A1", "k": 4, "circles": [_circle(positive_side="up"),
                                                         _circle("b", positive_side="left")]},
    "assumption-1": {"group": "A1", "k": 4, "circles": [_circle(parent="b"),
                                                        _circle("b", parent="a")]},
    "color+forest": {"group": "A1", "k": 4, "circles": [_circle(parent="b", color=[7]),
                                                        _circle("b", parent="a", color=[8])]},
    "no-k+circle": {"group": "A1", "circles": [_circle(id=1), _circle("b", winding="1")]},
}
# A one-circle link whose level has 5001 digits, past CPython's limit on int parsing;
# json.dumps refuses such an int, so the document is written as text.
HUGE_K_LINK = json.dumps({"group": "A1", "k": 0, "circles": [_circle()]}).replace(
    '"k": 0', '"k": 1' + "0" * 5000)


def malformed_jobs() -> list[tuple[str, list[str], dict[str, str]]]:
    """Each MALFORMED_LINKS document and HUGE_K_LINK through shadow, validate and
    regularize; regularize gets one A1 field value per face."""
    jobs = []
    links = {name: (json.dumps(doc), len(doc["circles"])) for name, doc in MALFORMED_LINKS.items()}
    links["huge-k"] = (HUGE_K_LINK, 1)
    for name, (text, circles) in links.items():
        files = {"link.json": text}
        values = ";".join(["1/11,-1/13"] * (circles + 1))
        for argv in (["shadow", "link.json"], ["validate", "link.json"],
                     ["regularize", "--n", "1", "link.json", "--face-values", values]):
            jobs.append((f"malformed/{name}/{argv[0]}", argv, files))
    return jobs


def _with_file_jobs(name: str, argv: list[str], files: dict[str, str]) -> list:
    """The job, and for a shadow job its link file through `shadow --diagnostics`
    and `validate`."""
    jobs = [(name, argv, files)]
    if argv[0] == "shadow":
        jobs += [(f"{name} --diagnostics", [*argv, "--diagnostics"], files),
                 (f"{name} validate", ["validate", *argv[1:]], files)]
    return jobs


def job_set(seeds: list[int]) -> list[tuple[str, list[str], dict[str, str]]]:
    """(name, argv, input files) of every job to compare."""
    jobs = [("help", ["--help"], {})]
    jobs += [(f"help/{cmd}", [cmd, "--help"], {}) for cmd in COMMANDS]
    for argv in wl.PROBE_JOBS:
        jobs += _with_file_jobs(f"probe/{argv[0]}", argv, wl.PROBE_FILES)
    for workload in wl.WORKLOADS:
        for seed in seeds:
            for job in wl.make_jobs(workload, seed):
                jobs += _with_file_jobs(f"{workload}/{seed}/{job['slot']}", job["argv"],
                                        job["files"])
    for seed in seeds:
        for group, dim, color in FIELD_JOBS:
            b = "--b=" + ",".join(map(str, wl.generic_b(random.Random(f"{group}:{seed}"), dim)))
            det = ["det", "--group", group, b, "--diagnostics", "--quad-res", "32x64"]
            hol = ["holonomy", "--group", group, b, "--color", color, "--wind", "2"]
            jobs += [(f"field/{seed}/det/{group}", det, {}),
                     (f"field/{seed}/holonomy/{group}", hol, {})]
    if seeds:
        for group, (field, color) in LARGE_FIELDS.items():
            at = ["--group", group, field]
            jobs += [(f"large/{group}/det", ["det", *at], {}),
                     (f"large/{group}/det --diagnostics",
                      ["det", *at, "--diagnostics", "--quad-res", "32x64"], {}),
                     (f"large/{group}/regularize", ["regularize", *at, "--n", "6"], {}),
                     (f"large/{group}/holonomy",
                      ["holonomy", *at, "--color", color, "--wind", "3", "--n", "16"], {})]
        jobs += [(f"refusal/{name}", argv, {}) for name, argv in REFUSAL_JOBS.items()]
    return jobs + (malformed_jobs() if seeds else [])


def run(src: Path, argv: list[str], files: dict[str, str]) -> tuple[int, bytes, bytes | None]:
    """Exit code, stdout and --output file contents of one job on one tree."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "shadowsum", *argv], cwd=tmp,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
        output = None
        if "--output" in argv:
            path = Path(tmp, argv[argv.index("--output") + 1])
            output = path.read_bytes() if path.exists() else None
    return proc.returncode, proc.stdout, output


def _numeric_leaves(doc, path: str = ""):
    """(key path, value) of every number in a JSON document; bools are not numbers."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numeric_leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numeric_leaves(value, f"{path}[{i}]")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, doc


def _leaves(doc: bytes | None) -> dict[str, float] | None:
    """{key path: value} of the numeric leaves of a JSON document; None unless it parses."""
    try:
        return dict(_numeric_leaves(json.loads(doc)))
    except (TypeError, ValueError):  # no document, or not JSON
        return None


def _differing_leaves(a: dict | None, b: dict | None) -> list[tuple[str, float, float]]:
    """(key path, old value, new value) of each numeric leaf both documents' leaves
    hold at the same path with different values; none unless both parsed."""
    if a is None or b is None:
        return []
    return [(path, a[path], b[path]) for path in a.keys() & b.keys() if a[path] != b[path]]


def _scale(leaves: dict[str, float], path: str) -> float:
    """|value| of a leaf, or the modulus of the {re, im} pair it belongs to."""
    if path.rsplit(".", 1)[-1] in ("re", "im"):
        pair = path[:-2] + "re", path[:-2] + "im"
        if all(p in leaves for p in pair):
            return abs(complex(*(leaves[p] for p in pair)))
    return abs(leaves[path])


def max_numeric_diff(old: bytes | None, new: bytes | None) -> tuple[float, str] | None:
    """(largest |new - old|, its key path) over the numeric leaves both JSON
    documents hold at the same path; None unless both parse and a leaf differs."""
    return max(((abs(y - x), path) for path, x, y in _differing_leaves(_leaves(old), _leaves(new))),
               default=None)


def max_relative_diff(old: bytes | None, new: bytes | None) -> tuple[float, str] | None:
    """(largest |new - old| / max(|old|, |new|), its key path), as max_numeric_diff;
    it shows a move in a small value, such as a determinant of 6.6e-118.  A leaf
    of a {re, im} pair is scaled by the pair's modulus, so an im of 4e-16 that
    becomes 0 beside an re of 1 reads 4e-16, not 1."""
    a, b = _leaves(old), _leaves(new)
    return max(((abs(y - x) / max(_scale(a, path), _scale(b, path)), path)
                for path, x, y in _differing_leaves(a, b)), default=None)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", nargs="?", type=Path, help="source tree of the reference")
    p.add_argument("new", nargs="?", type=Path, help="source tree to compare with it")
    p.add_argument("--seeds", type=int, nargs="+", default=[],
                   help="workload seeds (default: none, the probe and help jobs only)")
    args = p.parse_args(argv)
    if (args.old is None) != (args.new is None):
        p.error("give both OLD_SRC and NEW_SRC, or neither")
    old, new = (args.old or ROOT / "src").resolve(), (args.new or ROOT / "src").resolve()

    jobs = job_set(args.seeds)
    differ = 0
    for name, job_argv, files in jobs:
        a, b = run(old, job_argv, files), run(new, job_argv, files)
        parts = [what for what, x, y in zip(("exit code", "stdout", "--output"), a, b) if x != y]
        if parts:
            differ += 1
            note = ""
            for what, measure in (("max |Δ|", max_numeric_diff), ("max rel", max_relative_diff)):
                deltas = [d for d in map(measure, a[1:], b[1:]) if d]
                note += "; {} {:.2g} at {}".format(what, *max(deltas)) if deltas else ""
            print(f"DIFF {name}: {', '.join(parts)}{note}")
    print(f"{len(jobs)} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
