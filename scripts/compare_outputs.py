#!/usr/bin/env python3
"""Compare the CLI's outputs from two source trees, byte for byte.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC --seeds 1 2
    python scripts/compare_outputs.py --record tests/cli_outputs.jsonl --seeds 1 2
    python scripts/compare_outputs.py

OLD_SRC and NEW_SRC are directories holding the shadowsum package, such as the src/
of two checkouts.  Each job runs as one `python -m shadowsum` process per tree, in a
fresh directory holding its input files, and its exit code, stdout and --output file
must agree byte for byte.  The script prints one line per job that differs and a
summary line, `448 jobs, 0 differ`, and exits 1 on any difference.  A DIFF line names
the job and what differs (exit code, stdout, --output); where the differing outputs
are JSON it also gives the largest absolute and the largest relative difference over
the numeric leaves, each with its key path:

    DIFF <job>: stdout; max |Δ| 3e-16 at closed_form.re; max rel 5e-17 at closed_form.re

With --record FILE it compares nothing: it runs the jobs on one tree, OLD_SRC or this
checkout's src/, and writes FILE, a header line naming the Python and the C library,
then one JSON line per job with its name, its argv (`shown_argv`) and the sha256 of
its exit code, stdout and --output bytes (`digest`).  tests/cli_outputs.jsonl is that
corpus for --seeds 1 2, which tests/test_scripts.py replays in process.  Its hashes
hold on the recorded Python and libm; another platform may need a re-recording.

With no arguments it compares this checkout's src/ with itself on the help and probe
jobs only, which checks the script itself in a few seconds.  A tree that holds no
shadowsum/cli.py, or a seed that tests/cli_jobs.json holds no jobs for, is refused
with exit 2 before any job runs.

The jobs come from two places, and `job_set` names and orders them all.
tests/cli_jobs.json holds the benchmark's probe jobs and, for seeds 1 and 2, one
cycle of each benchmark workload and the field value b drawn for each type, frozen
from the benchmark's job generator at commit 520ed0f, so an edit of the benchmark
moves no job.  The constants below hold every other job, each with a comment on what
it reaches.  To add a job, add it to a constant here (or add a constant and read it
in `job_set`), then re-record the corpus.  A change that makes a job differ by design
names the job in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# {"probe_jobs": [argv], "probe_files": {name: text},
#  "workloads": {workload: {seed: [{"slot", "argv", "files"}]}},
#  "field_b": {seed: {group: "comma-joined rationals"}}}
FROZEN = json.loads((ROOT / "tests" / "cli_jobs.json").read_text())
JOB_TIMEOUT_S = 600
COMMANDS = ("shadow", "fusion", "qdim", "det", "regularize", "holonomy", "validate")
# (group, holonomy colour): types no benchmark job runs, each colour of dimension at
# most holonomy.MAX_REP_DIM (7, 6, 8, 27, 56 and 26), for `det --diagnostics --b` and
# `holonomy --b` at the field value FROZEN draws per seed
FIELD_JOBS = [("B3", "1,0,0"), ("C3", "1,0,0"), ("D4", "1,0,0,0"),
              ("E6", "1,0,0,0,0,0"), ("E7", "0,0,0,0,0,0,1"), ("F4", "0,0,0,1")]
# `qdim` at level 2, k = g + 2, on every supported type, with its dual Coxeter number g
QDIM_JOBS = [["qdim", "--group", f"{t}{n}", "--k", str(g(n) + 2)] for t, ranks, g in (
    ("A", range(1, 9), lambda n: n + 1), ("B", range(2, 9), lambda n: 2 * n - 1),
    ("C", range(2, 9), lambda n: n + 1), ("D", range(4, 9), lambda n: 2 * n - 2),
    ("E", (6, 7, 8), {6: 12, 7: 18, 8: 30}.get), ("F", (4,), {4: 9}.get),
    ("G", (2,), {2: 4}.get)) for n in ranks]
# `qdim` on high-rank alphabets, each too large for a full fusion table
HIGH_RANK_QDIM_JOBS = {f"qdim/{group}-k={k}": ["qdim", "--group", group, "--k", str(k)]
                       for group, k in (("A8", 13), ("E6", 22))}
# `fusion --dump --verify` on alphabets no benchmark job exports, each inside
# fusion.MAX_FUSION_COEFFS (|A|^3 <= 10^6) and fusion_table.MAX_VERLINDE_ORBIT_TERMS
# (|W| |A|^2 <= 2 * 10^5), and on E6 k=13, which the orbit budget refuses; the
# comment on each gives |A| and |W| |A|^2
VERIFY_JOBS = {f"verify/{group}-k={k}": ["fusion", "--group", group, "--k", str(k), "--dump",
                                         *tail, "--verify"]
               for group, k, tail in (
                   ("C3", 7, []),  # 20, 19,200
                   ("C4", 7, ["--format", "text"]),  # 15, 86,400
                   ("A4", 8, []),  # 35, 147,000
                   ("B4", 10, []),  # 16, 98,304
                   ("D4", 8, []),  # 11, 23,232
                   ("F4", 12, []),  # 9, 93,312
                   ("G2", 14, []),  # 36, 15,552
                   ("E6", 13, []))}  # 3, 466,560: refused
# `fusion --dump` without --verify, which the orbit budget refuses on every E type, on
# E6 k=14, E7 k=20 and E8 k=32 (9, 6 and 3 weights): the only jobs that export an E-type
# table, so the height order of `build_fusion_table`'s recursion is compared on E types.
# The fundamentals of E8 k=32, omega_1 and omega_8, come to 494,760 dimension-root
# pairs: the largest E8 table fusion.MAX_MULTIPLICITY_PAIRS admits.
E_DUMP_JOBS = {f"dump/{group}-k={k}": ["fusion", "--group", group, "--k", str(k), "--dump"]
               for group, k in (("E6", 14), ("E7", 20), ("E8", 32))}
# Every supported type, for `det --b` at the field value FROZEN draws per seed, so every
# type's ambient realization is read
DET_TYPES = [argv[2] for argv in QDIM_JOBS]
# A circle b in a and c in b, windings 2, -1 and 3, coloured omega_1, omega_rank and
# omega_1, on each type no benchmark `shadow` job folds; each link's 2 |A|^2 fusion
# coefficients lie far inside fusion.MAX_FUSION_COEFFS (A4 k=8 has the most, |A| = 35).
SHADOW_TYPES = (("A4", 8), ("C4", 7), ("D4", 8), ("D5", 10), ("E6", 14), ("F4", 12))


def _nested_link(group: str, k: int, rank: int) -> str:
    first, last = [1] + [0] * (rank - 1), [0] * (rank - 1) + [1]
    return json.dumps({"group": group, "k": k, "circles": [
        {"id": cid, "parent": parent, "winding": winding, "positive_side": "inside",
         "color": color}
        for cid, parent, winding, color in (("a", None, 2, first), ("b", "a", -1, last),
                                            ("c", "b", 3, first))]})


SHADOW_TYPE_JOBS = {f"shadow-type/{group}-k={k}": (["shadow", "link.json"], {
    "link.json": _nested_link(group, k, int(group[1:]))}) for group, k in SHADOW_TYPES}

# Large exact field values, each one field value modulo 2 in every coweight coordinate
# with a small one: alpha(b) = 10000000000000000001/3 on A1 is 5/3 modulo 4, and the G2
# value is b = (5/7, 1/11, -3/13) plus 2 * 10**19 times the coroot (3, -3, 0) of alpha_1.
# Each runs through det (with and without the quadrature), regularize and holonomy.
LARGE_FIELDS = {"A1": ("--alpha-b=10000000000000000001/3", "2"),
                "G2": ("--b=420000000000000000005/7,-659999999999999999999/11,-3/13", "1,0")}

# alpha(b) = 1/(10^15 + 1): exactly regular, so the quadrature runs, within 1e-15 of 0
NEAR_SINGULAR = ["det", "--group", "A1", "--alpha-b", "1/1000000000000001", "--diagnostics"]

# A det quadrature grid is checked, and the n of `holonomy` checked and echoed, but
# neither changes a value or the work: the constant field is integrated exactly, and
# the product is exp(A).
FREE_SIZES = {
    "det/2048x2048": ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics",
                      "--quad-res", "2048x2048"],
    "det/order-budget": ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics",
                         "--quad-res", "65536x32"],
    "det/order-digits": ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics",
                         "--quad-res", f"{10**2200}x{10**2200}"],
    "holonomy/n=65537": ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--n", "65537"],
}

# The refusal of the holonomy product at n below 1.  Then the trust boundary of
# `regularize` on one face: the last admitted stage and the first refused one on A1
# (|R+| = 1) and on E8 (|R+| = 120), where N_n |R+| sup_error first reaches 1; and its
# cutoff budget, regularize.MAX_CUTOFF_TERMS, on the five faces of REFUSAL_FILES'
# four-circle E8 link at n = 1 (2,459,400 terms), and on the 2,001 faces of its
# 2,000-circle one (984,251,880 terms), refused before any face value is converted.
# Then long numbers, each shown by its order of magnitude: an E8 level of 601 digits,
# whose alphabet enumeration stops at its budget, an A2 Weyl dimension of about
# 10^4500, more digits than `str` converts (4300), with its labels of 10^1500, the
# eight E8 labels of 10^4000, and a rank of 5,000 digits, past CPython's limit on
# int parsing, from a flag and from a link file.  Then a weight with one label on
# A2, through the default `holonomy` colour and `qdim --weight`.  Then the budget of
# Freudenthal's work, fusion.MAX_MULTIPLICITY_PAIRS: the fundamentals of the E7 k=22
# table (25,496,037 dimension-root pairs) and one E8 k=33 circle coloured omega_7
# (dim 30,380: 3,645,600 pairs).
LONG_RANK = "A" + "9" * 5000
E8_FACE = "-27/61,-24/61,0,-48/61,39/61,-58/61,46/61,-9/61"
REFUSAL_FILES = {f"e8-{n}.json": json.dumps({"group": "E8", "circles": [
    {"id": f"c{i}", "parent": None, "winding": 1, "positive_side": "inside",
     "color": [0] * 8} for i in range(n)]}) for n in (4, 2000)}
REFUSAL_FILES["long-rank.json"] = json.dumps({"group": LONG_RANK, "k": 5, "circles": []})
REFUSAL_FILES["e8-omega7.json"] = json.dumps({"group": "E8", "k": 33, "circles": [
    {"id": "a", "parent": None, "winding": 1, "positive_side": "inside",
     "color": [0, 0, 0, 0, 0, 0, 1, 0]}]})
REFUSAL_JOBS = {
    "holonomy/n=0": ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--n", "0"],
    **{f"regularize/{group}-n={n}": ["regularize", "--group", group, field, "--n", str(n)]
       for group, field, stages in (
           ("A1", "--alpha-b=2/7", (15, 16)),
           ("E8", f"--b={E8_FACE}", (13, 14)))
       for n in stages},
    "regularize/E8-cutoff-budget": ["regularize", "--n", "1", "e8-4.json",
                                    "--face-values=" + ";".join([E8_FACE] * 5)],
    "regularize/E8-2000-circles": ["regularize", "--n", "1", "e8-2000.json",
                                   "--face-values=" + ";".join([E8_FACE] * 2001)],
    "qdim/E8-level-digits": ["qdim", "--group", "E8", "--k", str(10**600)],
    "holonomy/A2-dim-digits": ["holonomy", "--group", "A2", "--b=1/3,1/5,0",
                               "--color", f"{10**1500},{10**1500}"],
    "holonomy/E8-label-digits": ["holonomy", "--group", "E8",
                                 "--b=1/3,1/5,1/7,1/11,1/13,1/17,1/19,1/23",
                                 "--color", ",".join([str(10**4000)] * 8)],
    "qdim/long-rank": ["qdim", "--group", LONG_RANK, "--k", "5"],
    "validate/long-rank": ["validate", "long-rank.json"],
    "holonomy/A2-one-label": ["holonomy", "--group", "A2", "--b=1/3,1/5,0"],
    "qdim/A2-one-label": ["qdim", "--group", "A2", "--k", "5", "--weight", "1"],
    "qdim/A1-weight-outside-alphabet": ["qdim", "--group", "A1", "--k", "4", "--weight", "5"],
    "holonomy/A1-negative-colour": ["holonomy", "--group", "A1", "--alpha-b", "1/3",
                                    "--color", "-1"],
    "fusion/E7-k=22": ["fusion", "--group", "E7", "--k", "22"],
    "shadow/E8-k=33-omega7": ["shadow", "e8-omega7.json"],
    # a refused colour, stage or n beside a field value of the wrong length: each is
    # checked first
    "holonomy/A2-colour-and-field": ["holonomy", "--group", "A2", "--b=1/3,1/5",
                                     "--color", "22,0"],
    "regularize/A1-stage-and-field": ["regularize", "--group", "A1", "--b=1/3,0,0",
                                      "--n", "0"],
    "holonomy/n-and-field": ["holonomy", "--group", "A2", "--b=1/3,1/5", "--color", "1,0",
                             "--n", "0"],
}
# `holonomy` on the E8 adjoint omega_8 (dim 248), the largest E8 colour that
# holonomy.MAX_REP_DIM admits
E8_ADJOINT_HOLONOMY = ["holonomy", "--group", "E8", f"--b={E8_FACE}",
                       "--color", "0,0,0,0,0,0,0,1", "--wind", "2"]

# Stepped fields that `regularize` admits, on rank > 1: the five faces of REFUSAL_FILES'
# four-circle E8 link at n = 4, inside the trust bound and the cutoff budget (E8_FACE
# is regular, but a root pairing within 3/122 of an integer takes the indicator to 0.0
# and the bound to null), and the three faces of a G2 circle nested in another at
# n = 6, the middle face, of chi = 0, at the singular value 0.
STEPPED_FILES = {"e8-4.json": REFUSAL_FILES["e8-4.json"],
                 "g2-nested.json": json.dumps({"group": "G2", "circles": [
                     {"id": cid, "parent": parent, "winding": 1, "positive_side": "inside",
                      "color": [0, 0]} for cid, parent in (("a", None), ("b", "a"))]})}
STEPPED_JOBS = {
    "E8-5-faces-n=4": ["regularize", "--n", "4", "e8-4.json",
                       "--face-values=" + ";".join([E8_FACE] * 5)],
    "G2-nested-n=6": ["regularize", "--n", "6", "g2-nested.json",
                      "--face-values=5/7,1/11,-3/13;0,0,0;1/3,-1/5,2/9"],
}

# The CLI's other error paths, and its --config reading, which no job above reaches:
# argparse usage errors, flags that exclude or need each other, a singular field, a
# missing group, level or field value, the `regularize` stage index 0 on a constant
# field and 0 and 20 (past CUTOFF_SUP_ERRORS) on a link file with valid face values,
# input files that cannot be read, are not JSON or nest too deeply, an --output path
# that cannot be written, and a level, stage index, n or chi of 4,001 digits (the
# `error/long/` jobs).
BIG = str(10**4000)
ERROR_FILES = {
    "link.json": json.dumps({"group": "A1", "k": 4, "circles": [
        {"id": "a", "parent": None, "winding": 1, "positive_side": "inside", "color": [1]}]}),
    "big-k.json": json.dumps({"group": "A2", "k": 10**4000, "circles": []}),
    "not-json.json": "{",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "config.json": json.dumps({"group": "A1", "alpha-b": "1/3", "diagnostics": True}),
    "config-list.json": "[]",
    "config-null.json": json.dumps({"group": None}),
}
A1_FIELD = ["--group", "A1", "--alpha-b", "1/3"]
ERROR_JOBS = {
    "config/det": ["det", "--config", "config.json", "--quad-res", "8x16"],
    "config/not-an-object": ["det", "--config", "config-list.json"],
    "config/null-value": ["det", "--config", "config-null.json"],
    "config/unreadable": ["det", "--config", "missing.json"],
    "usage/unknown-flag": ["det", *A1_FIELD, "--bogus"],
    "usage/bad-int": ["qdim", "--group", "A1", "--k", "four"],
    "usage/bad-rational": ["det", "--group", "A1", "--alpha-b", "1/0"],
    "usage/bad-grid": ["det", *A1_FIELD, "--diagnostics", "--quad-res", "8by16"],
    "usage/bad-labels": ["qdim", "--group", "A2", "--k", "5", "--weight", "1,x"],
    "usage/b-and-alpha-b": ["det", *A1_FIELD, "--b=1/3,0"],
    "usage/shadow-without-input": ["shadow"],
    # a first word that names no command, so the CLI builds every subcommand's parser
    "usage/no-command": [],
    "usage/unknown-command": ["shadw", "link.json"],
    "usage/version": ["--version"],
    "usage/option-before-command": ["--group", "A1", "qdim"],
    "det/singular-alpha-b": ["det", "--group", "A1", "--alpha-b", "1"],
    "det/singular-b": ["det", "--group", "A2", "--b=1/3,1/3,-2/3"],
    "det/quad-res-alone": ["det", *A1_FIELD, "--quad-res", "8x16"],
    "det/diagnostics-chi-3": ["det", *A1_FIELD, "--diagnostics", "--chi", "3"],
    "det/alpha-b-on-A2": ["det", "--group", "A2", "--alpha-b", "1/3"],
    "det/no-group": ["det", "--alpha-b", "1/3"],
    "det/no-field": ["det", "--group", "A1"],
    "qdim/no-k": ["qdim", "--group", "A1"],
    "regularize/face-values-without-link": ["regularize", *A1_FIELD, "--face-values", "1/3"],
    "regularize/link-with-b": ["regularize", "link.json", "--b=1/3,0", "--face-values",
                               "1/3,0;1/5,0"],
    "regularize/link-without-face-values": ["regularize", "link.json"],
    "regularize/n=0": ["regularize", *A1_FIELD, "--n", "0"],
    **{f"regularize/link-n={n}": ["regularize", "link.json", "--face-values",
                                  "1/4,-1/4;1/6,-1/6", "--n", str(n)] for n in (0, 20)},
    "regularize/link-too-few-face-values": ["regularize", "link.json", "--face-values",
                                            "1/4,-1/4"],
    "regularize/link-too-many-face-values": ["regularize", "link.json", "--face-values",
                                             "1/4,-1/4;1/6,-1/6;1/5,-1/5"],
    "fusion/no-dump": ["fusion", "--group", "A1", "--k", "4"],
    "fusion/text-without-dump": ["fusion", "--group", "A1", "--k", "4", "--format", "text"],
    "input/unreadable": ["shadow", "missing.json"],
    "input/not-json": ["shadow", "not-json.json"],
    "input/too-deep": ["validate", "deep.json"],
    "output/unwritable": ["qdim", "--group", "A1", "--k", "4", "--output", "no-dir/out.json"],
    "long/qdim-k": ["qdim", "--group", "E8", "--k", BIG],
    "long/qdim-negative-k": ["qdim", "--group", "E8", "--k", "-" + BIG],
    "long/fusion-k": ["fusion", "--group", "A2", "--k", BIG],
    "long/shadow-k": ["shadow", "big-k.json"],
    "long/validate-k": ["validate", "big-k.json"],
    "long/regularize-n": ["regularize", *A1_FIELD, "--n", BIG],
    "long/regularize-negative-n": ["regularize", *A1_FIELD, "--n", "-" + BIG],
    "long/det-chi": ["det", *A1_FIELD, "--chi", BIG],
    "long/det-diagnostics-chi": ["det", *A1_FIELD, "--diagnostics", "--chi", BIG],
    "long/holonomy-negative-n": ["holonomy", *A1_FIELD, "--n", "-" + BIG],
}


def _circle(cid="a", parent=None, **fields):
    return {"id": cid, "parent": parent, "winding": 1, "positive_side": "inside",
            "color": [1], **fields}


# One A1 link document per report code of `validate`, two that mix codes, so that a
# change in the order of the checks shows, and one per other parse problem of
# `read_link` and per other refusal of `build_diagram`.
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
    "not-object": [_circle()],
    "unknown-key": {"group": "A1", "k": 4, "circles": [_circle()], "framing": 0},
    "group-not-string": {"group": 1, "k": 4, "circles": [_circle()]},
    "no-group": {"k": 4, "circles": [_circle()]},
    "k-not-integer": {"group": "A1", "k": 4.5, "circles": [_circle()]},
    "circles-not-array": {"group": "A1", "k": 4, "circles": {"a": _circle()}},
    "circle-not-object": {"group": "A1", "k": 4, "circles": [_circle(), "b"]},
    "color-not-integer": {"group": "A1", "k": 4, "circles": [_circle(color=[1.5])]},
    "duplicate-ids": {"group": "A1", "k": 4, "circles": [_circle(), _circle(color=[2])]},
    "dangling-parent": {"group": "A1", "k": 4, "circles": [_circle(parent="z")]},
}
# A one-circle link whose level has 5001 digits, past CPython's limit on int parsing;
# json.dumps refuses such an int, so the document is written as text.
HUGE_K_LINK = json.dumps({"group": "A1", "k": 0, "circles": [_circle()]}).replace(
    '"k": 0', '"k": 1' + "0" * 5000)
# An A2 link whose level has 2201 digits: it parses, and its alphabet refusal names
# the level by its order of magnitude.
BIG_K_LINK = json.dumps({"group": "A2", "k": 10**2200, "circles": []})

# One job per open defect, named by the ROADMAP item that mends it, so the change that
# mends one re-records exactly its line: a float printed for an exact value (item 4)
# and a rank the type table does not reach (item 10).
DEFECT_FILES = {f"{group.lower()}-unknot.json": json.dumps(
    {"group": group, "k": k, "circles": [_circle(color=color)]})
    for group, k, color in (("A1", 4, [1]), ("G2", 40, [0, 0]))}
DEFECT_JOBS = {
    "item-4/A1-k=4-unknot": ["shadow", "a1-unknot.json"],  # re -2.2e-16 for an exact 0
    "item-4/G2-k=40-unknot": ["shadow", "g2-unknot.json"],  # im -2.5e-4 beside re 1.1e12
    "item-4/qdim-A1-k=3": ["qdim", "--group", "A1", "--k", "3"],  # 1.0000000000000002 for 1
    "item-10/qdim-A9-k=12": ["qdim", "--group", "A9", "--k", "12"],  # refused: rank 9
}


def malformed_jobs() -> list[tuple[str, list[str], dict[str, str]]]:
    """Each MALFORMED_LINKS document, HUGE_K_LINK and BIG_K_LINK through shadow,
    validate and regularize; regularize gets one A1 field value per face."""
    jobs = []
    links = {name: (json.dumps(doc), len(doc["circles"]) if isinstance(doc, dict)
                    and isinstance(doc.get("circles"), list) else 0)
             for name, doc in MALFORMED_LINKS.items()}
    links["huge-k"] = (HUGE_K_LINK, 1)
    links["big-k"] = (BIG_K_LINK, 0)
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
    for argv in FROZEN["probe_jobs"]:
        jobs += _with_file_jobs(f"probe/{argv[0]}", argv, FROZEN["probe_files"])
    for workload, cycles in FROZEN["workloads"].items():
        for seed in seeds:
            for job in cycles[str(seed)]:
                jobs += _with_file_jobs(f"{workload}/{seed}/{job['slot']}", job["argv"],
                                        job["files"])
    for seed in seeds:
        field_b = {group: f"--b={b}" for group, b in FROZEN["field_b"][str(seed)].items()}
        for group, color in FIELD_JOBS:
            b = field_b[group]
            det = ["det", "--group", group, b, "--diagnostics", "--quad-res", "32x64"]
            hol = ["holonomy", "--group", group, b, "--color", color, "--wind", "2"]
            jobs += [(f"field/{seed}/det/{group}", det, {}),
                     (f"field/{seed}/holonomy/{group}", hol, {})]
        jobs += [(f"det/{seed}/{group}", ["det", "--group", group, field_b[group]], {})
                 for group in DET_TYPES]
    if seeds:
        jobs += [(f"qdim/{argv[2]}", argv, {}) for argv in QDIM_JOBS]
        jobs += [(name, argv, {}) for name, argv in HIGH_RANK_QDIM_JOBS.items()]
        jobs += [(name, argv, {}) for name, argv in VERIFY_JOBS.items()]
        jobs += [(name, argv, {}) for name, argv in E_DUMP_JOBS.items()]
        jobs.append(("holonomy/E8-adjoint", E8_ADJOINT_HOLONOMY, {}))
        # a singular constant field: a finite stage beside "singular": true and a null bound
        jobs.append(("regularize/A1-singular",
                     ["regularize", "--group", "A1", "--alpha-b", "1", "--n", "4"], {}))
        for group, (field, color) in LARGE_FIELDS.items():
            at = ["--group", group, field]
            jobs += [(f"large/{group}/det", ["det", *at], {}),
                     (f"large/{group}/det --diagnostics",
                      ["det", *at, "--diagnostics", "--quad-res", "32x64"], {}),
                     (f"large/{group}/regularize", ["regularize", *at, "--n", "6"], {}),
                     (f"large/{group}/holonomy",
                      ["holonomy", *at, "--color", color, "--wind", "3", "--n", "16"], {})]
        for name, (argv, files) in SHADOW_TYPE_JOBS.items():
            jobs += _with_file_jobs(name, argv, files)
        jobs.append(("near-singular/A1/det --diagnostics", NEAR_SINGULAR, {}))
        jobs += [(f"free/{name}", argv, {}) for name, argv in FREE_SIZES.items()]
        jobs += [(f"refusal/{name}", argv, REFUSAL_FILES) for name, argv in REFUSAL_JOBS.items()]
        jobs += [(f"stepped/{name}", argv, STEPPED_FILES) for name, argv in STEPPED_JOBS.items()]
        jobs += [(f"error/{name}", argv, ERROR_FILES) for name, argv in ERROR_JOBS.items()]
        jobs += [(f"defect/{name}", argv, DEFECT_FILES) for name, argv in DEFECT_JOBS.items()]
    return jobs + (malformed_jobs() if seeds else [])


def output_file(cwd: str, argv: list[str]) -> bytes | None:
    """The --output file a job wrote in its directory `cwd`; None if it wrote none."""
    if "--output" not in argv:
        return None
    path = Path(cwd, argv[argv.index("--output") + 1])
    return path.read_bytes() if path.exists() else None


def run(src: Path, argv: list[str], files: dict[str, str]) -> tuple[int, bytes, bytes | None]:
    """Exit code, stdout and --output file contents of one job on one tree."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "shadowsum", *argv], cwd=tmp,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
        return proc.returncode, proc.stdout, output_file(tmp, argv)


def digest(code: int, stdout: bytes, output: bytes | None) -> str:
    """sha256 of one job's exit code, stdout and --output file (None: no file)."""
    sizes = [code, len(stdout), None if output is None else len(output)]
    return hashlib.sha256(json.dumps(sizes).encode() + stdout + (output or b"")).hexdigest()


def shown_argv(argv: list[str]) -> list[str]:
    """argv as a corpus line holds it: a token of more than 60 characters (a number of
    4,001 digits, 2,001 face values) is cut to its head and its length."""
    return [t if len(t) <= 60 else f"{t[:40]}... ({len(t)} characters)" for t in argv]


def record(path: Path, src: Path, jobs: list, seeds: list[int]) -> None:
    """Write the corpus of `src`: a header line naming the Python and the C library its
    hashes hold on, then one JSON line per job holding its name, its argv (`shown_argv`)
    and the `digest` of its outputs."""
    lines = [f"# python scripts/compare_outputs.py --record FILE --seeds "
             f"{' '.join(map(str, seeds))}; Python {platform.python_version()} on "
             f"{platform.system()} {platform.machine()} with {' '.join(platform.libc_ver())}"]
    for name, job_argv, files in jobs:
        lines.append(json.dumps({"name": name, "argv": shown_argv(job_argv),
                                 "sha256": digest(*run(src, job_argv, files))}))
    path.write_text("\n".join(lines) + "\n")


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
                   help=f"seeds whose frozen jobs to run, of {' '.join(FROZEN['field_b'])}, "
                        "with every other job (default: none, the probe and help jobs only)")
    p.add_argument("--record", type=Path, metavar="FILE",
                   help="write the corpus of one tree, OLD_SRC or this checkout's src/, "
                        "to FILE instead of comparing")
    args = p.parse_args(argv)
    if args.record is not None and args.new is not None:
        p.error("--record runs one tree: give OLD_SRC alone, or no tree")
    if args.record is None and (args.old is None) != (args.new is None):
        p.error("give both OLD_SRC and NEW_SRC, or neither")
    old, new = (args.old or ROOT / "src").resolve(), (args.new or ROOT / "src").resolve()
    for tree in [old] if args.record is not None else [old, new]:
        if not (tree / "shadowsum" / "cli.py").is_file():
            p.error(f"{tree} holds no shadowsum/cli.py: give a source tree such as src/")
    for seed in args.seeds:
        if str(seed) not in FROZEN["field_b"]:
            p.error(f"tests/cli_jobs.json holds no jobs for seed {seed}: "
                    f"give seeds of {' '.join(FROZEN['field_b'])}")

    jobs = job_set(args.seeds)
    if args.record is not None:
        record(args.record, old, jobs, args.seeds)
        return 0
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
