"""Seeded job generator for the shadowsum CLI benchmark.

A workload is a fixed cycle of slots, sized so that one cycle takes about
12 s on a 2-core Xeon VM and a 25 s run holds two whole cycles.  Each slot fixes everything that sets
the cost of a job (group, level, forest shape, colours, grid size, stage,
representation), so every seed gives the same amount of work.  The seed picks
what does not change the cost:

* `shadow` jobs: one of VARIANTS recorded winding vectors, circle ids, the
  order of circles in the file, and a global orientation flip (every
  positive_side flipped and every winding negated, which leaves the invariant
  unchanged);
* `fusion` jobs: B2 or C2 where the slot allows both, and stdout or --output;
* kernel jobs: the field values, windings and stepped-field face values.

Nothing here imports the program: the generated files and flags are all the
program sees.  `make_jobs` is pure; the same (workload, seed) gives
byte-identical files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

VARIANTS = 6  # recorded winding vectors per shadow slot

# -- shadow slots ---------------------------------------------------------------
# (name, group, k, parents, colours, positive sides); parents index earlier circles.

_I, _O = "inside", "outside"

STATESUM_SLOTS = [
    ("a1k10_chain8", "A1", 10, [None, 0, 1, 2, 3, 4, 5, 6], [[2]] * 8,
     [_I, _O, _I, _I, _O, _I, _O, _I]),
    ("a1k10_flat7", "A1", 10, [None] * 7, [[2]] * 7,
     [_I, _I, _O, _I, _O, _O, _I]),
    ("a1k10_mixed8", "A1", 10, [None, 0, 0, 1, None, 4, 4, 6],
     [[1], [2], [3], [1], [2], [1], [2], [2]], [_I, _O, _I, _I, _O, _I, _I, _O]),
    ("a1k12_chain7", "A1", 12, [None, 0, 1, 2, 3, 4, 5], [[2]] * 7,
     [_O, _I, _I, _O, _I, _O, _I]),
    ("a1k12_mixed7", "A1", 12, [None, 0, 1, None, 3, 3, 5],
     [[1], [3], [2], [2], [1], [4], [2]], [_I, _I, _O, _I, _O, _I, _I]),
    ("b2k7_chain6", "B2", 7, [None, 0, 1, 2, 3, 4], [[1, 0]] * 6,
     [_I, _O, _I, _O, _I, _I]),
    ("b2k7_mixed6", "B2", 7, [None, 0, 0, None, 3, 4],
     [[1, 0], [0, 1], [1, 0], [0, 2], [1, 0], [0, 1]], [_I, _I, _O, _I, _O, _I]),
    ("b2k7_flat5", "B2", 7, [None] * 5,
     [[0, 1], [1, 0], [0, 1], [0, 2], [0, 1]], [_O, _I, _I, _O, _I]),
]

FUSION_WIDE_SLOTS = [
    ("a2k12_mixed3", "A2", 12, [None, 0, None], [[1, 0], [0, 1], [1, 1]], [_I, _O, _I]),
    ("c3k7_chain2", "C3", 7, [None, 0], [[1, 0, 0], [0, 1, 0]], [_I, _I]),
    ("g2k11_chain3", "G2", 11, [None, 0, 1], [[1, 0], [0, 1], [1, 0]], [_I, _O, _I]),
    ("b2k9_mixed3", "B2", 9, [None, 0, None], [[1, 0], [0, 1], [0, 2]], [_O, _I, _I]),
    ("a3k8_chain2", "A3", 8, [None, 0], [[1, 0, 0], [0, 1, 0]], [_I, _O]),
    ("g2k10_mixed4", "G2", 10, [None, 0, 1, None], [[1, 0], [0, 1], [1, 0], [1, 0]],
     [_I, _O, _I, _O]),
    ("a2k11_chain2", "A2", 11, [None, 0], [[1, 0], [1, 0]], [_O, _I]),
    ("b3k8_chain2", "B3", 8, [None, 0], [[1, 0, 0], [0, 0, 1]], [_I, _I]),
]

# -- fusion_export slots: (name, group choices, k, argv tail) -------------------

EXPORT_SLOTS = [
    ("b2k8_json", ("B2", "C2"), 8, ["--dump", "--verify"]),
    ("g2k10_json", ("G2",), 10, ["--dump", "--verify"]),
    ("a1k30_text", ("A1",), 30, ["--dump", "--format", "text", "--verify"]),
    ("e6k16_qdim", ("E6",), 16, None),
    ("a2k9_json", ("A2",), 9, ["--dump", "--verify"]),
    ("b3k7_text", ("B3",), 7, ["--dump", "--format", "text", "--verify"]),
    ("f4k14_qdim", ("F4",), 14, None),
    ("a3k7_json", ("A3",), 7, ["--dump", "--verify"]),
]

# -- kernel slots ---------------------------------------------------------------

KERNEL_SLOTS = [
    ("det_a1_512", "det", {"group": "A1", "quad_res": "512x1024"}),
    ("det_a1_256", "det", {"group": "A1", "quad_res": "256x512"}),
    ("det_e8_128", "det", {"group": "E8", "quad_res": "128x256"}),
    ("reg_const_n8", "regularize", {"n": 8}),
    ("reg_const_n14", "regularize", {"n": 14}),
    ("reg_step_n12", "regularize", {"n": 12, "circles": 4}),
    ("hol_a1_dim2", "holonomy", {"group": "A1", "color": "1", "dim": 2, "n": 4096}),
    ("hol_b2_dim16", "holonomy", {"group": "B2", "color": "1,1", "dim": 16, "n": 2048}),
    ("hol_g2_dim64", "holonomy", {"group": "G2", "color": "1,1", "dim": 64, "n": 1024}),
    ("hol_a2_dim27", "holonomy", {"group": "A2", "color": "2,2", "dim": 27, "n": 2048}),
]

WORKLOADS = ("statesum_deep", "fusion_wide", "fusion_export", "kernels")

# Ambient dimension of the groups used with --b.
_AMBIENT = {"A2": 3, "B2": 2, "G2": 3, "E8": 8}
_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def winding_pool(slot: str, n_circles: int) -> list[list[int]]:
    """The VARIANTS winding vectors recorded for one shadow slot."""
    out = []
    for v in range(VARIANTS):
        rnd = random.Random(f"windings:{slot}:{v}")
        out.append([rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n_circles)])
    return out


def link_document(group, k, parents, colors, sides, windings, ids, order, flip):
    """A link file: circle i gets id ids[i]; circles are listed in `order`."""
    circles = []
    for i in order:
        side = sides[i]
        wind = windings[i]
        if flip:
            side = _O if side == _I else _I
            wind = -wind
        circles.append({
            "id": ids[i],
            "parent": None if parents[i] is None else ids[parents[i]],
            "winding": wind,
            "positive_side": side,
            "color": list(colors[i]),
        })
    return {"group": group, "k": k, "circles": circles}


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _ids(rnd: random.Random, n: int) -> list[str]:
    ids: list[str] = []
    while len(ids) < n:
        s = "".join(rnd.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
        if s not in ids:
            ids.append(s)
    return ids


def _shadow_jobs(slots, workload: str, rnd: random.Random) -> list[dict]:
    jobs = []
    for name, group, k, parents, colors, sides in slots:
        n = len(parents)
        variant = rnd.randrange(VARIANTS)
        windings = winding_pool(name, n)[variant]
        order = list(range(n))
        rnd.shuffle(order)
        flip = rnd.random() < 0.5
        doc = link_document(group, k, parents, colors, sides, windings,
                            _ids(rnd, n), order, flip)
        path = f"{name}.json"
        jobs.append({
            "slot": name,
            "argv": ["shadow", path],
            "files": {path: _dump(doc)},
            "check": {"kind": "shadow", "ref": f"{workload}/{name}/{variant}"},
        })
    return jobs


def _export_jobs(rnd: random.Random) -> list[dict]:
    jobs = []
    for name, groups, k, tail in EXPORT_SLOTS:
        group = rnd.choice(groups)
        ref = f"fusion_export/{group}k{k}"
        if tail is None:
            jobs.append({
                "slot": name,
                "argv": ["qdim", "--group", group, "--k", str(k)],
                "files": {},
                "check": {"kind": "qdim", "ref": ref},
            })
            continue
        argv = ["fusion", "--group", group, "--k", str(k)] + tail
        out = None
        if rnd.random() < 0.5:
            out = f"{name}.out"
            argv += ["--output", out]
        fmt = "text" if "text" in tail else "json"
        jobs.append({
            "slot": name,
            "argv": argv,
            "files": {},
            "check": {"kind": "fusion", "ref": ref, "format": fmt, "output": out},
        })
    return jobs


def _rational(rnd: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi) with a prime denominator."""
    q = rnd.choice(_PRIMES)
    p_lo = int(lo * q) + 1
    p_hi = int(hi * q - Fraction(1, 10**9))
    return Fraction(rnd.randint(p_lo, max(p_lo, p_hi)), q)


def generic_b(rnd: random.Random | int, dim: int) -> list[Fraction]:
    """Ambient coordinates with distinct prime denominators and |x| < 1/8.

    Every root pairs with such a vector to a non-integer of size below 1, so
    the field is regular.
    """
    if isinstance(rnd, int):
        rnd = random.Random(f"b:{rnd}")
    qs = rnd.sample(_PRIMES, dim)
    out = []
    for q in qs:
        p = rnd.randint(1, max(1, q // 8 - 1))
        out.append(Fraction(p if rnd.random() < 0.5 else -p, q))
    return out


def _fmt(xs) -> str:
    return ",".join(str(x) for x in xs)


def _step_forest(rnd: random.Random, n: int) -> list:
    parents: list = [None]
    for i in range(1, n):
        parents.append(rnd.choice([None] + list(range(i))))
    return parents


def face_euler_numbers(parents: list, ids: list[str]) -> list[int]:
    """Euler numbers of the faces in the documented face order.

    Faces are listed in region-tree preorder, outer face first, children by
    sorted circle id; the face inside a circle has chi = 1 - #children and the
    outer face chi = 2 - #roots.
    """
    kids: dict = {None: []}
    for i, p in enumerate(parents):
        kids.setdefault(i, [])
        kids.setdefault(p, []).append(i)
    for v in kids.values():
        v.sort(key=lambda i: ids[i])
    out = []
    stack = [None]
    while stack:
        node = stack.pop()
        out.append((2 if node is None else 1) - len(kids[node]))
        stack.extend(reversed(kids[node]))
    return out


def _kernel_jobs(rnd: random.Random) -> list[dict]:
    jobs = []
    for name, cmd, p in KERNEL_SLOTS:
        files = {}
        if cmd == "det":
            if p["group"] == "A1":
                a = _rational(rnd, Fraction(1, 10), Fraction(9, 10))
                field = ["--alpha-b", str(a)]
            else:
                field = ["--b=" + _fmt(generic_b(rnd, _AMBIENT[p["group"]]))]
            argv = ["det", "--group", p["group"], *field, "--diagnostics",
                    "--quad-res", p["quad_res"]]
            check = {"kind": "det"}
        elif cmd == "regularize" and "circles" not in p:
            a = _rational(rnd, Fraction(3, 20), Fraction(17, 20))
            argv = ["regularize", "--group", "A1", "--alpha-b", str(a), "--n", str(p["n"])]
            check = {"kind": "regularize", "n": p["n"], "alphas": [str(a)], "chis": [2]}
        elif cmd == "regularize":
            n = p["circles"]
            parents = _step_forest(rnd, n)
            ids = _ids(rnd, n)
            windings = [rnd.choice([-2, -1, 1, 2]) for _ in range(n)]
            sides = [rnd.choice([_I, _O]) for _ in range(n)]
            doc = link_document("A1", 4, parents, [[1]] * n, sides, windings,
                                ids, list(range(n)), False)
            path = f"{name}.json"
            files[path] = _dump(doc)
            # A1 ambient coordinates (x, -x) pair with the root to alpha = 2x.
            alphas = [_rational(rnd, Fraction(3, 20), Fraction(17, 20)) for _ in range(n + 1)]
            values = ";".join(f"{a / 2},{-a / 2}" for a in alphas)
            argv = ["regularize", "--group", "A1", "--n", str(p["n"]), path,
                    "--face-values", values]
            check = {"kind": "regularize", "n": p["n"], "alphas": [str(a) for a in alphas],
                     "chis": face_euler_numbers(parents, ids)}
        else:
            wind = rnd.choice([-3, -2, -1, 1, 2, 3])
            if p["group"] == "A1":
                field = ["--alpha-b", str(_rational(rnd, Fraction(1, 20), Fraction(19, 20)))]
            else:
                field = ["--b=" + _fmt(generic_b(rnd, _AMBIENT[p["group"]]))]
            argv = ["holonomy", "--group", p["group"], *field, "--color", p["color"],
                    "--wind", str(wind), "--n", str(p["n"])]
            check = {"kind": "holonomy", "dim": p["dim"]}
        jobs.append({"slot": name, "argv": argv, "files": files, "check": check})
    return jobs


def make_jobs(workload: str, seed: int) -> list[dict]:
    """One cycle of jobs, in slot order, generated from the seed."""
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "statesum_deep":
        return _shadow_jobs(STATESUM_SLOTS, workload, rnd)
    if workload == "fusion_wide":
        return _shadow_jobs(FUSION_WIDE_SLOTS, workload, rnd)
    if workload == "fusion_export":
        return _export_jobs(rnd)
    if workload == "kernels":
        return _kernel_jobs(rnd)
    raise ValueError(f"unknown workload {workload!r}")


# Small jobs run once per traced pass on every workload, so that every layer
# has a defined span and counter set whatever the workload touches.
PROBE_LINK = link_document("A1", 5, [None, 0, None], [[1], [2], [1]], [_I, _O, _I],
                           [1, -2, 1], ["p", "q", "r"], [0, 1, 2], False)
PROBE_JOBS = [
    ["shadow", "probe_link.json"],
    ["fusion", "--group", "A1", "--k", "6", "--dump", "--verify"],
    ["qdim", "--group", "A2", "--k", "6"],
    ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics", "--quad-res", "16x32"],
    ["regularize", "--group", "A1", "--alpha-b", "2/7", "--n", "3"],
    ["holonomy", "--group", "A1", "--alpha-b", "1/5", "--color", "2", "--n", "32"],
]
PROBE_FILES = {"probe_link.json": _dump(PROBE_LINK)}
