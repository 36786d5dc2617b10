#!/usr/bin/env python3
"""Compute shadow invariants for a few sample link diagrams end to end.

Writes the link files under ./examples_out/ and evaluates each with the
library (the same files work with `shadowsum shadow`).
"""

import json
import pathlib

from shadowsum.diagrams import build_diagram, contract_state_sum
from shadowsum.reps import level_alphabet
from shadowsum.roots import build_root_system

SAMPLES = {
    "empty": {"group": "A1", "k": 4, "circles": []},
    "unknot_wind1": {
        "group": "A1", "k": 4,
        "circles": [
            {"id": "c", "parent": None, "winding": 1,
             "positive_side": "inside", "color": [1]},
        ],
    },
    "hopf_like_nested": {
        "group": "A1", "k": 5,
        "circles": [
            {"id": "a", "parent": None, "winding": 2,
             "positive_side": "inside", "color": [1]},
            {"id": "b", "parent": "a", "winding": -1,
             "positive_side": "outside", "color": [2]},
        ],
    },
    "three_component_a2": {
        "group": "A2", "k": 5,
        "circles": [
            {"id": "a", "parent": None, "winding": 1,
             "positive_side": "inside", "color": [1, 0]},
            {"id": "b", "parent": "a", "winding": 0,
             "positive_side": "inside", "color": [0, 1]},
            {"id": "c", "parent": None, "winding": -1,
             "positive_side": "outside", "color": [1, 1]},
        ],
    },
}


def main():
    outdir = pathlib.Path("examples_out")
    outdir.mkdir(exist_ok=True)
    for name, doc in SAMPLES.items():
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2))
        rs = build_root_system(doc["group"])
        alphabet = level_alphabet(rs, doc["k"])
        r = contract_state_sum(build_diagram(doc["circles"]), alphabet)
        print(f"{name:<22} {doc['group']} k={doc['k']}  |L| = "
              f"{r.value.real:+.9f} {r.value.imag:+.9f}i   "
              f"({r.colorings_retained}/{r.colorings_total} colorings kept)  -> {path}")


if __name__ == "__main__":
    main()
