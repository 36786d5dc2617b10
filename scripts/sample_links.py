#!/usr/bin/env python3
"""Compute shadow invariants for a few sample link diagrams end to end.

Writes the link files under ./examples_out/ and evaluates each with the
library, read through `read_link` as `shadowsum shadow` reads the same files.
"""

import json
import pathlib

from shadowsum.diagrams import contract_state_sum, prepare_terms, read_link

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
        link, problems = read_link(doc)
        if problems:
            raise SystemExit(f"{name}: {problems[0]['message']}")
        _, alphabet, diagram = link
        r = contract_state_sum(prepare_terms(diagram, alphabet))
        print(f"{name:<22} {doc['group']} k={doc['k']}  |L| = "
              f"{r.value.real:+.9f} {r.value.imag:+.9f}i   "
              f"({r.colorings_retained}/{r.colorings_total} colorings kept)  -> {path}")


if __name__ == "__main__":
    main()
