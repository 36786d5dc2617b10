"""Record the reference values the benchmark checks against.

    python3 bench/record_refs.py        # from the repository root

Runs the CLI of the checkout once per recorded input and writes
bench/references.json.  Shadow references carry sum|term| (from
--diagnostics) so that the check tolerance can be stated relative to it.
The references were recorded once; a change that claims a speed-up must not
re-record them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "references.json"
WORK = ROOT / ".bench_work" / "record"


def cli(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "shadowsum", *argv], cwd=WORK, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def shadow_ref(task) -> tuple[str, dict]:
    workload, (name, group, k, parents, colors, sides), variant, windings = task
    n = len(parents)
    doc = wl.link_document(group, k, parents, colors, sides, windings,
                           [f"c{i}" for i in range(n)], list(range(n)), False)
    path = WORK / f"{workload}-{name}-{variant}.json"
    path.write_text(json.dumps(doc))
    out = json.loads(cli(["shadow", "--diagnostics", path.name]))
    abs_sum = sum(abs(complex(t["term"]["re"], t["term"]["im"])) for t in out["terms"])
    return f"{workload}/{name}/{variant}", {
        "re": out["value"]["re"], "im": out["value"]["im"], "abs_sum": abs_sum,
    }


def export_ref(task) -> tuple[str, dict]:
    group, k, is_qdim = task
    key = f"fusion_export/{group}k{k}"
    if is_qdim:
        out = json.loads(cli(["qdim", "--group", group, "--k", str(k)]))
        return key, {"qdims": [[q["weight"], q["qdim"]] for q in out["qdims"]]}
    entries = checks.fusion_entries(cli(["fusion", "--group", group, "--k", str(k),
                                         "--dump", "--verify"]), "json")
    return key, {"nonzero": len(entries), "digest": checks.fusion_digest(entries)}


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    shadow_tasks = [
        (workload, slot, v, windings)
        for workload, slots in (("statesum_deep", wl.STATESUM_SLOTS),
                                ("fusion_wide", wl.FUSION_WIDE_SLOTS))
        for slot in slots
        for v, windings in enumerate(wl.winding_pool(slot[0], len(slot[3])))
    ]
    export_tasks = [(g, k, tail is None) for _, groups, k, tail in wl.EXPORT_SLOTS for g in groups]
    refs = {}
    with ThreadPoolExecutor(max_workers=2) as ex:
        refs.update(ex.map(shadow_ref, shadow_tasks))
        refs.update(ex.map(export_ref, export_tasks))
    OUT.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    print(f"wrote {len(refs)} references to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
