"""Run the end-to-end benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --seconds 24 [--workloads a,b] [--out FILE]

For every workload and end-to-end metric this prints the median and the
spread (third minus first quartile, as a share of the median) over the
seeds; with --out it also writes the runs, the summary and the machine
(nproc, CPU model, Python/numpy/scipy versions, git sha) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_sha": sha}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {"machine": machine(), "seconds": args.seconds,
              "seeds": seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, s, args.seconds) for s in report["seeds"]]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            summary[name] = {"median": med, "iqr_share": iqr, "values": values}
            print(f"{workload:14s} {name:32s} median {med:12.6g}  iqr/median {iqr:7.4f}")
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
        }
        print(f"{workload:14s} correct {report['workloads'][workload]['correct']}, "
              f"{report['workloads'][workload]['failed']} of "
              f"{report['workloads'][workload]['attempted']} jobs failed", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
