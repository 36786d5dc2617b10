"""shadowsum CLI benchmark: seeded batches of jobs, end to end or traced.

    python3 bench/run.py --workload statesum_deep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing and runs the package
under ./src.  A job is one `python3 -m shadowsum ...` process, timed from
spawn to exit.  Jobs run one at a time from this single benchmark process (a
closed loop with one client).  A run is a whole number of cycles of the
workload's slots, round(--seconds / CYCLE_S), and every output is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one cycle of the
workload plus a fixed layer probe of small jobs through bench/tracer.py, once
traced and once untraced, and prints the per-layer metrics.  Working files
go to .bench_work/ in the checkout.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
CYCLE_S = 12.0  # nominal time of one cycle of any workload on a 2-core Xeon VM
# The host probe uses none of the program: interpreter start, numpy and scipy
# imports and a dict loop, about what a job does besides its own work.  On a
# shared host its time follows the host's speed, which moved job times by up
# to 30% between runs.  HOST_PROBE_REF_S only sets the scale: a round figure
# near the probe's time on the reference VM (0.51-0.70 s, median 0.57 s).
HOST_PROBE = [sys.executable, "-c", "import numpy, scipy.linalg\nd = {}\n"
              "for i in range(20000):\n    k = i * 7919 % 200003\n    d[k] = d.get(k, 0) + i\n"]
HOST_PROBE_REF_S = 0.5
JOB_TIMEOUT_S = 60
WARMUP_ARGV = ["qdim", "--group", "A1", "--k", "4"]
LAYERS = ("cli", "roots", "reps", "fusion", "diagrams", "determinants", "regularize",
          "circleop", "holonomy")


@dataclass
class Job:
    """One finished job process."""

    wall: float
    cpu: float
    rss_mb: float
    rc: int
    output: str
    err: str


def spawn(argv: list[str], cwd: Path, env: dict) -> Job:
    """Run one process; wall time from spawn to exit, rusage of that child."""
    out_path, err_path = cwd / "job.stdout", cwd / "job.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, out_path.read_text(errors="replace"),
               err_path.read_text(errors="replace")[-2000:])


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "shadowsum", *argv]


def job_output(job: dict, finished: Job, cwd: Path) -> str:
    out = job["check"].get("output")
    return (cwd / out).read_text() if out else finished.output


def checked(job: dict, rc: int, text: str, refs: dict) -> str | None:
    """None when the job passed, else the reason it failed."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        checks.check(job, text, refs)
    except checks.CheckFailed as e:
        return str(e)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
        return f"output does not parse: {type(e).__name__}: {e}"
    return None


def set_up(root: Path, workload: str, seed: int, env: dict, attempt: int):
    """Generate the inputs, load the references, run one untimed warm-up job."""
    work = root / ".bench_work" / f"{workload}-seed{seed}-{attempt}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = wl.make_jobs(workload, seed)
    for job in jobs:
        for name, text in job["files"].items():
            (work / name).write_text(text)
    for name, text in wl.PROBE_FILES.items():
        (work / name).write_text(text)
    refs = json.loads((BENCH / "references.json").read_text())
    warm = spawn(cli_argv(WARMUP_ARGV), work, env)
    if warm.rc != 0:
        sys.exit(f"bench: warm-up job failed with status {warm.rc}: {warm.err.strip()}")
    return work, jobs, refs


def tail(walls: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples beyond it."""
    ordered = sorted(walls)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(work: Path, jobs: list[dict], refs: dict, env: dict, seconds: float,
               setup_s: float):
    """Run whole cycles of the jobs: round(seconds / CYCLE_S), enough for a tail.

    Whole cycles keep the mix of slots, and so the median and the rank of the
    tail, the same in every run.  The host probe runs before every third job;
    times are divided, and rates multiplied, by the run's host factor.
    """
    walls, cpus, rss, probes, failures = [], [], [], [], []
    cycles = max(round(seconds / CYCLE_S), -(-(TAIL_BEYOND + 1) // len(jobs)), 1)
    for i, job in enumerate(jobs * cycles):
        if i % 3 == 0:
            probes.append(spawn(HOST_PROBE, work, env).wall)
        done = spawn(cli_argv(job["argv"]), work, env)
        walls.append(done.wall)
        cpus.append(done.cpu)
        rss.append(done.rss_mb)
        why = checked(job, done.rc, job_output(job, done, work) if done.rc == 0 else "", refs)
        if why:
            failures.append(f"{job['slot']}: {why}; stderr: {done.err.strip()[-300:]}")
    host = statistics.median(probes) / HOST_PROBE_REF_S
    passed = len(walls) - len(failures)
    tail_s, tail_pct = tail(walls)
    raw = {
        "jobs_per_s": (passed / sum(walls), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "cpu_s_per_job": (statistics.median(cpus), "s"),
        "setup_s": (setup_s, "s"),
    }
    metrics = {k: (v * host if u == "1/s" else v / host, u) for k, (v, u) in raw.items()}
    metrics["peak_rss_mb"] = (max(rss), "MB")
    notes = [
        f"jobs: {len(walls)} attempted in {cycles} cycles, {len(failures)} failed, "
        f"fail_ratio {len(failures) / len(walls):.4f}",
        f"job_tail_s is the p{tail_pct:.1f} wall time of {len(walls)} samples "
        f"({TAIL_BEYOND} beyond it)",
        f"host factor {host:.4f} (median of {len(probes)} host probes / "
        f"{HOST_PROBE_REF_S} s); as measured: "
        + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()),
    ]
    return metrics, len(walls), failures, notes


def run_tracer(work: Path, src: Path, argvs: list[list[str]], traced: bool,
               circleop: bool, env: dict, tag: str) -> dict:
    spec = {"src": str(src), "traced": traced, "jobs": argvs, "circleop": circleop}
    spec_path, out_path = work / f"{tag}.spec.json", work / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    done = spawn([sys.executable, str(BENCH / "tracer.py"), str(spec_path), str(out_path)],
                 work, env)
    if done.rc != 0:
        return {"results": [{"argv": a, "rc": done.rc, "main_s": 0.0, "bytes": 0,
                             "output": "", "stderr": done.err[-300:]} for a in argvs],
                "spans": [], "counters": {}}
    return json.loads(out_path.read_text())


def layer_metrics(runs: list[dict], untraced_s: float) -> dict:
    """Self time per layer, named inclusive times, counters, tracing overhead."""
    busy = dict.fromkeys(LAYERS, 0.0)
    named = {"fusion.verlinde_s": ("verlinde_oracle", "verify_against_verlinde"),
             "fusion.qdim_s": ("quantum_dimension",),
             "regularize.cutoff_build_s": ("trig_cutoff",),
             "regularize.logpoly_build_s": ("log_poly",),
             "holonomy.closed_form_s": ("wilson_closed_form",)}
    inclusive = dict.fromkeys(named, 0.0)
    counters: dict[str, float] = {}
    emit = traced_s = 0.0
    output_bytes = 0
    for run in runs:
        spans = run["spans"]
        child_time = [0.0] * len(spans)
        last_child_end = {}
        for idx, (layer, name, parent, t0, t1) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                last_child_end[parent] = max(last_child_end.get(parent, t0), t1)
        for idx, (layer, name, parent, t0, t1) in enumerate(spans):
            busy[layer] = busy.get(layer, 0.0) + (t1 - t0) - child_time[idx]
            for key, names in named.items():
                if name in names and (parent < 0 or spans[parent][1] not in names):
                    inclusive[key] += t1 - t0
            if layer == "cli":
                emit += t1 - last_child_end.get(idx, t0)
        for key, v in run["counters"].items():
            counters[key] = max(counters.get(key, 0), v) if key.endswith("matrix_dim") \
                else counters.get(key, 0) + v
        for r in run["results"]:
            traced_s += r["main_s"]
            output_bytes += r["bytes"]

    def ratio(num: str, den: str) -> float:
        d = counters.get(den, 0)
        return counters.get(num, 0) / d if d else 0.0

    m = {f"{layer}.busy_s": (busy[layer], "s") for layer in LAYERS}
    m.update({k: (v, "s") for k, v in inclusive.items()})
    m["cli.emit_s"] = (emit, "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    for key in ("reps.alphabet_size", "reps.weights", "fusion.triples", "fusion.folds",
                "diagrams.faces", "diagrams.colorings_total", "diagrams.colorings_retained",
                "determinants.quad_nodes", "regularize.cells", "holonomy.factors",
                "holonomy.matrix_dim", "circleop.coeffs"):
        m[key] = (counters.get(key, 0), "count")
    m["reps.mult_cache_hit_ratio"] = (ratio("reps.mult_hits", "reps.mult_calls"), "ratio")
    m["fusion.nonzero_ratio"] = (ratio("fusion.nonzero", "fusion.triples"), "ratio")
    m["diagrams.retained_ratio"] = (
        ratio("diagrams.colorings_retained", "diagrams.colorings_total"), "ratio")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def traced(root: Path, work: Path, jobs: list[dict], refs: dict, env: dict):
    """One cycle plus the layer probe, traced and untraced; per-layer metrics."""
    src = root / "src"
    imports = [spawn([sys.executable, "-c", "import shadowsum.cli"], work, env).wall
               for _ in range(IMPORT_REPEATS)]
    runs, failures = [], []
    untraced_s = 0.0
    attempted = 0
    batches = [([job], False) for job in jobs] + [(None, True)]
    for n, (batch, is_probe) in enumerate(batches):
        argvs = wl.PROBE_JOBS if is_probe else [job["argv"] for job in batch]
        for mode in (True, False):
            out = run_tracer(work, src, argvs, mode, is_probe, env, f"trace{n}")
            attempted += len(out["results"])
            if mode:
                runs.append(out)
            else:
                untraced_s += sum(r["main_s"] for r in out["results"])
            for i, r in enumerate(out["results"]):
                if is_probe:
                    why = None if r["rc"] == 0 else f"exit status {r['rc']}: {r['stderr']}"
                else:
                    why = checked(batch[i], r["rc"], r["output"], refs)
                if why:
                    failures.append(f"{' '.join(r['argv'])[:60]}: {why}")
    (work / "spans.json").write_text(json.dumps([run["spans"] for run in runs]))
    metrics = layer_metrics(runs, untraced_s)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    notes = [f"traced pass: {len(jobs)} workload jobs + {len(wl.PROBE_JOBS)} layer-probe "
             f"jobs + circleop call; spans written to {work.relative_to(root)}/spans.json"]
    return metrics, attempted, failures, notes


def machine() -> str:
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    return (f"machine: nproc {os.cpu_count()}, {platform.machine()}, "
            f"python {platform.python_version()}, {', '.join(versions)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shadowsum" / "cli.py").is_file():
        print("bench: no src/shadowsum/cli.py here; run from the root of a shadowsum "
              "checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")

    setups = []
    for attempt in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work, jobs, refs = set_up(root, args.workload, args.seed, env, attempt)
        setups.append(time.perf_counter() - t0)

    if args.trace:
        metrics, attempted, failures, notes = traced(root, work, jobs, refs, env)
    else:
        metrics, attempted, failures, notes = end_to_end(work, jobs, refs, env, args.seconds,
                                                         statistics.median(setups))

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print(machine())
    for line in notes:
        print(line)
    for f in failures:
        print(f"FAILED {f}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
