"""Smoke test of the scripts: each runs to exit 0 against the current library."""

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    r = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=src_env(),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]


def load_script(name):
    """Import a script as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reads_no_benchmark_code(monkeypatch):
    """The corpus's jobs are the script's own and tests/cli_jobs.json's, so an edit of
    the benchmark moves none: loading the script puts no bench/ directory on sys.path
    and imports no `workloads`."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    load_script("compare_outputs")
    assert not [entry for entry in sys.path if Path(entry).name == "bench"]
    assert "workloads" not in sys.modules


def test_max_numeric_diff():
    diff = load_script("compare_outputs").max_numeric_diff
    old = b'{"closed_form": {"re": 0.5, "im": 1.0}, "n": 3, "terms": [{"t": 1}, {"t": 2}]}'
    assert diff(old, old) is None
    new = b'{"closed_form": {"re": 0.5000000000000001, "im": 1.0}, "n": 3, "terms": [{"t": 1}, {"t": 2}]}'
    assert diff(old, new) == (1.1102230246251565e-16, "closed_form.re")
    new = b'{"closed_form": {"re": 0.5, "im": 1.0}, "n": 4, "terms": [{"t": 1}, {"t": -2}]}'
    assert diff(old, new) == (4, "terms[1].t")
    assert diff(b'[{"a": 1.5}]', b'[{"a": 1.0}]') == (0.5, "[0].a")
    # strings, bools, missing paths, absent or non-JSON documents carry no numeric difference
    assert diff(b'{"a": "x", "ok": true}', b'{"a": "y", "ok": false, "b": 1}') is None
    assert diff(b'lam mu nu 1', b'lam mu nu 2') is None
    assert diff(b'{"a": 1}', None) is None


def test_max_relative_diff():
    """A move in a small value reads as its relative size, which the absolute
    difference hides; a {re, im} pair is scaled by its modulus."""
    script = load_script("compare_outputs")
    old, new = b'{"det": 6.6e-118, "k": 4}', b'{"det": 6.60000000012e-118, "k": 4}'
    delta, path = script.max_numeric_diff(old, new)
    assert path == "det" and abs(delta - 1.2e-128) < 1e-133
    rel, path = script.max_relative_diff(old, new)
    assert path == "det" and abs(rel - 1.82e-11) < 1e-13
    assert script.max_relative_diff(old, old) is None
    assert script.max_relative_diff(b'{"a": -2, "b": 1}', b'{"a": 2, "b": 1.5}') == (2.0, "a")
    assert script.max_relative_diff(b'lam mu nu 1', b'lam mu nu 2') is None
    # holonomy/E7: an im of 4.4e-16 that becomes 0.0 beside an re of about 1 is scaled
    # by the pair's modulus; a real leaf that becomes 0 still reads 1
    old = b'{"product_trace": {"re": 0.9999999999999998, "im": 4.440892098500626e-16}, "n": 16}'
    new = b'{"product_trace": {"re": 0.9999999999999998, "im": 0.0}, "n": 16}'
    rel, path = script.max_relative_diff(old, new)
    assert path == "product_trace.im" and abs(rel - 4.44e-16) < 1e-18
    assert script.max_relative_diff(b'{"re": 1.0, "im": 3e-16}', b'{"re": 1.0, "im": 0.0}') \
        == (3e-16, "im")
    assert script.max_relative_diff(b'{"x": {"im": 1e-16}}', b'{"x": {"im": 0.0}}') \
        == (1.0, "x.im")


@pytest.mark.parametrize("argv", [["{missing}", "{src}"], ["--record", "{corpus}", "{missing}"]],
                         ids=["compare", "record"])
def test_compare_outputs_refuses_a_tree_without_the_package(tmp_path, capsys, argv):
    """A tree that holds no shadowsum/cli.py is a usage error (exit 2) before any job
    runs, so it is neither reported as differing everywhere nor recorded as a corpus
    of failures."""
    script = load_script("compare_outputs")
    paths = {"missing": tmp_path / "no-such-dir", "src": ROOT / "src",
             "corpus": tmp_path / "corpus.jsonl"}
    with pytest.raises(SystemExit) as e:
        script.main([arg.format(**paths) for arg in argv])
    assert e.value.code == 2
    assert f"{paths['missing']} holds no shadowsum/cli.py" in capsys.readouterr().err
    assert not paths["corpus"].exists()


@pytest.mark.parametrize("argv", [["{src}", "{src}", "--seeds", "1", "3"],
                                  ["--record", "{corpus}", "--seeds", "3"]],
                         ids=["compare", "record"])
def test_compare_outputs_refuses_a_seed_without_frozen_jobs(tmp_path, capsys, monkeypatch, argv):
    """Only the seeds tests/cli_jobs.json holds jobs for can be run: any other is a usage
    error (exit 2) before any job runs, and no corpus is written."""
    script = load_script("compare_outputs")
    monkeypatch.setattr(script, "run", lambda *job: pytest.fail(f"a job ran: {job}"))
    paths = {"src": ROOT / "src", "corpus": tmp_path / "corpus.jsonl"}
    with pytest.raises(SystemExit) as e:
        script.main([arg.format(**paths) for arg in argv])
    assert e.value.code == 2
    assert "holds no jobs for seed 3" in capsys.readouterr().err
    assert not paths["corpus"].exists()


CORPUS = Path(__file__).with_name("cli_outputs.jsonl")


def test_outputs_match_the_recorded_corpus(tmp_path, monkeypatch, capsys):
    """Every comparison job of `compare_outputs.py --seeds 1 2`, run in process through
    `cli.main`, has the exit code, stdout and --output bytes the corpus recorded for it.

    A change of documents by design re-records the corpus (`compare_outputs.py --record
    tests/cli_outputs.jsonl --seeds 1 2`); the header names the Python and libc the
    hashes were taken on.  COLUMNS=80 wraps `--help` as in a job, whose stdout is a pipe."""
    from shadowsum import cli

    script = load_script("compare_outputs")
    header, *lines = CORPUS.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    jobs = {name: (argv, files) for name, argv, files in script.job_set([1, 2])}
    assert [row["name"] for row in rows] == list(jobs), "the job set moved: re-record"
    monkeypatch.setenv("COLUMNS", "80")
    moved = []
    for row in rows:
        argv, files = jobs[row["name"]]
        assert row["argv"] == script.shown_argv(argv), f"{row['name']}: re-record"
        with tempfile.TemporaryDirectory(dir=tmp_path) as cwd:
            for name, text in files.items():
                Path(cwd, name).write_text(text)
            monkeypatch.chdir(cwd)
            try:
                code = cli.main(argv)
            except SystemExit as e:  # --help and --version
                code = e.code or 0
            out = capsys.readouterr().out.encode()
            if script.digest(code, out, script.output_file(cwd, argv)) != row["sha256"]:
                moved.append(f"{row['name']}: {' '.join(row['argv'])}")
            monkeypatch.chdir(tmp_path)
    assert not moved, f"{len(moved)} jobs differ from the corpus ({header[2:]}):\n" + \
        "\n".join(moved)
