"""Smoke test of the scripts: each runs to exit 0 against the current library."""

import ast
import collections
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import src_env
from shadowsum.errors import ShadowsumError, require_budget

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    """Each script exits 0 in a fresh directory, and the README's two examples print
    what they document: `sample_links.py` one |L| line per sample, each written to
    ./examples_out, and `regularization_convergence.py` the indicator of its singular
    step field, exactly 0 at every stage n = 1..8.  `compare_outputs.py` with no
    arguments compares the 16 help and probe jobs only."""
    r = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=src_env(),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    lines = r.stdout.splitlines()
    if script.name == "sample_links.py":
        samples = sorted(load_script("sample_links").SAMPLES)
        assert sorted(line.split()[0] for line in lines if "|L| =" in line) == samples
        assert sorted(p.stem for p in (tmp_path / "examples_out").glob("*.json")) == samples
    elif script.name == "regularization_convergence.py":
        assert lines[-1] == "singular step field: indicator = " + str([0.0] * 8)
    elif script.name == "compare_outputs.py":
        assert lines[-1] == "16 jobs, 0 differ"


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


CORPUS = Path(__file__).with_name("cli_outputs.jsonl")


def test_compare_outputs_runs_every_corpus_job(monkeypatch, capsys):
    """OLD_SRC NEW_SRC, with no other argument, runs every corpus job on both trees, not
    the help and probe jobs that the call with no arguments runs."""
    script = load_script("compare_outputs")
    ran = []
    monkeypatch.setattr(script, "run", lambda src, argv, files: ran.append(argv) or (0, b"", None))
    src = str(ROOT / "src")
    assert script.main([src, src]) == 0
    rows = [json.loads(line) for line in CORPUS.read_text().splitlines()[1:]]
    assert [script.shown_argv(argv) for argv in ran[::2]] == [row["argv"] for row in rows]
    assert ran[::2] == ran[1::2]
    assert capsys.readouterr().out == f"{len(rows)} jobs, 0 differ\n"


PACKAGE = ROOT / "src" / "shadowsum"
CIRCLEOP = "no command runs the circle operator; test_acceptance.py does"
CHECKED_LABELS = "a label count: every caller passes labels of the rank's length"
ORACLE = "OracleError: a broken invariant, which no input reaches on working code"
# {(module, top-level function or class): (how many of its error sites no corpus job
# reaches, why)}
UNREACHED_BY_DESIGN = {
    ("circleop", "CircleOperatorData"): (2, CIRCLEOP),
    ("circleop", "_check_series"): (1, CIRCLEOP),
    ("circleop", "circle_inverse_apply"): (1, CIRCLEOP),
    ("cli", "_emit"): (1, "a stdout that cannot be written: only a subprocess in "
                          "test_cli.py reaches it"),
    ("cli", "_exact"): (1, "an argparse.ArgumentTypeError, which argparse turns into "
                           "_ArgumentParser.error's ParseError"),
    ("kernel_cli", "_grid"): (1, "an argparse.ArgumentTypeError, read by cli._exact"),
    ("determinants", "det_rig_constant"): (1, "a singular field: cmd_det refuses it first"),
    ("field", "root_pairings"): (1, CHECKED_LABELS),
    ("holonomy", "weight_phases"): (1, CHECKED_LABELS),
    ("roots", "weyl_orbit"): (1, CHECKED_LABELS),
    ("regularize", "det_rig_n"): (1, "n < 1: require_stage refuses it first"),
    ("fusion_table", "verlinde_table"): (2, "|A|^3 coefficients, which build_fusion_table's "
                                            "budget refuses first; " + ORACLE),
    ("fusion_table", "build_fusion_table"): (2, ORACLE),
    ("fusion_table", "verify_against_verlinde"): (1, ORACLE),
    ("fusion", "fusion_matrices"): (2, ORACLE),
    ("reps", "LevelAlphabet"): (1, ORACLE),
    ("reps", "weyl_dimension"): (1, ORACLE),
    ("reps", "weight_multiplicities"): (2, ORACLE),
    ("roots", "_adjugate"): (1, ORACLE),
    ("roots", "build_root_system"): (4, ORACLE),
}


def _builds_error(node) -> bool:
    """A `raise`, a `require_budget(...)` call or a `_fail(ParseError(...))`."""
    if isinstance(node, ast.Raise):
        return True
    name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
    return name == "require_budget" or (name == "_fail" and isinstance(node.args[0], ast.Call))


def error_sites() -> dict[tuple[str, int, int], tuple[str, str]]:
    """{(module, first line, last line): (module, top-level function or class)} of each
    place in the package that builds an error; `require_budget`'s own raise is not one,
    since a refusal is charged to the line that calls it."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.stem == "errors" and getattr(top, "name", None) == "require_budget":
                continue
            for node in ast.walk(top):
                if _builds_error(node):
                    sites[path.stem, node.lineno, node.end_lineno] = (path.stem, top.name)
    return sites


def test_outputs_match_the_recorded_corpus(tmp_path, monkeypatch, capsys):
    """Every comparison job of `compare_outputs.py`, run in process through `cli.main`,
    has the exit code, stdout and --output bytes the corpus recorded for it.

    A change of documents by design re-records the corpus (`compare_outputs.py --record
    tests/cli_outputs.jsonl`); the header names the Python and libc the hashes were
    taken on.  COLUMNS=80 wraps `--help` as in a job, whose stdout is a pipe.

    While the jobs run, each ShadowsumError records the line that builds it (for a
    `require_budget` refusal, the line that calls it), and every `error_sites` entry
    that no job reaches is one that UNREACHED_BY_DESIGN counts: so no refusal the CLI
    can reach goes unpinned, and a site a new job reaches leaves the list."""
    from shadowsum import cli

    built = set()

    def record_site(self, *args):
        frame = sys._getframe(1)
        if frame.f_code is require_budget.__code__:
            frame = frame.f_back
        path = Path(frame.f_code.co_filename)
        if path.parent == PACKAGE:
            built.add((path.stem, frame.f_lineno))
        Exception.__init__(self, *args)

    monkeypatch.setattr(ShadowsumError, "__init__", record_site)
    script = load_script("compare_outputs")
    header, *lines = CORPUS.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    jobs = {name: (argv, files) for name, argv, files in script.job_set()}
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

    unreached = collections.defaultdict(list)
    for (module, first, last), where in sorted(error_sites().items()):
        if not any(m == module and first <= line <= last for m, line in built):
            unreached[where].append(f"{module}.py:{first}")
    allowed = {where: n for where, (n, _) in UNREACHED_BY_DESIGN.items()}
    wrong = [f"{'.'.join(where)}: {unreached[where]}, {allowed.get(where, 0)} allowed"
             for where in sorted(unreached.keys() | allowed.keys())
             if len(unreached[where]) != allowed.get(where, 0)]
    assert not wrong, "unreached error sites against UNREACHED_BY_DESIGN:\n" + "\n".join(wrong)
