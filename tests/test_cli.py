import json
import subprocess
import sys

import pytest

from conftest import src_env
from shadowsum import cli

EMPTY = {"group": "A1", "k": 4, "circles": []}
TWO_CIRCLES = {
    "group": "A1",
    "k": 5,
    "circles": [
        {"id": "a", "parent": None, "winding": 2, "positive_side": "inside", "color": [1]},
        {"id": "b", "parent": "a", "winding": -1, "positive_side": "outside", "color": [2]},
    ],
}
CYCLE = {
    "group": "A1",
    "k": 4,
    "circles": [
        {"id": "a", "parent": "b", "winding": 1, "positive_side": "inside", "color": [0]},
        {"id": "b", "parent": "a", "winding": 1, "positive_side": "inside", "color": [0]},
    ],
}
LEVEL_BOUND = {"group": "A1", "k": 2, "circles": []}
BAD_COLOR = {
    "group": "A2",
    "k": 5,
    "circles": [
        {"id": "a", "parent": None, "winding": 1, "positive_side": "inside", "color": [1]},
    ],
}


def deep_chain(n):
    """n nested circles, each colored [1], at A1 k=3."""
    return {
        "group": "A1",
        "k": 3,
        "circles": [
            {"id": f"c{i}", "parent": f"c{i - 1}" if i else None, "winding": 1,
             "positive_side": "inside", "color": [1]}
            for i in range(n)
        ],
    }


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "shadowsum", *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestShadow:
    def test_empty_link(self, tmp_path):
        path = write(tmp_path, "empty.json", EMPTY)
        r = run_cli("shadow", "--group", "A1", "--k", "4", path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["value"]["re"] == pytest.approx(4.0, abs=1e-9)
        assert doc["value"]["im"] == pytest.approx(0.0, abs=1e-9)

    def test_group_k_from_file(self, tmp_path):
        path = write(tmp_path, "empty.json", EMPTY)
        r = run_cli("shadow", path)
        assert r.returncode == 0
        assert json.loads(r.stdout)["k"] == 4

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "two.json", TWO_CIRCLES)
        outs = set()
        for _ in range(2):
            r = run_cli("shadow", path)
            assert r.returncode == 0, r.stderr
            outs.add(r.stdout)
        assert len(outs) == 1

    def test_abs_sum_bounds_value(self, tmp_path):
        path = write(tmp_path, "two.json", TWO_CIRCLES)
        doc = json.loads(run_cli("shadow", "--diagnostics", path).stdout)
        listed = sum(abs(complex(t["term"]["re"], t["term"]["im"])) for t in doc["terms"])
        assert doc["abs_sum"] == pytest.approx(listed, rel=1e-12)
        assert abs(complex(doc["value"]["re"], doc["value"]["im"])) <= doc["abs_sum"]
        assert len(doc["terms"]) == doc["retained"]

    def test_diagnostics_terms(self, tmp_path):
        path = write(tmp_path, "empty.json", EMPTY)
        r = run_cli("shadow", "--diagnostics", path)
        doc = json.loads(r.stdout)
        total = sum(t["term"]["re"] for t in doc["terms"])
        assert total == pytest.approx(doc["value"]["re"])

    def test_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        r = run_cli("shadow", str(p))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "parse"

    def test_missing_file_exit_2(self):
        r = run_cli("shadow", "/nonexistent/file.json")
        assert r.returncode == 2

    def test_level_bound_exit_3(self, tmp_path):
        path = write(tmp_path, "lb.json", LEVEL_BOUND)
        r = run_cli("shadow", path)
        assert r.returncode == 3
        assert json.loads(r.stdout)["error"]["code"] == "precondition"

    def test_assumption1_violation_exit_3(self, tmp_path):
        path = write(tmp_path, "cycle.json", CYCLE)
        r = run_cli("shadow", path)
        assert r.returncode == 3

    def test_bad_color_exit_3(self, tmp_path):
        path = write(tmp_path, "badcolor.json", BAD_COLOR)
        r = run_cli("shadow", path)
        assert r.returncode == 3

    def test_deep_chain_exit_0(self, tmp_path):
        path = write(tmp_path, "deep.json", deep_chain(1500))
        r = run_cli("shadow", path)
        assert r.returncode == 0, r.stderr[-500:]
        doc = json.loads(r.stdout)
        assert doc["retained"] == 2
        assert abs(doc["value"]["re"]) <= doc["abs_sum"]

    def test_deep_chain_diagnostics_no_traceback(self, tmp_path):
        path = write(tmp_path, "deep.json", deep_chain(1500))
        r = run_cli("shadow", "--diagnostics", path)
        assert r.returncode == 0, r.stderr[-500:]
        doc = json.loads(r.stdout)
        assert len(doc["terms"]) == doc["retained"] == 2

    def test_diagnostics_budget_exit_3(self, tmp_path):
        # 20 side-by-side circles colored [1] at A1 k=10: about 9 * 2^20 terms
        doc = {
            "group": "A1",
            "k": 10,
            "circles": [
                {"id": f"c{i}", "parent": None, "winding": 1,
                 "positive_side": "inside", "color": [1]}
                for i in range(20)
            ],
        }
        path = write(tmp_path, "wide.json", doc)
        r = run_cli("shadow", "--diagnostics", path)
        assert r.returncode == 3
        err = json.loads(r.stdout)["error"]
        assert err["code"] == "precondition" and "budget" in err["message"]
        plain = run_cli("shadow", path)
        assert plain.returncode == 0
        assert json.loads(plain.stdout)["retained"] > 10**6

    @pytest.mark.parametrize(
        "field,value",
        [
            ("color", [1.7]),
            ("color", ["1"]),
            ("color", [True]),
            ("winding", True),
            ("k", True),
        ],
    )
    def test_strict_link_types_exit_2(self, tmp_path, field, value):
        doc = json.loads(json.dumps(TWO_CIRCLES))
        if field == "k":
            doc["k"] = value
        else:
            doc["circles"][0][field] = value
        r = run_cli("shadow", write(tmp_path, "typed.json", doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "parse"


class TestFusion:
    def test_dump_has_27_entries(self):
        r = run_cli("fusion", "--group", "A1", "--k", "4", "--dump", "--verify")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert len(doc["entries"]) == 27
        assert doc["verified"] is True

    def test_text_format_lines(self):
        r = run_cli("fusion", "--group", "A1", "--k", "4", "--dump", "--format", "text")
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 27
        assert all(len(line.split()) == 4 for line in lines)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0.5"])
    def test_oracle_tol_outside_open_interval_exit_2(self, capsys, tol):
        rc, doc = run_main(capsys, "fusion", "--group", "A1", "--k", "4", "--verify",
                           "--oracle-tol", tol)
        assert rc == 2 and "--oracle-tol" in doc["error"]["message"]

    def test_oracle_failure_exit_4(self):
        r = run_cli("fusion", "--group", "A1", "--k", "4", "--verify", "--oracle-tol", "1e-30")
        assert r.returncode == 4
        assert json.loads(r.stdout)["error"]["code"] == "oracle"


class TestDetAndQdim:
    def test_det_example(self):
        r = run_cli("det", "--group", "A1", "--alpha-b", "1/2", "--chi", "2")
        doc = json.loads(r.stdout)
        assert doc["det_rig_constant"] == pytest.approx(4.0)
        assert doc["det_k"] == pytest.approx(4.0)
        assert doc["det_half"] == pytest.approx(2.0)

    def test_det_quadrature_diagnostics(self):
        r = run_cli(
            "det", "--group", "A1", "--alpha-b", "1/2", "--chi", "2",
            "--diagnostics", "--quad-res", "32x64",
        )
        doc = json.loads(r.stdout)
        assert doc["det_rig_quadrature"] == pytest.approx(4.0, abs=1e-6)

    def test_det_singular_exit_3(self):
        r = run_cli("det", "--group", "A1", "--alpha-b", "1")
        assert r.returncode == 3

    def test_singular_message_shows_rationals(self, capsys):
        rc, doc = run_main(capsys, "det", "--group", "A2", "--b", "1/3,1/3,1/3")
        msg = doc["error"]["message"]
        assert rc == 3 and "(1/3, 1/3, 1/3)" in msg and "Fraction(" not in msg

    def test_det_bad_rational_exit_2(self):
        r = run_cli("det", "--group", "A1", "--alpha-b", "zebra")
        assert r.returncode == 2

    def test_qdim_values(self):
        r = run_cli("qdim", "--group", "A1", "--k", "4")
        doc = json.loads(r.stdout)
        dims = [e["qdim"] for e in doc["qdims"]]
        assert dims == pytest.approx([1.0, 2.0**0.5, 1.0])


class TestRegularizeAndHolonomy:
    def test_regularize_constant(self):
        r = run_cli("regularize", "--group", "A1", "--alpha-b", "1/2", "--n", "4")
        doc = json.loads(r.stdout)
        assert doc["indicator"] == pytest.approx(1.0, abs=1e-6)
        assert doc["det_rig_n"]["re"] == pytest.approx(4.0, abs=0.1)

    def test_regularize_step_field(self, tmp_path):
        path = write(
            tmp_path,
            "one.json",
            {
                "group": "A1",
                "k": 4,
                "circles": [
                    {"id": "c", "parent": None, "winding": 1,
                     "positive_side": "inside", "color": [1]}
                ],
            },
        )
        r = run_cli(
            "regularize", "--group", "A1", "--n", "5", path,
            "--face-values", "1/4,-1/4;1/6,-1/6",
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["faces"] == 2
        assert doc["indicator"] == pytest.approx(1.0, abs=1e-4)

    def test_regularize_link_file_refuses_b(self, tmp_path, capsys):
        """With a link file the field comes from --face-values; --alpha-b would be ignored."""
        path = write(tmp_path, "one.json", one_circle())
        rc, doc = run_main(capsys, "regularize", "--group", "A1", "--n", "3", path,
                           "--face-values", "1/4,-1/4;1/6,-1/6", "--alpha-b", "1/3")
        assert rc == 2 and "--face-values" in doc["error"]["message"]

    @pytest.mark.parametrize("n", ["16", "30", "600", str(10**12)])
    def test_regularize_untrusted_stage_exit_3(self, capsys, n):
        """The stage's bound N_n |R+| sup_error is 6.0 at n = 16 and larger beyond;
        n = 10**12 is refused without forming 4^n."""
        rc, doc = run_main(capsys, "regularize", "--group", "A1", "--alpha-b", "1/3", "--n", n)
        assert rc == 3 and "cannot be trusted" in doc["error"]["message"]

    def test_regularize_n14_unchanged(self, capsys):
        """n = 14, the largest stage the benchmark runs (bound 0.066), still runs."""
        rc, doc = run_main(capsys, "regularize", "--group", "A1", "--alpha-b", "1/3", "--n", "14")
        assert rc == 0
        assert doc["indicator"] == pytest.approx(0.9996959731302164, rel=1e-12)
        assert doc["det_rig_n"]["re"] == pytest.approx(2.999999999996653, rel=1e-12)

    def test_holonomy_vertical(self):
        r = run_cli("holonomy", "--group", "A1", "--alpha-b", "1/3",
                    "--color", "1", "--wind", "1", "--n", "64")
        doc = json.loads(r.stdout)
        assert doc["closed_form"]["re"] == pytest.approx(doc["product_trace"]["re"], abs=1e-9)
        assert doc["closed_form"]["re"] == pytest.approx(1.0, abs=1e-9)

    def test_holonomy_huge_winding_reduced(self, capsys):
        """<w, b> = 1/6, so both values depend on the winding modulo 6 only, and
        10**21 = -2 mod 6: the --wind -2 values, both -1 (2 cos(2 pi/3))."""
        argv = ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--wind"]
        rc, big = run_main(capsys, *argv, str(10**21))
        assert rc == 0 and big["winding"] == 10**21
        rc, small = run_main(capsys, *argv, "-2")
        assert rc == 0
        for key in ("closed_form", "product_trace"):
            assert big[key] == small[key]
            assert big[key]["re"] == pytest.approx(-1.0, abs=1e-9)


class TestValidate:
    def test_ok_file(self, tmp_path):
        path = write(tmp_path, "empty.json", EMPTY)
        r = run_cli("validate", path)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["ok"] and doc["report"] == []

    def test_cycle_reported(self, tmp_path):
        path = write(tmp_path, "cycle.json", CYCLE)
        r = run_cli("validate", path)
        assert r.returncode == 3
        codes = {e["code"] for e in json.loads(r.stdout)["report"]}
        assert "assumption-1" in codes

    def test_level_bound_names_k_and_g(self, tmp_path):
        path = write(tmp_path, "lb.json", LEVEL_BOUND)
        r = run_cli("validate", path)
        assert r.returncode == 3
        msgs = [e["message"] for e in json.loads(r.stdout)["report"] if e["code"] == "level-bound"]
        assert msgs and "k = 2" in msgs[0] and "g = 2" in msgs[0]

    def test_unreadable_exit_2(self):
        r = run_cli("validate", "/nonexistent/file.json")
        assert r.returncode == 2

    def test_bad_color_reported(self, tmp_path):
        path = write(tmp_path, "badcolor.json", BAD_COLOR)
        r = run_cli("validate", path)
        codes = {e["code"] for e in json.loads(r.stdout)["report"]}
        assert "color" in codes


class TestConfigFile:
    def test_config_replaces_flags(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"group": "A1", "k": 4}))
        r = run_cli("qdim", "--config", str(cfg))
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["qdims"]) == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"group": "A1", "k": 4}))
        r = run_cli("qdim", "--config", str(cfg), "--k", "5")
        doc = json.loads(r.stdout)
        assert len(doc["qdims"]) == 4

    def test_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        r = run_cli("det", "--group", "A1", "--alpha-b", "1/2", "--output", str(out))
        assert r.returncode == 0 and r.stdout == ""
        assert json.loads(out.read_text())["det_k"] == pytest.approx(4.0)


# -- one input path: in-process runs of cli.main ---------------------------------


def run_main(capsys, *args):
    """cli.main in this process: (exit code, the one JSON document on stdout)."""
    rc = cli.main([str(a) for a in args])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def one_circle(**fields):
    c = {"id": "a", "parent": None, "winding": 1, "positive_side": "inside", "color": [1]}
    return {"group": "A1", "k": 4, "circles": [dict(c, **fields)]}


class TestOneLinkParser:
    """shadow and validate read link files through the same parse_link."""

    def agree(self, capsys, path):
        rc, doc = run_main(capsys, "shadow", path)
        vrc, report = run_main(capsys, "validate", path)
        assert vrc == rc
        if rc:
            assert report["report"][0]["message"] == doc["error"]["message"]
        return rc, doc, report

    def test_color_outside_alphabet(self, tmp_path, capsys):
        rc, doc, report = self.agree(capsys, write(tmp_path, "c.json", one_circle(color=[5])))
        assert rc == 3 and "outside the level alphabet" in doc["error"]["message"]
        assert [e["code"] for e in report["report"]] == ["color"]

    def test_bad_positive_side_reported_once(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", one_circle(positive_side="up"))
        rc, _, report = self.agree(capsys, path)
        assert rc == 3
        assert [e["code"] for e in report["report"]] == ["positive-side"]

    def test_misspelt_circle_key(self, tmp_path, capsys):
        rc, doc, _ = self.agree(capsys, write(tmp_path, "k.json", one_circle(colour=[2])))
        assert rc == 2 and doc["error"]["code"] == "parse"

    @pytest.mark.parametrize(
        "doc",
        [
            dict(EMPTY, group=["A1"]),
            dict(EMPTY, group=1),
            dict(EMPTY, extra=1),
            one_circle(id=1),
            one_circle(parent=0),
            [],
        ],
        ids=["group-list", "group-int", "top-key", "int-id", "int-parent", "not-object"],
    )
    def test_schema_violations_exit_2(self, tmp_path, capsys, doc):
        rc, err, report = self.agree(capsys, write(tmp_path, "bad.json", doc))
        assert rc == 2 and err["error"]["code"] == "parse"
        assert [e["code"] for e in report["report"]] == ["parse"]

    def test_validate_collects_independent_problems(self, tmp_path, capsys):
        doc = {"group": "A1", "k": 4, "circles": [
            {"id": "a", "parent": "b", "winding": 1, "positive_side": "inside", "color": [7]},
            {"id": "b", "parent": "a", "winding": 1, "positive_side": "inside", "color": [8]},
        ]}
        rc, _, report = self.agree(capsys, write(tmp_path, "two.json", doc))
        assert rc == 3
        assert [e["code"] for e in report["report"]] == ["color", "color", "assumption-1"]

    def test_parent_may_be_omitted(self, tmp_path, capsys):
        doc = one_circle()
        del doc["circles"][0]["parent"]
        rc, out, _ = self.agree(capsys, write(tmp_path, "p.json", doc))
        assert rc == 0 and out["retained"] > 0

    def test_regularize_reads_the_same_schema(self, tmp_path, capsys):
        path = write(tmp_path, "k.json", one_circle(colour=[2]))
        rc, doc = run_main(capsys, "regularize", "--group", "A1", path,
                           "--face-values", "1/4,-1/4;1/6,-1/6")
        assert rc == 2 and doc["error"]["code"] == "parse"

    def test_deeply_nested_link_file(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        for cmd in ("shadow", "validate"):
            rc, doc = run_main(capsys, cmd, p)
            assert rc == 2, doc


class TestUsageErrorsAsJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["shadow", "--workers", "2", "x.json"],
            ["qdim", "--k", "four"],
            ["qdim", "--group", "A1", "--k", "4", "--weight", "1.5"],
            ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--color", "x"],
            ["det", "--group", "A1", "--alpha-b", "1/2", "--diagnostics", "--quad-res", "64"],
            ["det", "--group", "A1", "--alpha-b", "1/2", "--diagnostics", "--quad-res", "0x8"],
            ["regularize", "--group", "A1", "--face-values", "1/4;x"],
            ["nosuchcommand"],
            [],
            ["qdim", "--group", "A1", "--k", "4", "--output", "/dev/null/x.json"],
            ["det", "--group", "A1", "--alpha-b", f"{10**400}/3"],
            ["regularize", "--group", "A1", "--alpha-b", f"{10**400}/3", "--n", "3"],
            ["holonomy", "--group", "A1", "--alpha-b", f"{10**400}/3"],
            ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--wind", str(10**400)],
            ["regularize", "--group", "A1", "--alpha-b", "1/3", "--face-values", "1/4,-1/4"],
            ["det", "--group", "A1", "--b", "1/6,-1/6", "--alpha-b", "1/3"],
            ["regularize", "--group", "A1", "--alpha-b", "1/3", "--b", "1/6,-1/6"],
            ["holonomy", "--group", "A1", "--b", "1/6,-1/6", "--alpha-b", "1/3"],
        ],
    )
    def test_usage_error_exit_2(self, capsys, argv):
        rc, doc = run_main(capsys, *argv)
        assert rc == 2 and doc["error"]["code"] == "parse"

    @pytest.mark.parametrize("cmd", ["fusion", "qdim", "regularize", "holonomy", "validate"])
    def test_diagnostics_only_where_used(self, capsys, cmd):
        rc, doc = run_main(capsys, cmd, "--diagnostics", "--group", "A1", "x.json")
        assert rc == 2 and "--diagnostics" in doc["error"]["message"]

    def test_help_and_version_unchanged(self):
        r = run_cli("--help")
        assert r.returncode == 0 and "usage: shadowsum" in r.stdout
        r = run_cli("--version")
        assert r.returncode == 0 and r.stdout.strip()

    def test_non_ascii_rank_is_a_precondition(self, tmp_path, capsys):
        rc, doc = run_main(capsys, "shadow", "--group", "A²", write(tmp_path, "e.json", EMPTY))
        assert rc == 3 and doc["error"]["code"] == "precondition"

    @pytest.mark.parametrize(
        "argv",
        [
            ["qdim", "--group", "A1", "--k", str(10**12)],
            ["fusion", "--group", "A1", "--k", "200"],
            ["det", "--group", "A1", "--alpha-b", "1/2", "--diagnostics",
             "--quad-res", "100000x100000"],
            ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--n", "10000000"],
            ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--color", "100000", "--n", "8"],
            ["fusion", "--group", "E6", "--k", "13", "--verify"],
        ],
    )
    def test_budgets_exit_3(self, capsys, argv):
        rc, doc = run_main(capsys, *argv)
        assert rc == 3 and "budget" in doc["error"]["message"]

    @pytest.mark.parametrize("chi", ["2000", "-2000"])
    def test_det_power_out_of_range_exit_3(self, capsys, chi):
        """det_k = 3 at alpha(b) = 1/3: 3^1000 overflows and 3^-1000 underflows to 0."""
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", "1/3", "--chi", chi)
        assert rc == 3 and "finite positive" in doc["error"]["message"]

    def test_import_leaves_scipy_unloaded(self):
        """Neither the import nor the holonomy and quadrature kernels load scipy."""
        code = ("import sys, shadowsum.cli as cli\n"
                "def scipy(): print([m for m in sys.modules if m.split('.')[0] == 'scipy'], "
                "file=sys.stderr)\n"
                "scipy()\n"
                "cli.main(['holonomy', '--group', 'G2', '--b', '1/7,1/5,-12/35', "
                "'--color', '1,1', '--n', '16'])\n"
                "cli.main(['det', '--group', 'A1', '--alpha-b', '1/3', '--diagnostics', "
                "'--quad-res', '8x16'])\n"
                "scipy()\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=src_env())
        assert r.stderr.split() == ["[]", "[]"]
        holonomy, det = map(json.loads, r.stdout.splitlines())
        assert holonomy["product_trace"]["re"] == pytest.approx(holonomy["closed_form"]["re"])
        assert det["det_rig_quadrature"] == pytest.approx(3.0, rel=1e-6)

    def test_closed_stdout_exits_141(self):
        """A reader that stops early (`| head -c 100`) gets exit 128 + SIGPIPE and
        one stderr line, no traceback."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "shadowsum", "fusion", "--group", "A1", "--k", "30",
             "--dump", "--format", "text"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 141
        assert "Traceback" not in err and "Exception ignored" not in err
        assert "stdout" in err

    def test_closed_shared_pipe_exits_141(self):
        """With stderr on the same pipe (`2>&1 | head -c 100`) the stderr line is
        lost with the pipe, and the exit is still 141."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "shadowsum", "fusion", "--group", "A1", "--k", "30",
             "--dump", "--format", "text"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=src_env(),
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait() == 141

    def test_shadow_overflow_exit_3(self, tmp_path, capsys):
        doc = {"group": "A1", "k": 10, "circles": [
            {"id": f"c{i}", "winding": 1, "positive_side": "inside", "color": [1]}
            for i in range(2000)
        ]}
        rc, err = run_main(capsys, "shadow", write(tmp_path, "wide.json", doc))
        assert rc == 3 and "finite" in err["error"]["message"]


class TestConfigAsFlags:
    def config(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(p)

    def test_n_reaches_holonomy(self, tmp_path, capsys):
        rc, doc = run_main(capsys, "holonomy", "--group", "A1", "--alpha-b", "1/3",
                           "--config", self.config(tmp_path, {"n": 8}))
        assert rc == 0 and doc["n"] == 8

    def test_flag_spelling_keys(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"group": "A1", "alpha-b": "1/2", "diagnostics": True,
                                     "quad-res": "16x32"})
        rc, doc = run_main(capsys, "det", "--config", cfg)
        assert rc == 0
        assert doc["det_rig_constant"] == pytest.approx(4.0)
        assert "det_rig_quadrature" in doc

    def test_values_get_the_flag_type_check(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"group": "A1", "k": "5"})
        rc, doc = run_main(capsys, "qdim", "--config", cfg)
        assert rc == 0 and len(doc["qdims"]) == 4
        cfg = self.config(tmp_path, {"group": "A1", "k": "x"})
        rc, doc = run_main(capsys, "qdim", "--config", cfg)
        assert rc == 2 and doc["error"]["code"] == "parse"

    def test_b_and_alpha_b_exclude_each_other_across_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"alpha-b": "1/3"})
        rc, err = run_main(capsys, "holonomy", "--group", "A1", "--config", cfg,
                           "--b", "1/6,-1/6")
        assert rc == 2 and err["error"]["code"] == "parse"

    def test_flags_win(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"group": "A1", "wind": 3, "n": 8})
        rc, doc = run_main(capsys, "holonomy", "--config", cfg, "--alpha-b", "1/3", "--n", "16")
        assert rc == 0 and doc["n"] == 16 and doc["winding"] == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"workers": 3},
            {"quad_res": "16x32"},
            {"input": "link.json"},
            {"dump": False},
            {"group": None},
            {"group": ["A1"]},
            [],
        ],
        ids=["retired", "underscore", "input", "false", "null", "list", "not-object"],
    )
    def test_bad_keys_are_usage_errors(self, tmp_path, capsys, doc):
        rc, err = run_main(capsys, "fusion", "--group", "A1", "--k", "4",
                           "--config", self.config(tmp_path, doc))
        assert rc == 2 and err["error"]["code"] == "parse"

    def test_deeply_nested_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "[" * 100_000 + "]" * 100_000)
        rc, err = run_main(capsys, "qdim", "--group", "A1", "--k", "4", "--config", cfg)
        assert rc == 2 and err["error"]["code"] == "parse"
