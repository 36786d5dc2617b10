import json
import subprocess
import sys

import pytest

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

    def test_holonomy_vertical(self):
        r = run_cli("holonomy", "--group", "A1", "--alpha-b", "1/3",
                    "--color", "1", "--wind", "1", "--n", "64")
        doc = json.loads(r.stdout)
        assert doc["closed_form"]["re"] == pytest.approx(doc["product_trace"]["re"], abs=1e-9)
        assert doc["closed_form"]["re"] == pytest.approx(1.0, abs=1e-9)


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
