import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import CYCLE_FORESTS, ambient, character_eval, src_env
from shadowsum import cli, fusion
from shadowsum.reps import weight_multiplicities, weyl_dimension
from shadowsum.roots import build_root_system

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

    def test_colorings_beyond_the_int_digit_limit(self, tmp_path, capsys):
        """4600 side-by-side circles coloured [0], winding 0, at A1 k=10: `colorings`
        = 9^4601 has 4391 digits, past CPython's 4300, and prints exactly; the limit
        is back in place afterwards, and the value is the empty-link sum of qdim^2."""
        from shadowsum.reps import level_alphabet, quantum_dimension

        doc = {"group": "A1", "k": 10, "circles": [
            {"id": f"c{i}", "parent": None, "winding": 0, "positive_side": "inside",
             "color": [0]} for i in range(4600)]}
        limit = sys.get_int_max_str_digits()
        assert cli.main(["shadow", write(tmp_path, "wide.json", doc)]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(out)
        finally:
            sys.set_int_max_str_digits(limit)
        assert doc["colorings"] == 9 ** 4601 and doc["retained"] == 9
        al = level_alphabet(build_root_system("A1"), 10)
        empty = sum(quantum_dimension(al, lam) ** 2 for lam in al.elements)
        assert doc["value"]["re"] == pytest.approx(empty, rel=1e-12)
        assert doc["value"]["im"] == 0.0

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

    def test_oracle_failure_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(fusion, "ORACLE_TOL", 1e-30)
        rc, doc = run_main(capsys, "fusion", "--group", "A1", "--k", "4", "--verify")
        assert rc == 4 and doc["error"]["code"] == "oracle"


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

    def test_det_diagnostics_refuses_chi_other_than_2(self, capsys):
        """The quadrature runs on the round sphere; at --chi 3 it would print det_half^2
        beside det_rig_constant = det_half^3."""
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", "1/3", "--chi", "3",
                           "--diagnostics")
        assert rc == 3 and "chi = 2" in doc["error"]["message"]

    def test_det_odd_chi_keeps_the_sign(self, capsys):
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", "4/3", "--chi", "1")
        assert rc == 0 and doc["det_half"] < 0
        assert doc["det_rig_constant"] == doc["det_half"]

    def test_det_singular_exit_3(self):
        r = run_cli("det", "--group", "A1", "--alpha-b", "1")
        assert r.returncode == 3

    def test_singular_message_shows_rationals(self, capsys):
        rc, doc = run_main(capsys, "det", "--group", "A2", "--b", "1/3,1/3,1/3")
        msg = doc["error"]["message"]
        assert rc == 3 and "(1/3, 1/3, 1/3)" in msg and "Fraction(" not in msg

    def test_singular_node_message_prints_plain_floats(self, capsys):
        """The quadrature's singular-node message names the node and alpha(B) as
        Python floats, not numpy reprs such as np.float64(0.0)."""
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", "1/1000000000000001",
                           "--diagnostics")
        msg = doc["error"]["message"]
        assert rc == 3 and "singular at grid node 0" in msg and "np." not in msg

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

    def test_holonomy_huge_b_reduced(self, capsys):
        """alpha(b) = 6e16 + 1/3 differs from 1/3 by a coroot-lattice vector, which no
        weight sees: the output is that of --alpha-b 1/3, byte for byte, not the
        phase the 17-digit float of 6e16 + 1/3 would lose."""
        argv = ["holonomy", "--group", "A1", "--color", "2", "--wind", "1", "--n", "16",
                "--alpha-b"]
        outputs = []
        for alpha_b in ("180000000000000001/3", "1/3"):
            assert cli.main([*argv, alpha_b]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["closed_form"]["re"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ["--group", "G2", "--b=-1/13,-2/43,1/19", "--color", "1,1", "--wind", "3", "--n", "1024"],
        ["--group", "A2", "--b=1/29,-1/23,2/53", "--color", "2,2", "--wind", "3", "--n", "2048"],
    ], ids=["G2", "A2"])
    def test_self_dual_traces_are_real(self, capsys, argv):
        """Self-dual modules have real characters, and both traces come out exactly
        real, the terms of beta and -beta added to each other (printed im 8.9e-16
        and -1.4e-16 when summed in label order)."""
        rc, doc = run_main(capsys, "holonomy", *argv)
        assert rc == 0
        assert doc["closed_form"]["im"] == 0.0 and doc["product_trace"]["im"] == 0.0

    @pytest.mark.parametrize("group,field,color,wind,n", [
        ("A1", ["--alpha-b", "24/43"], (1,), 3, 4096),
        ("B2", ["--b=-1/13,2/17"], (1, 1), -2, 2048),
        ("G2", ["--b=-1/13,-2/43,1/19"], (1, 1), 1, 1024),
        ("A2", ["--b=1/29,-1/23,2/53"], (2, 2), 3, 2048),
    ], ids=["A1", "B2", "G2", "A2"])
    def test_kernel_slots_match_the_exact_character(self, capsys, group, field, color, wind, n):
        """The four holonomy slots of the `kernels` benchmark: both traces against the
        exact-rational character at wind * b.  Over the 160 holonomy jobs of
        `kernels` seeds 1-40 the worst error of either trace was 1.2e-15 * dim,
        so 1e-14 * dim leaves a margin of 8."""
        rs = build_root_system(group)
        ws = weight_multiplicities(rs, color)
        if field[0] == "--alpha-b":
            alpha = Fraction(field[1])
            b = (alpha / 2, -alpha / 2)
        else:
            b = tuple(Fraction(v) for v in field[0].split("=")[1].split(","))
        want = character_eval(ws, tuple(wind * v for v in b))
        dim = weyl_dimension(rs, color)
        rc, doc = run_main(capsys, "holonomy", "--group", group, *field,
                           "--color", ",".join(map(str, color)), "--wind", wind, "--n", n)
        assert rc == 0
        for key in ("closed_form", "product_trace"):
            got = complex(doc[key]["re"], doc[key]["im"])
            assert abs(got - want) <= 1e-14 * dim, (key, got, want)


# 2N with N = 10**19: a shift of one coweight coordinate x_j by 2N changes every
# integer-label pairing of x by an even integer, so no output may change.
TWO_N = 2 * 10**19


class TestLargeFieldValues:
    """A large exact field value prints, byte for byte, what its residue in [-1, 1]
    modulo 2 prints; a float of the large value would lose the residue's digits."""

    def outputs(self, capsys, *argvs):
        out = []
        for argv in argvs:
            cli.main([str(a) for a in argv])
            out.append(capsys.readouterr().out)
        return out

    @pytest.mark.parametrize("argv", [
        ["det", "--group", "A1"],
        ["det", "--group", "A1", "--diagnostics", "--quad-res", "16x32"],
        ["regularize", "--group", "A1", "--n", "6"],
        ["holonomy", "--group", "A1", "--color", "2", "--wind", "3", "--n", "16"],
    ], ids=["det", "det-diagnostics", "regularize", "holonomy"])
    def test_alpha_b_reduced(self, capsys, argv):
        """alpha(b) = a is x = a/2, so a and a + 2 TWO_N are one field value mod 2."""
        big, small = self.outputs(capsys, [*argv, "--alpha-b", f"{5 + 6 * TWO_N}/3"],
                                  [*argv, "--alpha-b", "5/3"])
        assert small.startswith("{") and "error" not in small
        assert big == small

    def test_face_values_reduced(self, tmp_path, capsys):
        """On A1 the coroot of alpha is (1, -1); the outer face's value moves by TWO_N of it."""
        path = write(tmp_path, "one.json", one_circle())
        argv = ["regularize", "--n", "5", path, "--face-values"]
        shift = TWO_N + Fraction(1, 4)
        big, small = self.outputs(capsys, [*argv, f"{shift},{-shift};1/6,-1/6"],
                                  [*argv, "1/4,-1/4;1/6,-1/6"])
        assert '"faces": 2' in small and big == small

    @pytest.mark.parametrize("argv", [
        ["det", "--group", "A1"],
        ["regularize", "--group", "A1", "--n", "3"],
        ["holonomy", "--group", "A1"],
    ], ids=["det", "regularize", "holonomy"])
    def test_alpha_b_beyond_a_double(self, capsys, argv):
        """alpha(b) = 10^400/3, which no double holds, is 4/3 modulo 4."""
        big, small = self.outputs(capsys, [*argv, "--alpha-b", f"{10**400}/3"],
                                  [*argv, "--alpha-b", "4/3"])
        assert small.startswith("{") and "error" not in small
        assert big == small

    def test_wind_beyond_a_double(self, capsys):
        """A winding of 10^400 at alpha(b) = 1/3 acts as 4 (the period is 6); only the
        echoed `winding` differs."""
        argv = ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--wind"]
        big, small = (json.loads(out) for out in self.outputs(capsys, [*argv, 10**400],
                                                               [*argv, 4]))
        assert big.pop("winding") == 10**400 and small.pop("winding") == 4
        assert "closed_form" in small and big == small

    def test_b_reduced_on_g2(self, capsys):
        """b and b + TWO_N alpha_1^vee, in ambient coordinates, differ in x_1 by TWO_N."""
        rs = build_root_system("G2")
        b = (Fraction(5, 7), Fraction(1, 11), Fraction(-3, 13))
        coroot = ambient(rs).coroot(rs.simple_roots[0])
        big_b = tuple(v + TWO_N * c for v, c in zip(b, coroot))
        x, big_x = rs.coweight_coordinates(b), rs.coweight_coordinates(big_b)
        assert big_x == (x[0] + TWO_N, x[1])
        big, small = self.outputs(
            capsys, *(["det", "--group", "G2", "--b=" + ",".join(map(str, v))] for v in (big_b, b)))
        assert '"det_k"' in small and big == small


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


@pytest.mark.parametrize("argv", [
    ["det", "--alpha-b", "1/3"],
    ["qdim", "--k", "4"],
    ["fusion", "--k", "4"],
    ["holonomy", "--alpha-b", "1/3", "--n", "8"],
    ["shadow", "link.json"],
    ["regularize", "link.json", "--face-values", "1/4,-1/4;1/6,-1/6"],
], ids=lambda argv: argv[0])
def test_group_is_printed_as_parsed(tmp_path, capsys, argv):
    """Every command prints the group as the parsed type label, not as spelled."""
    path = write(tmp_path, "link.json", one_circle())
    argv = [path if a == "link.json" else a for a in argv]
    rc, doc = run_main(capsys, *argv, "--group", " a1")
    assert rc == 0 and doc["group"] == "A1"


@pytest.mark.parametrize("argv,want", [
    (["det", "--group", "A2", "--b", "1/3,1/5"], "needs 3 ambient coordinates, got 2"),
    (["holonomy", "--group", "A2", "--b", "1/3,1/5,1/7,1/11"],
     "needs 3 ambient coordinates, got 4"),
    (["regularize", "--group", "A1", "link.json", "--face-values", "1/4,-1/4;1/6"],
     "needs 2 ambient coordinates, got 1"),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_field_value_length_exit_3(tmp_path, capsys, argv, want):
    """An ambient field value of the wrong length is refused where it is converted."""
    path = write(tmp_path, "link.json", one_circle())
    rc, doc = run_main(capsys, *[path if a == "link.json" else a for a in argv])
    assert rc == 3 and want in doc["error"]["message"]


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

    @pytest.mark.parametrize("name,circles,on_cycle", CYCLE_FORESTS,
                             ids=[name for name, _, _ in CYCLE_FORESTS])
    def test_cycle_is_one_assumption_problem(self, tmp_path, capsys, name, circles, on_cycle):
        """shadow exits 3 and validate reports the cycle once, naming a circle on it."""
        doc = {"group": "A1", "k": 4, "circles": circles}
        rc, err, report = self.agree(capsys, write(tmp_path, "cycle.json", doc))
        assert rc == 3
        assert [e["code"] for e in report["report"]] == ["assumption-1"]
        assert err["error"]["message"].split("'")[1] in on_cycle

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

    def test_regularize_reads_the_group_from_the_file(self, tmp_path, capsys):
        """As for shadow, the file's group serves when --group is left out."""
        argv = ["regularize", "--n", "3", write(tmp_path, "g.json", one_circle()),
                "--face-values", "1/4,-1/4;1/3,-1/3"]
        outputs = []
        for flags in ([], ["--group", "A1"]):
            assert cli.main(argv + flags) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["group"] == "A1"

    def test_regularize_needs_no_level(self, tmp_path, capsys):
        """A stepped field uses no alphabet: a file without k prints what the file
        with k prints, while shadow and validate still refuse it for want of a level."""
        no_k = {key: v for key, v in one_circle().items() if key != "k"}
        outputs = []
        for name, doc in (("k.json", one_circle()), ("no_k.json", no_k)):
            argv = ["regularize", "--n", "3", write(tmp_path, name, doc),
                    "--face-values", "1/4,-1/4;1/3,-1/3"]
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for cmd in ("shadow", "validate"):
            rc, doc = run_main(capsys, cmd, tmp_path / "no_k.json")
            assert rc == 2, doc

    @pytest.mark.parametrize("cmd", ["shadow", "validate", "regularize"])
    @pytest.mark.parametrize("text", [
        json.dumps(one_circle()).replace('"k": 4', '"k": 1' + "0" * 5000).encode(),
        json.dumps(one_circle()).encode()[:-1] + b', "\xff": 1}',
    ], ids=["huge-int", "not-utf8"])
    def test_undecodable_link_file(self, tmp_path, capsys, cmd, text):
        """A `k` of 5001 digits, past CPython's limit on int parsing, and a byte that
        is not UTF-8 are parse errors with exit 2, not tracebacks.  The first names
        the file and the digit limit, without CPython's advice to raise it; the
        second is not valid JSON."""
        p = tmp_path / "link.json"
        p.write_bytes(text)
        argv = [cmd, p] + (["--face-values", "1/4,-1/4;1/6,-1/6"] if cmd == "regularize" else [])
        rc, doc = run_main(capsys, *argv)
        assert rc == 2, doc
        error = doc["report"][0] if cmd == "validate" else doc["error"]
        assert error["code"] == "parse" and str(p) in error["message"]
        if b"\xff" in text:
            assert "is not valid JSON" in error["message"]
        else:
            assert f"{sys.get_int_max_str_digits()}-digit limit" in error["message"]
            assert "valid JSON" not in error["message"]
            assert "set_int_max_str_digits" not in error["message"]

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
            ["det", "--group", "A1", "--alpha-b", f"{10**400}/0"],
            ["regularize", "--group", "A1", "--alpha-b", "1e5000", "--n", "3"],
            ["holonomy", "--group", "A1", "--alpha-b", "1/3x"],
            ["holonomy", "--group", "A1", "--alpha-b", "1/3", "--wind", "1" + "0" * 5000],
            ["regularize", "--group", "A1", "--alpha-b", "1/3", "--face-values", "1/4,-1/4"],
            ["det", "--group", "A1", "--b", "1/6,-1/6", "--alpha-b", "1/3"],
            ["regularize", "--group", "A1", "--alpha-b", "1/3", "--b", "1/6,-1/6"],
            ["holonomy", "--group", "A1", "--b", "1/6,-1/6", "--alpha-b", "1/3"],
            ["fusion", "--group", "A1", "--k", "4", "--format", "text"],
            ["fusion", "--group", "A1", "--k", "4", "--oracle-tol", "1e-3"],
            ["det", "--group", "A1", "--alpha-b", "1/2", "--quad-res", "16x32"],
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
            ["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics", "--quad-res", "65536x32"],
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
        assert rc == 3 and "finite nonzero" in doc["error"]["message"]

    def test_det_negative_power_of_a_vanishing_sine_exit_3(self, capsys):
        """alpha(b) = 10^-400 is regular, but its root sine rounds to 0.0."""
        rc, doc = run_main(capsys, "det", "--group", "A1", "--alpha-b", f"1/{10**400}",
                           "--chi", "-2")
        assert rc == 3 and "finite nonzero" in doc["error"]["message"]

    def test_import_leaves_scipy_unloaded(self):
        """Neither the import nor the holonomy and quadrature kernels load scipy,
        and the import loads no module of the package but cli and errors."""
        code = ("import sys, shadowsum.cli as cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('shadowsum.')), "
                "file=sys.stderr)\n"
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
        assert r.stderr.splitlines() == ["['shadowsum.cli', 'shadowsum.errors']", "[]", "[]"]
        holonomy, det = map(json.loads, r.stdout.splitlines())
        assert holonomy["product_trace"]["re"] == pytest.approx(holonomy["closed_form"]["re"])
        assert det["det_rig_quadrature"] == pytest.approx(3.0, rel=1e-6)

    SHADOW_MODULES = {"cli", "errors", "roots", "reps", "fusion", "diagrams"}

    @pytest.mark.parametrize("argv,only,never", [
        (["qdim", "--group", "E6", "--k", "16"], {"cli", "errors", "roots", "reps"}, {"numpy"}),
        (["det", "--group", "A1", "--alpha-b", "1/3", "--diagnostics", "--quad-res", "8x16"],
         {"cli", "errors", "roots", "determinants"}, {"numpy"}),
        (["det", "--group", "A1", "--alpha-b", "1/3"], {"cli", "errors", "roots", "determinants"},
         {"numpy"}),
        (["shadow", "link.json"], SHADOW_MODULES, {"determinants", "holonomy", "regularize",
                                                   "circleop", "numpy"}),
        (["shadow", "link.json", "--diagnostics"], SHADOW_MODULES, {"numpy"}),
        (["validate", "link.json"], SHADOW_MODULES - {"fusion"}, {"numpy"}),
        (["fusion", "--group", "A1", "--k", "5", "--dump", "--verify"],
         {"cli", "errors", "roots", "reps", "fusion"}, {"diagrams", "numpy"}),
        (["fusion", "--group", "A2", "--k", "5", "--dump", "--format", "text", "--verify"],
         {"cli", "errors", "roots", "reps", "fusion"}, {"diagrams", "numpy"}),
        (["regularize", "--group", "A1", "--alpha-b", "1/3", "--n", "3"], None, {"fusion"}),
        (["holonomy", "--group", "G2", "--b=1/7,1/5,-12/35", "--color", "1,1", "--n", "1024"],
         {"cli", "errors", "roots", "reps", "holonomy"}, {"numpy"}),
    ], ids=["qdim", "det", "det-plain", "shadow", "shadow-diagnostics", "validate", "fusion",
            "fusion-text", "regularize", "holonomy"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, only, never):
        """A command imports the modules it runs and no other, in a fresh interpreter:
        `qdim` needs the root data and the alphabet alone, `shadow` the fusion
        triples and the diagrams, `validate` the diagrams alone, the `fusion`
        export and its Verlinde check the fusion layer alone, `det` its closed
        forms and, with --diagnostics, its quadrature alone, `holonomy` its weight
        sums alone, and none of them numpy; `regularize` loads no fusion data."""
        write(tmp_path, "link.json", TWO_CIRCLES)
        code = ("import json, sys, shadowsum.cli as cli\n"
                f"rc = cli.main({argv!r})\n"
                "loaded = [m.split('.', 1)[1] for m in sys.modules if m.startswith('shadowsum.')]\n"
                "loaded += ['numpy'] if 'numpy' in sys.modules else []\n"
                "print(json.dumps([rc, loaded]), file=sys.stderr)\n")
        r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                           text=True, check=True, env=src_env())
        rc, loaded = json.loads(r.stderr)
        assert rc == 0
        assert only is None or set(loaded) == only
        assert not never & set(loaded)

    @pytest.mark.parametrize("preset,expected", [(None, "1 1"), ("2", "2 1")])
    def test_import_defaults_blas_threads_to_one(self, preset, expected):
        """Importing shadowsum sets one BLAS thread; a value the caller set wins."""
        env = src_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, shadowsum\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=env)
        assert r.stdout.strip() == expected

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
            '{"k": 1' + "0" * 5000 + "}",  # past CPython's 4300-digit limit on int parsing
        ],
        ids=["retired", "underscore", "input", "false", "null", "list", "not-object", "huge-int"],
    )
    def test_bad_keys_are_usage_errors(self, tmp_path, capsys, doc):
        rc, err = run_main(capsys, "fusion", "--group", "A1", "--k", "4",
                           "--config", self.config(tmp_path, doc))
        assert rc == 2 and err["error"]["code"] == "parse"

    def test_deeply_nested_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "[" * 100_000 + "]" * 100_000)
        rc, err = run_main(capsys, "qdim", "--group", "A1", "--k", "4", "--config", cfg)
        assert rc == 2 and err["error"]["code"] == "parse"
