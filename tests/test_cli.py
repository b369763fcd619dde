"""CLI behavior: outputs, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "wclt.cli", *args],
        capture_output=True, text=True, env=env,
    )


class TestBoundCommand:
    def test_json_report(self):
        res = run_cli("bound", "--pattern", "triangle", "--n", "10", "--p", "0.1",
                      "--weights", "unif:1")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["format_version"] == 1
        assert payload["config"]["pattern"] == "triangle"
        assert payload["report"]["rate_term"] == pytest.approx(0.9**-0.5, rel=1e-9)

    def test_unknown_pattern_usage_error(self):
        res = run_cli("bound", "--pattern", "nonagon", "--n", "10", "--p", "0.1",
                      "--weights", "unif:1")
        assert res.returncode == 2

    def test_p_one_degenerate(self):
        res = run_cli("bound", "--pattern", "triangle", "--n", "10", "--p", "1.0",
                      "--weights", "unif:1")
        assert res.returncode == 3

    def test_regime_flag(self):
        res = run_cli("bound", "--pattern", "triangle", "--n", "100", "--p", "0.9",
                      "--weights", "unif:1", "--regime", "--cutoff-c", "0.5")
        payload = json.loads(res.stdout)
        assert payload["report"]["regime"] == "dense"

    @pytest.mark.parametrize("p, code", [("1.5", 2), ("nan", 2), ("1.0", 3), ("0", 3)])
    @pytest.mark.parametrize("command", [
        ("bound", "--n", "10", "--p", "{p}"),
        ("bound", "--sweep-n", "10", "--sweep-p", "0.5,{p}"),
        ("simulate", "--n", "6", "--p", "{p}", "--reps", "10"),
    ])
    def test_one_rule_for_p(self, command, p, code):
        # p = 0 or 1 is degenerate (exit 3); NaN or outside [0, 1] is a usage error
        res = run_cli(*(arg.format(p=p) for arg in command), "--pattern", "triangle",
                      "--weights", "unif:1")
        assert res.returncode == code
        assert f"p must lie in (0, 1), got {float(p)}" in res.stderr

    def test_grid_sweep_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        res = run_cli("bound", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "10,20", "--sweep-p", "0.2,0.5", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "n,p,rate_term,moment_ratio,bound_value,regime,family"
        assert len(data) == 5
        n, p, rate, ratio, value, regime, family = data[1].split(",")
        assert float(value) == pytest.approx(float(rate) * float(ratio), rel=1e-12)


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            res = run_cli("simulate", "--pattern", "triangle", "--n", "6", "--p", "0.5",
                          "--weights", "unif:1", "--reps", "200", "--seed", "9",
                          "--out", str(out))
            assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_invariance(self, tmp_path):
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}.csv"
            res = run_cli("simulate", "--pattern", "triangle", "--n", "6", "--p", "0.5",
                          "--weights", "exp:1", "--reps", "500", "--seed", "4",
                          "--out", str(out), env_extra={"WCLT_THREADS": threads})
            assert res.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_zero_reps_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "6", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "0", "--seed", "1", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "replicate,raw_w,normalized"
        assert all(ln.startswith("#") for ln in lines[:-1])

    def test_row_count_and_meta(self, tmp_path):
        out, meta = tmp_path / "s.csv", tmp_path / "m.json"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "8", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "1000", "--seed", "2",
                      "--out", str(out), "--meta", str(meta))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1001
        assert any(ln.startswith("# config:") for ln in lines)
        assert any(ln.startswith("# format_version:") for ln in lines)
        payload = json.loads(meta.read_text())
        assert payload["exact_mean"] == pytest.approx(10.5)
        assert payload["census"]["3"] == 56
        assert payload["config"]["seed"] == 2

    def test_degenerate_configuration(self):
        res = run_cli("simulate", "--pattern", "triangle", "--n", "6",
                      "--p", "0.9999999999999999", "--weights", "const:1",
                      "--reps", "10", "--seed", "0")
        assert res.returncode == 3

    @pytest.mark.parametrize("p", ["nan", "1.5"])
    def test_p_outside_unit_interval_usage_error(self, p):
        res = run_cli("simulate", "--pattern", "triangle", "--n", "6", "--p", p,
                      "--weights", "unif:1", "--reps", "10", "--seed", "0")
        assert res.returncode == 2
        assert "p must lie in (0, 1)" in res.stderr

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_malformed_thread_count_usage_error(self, threads):
        res = run_cli("simulate", "--pattern", "triangle", "--n", "6", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "10", "--seed", "0",
                      env_extra={"WCLT_THREADS": threads})
        assert res.returncode == 2
        assert f"WCLT_THREADS must be a positive integer, got {threads!r}" in res.stderr

    def test_unwritable_output_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "s.csv"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "6", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "10", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    def test_host_past_census_size_runs(self, tmp_path):
        # n = 41 holds 10660 triangles, more than a quadratic pair census could take
        meta = tmp_path / "m.json"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "41", "--p", "0.1",
                      "--weights", "unif:1", "--reps", "20", "--seed", "0",
                      "--out", str(tmp_path / "s.csv"), "--meta", str(meta))
        assert res.returncode == 0
        assert json.loads(meta.read_text())["census"] == {"1": 1215240, "3": 10660}

    def test_host_cap_resource_error(self, tmp_path):
        out = tmp_path / "s.csv"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "65", "--p", "0.1",
                      "--weights", "unif:1", "--reps", "20", "--seed", "0", "--out", str(out))
        assert res.returncode == 4
        assert "host capped at 64 vertices" in res.stderr
        assert not out.exists()

    def test_failed_allocation_resource_error(self, tmp_path):
        # 10^16 replicates ask for 71 PiB at once, refused on any machine
        out = tmp_path / "s.csv"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "10", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "10000000000000000", "--out", str(out))
        assert res.returncode == 4
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert not out.exists()

    def test_uneliminable_pattern_copy_cap_resource_error(self, tmp_path):
        # complete:8 has no elimination order; the sampler's work grows with
        # the C(64, 8) copies of K_64
        out = tmp_path / "s.csv"
        res = run_cli("simulate", "--pattern", "complete:8", "--n", "64", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "20", "--seed", "0", "--out", str(out))
        assert res.returncode == 4
        assert "capped at 100000 copies, K_64 holds 4426165368" in res.stderr
        assert not out.exists()


class TestDistanceCommand:
    def test_single_row(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("replicate,raw_w,normalized\n0,1.0,0.0\n")
        res = run_cli("distance", "--samples", str(f))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["result"]["w1"] == pytest.approx(2 / math.sqrt(2 * math.pi), rel=1e-9)

    def test_missing_column_schema_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("replicate,raw\n0,1.0\n")
        res = run_cli("distance", "--samples", str(f))
        assert res.returncode == 2

    def test_missing_file_usage_error(self, tmp_path):
        res = run_cli("distance", "--samples", str(tmp_path / "missing.csv"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "missing.csv" in res.stderr

    def test_empty_file_domain_error(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("replicate,raw_w,normalized\n")
        res = run_cli("distance", "--samples", str(f))
        assert res.returncode == 2


class TestChaosVerifyCommand:
    def test_default_suite_passes(self):
        res = run_cli("chaos-verify", "--seed", "11", "--paths", "600")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["passed"] is True
        assert payload["config"]["seed"] == 11
        assert all(c["passed"] for c in payload["checks"])

    def test_corrupt_negative_control(self):
        res = run_cli("chaos-verify", "--seed", "11", "--paths", "400", "--corrupt")
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["passed"] is False
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert failed and failed[0]["max_deviation"] > failed[0]["tolerance"]

    @pytest.mark.parametrize("paths", ["1", "0", "-3"])
    def test_too_few_paths_usage_error(self, paths):
        res = run_cli("chaos-verify", "--seed", "3", "--paths", paths)
        assert res.returncode == 2
        assert "--paths" in res.stderr
        assert "Warning" not in res.stderr

    @pytest.mark.parametrize("grid, code, message", [
        ("300,1", 4, "grid size capped at 256 cells"),
        ("0,2", 2, "grid needs at least one block and one cell"),
    ])
    def test_grid_exit_codes(self, grid, code, message):
        # the size cap is a resource cap; an empty grid is a usage error
        res = run_cli("chaos-verify", "--seed", "3", "--paths", "300", "--grid", grid)
        assert res.returncode == code
        assert message in res.stderr

    def test_reproducible(self):
        a = run_cli("chaos-verify", "--seed", "3", "--paths", "300").stdout
        b = run_cli("chaos-verify", "--seed", "3", "--paths", "300").stdout
        assert a == b


class TestRateSweepCommand:
    def test_rows_and_ratio(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "6,8", "--p", "0.5", "--reps", "300", "--seed", "5",
                      "--out", str(out))
        assert res.returncode == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,p,d_w,rate_term,ratio"
        assert len(lines) == 3
        for line in lines[1:]:
            n, p, d_w, rate, ratio = line.split(",")
            assert float(d_w) > 0 and float(rate) > 0
            assert float(ratio) == pytest.approx(float(d_w) / float(rate), rel=1e-12)

    def test_host_cap_checked_before_sampling(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "30,65", "--p", "0.1", "--reps", "2000", "--seed", "5",
                      "--out", str(out))
        assert res.returncode == 4
        assert "host capped at 64 vertices" in res.stderr
        assert not out.exists()
        # n = 6 at this p is degenerate (exit 3) once sampled; the whole list is
        # checked first, so the later n = 65 decides the exit code
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "const:1",
                      "--sweep-n", "6,65", "--p", "0.9999999999999999", "--reps", "10",
                      "--out", str(out))
        assert res.returncode == 4
        assert not out.exists()
        # the copy cap of a plan with no elimination order is checked over the list too
        res = run_cli("rate-sweep", "--pattern", "cycle:8", "--weights", "unif:1",
                      "--sweep-n", "8,10", "--p", "0.5", "--reps", "2000", "--seed", "5",
                      "--out", str(out))
        assert res.returncode == 4
        assert "K_10 holds 113400" in res.stderr
        assert not out.exists()
        # n = 7 samples fine, but the 21-edge profile cap of the rate term
        # decides before it, not the degenerate p once n = 7 is sampled
        res = run_cli("rate-sweep", "--pattern", "complete:7", "--weights", "const:1",
                      "--sweep-n", "7,8", "--p", "0.9999999999999999", "--reps", "10",
                      "--out", str(out))
        assert res.returncode == 4
        assert "profile enumeration capped at 20 edges" in res.stderr
        assert not out.exists()

    def test_zero_reps_usage_error(self, tmp_path):
        # rejected before any host is sampled, not by the distance of an empty sample
        out = tmp_path / "sweep.csv"
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "6,8", "--p", "0.5", "--reps", "0", "--out", str(out))
        assert res.returncode == 2
        assert "--reps must be at least 1, got 0" in res.stderr
        assert not out.exists()

    def test_empty_n_list_usage_error(self):
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "", "--p", "0.5", "--reps", "10")
        assert res.returncode == 2

    def test_p_rule(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "8,12", "--p-rule", "pow:1.0,0.5", "--reps", "200",
                      "--seed", "5", "--out", str(out))
        assert res.returncode == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        p_values = [float(r.split(",")[1]) for r in rows]
        assert p_values[0] == pytest.approx(8**-0.5)
        assert p_values[1] == pytest.approx(12**-0.5)

    @pytest.mark.parametrize("p_args", [("--p", "0.3", "--p-rule", "pow:1,0.5"),
                                        ("--p-rule", "const:0.5")])
    def test_one_way_to_set_p(self, tmp_path, p_args):
        out = tmp_path / "sweep.csv"
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "8,12", *p_args, "--reps", "20", "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()
