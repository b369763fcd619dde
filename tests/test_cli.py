"""CLI behavior: outputs, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys

import pytest

from wclt import cli

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

    @pytest.mark.parametrize("form", [("--n", "100", "--p", "0.7"),
                                      ("--sweep-n", "100", "--sweep-p", "0.7")])
    def test_cutoff_without_regime_usage_error(self, tmp_path, form):
        # only the regime formula reads the cutoff; the plain bound would record
        # 0.9 in its config and report the default cutoff's regime
        out = tmp_path / "bound.out"
        res = run_cli("bound", "--pattern", "triangle", "--weights", "exp:1", *form,
                      "--cutoff-c", "0.9", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == "error: --cutoff-c needs --regime\n"
        assert not out.exists()
        res = run_cli("bound", "--pattern", "triangle", "--weights", "exp:1", *form,
                      "--cutoff-c", "0.9", "--regime", "--out", str(out))
        assert res.returncode == 0
        assert '"cutoff_c": 0.9' in out.read_text()

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

    @pytest.mark.parametrize("form", [
        ("--n", "{n}", "--p", "0.5"),
        ("--n", "{n}", "--p", "0.5", "--regime"),
        ("--sweep-n", "10,{n}", "--sweep-p", "0.5"),
    ])
    def test_host_size_beyond_float_usage_error(self, form):
        res = run_cli("bound", "--pattern", "triangle", "--weights", "unif:1",
                      *(arg.format(n=10**400) for arg in form))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("form", [
        ("--n", "3", "--p", "1e-320"),
        ("--n", "3", "--p", "1e-320", "--regime"),
        ("--sweep-n", "3", "--sweep-p", "0.5,1e-320"),
    ])
    def test_rate_overflow_names_the_rate_term(self, form):
        # a subnormal p puts the rate term beyond the largest float
        res = run_cli("bound", "--pattern", "triangle", "--weights", "exp:1", *form)
        assert res.returncode == 2
        assert res.stderr == "error: rate term at n = 3, p = 1e-320 overflows a float\n"

    @pytest.mark.parametrize("n", ["0", "-5"])
    @pytest.mark.parametrize("form", [
        ("--n", "{n}", "--p", "0.5"),
        ("--sweep-n", "{n}", "--sweep-p", "0.5"),
    ])
    def test_regime_host_too_small_usage_error(self, tmp_path, form, n):
        out = tmp_path / "bound.out"
        res = run_cli("bound", "--pattern", "triangle", "--weights", "unif:1", "--regime",
                      *(arg.format(n=n) for arg in form), "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"error: need n >= 3, got {n}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("single", [("--n", "3"), ("--p", "0.2")])
    def test_single_point_with_sweep_usage_error(self, tmp_path, single):
        # the sweep would ignore --n and --p, yet record them in its config
        out = tmp_path / "grid.csv"
        res = run_cli("bound", "--pattern", "triangle", "--weights", "unif:1",
                      "--sweep-n", "20", "--sweep-p", "0.5", *single, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == "error: --n and --p cannot be given with --sweep-n/--sweep-p\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("pattern, n, sampler", [
        ("triangle", "40", {"count_dtype": "float32", "chunk_rows": 40, "plan_terms": 1}),
        # a term of star:5 counts up to 80^4 maps, past float32's integers
        ("star:5", "80", {"count_dtype": "float64", "chunk_rows": 5, "plan_terms": 5}),
    ])
    def test_meta_sampler_layout(self, tmp_path, pattern, n, sampler):
        meta = tmp_path / "m.json"
        for threads in ("1", "2"):
            res = run_cli("simulate", "--pattern", pattern, "--n", n, "--p", "0.5",
                          "--weights", "unif:1", "--reps", "6", "--seed", "1",
                          "--out", str(tmp_path / "s.csv"), "--meta", str(meta),
                          env_extra={"WCLT_THREADS": threads})
            assert res.returncode == 0, res.stderr
            assert json.loads(meta.read_text())["sampler"] == sampler

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
        # the triangle's plan costs n^3 per replicate: n = 464 fits the cap, 465 does not
        out = tmp_path / "s.csv"
        res = run_cli("simulate", "--pattern", "triangle", "--n", "465", "--p", "0.1",
                      "--weights", "unif:1", "--reps", "20", "--seed", "0", "--out", str(out))
        assert res.returncode == 4
        assert ("sampler plan at n = 465 for the pattern with v_G = 3, e_G = 3: 1.01e+8 work "
                "units per replicate, capped at 1e+8") in res.stderr
        assert not out.exists()

    def test_huge_host_refused_before_allocation(self, tmp_path):
        # one replicate's n x n adjacency would need 8e24 bytes; the work cap
        # refuses it, not a failed allocation
        out = tmp_path / "s.csv"
        res = run_cli("simulate", "--pattern", "path:2", "--n", "1000000000000", "--p", "0.1",
                      "--weights", "unif:1", "--reps", "1", "--out", str(out))
        assert res.returncode == 4
        assert "1.00e+36 work units per replicate, capped at 1e+8" in res.stderr
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
        # complete:8's one term is a bag of its six free vertices; it sums n^2
        # cells over their C(64, 6) increasing tuples
        out = tmp_path / "s.csv"
        res = run_cli("simulate", "--pattern", "complete:8", "--n", "64", "--p", "0.5",
                      "--weights", "unif:1", "--reps", "20", "--seed", "0", "--out", str(out))
        assert res.returncode == 4
        assert ("sampler plan at n = 64 for the pattern with v_G = 8, e_G = 28: 3.07e+11 work "
                "units per replicate, capped at 1e+8") in res.stderr
        assert not out.exists()


@pytest.mark.parametrize("weights", ["unif:nan", "unif:inf", "exp:nan", "const:nan",
                                     "twopoint:nan,1,0.5"])
@pytest.mark.parametrize("command", [
    ("simulate", "--n", "6", "--p", "0.5", "--reps", "10"),
    ("bound", "--n", "10", "--p", "0.5"),
])
def test_non_finite_weight_parameter_usage_error(tmp_path, command, weights):
    out = tmp_path / "out"
    res = run_cli(*command, "--pattern", "triangle", "--weights", weights, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "must be finite" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, weights, k", [
    (("simulate", "--n", "6", "--p", "0.5", "--reps", "10"), "exp:1e-200", 2),
    (("bound", "--n", "10", "--p", "0.5"), "exp:1e-200", 2),
    (("bound", "--n", "10", "--p", "0.5"), "unif:1e-100", 4),
    (("bound", "--n", "10", "--p", "0.5", "--regime"), "const:1e-200", 2),
    (("bound", "--n", "10", "--p", "0.5", "--regime"), "unif:1e-100", 4),
    (("bound", "--n", "10", "--p", "0.5", "--regime"), "twopoint:0,1e-90,0.5", 4),
    (("bound", "--n", "10", "--p", "0.5"), "twopoint:1e200,1e300,0.5", 2),
    (("bound", "--n", "10", "--p", "0.5"), "unif:1e300", 2),
])
def test_weight_moment_outside_float_range_usage_error(tmp_path, command, weights, k):
    # before, these ended in a ZeroDivisionError traceback, a bare overflow
    # message, or a silent moment_ratio of 0.0
    out = tmp_path / "out"
    res = run_cli(*command, "--pattern", "triangle", "--weights", weights, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error: weight law ") and res.stderr.count("\n") == 1
    assert f"E[X^{k}] leaves the normal float range" in res.stderr
    assert not out.exists()


def test_small_spread_weight_law_bounds():
    # the raw-moment expansion made the first ratio 810.6 and the second
    # variance 0, which exited 3
    res = run_cli("bound", "--pattern", "triangle", "--weights", "twopoint:1,1.00001,0.5",
                  "--n", "10", "--p", "0.999999999999")
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["moment_ratio"] == pytest.approx(1.0, rel=1e-12)
    res = run_cli("bound", "--pattern", "triangle", "--weights", "twopoint:1,1.000000001,0.5",
                  "--n", "10", "--p", "0.9", "--regime")
    assert res.returncode == 0
    spread = 1.000000001 - 1.0
    fourth_raw = (1.0 + 1.000000001**4) / 2
    assert json.loads(res.stdout)["report"]["moment_ratio"] == pytest.approx(
        math.sqrt(fourth_raw) / (spread * spread / 4), rel=1e-12)


class TestDistanceCommand:
    def test_single_row(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("replicate,raw_w,normalized\n0,1.0,0.0\n")
        res = run_cli("distance", "--samples", str(f))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["result"]["w1"] == pytest.approx(2 / math.sqrt(2 * math.pi), rel=1e-9)

    def test_result_counts_cdf_evaluations(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("replicate,raw_w,normalized\n0,1.0,-1.0\n1,2.0,1.0\n")
        result = json.loads(run_cli("distance", "--samples", str(f)).stdout)["result"]
        assert set(result) == {"w1", "sample_size", "estimated_statistical_error",
                               "cdf_evaluations"}
        # each half decides its one piece from the cdf at its two ends, -1 and 0
        assert result["cdf_evaluations"] == 4

    def test_missing_column_schema_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("replicate,raw\n0,1.0\n")
        res = run_cli("distance", "--samples", str(f))
        assert res.returncode == 2

    def test_short_row_usage_error(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("replicate,raw_w,normalized\n0,1.0,0.5\n1,2.0\n")
        res = run_cli("distance", "--samples", str(f))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "short.csv" in res.stderr and "data row 2" in res.stderr

    def test_column_reader_values_and_messages(self, tmp_path):
        from wclt.cli import _read_normalized_column
        from wclt.errors import PatternError

        f = tmp_path / "s.csv"
        # comment and blank lines are skipped; of two 'normalized' columns the last counts
        f.write_text("# config\nreplicate,normalized,normalized\n\n0,9,0.5\n\n1,9,-2e-3\n")
        assert _read_normalized_column(str(f)) == [0.5, -0.002]
        name = repr(str(f))
        for text, message in [
            ("replicate,raw\n0,1.0\n", f"samples file {name} has no 'normalized' column"),
            ("", f"samples file {name} has no 'normalized' column"),
            ("replicate,raw_w,normalized\n0,1.0,0.5\n\n1,2.0\n",
             f"samples file {name}, data row 2: no number in the 'normalized' column (None)"),
            ("replicate,raw_w,normalized\n0,1.0,x\n",
             f"samples file {name}, data row 1: no number in the 'normalized' column ('x')"),
        ]:
            f.write_text(text)
            with pytest.raises(PatternError) as err:
                _read_normalized_column(str(f))
            assert str(err.value) == message

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
    def test_grid_exit_codes(self, tmp_path, grid, code, message):
        # the size caps are resource caps; an empty grid is a usage error
        out = tmp_path / "v.json"
        res = run_cli("chaos-verify", "--seed", "3", "--paths", "300", "--grid", grid,
                      "--out", str(out))
        assert res.returncode == code
        assert message in res.stderr
        assert not out.exists()

    def test_grid_at_dense_cap_passes(self, tmp_path):
        # 64 cells: the suite's largest arrays are order-3 contractions, 64^3 entries
        out = tmp_path / "v.json"
        res = run_cli("chaos-verify", "--seed", "3", "--paths", "300", "--grid", "32,2",
                      "--out", str(out))
        assert res.returncode == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_grid_past_64_cells_passes(self, tmp_path):
        # 66 cells: the second-moment route contracts to scalars, so only the
        # GridSpec cap of 256 cells bounds the suite
        out = tmp_path / "v.json"
        res = run_cli("chaos-verify", "--seed", "3", "--paths", "300", "--grid", "33,2",
                      "--out", str(out))
        assert res.returncode == 0
        assert json.loads(out.read_text())["passed"] is True

    @pytest.mark.parametrize("grid", ["65,1", "256,1"])
    def test_one_cell_grid_past_64_blocks_passes(self, grid):
        # one cell per block: every code is 0, so no gather table has more axes
        # than numpy's 64, and grids up to the 256-cell cap run
        res = run_cli("chaos-verify", "--seed", "3", "--paths", "50", "--grid", grid)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

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
                      "--sweep-n", "30,465", "--p", "0.1", "--reps", "2000", "--seed", "5",
                      "--out", str(out))
        assert res.returncode == 4
        assert "sampler plan at n = 465" in res.stderr
        assert not out.exists()
        # n = 6 at this p is degenerate (exit 3) once sampled; the whole list is
        # checked first, so the later n = 465 decides the exit code
        res = run_cli("rate-sweep", "--pattern", "triangle", "--weights", "const:1",
                      "--sweep-n", "6,465", "--p", "0.9999999999999999", "--reps", "10",
                      "--out", str(out))
        assert res.returncode == 4
        assert not out.exists()
        # cycle:8 has a plan term that ends in a bag: n = 65 fits the
        # work cap and n = 66 does not, checked over the list too
        res = run_cli("rate-sweep", "--pattern", "cycle:8", "--weights", "unif:1",
                      "--sweep-n", "8,66", "--p", "0.5", "--reps", "2000", "--seed", "5",
                      "--out", str(out))
        assert res.returncode == 4
        assert "sampler plan at n = 66 for the pattern with v_G = 8, e_G = 8" in res.stderr
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


@pytest.mark.parametrize("command", [
    ("simulate", "--pattern", "nonagon", "--weights", "unif:1", "--n", "6", "--p", "0.5",
     "--reps", "10", "--meta", "{meta}"),
    ("rate-sweep", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "6,465",
     "--p", "0.5", "--reps", "10"),
    ("chaos-verify", "--grid", "300,1"),
])
def test_negative_seed_rejected_at_entry(tmp_path, command):
    # each command would otherwise fail later and differently (unknown pattern,
    # sampler work cap, grid cap), so the seed is checked before any of its work
    out, meta = tmp_path / "out", tmp_path / "meta.json"
    res = run_cli(*(arg.format(meta=meta) for arg in command), "--seed", "-1", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == "error: --seed must be nonnegative, got -1\n"
    assert not out.exists() and not meta.exists()


@pytest.mark.parametrize("command", [
    ("simulate", "--pattern", "triangle", "--weights", "unif:1", "--n", "6", "--p", "0.5",
     "--reps", "10", "--meta", "{meta}"),
    ("rate-sweep", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "6,8",
     "--p", "0.5", "--reps", "10"),
    ("chaos-verify",),
])
def test_seed_past_philox_key_rejected_at_entry(tmp_path, command):
    # a Philox key has 128 bits; numpy refused such a seed only at the first uniform
    out, meta = tmp_path / "out", tmp_path / "meta.json"
    res = run_cli(*(arg.format(meta=meta) for arg in command), "--seed", str(2**128),
                  "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == f"error: --seed must be below 2**128, the Philox key range, got {2**128}\n"
    assert not out.exists() and not meta.exists()


def test_chaos_verify_runs_at_the_top_of_the_key_range():
    # its sub-seeds seed + 1 .. seed + 5 wrap around the key range
    for seed in (2**128 - 3, 2**128 - 1):
        res = run_cli("chaos-verify", "--seed", str(seed), "--paths", "300")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["passed"] is True


@pytest.mark.parametrize("outputs, message", [
    (("--out", "{d}/x", "--meta", "{d}/x"), "--meta '{d}/x' names the same file as --out"),
    (("--out", "{d}/x", "--meta", "{d}/sub/../x"),
     "--meta '{d}/sub/../x' names the same file as --out"),
    (("--out", "{d}"), "--out '{d}' is a directory"),
    (("--out", "{d}/missing/x"), "--out '{d}/missing/x' lies in a missing directory"),
    (("--out", "{d}/y", "--meta", "{d}/missing/x"),
     "--meta '{d}/missing/x' lies in a missing directory"),
])
def test_output_paths_checked_at_entry(tmp_path, outputs, message):
    # the unknown pattern would fail first if the paths were checked after any work
    (tmp_path / "sub").mkdir()
    args = [arg.format(d=tmp_path) for arg in outputs]
    res = run_cli("simulate", "--pattern", "nonagon", "--weights", "unif:1", "--n", "6",
                  "--p", "0.5", "--reps", "10", *args)
    assert res.returncode == 2
    assert res.stderr == f"error: {message.format(d=tmp_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("command", [
    ("bound", "--pattern", "triangle", "--weights", "unif:1", "--n", "10", "--p", "0.1"),
    ("distance", "--samples", "{d}/none.csv"),
    ("chaos-verify", "--paths", "300"),
    ("rate-sweep", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "6",
     "--p", "0.5", "--reps", "10"),
])
def test_every_out_flag_checked(tmp_path, command):
    res = run_cli(*(arg.format(d=tmp_path) for arg in command), "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr == f"error: --out {str(tmp_path)!r} is a directory\n"


def test_import_leaves_chaos_unloaded():
    # only chaos-verify runs chaos code, so the other commands do not pay its import
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, wclt.cli\nprint(sorted(m for m in sys.modules if 'chaos' in m))\n"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("command, inputs, message", [
    (("distance", "--samples", "{d}/s.csv", "--out", "{d}/s.csv"), ["s.csv"],
     "--out '{d}/s.csv' names the same file as --samples"),
    (("distance", "--samples", "{d}/s.csv", "--out", "{d}/sub/../s.csv"), ["s.csv"],
     "--out '{d}/sub/../s.csv' names the same file as --samples"),
    (("bound", "--pattern", "{d}/tri.txt", "--weights", "unif:1", "--n", "10", "--p", "0.1",
      "--out", "{d}/tri.txt"), ["tri.txt"], "--out '{d}/tri.txt' names the same file as --pattern"),
    (("simulate", "--pattern", "{d}/tri.txt", "--weights", "unif:1", "--n", "6", "--p", "0.5",
      "--reps", "10", "--out", "{d}/tri.txt"), ["tri.txt"],
     "--out '{d}/tri.txt' names the same file as --pattern"),
    (("simulate", "--pattern", "{d}/tri.txt", "--weights", "unif:1", "--n", "6", "--p", "0.5",
      "--reps", "10", "--out", "{d}/s.csv", "--meta", "{d}/tri.txt"), ["s.csv", "tri.txt"],
     "--meta '{d}/tri.txt' names the same file as --pattern"),
    (("rate-sweep", "--pattern", "{d}/tri.txt", "--weights", "unif:1", "--sweep-n", "6",
      "--p", "0.5", "--reps", "10", "--out", "{d}/tri.txt"), ["tri.txt"],
     "--out '{d}/tri.txt' names the same file as --pattern"),
])
def test_output_may_not_overwrite_an_input(tmp_path, command, inputs, message):
    # the paths are checked before any work, so the input file keeps its bytes
    (tmp_path / "sub").mkdir()
    (tmp_path / "tri.txt").write_text("3\n0 1\n1 2\n0 2\n")
    (tmp_path / "s.csv").write_text("replicate,raw_w,normalized\n0,1.0,0.5\n")
    before = {name: (tmp_path / name).read_bytes() for name in inputs}
    res = run_cli(*(arg.format(d=tmp_path) for arg in command))
    assert res.returncode == 2
    assert res.stderr == f"error: {message.format(d=tmp_path)}\n"
    assert {name: (tmp_path / name).read_bytes() for name in inputs} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "sub", "tri.txt"]


@pytest.mark.parametrize("regime", [(), ("--regime",)])
@pytest.mark.parametrize("pattern", ["triangle", "cycle:4"])
def test_bound_point_equals_its_sweep_row(tmp_path, pattern, regime):
    # at n = 100 each p lies in one regime for both patterns (cutoff 0.5; thresholds
    # 100^-1/2 for the triangle and 100^-2/3 for cycle:4)
    points = {"0.8": "dense", "0.3": "sparse-mid", "0.01": "sparse-low"}
    common = ("bound", "--pattern", pattern, "--weights", "exp:1", *regime)
    out = tmp_path / "grid.csv"
    res = run_cli(*common, "--sweep-n", "100", "--sweep-p", ",".join(points), "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()[2:]  # the header, then one row per p
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [(row["n"], row["p"]) for row in rows] == [("100", p) for p in points]
    for row, (p, regime_name) in zip(rows, points.items()):
        res = run_cli(*common, "--n", "100", "--p", p)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)["report"]
        assert report["regime"] == regime_name
        for key in ("rate_term", "moment_ratio", "bound_value"):
            assert repr(report[key]) == row[key] and float(row[key]) == report[key]
        assert (report["regime"] or "") == row["regime"]
        assert report["family"] == row["family"]


@pytest.mark.parametrize("command, header", [
    (("simulate", "--pattern", "triangle", "--weights", "unif:1", "--n", "6", "--p", "0.5",
      "--reps", "10"), "replicate,raw_w,normalized"),
    (("rate-sweep", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "6,8",
      "--p", "0.5", "--reps", "10"), "n,p,d_w,rate_term,ratio"),
    (("bound", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "10,20",
      "--sweep-p", "0.2,0.5"), "n,p,rate_term,moment_ratio,bound_value,regime,family"),
])
def test_csv_header_contract(tmp_path, command, header):
    out = tmp_path / "out.csv"
    res = run_cli(*command, "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "# format_version: 1"
    assert lines[1].startswith("# config: ")
    assert json.loads(lines[1][len("# config: "):])["subcommand"] == command[0]
    assert lines[2] == header


BOUND_KEYS = {"subcommand", "pattern", "weights", "n", "p", "cutoff_c", "regime_formula",
              "sweep_n", "sweep_p"}
RUN_KEYS = {"subcommand", "pattern", "weights", "reps", "seed"}


def read_config(path) -> dict:
    """The run configuration of a JSON or a CSV artifact."""
    text = path.read_text()
    if text.startswith("# format_version"):
        return json.loads(text.splitlines()[1][len("# config: "):])
    return json.loads(text)["config"]


@pytest.mark.parametrize("command, keys", [
    (("bound", "--pattern", "triangle", "--weights", "unif:1", "--n", "10", "--p", "0.1"),
     BOUND_KEYS),
    (("bound", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "10,20",
      "--sweep-p", "0.2,0.5", "--regime"), BOUND_KEYS),
    (("simulate", "--pattern", "triangle", "--weights", "unif:1", "--n", "6", "--p", "0.5",
      "--reps", "10", "--meta", "{d}/run.json"), RUN_KEYS | {"n", "p"}),
    (("distance", "--samples", "{d}/s.csv"), {"subcommand", "samples"}),
    (("chaos-verify", "--paths", "50"), {"subcommand", "seed", "grid", "paths", "corrupt"}),
    (("rate-sweep", "--pattern", "triangle", "--weights", "unif:1", "--sweep-n", "6",
      "--p", "0.5", "--reps", "10"), RUN_KEYS | {"sweep_n", "p", "p_rule"}),
])
def test_config_records_every_parsed_option(tmp_path, command, keys):
    # every option but the output paths, so a new option is recorded without a config edit
    (tmp_path / "s.csv").write_text("replicate,raw_w,normalized\n0,1.0,0.5\n")
    out = tmp_path / "artifact"
    assert cli.main([arg.format(d=tmp_path) for arg in command] + ["--out", str(out)]) == 0
    config = read_config(out)
    assert set(config) == keys
    assert config["subcommand"] == command[0]
    if command[0] == "bound":  # the default cutoff is recorded with its resolved value
        assert config["cutoff_c"] == 0.5
        assert config["regime_formula"] is ("--regime" in command)
    if "--meta" in command:
        assert read_config(tmp_path / "run.json") == config
