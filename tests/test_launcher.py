"""Smoke test of the traced benchmark launcher.

The tracer looks up every traced library name with ``getattr``, so a renamed
or deleted function breaks a traced benchmark run; this catches it here.
"""

import importlib
import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
LAUNCH = os.path.join(PERFBENCH, "launch.py")


def test_benchmark_pins_resolve(monkeypatch):
    # the checks import the copy-search oracle at load and the tracer looks up
    # each traced name with getattr, so a name that leaves the library would
    # fail every benchmark workload; no workload runs here
    monkeypatch.syspath_prepend(PERFBENCH)
    checks = importlib.import_module("checks")
    tracing = importlib.import_module("tracing")
    for module, attr, _, _ in tracing._targets():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    model = checks.parse_weight_model("unif:1")  # the simulate check reads moments()
    assert (model.moments().mean, model.moments().variance) == (model.mean, model.variance)


def test_traced_chaos_verify_runs(tmp_path):
    probe = tmp_path / "probe.json"
    res = subprocess.run(
        [sys.executable, LAUNCH, str(probe), "trace", "cli", "chaos-verify",
         "--seed", "1", "--paths", "50", "--out", str(tmp_path / "v.json")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    spans = json.loads(probe.read_text())["spans"]
    assert "cli.chaos_verify" in {span["name"] for span in spans}


def test_traced_stein_job_runs(tmp_path):
    probe = tmp_path / "probe.json"
    res = subprocess.run(
        [sys.executable, LAUNCH, str(probe), "trace", "stein", "1", "2000",
         str(tmp_path / "stein.json")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    spans = json.loads(probe.read_text())["spans"]
    assert {"chaos.stein_bound_terms", "chaos.eval_many"} <= {span["name"] for span in spans}
    # the Stein draw and the eval_many paths, 2000 each, on the 6 and the 10
    # host edges (blocks) of the triangle families at n = 4 and 5
    assert sum(span.get("counts", {}).get("rng.uniforms", 0) for span in spans) == 2 * 2000 * (6 + 10)


def test_traced_simulate_counts_every_uniform(tmp_path):
    # the sampler's span runner must draw through rng.uniform_matrix, or the
    # traced benchmark's rng layer reads 0: 100 replicates of the 28 edges of K_8
    probe = tmp_path / "probe.json"
    res = subprocess.run(
        [sys.executable, LAUNCH, str(probe), "trace", "cli", "simulate",
         "--pattern", "triangle", "--n", "8", "--weights", "unif:1", "--p", "0.5",
         "--reps", "100", "--seed", "1", "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    spans = json.loads(probe.read_text())["spans"]
    assert sum(span.get("counts", {}).get("rng.uniforms", 0) for span in spans) == 100 * 28
