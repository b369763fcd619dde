"""Benchmark of the wclt CLI and library: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  Each
workload is a closed loop with one client: the steps of an iteration run one
after another, each in its own Python process, and iterations repeat while
the next one fits in ``--seconds`` (at least one always runs).  Every output
is checked against an oracle after its iteration, outside the timed region.

Workloads (why each was chosen, and the layers it should and should not stress):

* ``simulate_tri40``: ``simulate`` of the triangle at n = 40, 20k replicates,
  then ``distance``, at WCLT_THREADS=1.  The single-threaded baseline: the
  pair census and the per-copy gather of ``normalized_samples`` each take
  about half of the run, so census changes show here.  No chaos,
  graph_chaos or bounds work.
* ``sweep_c4``: ``rate-sweep`` of cycle:4 with exp:1 weights over n = 8..14,
  50k replicates, then a regime ``bound`` sweep, at WCLT_THREADS=2.  The
  threaded gather dominates and the census is under 10%, so a census change
  should read as no change; a 4-edge pattern and a non-uniform law expose a
  triangle-only shortcut.  Also the only workload that times ``bounds``.
* ``stein_graph``: library calls, because no CLI command exposes the Stein
  bound: ``graph_weight_family`` for the triangle at n = 4, 5, scaled to unit
  variance, ``stein_bound_terms``, ``eval_many`` on independent paths and
  ``wasserstein1_to_normal``; then ``chaos-verify``, at WCLT_THREADS=2.  The
  dense chaos kernels take all the time and graph_stats almost none, so a
  graph_stats change should read as no change here, and a chaos change as
  no change in the other two.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced iterations, which alternate
with untraced ones so the tracing overhead is measured in the same run.  The
line before it holds the provenance, sample counts and the negative control.
"""

from __future__ import annotations

import argparse
import hashlib
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
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 3        # setup-only launches per step, before the timed iterations
STEP_TIMEOUT = 150.0    # seconds; a step still running then is killed and counts as failed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Step:
    name: str
    target: str      # "cli" or "stein" (see launch.py)
    args: tuple


@dataclass(frozen=True)
class Workload:
    threads: int
    items: int       # replicates or Monte Carlo paths per iteration
    params: dict
    steps: Callable[[dict, int, Path], list[Step]]
    check: str       # suffix of the load_/check_/corrupt_ functions in checks.py


def _simulate_steps(q: dict, seed: int, work: Path) -> list[Step]:
    samples = str(work / "samples.csv")
    return [
        Step("simulate", "cli", ("simulate", "--pattern", q["pattern"], "--n", str(q["n"]),
                                 "--p", repr(q["p"]), "--weights", q["weights"],
                                 "--reps", str(q["reps"]), "--seed", str(seed),
                                 "--out", samples, "--meta", str(work / "meta.json"))),
        Step("distance", "cli", ("distance", "--samples", samples,
                                 "--out", str(work / "distance.json"))),
    ]


def _sweep_steps(q: dict, seed: int, work: Path) -> list[Step]:
    def csv_list(values):
        return ",".join(str(v) for v in values)

    return [
        Step("rate-sweep", "cli", ("rate-sweep", "--pattern", q["pattern"], "--weights",
                                   q["weights"], "--sweep-n", csv_list(q["sweep_n"]),
                                   "--p", repr(q["p"]), "--reps", str(q["reps"]),
                                   "--seed", str(seed), "--out", str(work / "sweep.csv"))),
        Step("bound", "cli", ("bound", "--pattern", q["pattern"], "--weights", q["weights"],
                              "--sweep-n", csv_list(q["bound_n"]),
                              "--sweep-p", csv_list(q["bound_p"]), "--regime",
                              "--cutoff-c", repr(q["cutoff"]), "--out", str(work / "bound.csv"))),
    ]


def _stein_steps(q: dict, seed: int, work: Path) -> list[Step]:
    return [
        Step("stein", "stein", (str(seed), str(q["paths"]), str(work / "stein.json"))),
        Step("chaos-verify", "cli", ("chaos-verify", "--seed", str(seed),
                                     "--out", str(work / "verify.json"))),
    ]


_STEIN_PATHS = 300_000

WORKLOADS = {
    "simulate_tri40": Workload(
        threads=1, items=20_000,
        params={"pattern": "triangle", "n": 40, "p": 0.5, "weights": "unif:1", "reps": 20_000},
        steps=_simulate_steps, check="simulate"),
    "sweep_c4": Workload(
        threads=2, items=4 * 50_000,
        params={"pattern": "cycle:4", "weights": "exp:1", "sweep_n": (8, 10, 12, 14), "p": 0.5,
                "reps": 50_000, "bound_n": (8, 10, 12, 14, 20, 50, 100, 200),
                "bound_p": (0.05, 0.2, 0.5, 0.8), "cutoff": 0.5},
        steps=_sweep_steps, check="sweep"),
    # items: stein_bound_terms and eval_many paths, for each of the two hosts
    "stein_graph": Workload(
        threads=2, items=2 * 2 * _STEIN_PATHS,
        params={"pattern": "triangle", "hosts": (4, 5), "weights": "twopoint:1,3,0.5", "p": 0.5,
                "paths": _STEIN_PATHS},
        steps=_stein_steps, check="stein"),
}


# -- processes ------------------------------------------------------------------


def _environment(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["WCLT_THREADS"] = str(threads)
    pinned = str(max(1, min(threads, os.cpu_count() or 1)))
    env.update(dict.fromkeys(BLAS_VARS, pinned))
    return env


def _launch(step: Step, mode: str, env: dict, work: Path) -> dict:
    """Run one step in a fresh interpreter; return its timings and exit status."""
    probe = work / f"probe-{step.name}.json"
    probe.unlink(missing_ok=True)
    with open(work / f"{step.name}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(probe), mode, step.target,
                                 *step.args], cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(STEP_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"step": step.name, "rc": proc.returncode, "start": start, "end": end,
              "rss_mb": usage.ru_maxrss * 1024 / 1e6, "cpu": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0 and probe.exists():
        data = json.loads(probe.read_text())
        if "setup_end" in data:
            record["setup"] = data["setup_end"] - start
        record["spans"] = data.get("spans", [])
    return record


def _csv_rows(work: Path, records: list[dict]) -> int:
    """CSV data rows the CLI wrote, plus the sample rows `distance` read."""
    rows = 0
    for name in ("samples.csv", "sweep.csv", "bound.csv"):
        path = work / name
        if path.exists():
            with open(path) as handle:
                rows += sum(1 for line in handle if not line.startswith("#")) - 1
    distance = work / "distance.json"
    if any(r["step"] == "distance" for r in records) and distance.exists():
        rows += json.loads(distance.read_text())["result"]["sample_size"]
    return rows


# -- provenance -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _provenance(workload: str, seed: int, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(),
        "source_sha256_16": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "WCLT_THREADS": env["WCLT_THREADS"],
        "blas_threads": {var: env[var] for var in BLAS_VARS},
    }


# -- the run ------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import checks
    import tracing

    workload = WORKLOADS[name]
    load = getattr(checks, "load_" + workload.check)
    check = getattr(checks, "check_" + workload.check)
    corrupt = getattr(checks, "corrupt_" + workload.check)
    env = _environment(workload.threads)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = workload.steps(workload.params, seed, work)

    attempted = failed = 0
    failures: list[str] = []
    setup_samples: dict[str, list[float]] = {s.name: [] for s in steps}
    began = time.monotonic()
    deadline = began + seconds

    if not trace:
        for _ in range(SETUP_PROBES):
            for step in steps:
                record = _launch(step, "setup", env, work)
                attempted += 1
                if record["rc"] != 0 or "setup" not in record:
                    failed += 1
                    failures.append(f"setup probe of {step.name}: exit {record['rc']}")
                else:
                    setup_samples[step.name].append(record["setup"])

    iterations: list[dict] = []
    last_artifacts = None
    longest = 0.0
    while True:
        mode = "trace" if trace and len(iterations) % 2 == 1 else "run"
        t0 = time.monotonic()
        records = [_launch(step, mode, env, work) for step in steps]
        bad = {r["step"] for r in records if r["rc"] != 0 or "setup" not in r}
        failures += [f"{r['step']}: exit {r['rc']}" for r in records if r["step"] in bad]
        if not bad:
            try:
                artifacts = load(work)
                found = check(artifacts, workload.params, seed)
            except Exception as exc:  # a check that cannot run fails the whole iteration
                found = [(s.name, f"check raised {exc!r}") for s in steps]
            else:
                last_artifacts = artifacts
            bad = {step for step, _ in found}
            failures += [f"{step}: {message}" for step, message in found]
        attempted += len(steps)
        failed += len(bad)
        setup = sum(r.get("setup", 0.0) for r in records)
        for r in records:
            if "setup" in r:
                setup_samples[r["step"]].append(r["setup"])
        wall = records[-1]["end"] - records[0]["start"]
        iteration = {"mode": mode, "wall": wall, "setup": setup,
                     "rss_mb": max(r["rss_mb"] for r in records), "ok": not bad,
                     "cpu": sum(r["cpu"] for r in records)}
        if mode == "trace" and not bad:
            iteration["layers"] = tracing.iteration_metrics(
                records, wall, setup, _csv_rows(work, records))
            iteration["spans"] = {r["step"]: r["spans"] for r in records}
        iterations.append(iteration)
        longest = max(longest, time.monotonic() - t0)
        enough = len(iterations) >= (2 if trace else 1)
        if enough and time.monotonic() + longest > deadline:
            break

    # negative control: the checks must flag a perturbed copy of real artifacts
    flagged = bool(last_artifacts is not None and check(corrupt(last_artifacts),
                                                        workload.params, seed))
    untraced = [it for it in iterations if it["mode"] == "run" and it["ok"]]
    if trace:
        traced = [it for it in iterations if "layers" in it]
        (work / "spans.json").write_text(json.dumps([it["spans"] for it in traced]))
        values = {m: _median([it["layers"][m] for it in traced]) for m in tracing.LAYER_METRICS}
        values["bench.trace_overhead_s"] = (
            _median([it["wall"] for it in traced]) - _median([it["wall"] for it in untraced]))
    else:
        values = {
            "wall_s": _median([it["wall"] for it in untraced]),
            "setup_s": sum(_median(samples) for samples in setup_samples.values()),
            "items_per_s": _median([workload.items / (it["wall"] - it["setup"])
                                    for it in untraced]),
            "peak_rss_mb": _median([it["rss_mb"] for it in untraced]),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    out_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0 and flagged, "attempted": attempted, "failed": failed,
              "metrics": out_metrics}
    details = {
        "provenance": _provenance(name, seed, env),
        "iterations": [{k: it[k] for k in ("mode", "wall", "setup", "cpu", "rss_mb", "ok")}
                       for it in iterations],
        "setup_samples": setup_samples,
        "computed_metrics": list(tracing.COMPUTED) if trace else [],
        "negative_control_flagged": flagged,
        "failures": failures[:20],
        "elapsed_s": time.monotonic() - began,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "wclt" / "__init__.py").is_file():
        print(f"error: no wclt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
