"""One step of a benchmark iteration, run in its own Python process.

    python3 perfbench/launch.py PROBE MODE TARGET [ARGS...]

MODE is ``run`` (untraced), ``trace`` (layer spans on) or ``setup`` (stop at
the first library call, to time interpreter start, imports and argument
parsing).  TARGET is ``cli``, with a wclt command line as ARGS, or ``stein``,
with ARGS ``SEED PATHS OUT``: the library-only Stein workload, since no CLI
command exposes the Stein bound.  PROBE receives one JSON object with the
monotonic time of the first library call and, when traced, the spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (perfbench/ is on the path when run as a script)
from wclt import chaos, cli, distance, graph_chaos, patterns, weights  # noqa: E402

# The Stein workload: the triangle weight on hosts n = 4 and 5, with
# cell-aligned two-point weights so the chaos family is exact pathwise.
STEIN_PATTERN = "triangle"
STEIN_HOSTS = (4, 5)
STEIN_WEIGHTS = "twopoint:1,3,0.5"
STEIN_P = 0.5
STEIN_CELLS = 4
STEIN_HEAD = 16  # leading eval_many values kept for the pathwise check


class _SetupDone(Exception):
    """Raised at the first library call of a setup-only run."""


def stein_job(seed: int, n_paths: int, out: str) -> int:
    """Stein bound, eval_many and empirical W1 of each unit-variance family.

    Library calls go through module attributes, so the tracer sees them.
    """
    pattern = patterns.named_pattern(STEIN_PATTERN)
    model = weights.parse_weight_model(STEIN_WEIGHTS)
    families = []
    for n in STEIN_HOSTS:
        family = graph_chaos.graph_weight_family(pattern, n, STEIN_P, model, cells=STEIN_CELLS)
        scale = math.sqrt(family.second_moment() - family.constant**2)
        unit = chaos.KernelFamily(family.grid, 0.0, [
            chaos.Kernel(family.grid, k.order, k.values / scale, validate=False)
            for k in family.kernels
        ])
        terms = chaos.stein_bound_terms(unit, n_paths, seed)
        path_seed = seed + 1
        samples = unit.eval_many(chaos.random_paths(path_seed, n_paths, family.grid.blocks))
        w1 = distance.wasserstein1_to_normal(samples)
        families.append({"n": n, **terms.to_dict(), "w1": w1.w1, "sample_size": w1.sample_size,
                         "path_seed": path_seed, "head": samples[:STEIN_HEAD].tolist()})
    Path(out).write_text(json.dumps({"families": families}))
    return 0


def main(argv: list[str]) -> int:
    probe, mode, target, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracing.install(tracer)
    record: dict = {}

    def first_call(fn):
        def marked(*a, **k):
            record.setdefault("setup_end", time.monotonic())
            if mode == "setup":
                raise _SetupDone
            return fn(*a, **k)
        return marked

    if target == "cli":
        for name in tracing.CLI_COMMANDS:
            setattr(cli, name, first_call(getattr(cli, name)))
        run = lambda: cli.main(args)  # noqa: E731
    elif target == "stein":
        job = tracer.wrap("bench.job", stein_job) if tracer is not None else stein_job
        job = first_call(job)
        run = lambda: job(int(args[0]), int(args[1]), args[2])  # noqa: E731
    else:
        print(f"unknown target {target!r}", file=sys.stderr)
        return 2
    try:
        rc = run()
    except _SetupDone:
        rc = 0
    if tracer is not None:
        record["spans"] = tracer.spans
    Path(probe).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
