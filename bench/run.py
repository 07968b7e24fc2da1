"""gamemac benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a gamemac checkout:

    python3 bench/run.py --workload region-magic --seed 0 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory.  With
``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run, and the spans are written to
``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("best_sum_rate_bits", "bit", "higher"),
    ("best_hit_frac", "ratio", "higher"),
]


def _import_library():
    """Import gamemac from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gamemac" / "__init__.py").is_file():
        sys.exit(f"bench: no gamemac sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import gamemac

    if Path(gamemac.__file__).resolve().parent != SRC / "gamemac":
        sys.exit(f"bench: imported gamemac from {gamemac.__file__}, not {SRC}")


def _cold_import() -> None:
    """Import the library in a fresh interpreter, as a user's first call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import gamemac, gamemac.cli"],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=120,
    )


def measure(workload, tracer, seconds: float):
    """Closed loop: run passes back to back for about ``seconds``.

    A pass starts only if it should end in time, judged by the length of
    the previous pass; the first pass always runs.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def _failures(passes):
    return [op for p in passes for op in p.ops if op.error is not None]


def end_to_end(workload, passes, setup_times):
    # Passes repeat the same operations, so each operation's latency is its
    # median over the passes; the percentiles then describe the mix of
    # operations rather than the moments the machine ran slow.
    latency = [
        statistics.median(p.ops[i].seconds for p in passes)
        for i in range(len(passes[0].ops))
    ]
    attempted = sum(len(p.ops) for p in passes)
    headline = workload.headline(passes[0].answers)
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - len(_failures(passes)) / attempted,
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_p95_ms": 1e3 * percentile(latency, 95),
        "best_sum_rate_bits": headline["best_sum_rate_bits"],
        "best_hit_frac": headline["best_hit_frac"],
    }


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return the result object."""
    import layers
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        if not trace:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                _cold_import()
                workload.setup(seed, tmp)
                setup_times.append(time.perf_counter() - t0)
            passes = measure(workload, NullTracer(), seconds)
            metrics = end_to_end(workload, passes, setup_times)
            units = {n: u for n, u, _ in END_TO_END}
            failures = _failures(passes)
            attempted = sum(len(p.ops) for p in passes)
            correct = not failures
        else:
            workload.setup(seed, tmp)
            untraced = measure(workload, NullTracer(), seconds)
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = measure(workload, tracer, seconds)
            finally:
                tracer.uninstall()
            tracer.dump(out_dir / f"spans-{name}-seed{seed}.json")
            metrics = layers.per_layer(
                tracer,
                len(traced),
                statistics.median(p.seconds for p in traced),
                statistics.median(p.seconds for p in untraced),
                traced[0].answers,
            )
            units = {n: u for n, u, _ in layers.PER_LAYER}
            failures = _failures(untraced) + _failures(traced)
            attempted = sum(len(p.ops) for p in untraced + traced)
            same = untraced[0].answers == traced[0].answers
            if not same:
                print("traced and untraced answers differ", file=sys.stderr)
            correct = not failures and same
    for op in failures[:20]:
        print(f"FAILED {op.kind}: {op.error}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:40s} {value:16.6f} {units[key]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["region-magic", "sumcap-lsg", "analysis-mix"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _import_library()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
