"""Run one fivm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain_int --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the engine is imported from ``src/`` next
to this directory, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` replays a fixed number of operations
twice, untraced and traced, prints the per-layer metrics and writes every
span to ``.bench_out/``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when a correctness check failed and 2 when the engine cannot be found.
See README.md beside this file for how to read the numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_engine() -> bool:
    if not os.path.isfile(os.path.join(SRC, "fivm", "__init__.py")):
        return False
    sys.path[:0] = [SRC, HERE]
    import fivm

    return os.path.dirname(os.path.abspath(fivm.__file__)) == os.path.join(SRC, "fivm")


def _named(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_plain(name: str, seed: int, seconds: float, scale: float = 1.0):
    from measure import SETUP_REPS, SLICES, UPDATE_SHARE, Driver, end_to_end, end_to_end_notes
    from workloads import WORKLOADS

    d = Driver(WORKLOADS[name](seed, scale))
    state = d.setup(*SETUP_REPS)
    updates = ("s", seconds * UPDATE_SHARE)
    d.run(state, updates, ("s", seconds * (1 - UPDATE_SHARE)), SLICES)
    return d, _named(end_to_end(d), "end_to_end"), end_to_end_notes(d)


def run_traced(
    name: str, seed: int, seconds: float, scale: float = 1.0, out_dir: str = ""
):
    from measure import Driver, per_layer, per_view_lines
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    updates = ("n", max(1, round(cls.trace_rates[0] * seconds)))
    batches = ("n", max(1, round(cls.trace_rates[1] * seconds)))

    plain = Driver(cls(seed, scale))
    plain.run(plain.setup(1), updates, batches)
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        traced = Driver(cls(seed, scale), tracer)
        state = traced.setup(1)
        traced.run(state, updates, batches)
    finally:
        tracer.uninstall()
    values = per_layer(tracer, traced, plain, state)
    metrics = _named(values, "per_layer")
    out_dir = out_dir or os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    tracer.dump(path, {"workload": name, "seed": seed, "metrics": values})
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.failures = plain.failures + traced.failures
    notes = per_view_lines(tracer) + [
        f"{updates[1]} updates and {batches[1]} batch calls per pass; spans in {path}"
    ]
    return traced, metrics, notes


def main(argv=None, scale: float = 1.0) -> int:
    """``scale`` shrinks every workload's data; the tests run tiny sizes."""
    names = ("chain_int", "qhier_listing", "housing_cov", "mcm_p64")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not _import_engine():
        print(f"error: no fivm engine under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_plain
    d, metrics, notes = run(args.workload, args.seed, args.seconds, scale)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"# {line}")
    for f in d.failures:
        print(f"FAILED {f}")
    correct = d.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": d.attempted, "failed": d.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
