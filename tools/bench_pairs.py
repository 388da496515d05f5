"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --seed 611 --seconds 18 \\
        --out BENCH_6.json chain_int:10 qhier_listing:5 housing_cov:5 mcm_p64:5

PARENT and CHANGE are two checkouts, each with its own ``perfbench/`` and
``src/``; ``git clone`` the parent commit into a directory of its own.
Each ``workload:pairs`` argument runs ``perfbench/run.py`` that many times
on each side, at one seed and run length, and the side that goes first
alternates from pair to pair so that a drift in the machine's speed meets
both sides alike. The file keeps every run's final JSON line and the
reference kernel's quartiles, both commits with a digest of their
``src/``, the Python version, and per workload and end-to-end metric the
medians and quartiles of both sides, the pairs the change won, whether
the change's median is within the metric's regression bound, whether
the metric is unresolved (the parent's own interquartile range over its
median is wider than the bound, and not every change run beats every
parent run), and whether the change may claim a gain (it won at least
nine pairs in ten and its median beats the parent's by more than the
parent's interquartile range).
The file is rewritten after every run, so an interrupted loop keeps what
it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

KERNEL = re.compile(r"reference kernel: (\d+) samples, median (\d+) us, quartiles (\d+)-(\d+) us")


def describe(root: str) -> dict:
    """Commit, uncommitted-change flag and a digest of ``src/`` of a checkout."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return done.stdout.strip()

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": digest.hexdigest(),
    }


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: exit code, final JSON line
    and the reference kernel's sample count and quartiles."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    found = KERNEL.search(done.stdout)
    kernel = None
    if found:
        kernel = dict(zip(("samples", "median_us", "q1_us", "q3_us"), map(int, found.groups())))
    return {"exit": done.returncode, "result": result, "kernel": kernel}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, pairs won
    by the change, the regression bound check, whether the parent's spread
    leaves the metric unresolved, and the gain rule."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict = {}
        failed = {"parent": 0, "change": 0}
        for r in runs:
            if r["workload"] != workload:
                continue
            res = r["result"]
            if res is None:
                failed[r["side"]] += 1
                continue
            failed[r["side"]] += res["failed"]
            by_pair.setdefault(r["pair"], {})[r["side"]] = res["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        rows = {"pairs": len(pairs), "failed": failed}
        for m in metrics:
            if not pairs:
                break
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            parent = np.array([p["parent"][name]["value"] for p in pairs])
            change = np.array([p["change"][name]["value"] for p in pairs])
            q = {side: np.percentile(v, [25, 50, 75]) for side, v in
                 (("parent", parent), ("change", change))}
            gain = sign * (q["change"][1] - q["parent"][1])
            worse = -gain / q["parent"][1] if q["parent"][1] else 0.0
            wins = int(np.sum(sign * (change - parent) > 0))
            iqr = q["parent"][2] - q["parent"][0]
            spread = iqr / q["parent"][1] if q["parent"][1] else 0.0
            rows[name] = {
                "parent_q1_median_q3": [float(x) for x in q["parent"]],
                "change_q1_median_q3": [float(x) for x in q["change"]],
                "change_wins": wins,
                "within_bound": bool(worse <= m["bound"]),
                "unresolved": bool(
                    spread > m["bound"] and (sign * change).min() <= (sign * parent).max()
                ),
                "gain_claimable": bool(
                    wins >= 0.9 * len(pairs)
                    and gain > iqr
                    and failed["change"] <= failed["parent"]
                ),
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    doc = {
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        **{side: describe(root) for side, root in roots.items()},
        "runs": [],
    }
    for item in args.plan:
        workload, _, n = item.partition(":")
        for pair in range(int(n or 10)):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in sides:
                run = run_once(roots[side], workload, args.seed, args.seconds)
                doc["runs"].append({"workload": workload, "pair": pair, "side": side, **run})
                print(f"{workload} pair {pair} {side}: exit {run['exit']}", file=sys.stderr)
                doc["summary"] = summarize(doc["runs"], metrics)
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
