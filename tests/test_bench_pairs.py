"""The pair summary behind BENCH files: wins, the gain rule and the bound."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "lat", "better": "lower", "bound": 0.25},
]


def run(pair, side, rate, lat, failed=0):
    metrics = {"rate": {"value": rate}, "lat": {"value": lat}}
    return {
        "workload": "w", "pair": pair, "side": side,
        "result": {"failed": failed, "metrics": metrics},
    }


def test_a_clear_win_on_every_pair_is_claimable():
    runs = []
    for p in range(10):
        runs += [run(p, "parent", 100 + p % 3, 10.0), run(p, "change", 150 + p % 3, 12.0)]
    got = bench_pairs.summarize(runs, METRICS)["w"]
    assert got["pairs"] == 10
    assert got["rate"]["change_wins"] == 10 and got["rate"]["gain_claimable"]
    assert got["rate"]["within_bound"]
    # 20% slower latency: no pair won, no gain, still inside the 0.25 bound.
    assert got["lat"]["change_wins"] == 0 and not got["lat"]["gain_claimable"]
    assert got["lat"]["within_bound"]


def test_eight_wins_in_ten_claim_nothing():
    runs = []
    for p in range(10):
        change = 150 if p < 8 else 90
        runs += [run(p, "parent", 100, 10.0), run(p, "change", change, 30.0)]
    got = bench_pairs.summarize(runs, METRICS)["w"]
    assert got["rate"]["change_wins"] == 8 and not got["rate"]["gain_claimable"]
    assert not got["lat"]["within_bound"]


def test_a_failed_check_voids_the_gain():
    runs = []
    for p in range(10):
        runs += [run(p, "parent", 100, 10.0), run(p, "change", 150, 10.0, failed=int(p == 0))]
    got = bench_pairs.summarize(runs, METRICS)["w"]
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["rate"]["change_wins"] == 10 and not got["rate"]["gain_claimable"]


def test_an_unpaired_run_is_left_out():
    runs = [run(0, "parent", 100, 10.0), run(0, "change", 120, 9.0), run(1, "parent", 1, 1.0)]
    assert bench_pairs.summarize(runs, METRICS)["w"]["pairs"] == 1


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    # The parent's rate spreads 60..140 (interquartile range 35 over a
    # median of 100, wider than the 0.25 bound); its latency holds at 10.
    parent_rates = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
    runs = []
    for p, rate in enumerate(parent_rates):
        runs += [run(p, "parent", rate, 10.0), run(p, "change", 100, 10.0)]
    got = bench_pairs.summarize(runs, METRICS)["w"]
    assert got["rate"]["within_bound"] and got["rate"]["unresolved"]
    assert not got["lat"]["unresolved"]
    # Unless every change run beats every parent run.
    runs = []
    for p, rate in enumerate(parent_rates):
        runs += [run(p, "parent", rate, 10.0), run(p, "change", 150, 10.0)]
    assert not bench_pairs.summarize(runs, METRICS)["w"]["rate"]["unresolved"]
