"""The pair summary behind BENCH files: wins, the gain rule and the bound."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "lat", "better": "lower", "bound": 0.25},
]


def run(pair, side, rate, lat, failed=0, attempted=None):
    metrics = {"rate": {"value": rate}, "lat": {"value": lat}}
    result = {"failed": failed, "metrics": metrics}
    if attempted is not None:
        result["attempted"] = attempted
    return {"workload": "w", "pair": pair, "side": side, "result": result}


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


def test_each_side_reports_its_median_attempted_operations():
    """The median is taken per side over the runs that report ``attempted``;
    a run without the count, or without a result, is left out."""
    runs = []
    for p, (parent, change) in enumerate([(100, 130), (300, 110), (200, 120)]):
        runs += [run(p, "parent", 100, 10.0, attempted=parent),
                 run(p, "change", 100, 10.0, attempted=change)]
    runs += [run(3, "parent", 100, 10.0), {"workload": "w", "pair": 3, "side": "change",
                                           "result": None}]
    got = bench_pairs.summarize(runs, METRICS)["w"]
    assert got["attempted"] == {"parent": 200.0, "change": 120.0}
    bare = [run(0, "parent", 100, 10.0), run(0, "change", 100, 10.0)]
    assert bench_pairs.summarize(bare, METRICS)["w"]["attempted"] == {
        "parent": None, "change": None
    }


def test_the_printout_has_one_line_per_metric():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for p in range(3):
        for side, value in (("parent", 100.0), ("change", 110.0)):
            values = {m["name"]: {"value": value + p} for m in metrics}
            runs.append({
                "workload": "w", "pair": p, "side": side,
                "result": {"failed": 0, "metrics": values},
            })
    lines = bench_pairs.summary_lines(bench_pairs.summarize(runs, metrics), metrics)
    assert [line.split(":")[0] for line in lines] == [f"w {m['name']}" for m in metrics]
    assert lines[0] == (
        f"w {metrics[0]['name']}: parent 101, change 111 (+9.9%), wins"
        f" {3 if metrics[0]['better'] == 'higher' else 0}/3, within_bound True,"
        f" gain_claimable {metrics[0]['better'] == 'higher'}"
    )


def test_a_side_that_is_not_a_git_work_tree_is_refused_by_name(tmp_path):
    """A copy holding ``src/`` but no ``.git`` has no commit to record:
    the tool stops and names the side, where it recorded an empty commit
    and a clean ``src/``."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    with pytest.raises(SystemExit, match="the parent side"):
        bench_pairs.describe("parent", str(tmp_path))


def test_a_git_work_tree_records_its_commit_and_dirty_src(tmp_path):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c")
    got = bench_pairs.describe("change", str(tmp_path))
    assert len(got["commit"]) == 40 and int(got["commit"], 16) >= 0
    assert got["src_dirty"] is False
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert bench_pairs.describe("change", str(tmp_path))["src_dirty"] is True
    # a folder inside a work tree is not one
    with pytest.raises(SystemExit, match="the change side"):
        bench_pairs.describe("change", str(tmp_path / "src"))
