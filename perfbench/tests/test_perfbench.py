"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from fivm.rings import ring_add
from measure import Driver, block_tail
from speed import REF_NS, Speed
from workloads import WORKLOADS, _cov_components, first_scalar_diff

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")))
TINY = 0.02
NAMES = [w["name"] for w in SPEC["workloads"]]


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_reports_every_metric_with_its_unit(name, capsys, tmp_path):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.2"], scale=TINY) == 0
    out = _last_json(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())

    d, metrics, _ = run.run_traced(name, 3, 0.2, scale=TINY, out_dir=str(tmp_path))
    assert d.failed == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want


COUNTED = ("calls", "_per_tuple", "ivm.stored_entries", "apps.gd_iterations")


@pytest.mark.parametrize("name", NAMES)
def test_count_metrics_repeat_for_one_seed(name, tmp_path):
    runs = [run.run_traced(name, 5, 0.5, scale=TINY, out_dir=str(tmp_path))[1] for _ in range(2)]
    counted = [k for k in runs[0] if k.endswith(COUNTED)]
    assert counted
    assert {k: runs[0][k]["value"] for k in counted} == {k: runs[1][k]["value"] for k in counted}


@pytest.mark.parametrize("name", NAMES)
def test_check_fires_on_a_corrupted_view(name):
    wl = WORKLOADS[name](7, TINY)
    d = Driver(wl)
    state = d.setup(1)
    d.check(state, "setup")
    assert d.failed == 0
    root = state.stored(state.tree.roots[0].id)
    key = next(iter(root.entries))
    root.entries[key] = ring_add(state.ring, root.entries[key], root.entries[key])
    d.check(state, "corruption")
    assert d.failed == 1
    assert "maintained" in d.failures[0]


def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys):
    class Corrupted(WORKLOADS["chain_int"]):
        def setup(self):
            state = super().setup()
            root = state.stored(state.tree.roots[0].id)
            root.entries[()] += 1
            return state

    monkeypatch.setitem(WORKLOADS, "chain_int", Corrupted)
    code = run.main(["--workload", "chain_int", "--seed", "1", "--seconds", "0.1"], scale=TINY)
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED chain_int check after single updates: key ()" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


@pytest.mark.parametrize("name", NAMES)
def test_expected_results_agree_with_recompute_oracle(name):
    wl = WORKLOADS[name](11, TINY)
    state = wl.setup()
    for _ in range(7):
        wl.next_update()(state)
    wl.next_batch()[0](state)
    oracle = state.recompute_oracle()
    if name == "chain_int":
        assert first_scalar_diff(dict(oracle.entries), wl.expected(), exact=True) is None
    elif name == "qhier_listing":
        per_a = {}
        for (a, _b, _c), m in wl.expected().items():
            per_a[(a,)] = per_a.get((a,), 0) + m
        assert first_scalar_diff(dict(oracle.entries), per_a, exact=True) is None
    elif name == "housing_cov":
        got = _cov_components(oracle.entries.get(()))
        assert first_scalar_diff(got, wl.expected(), exact=False) is None
    else:
        want = wl.dense[0] @ wl.dense[1] @ wl.dense[2]
        want = {(r, c): float(want[r, c]) for r in range(wl.p) for c in range(wl.p)}
        assert first_scalar_diff(dict(oracle.entries), want, exact=False) is None


def test_scale_uses_the_kernel_time_near_each_call():
    ms = 1_000_000
    sp = Speed()
    sp.at.extend([0, 50 * ms, 1000 * ms])
    sp.ns.extend([2 * REF_NS, 2 * REF_NS, REF_NS // 2])
    # Both samples within 100 ms say the machine runs at half speed.
    assert list(sp.scale([10 * ms], [1000])) == pytest.approx([0.5])
    # No sample that close: the last one before and the first one after.
    assert list(sp.scale([600 * ms], [1000])) == pytest.approx([REF_NS / (1.25 * REF_NS)])


def test_update_tail_is_the_median_of_per_block_percentiles():
    calm = [100] * 980 + [200] * 20
    burst = [100] * 900 + [900] * 100
    assert block_tail(calm + burst + calm, 99.0) == 200
    # Fewer calls than a block: one percentile over all of them.
    assert block_tail(list(range(1, 101)), 90.0) == 90


def test_comparison_depends_on_the_ring():
    assert first_scalar_diff({(1,): 2}, {(1,): 2}, exact=True) is None
    assert first_scalar_diff({(1,): 2}, {(1,): 3}, exact=True) == "key (1,): maintained 2, expected 3"
    assert first_scalar_diff({}, {(1,): 0}, exact=True) is None
    assert first_scalar_diff({(2,): 1}, {}, exact=True) == "key (2,): maintained 1, expected 0"
    assert first_scalar_diff({(1,): 0.1 + 0.2}, {(1,): 0.3}, exact=False) is None
    assert first_scalar_diff({(1,): 1.0, (2,): 2.8e-17}, {(1,): 1.0}, exact=False) is None
    assert first_scalar_diff({(1,): 1.001}, {(1,): 1.0}, exact=False) is not None


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    cmd = SPEC["command"] + ["--workload", "chain_int", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run([sys.executable] + cmd[1:], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
