"""Tests of the benchmark's verdict logic and layer attribution.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import os

import pytest

from layers import LAYERS, LayerMap, self_time_by_layer
from verdict import ROOT, compare, spread, verdict

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    E2E = json.load(_fh)["end_to_end"]
BOUND = {m["name"]: m["bound"] for m in E2E}

#: Ten seeds' worth of plausible samples with a ~2% quartile spread.
RPS = [5510.0, 5620.0, 5480.0, 5700.0, 5555.0, 5590.0, 5650.0, 5530.0, 5600.0, 5575.0]


def results(rps, messages=51914, latency=140.07):
    """run.py output lines carrying the given per-run values."""
    out = []
    for value in rps:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in E2E}
        metrics["replay_rps"]["value"] = value
        metrics["sim_messages"]["value"] = messages
        metrics["sim_latency_ms"]["value"] = latency
        out.append({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics})
    return out


def test_identical_sample_sets_pass():
    verdicts = compare(results(RPS), results(RPS), E2E)
    assert set(verdicts.values()) == {"pass"}


def test_injected_20_percent_slowdown_fails():
    assert spread(RPS) < BOUND["replay_rps"] / 3
    slower = [v * 0.8 for v in RPS]
    verdicts = compare(results(RPS), results(slower), E2E)
    assert verdicts["replay_rps"] == "regression"


def test_slowdown_within_bound_passes():
    slower = [v * (1 - BOUND["replay_rps"] / 2) for v in RPS]
    assert compare(results(RPS), results(slower), E2E)["replay_rps"] == "pass"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [3000.0, 7000.0, 4000.0, 6500.0, 5000.0, 3500.0, 6000.0, 4500.0]
    assert spread(noisy) > BOUND["replay_rps"]
    shifted = [v * 0.95 for v in noisy]
    assert verdict(noisy, shifted, "higher", BOUND["replay_rps"]) == "unresolved"


def test_wide_spread_with_every_run_better_is_better():
    noisy = [3000.0, 7000.0, 4000.0, 6500.0]
    faster = [8000.0, 9000.0, 12000.0, 15000.0]
    assert verdict(noisy, faster, "higher", BOUND["replay_rps"]) == "better"


@pytest.mark.parametrize("name,delta", [
    ("sim_messages", 1),
    ("sim_latency_ms", 1e-9),
])
def test_any_change_in_a_sim_metric_is_reported(name, delta):
    kwargs = {"messages": 51914, "latency": 140.07}
    changed = dict(kwargs)
    changed["messages" if name == "sim_messages" else "latency"] += delta
    verdicts = compare(results(RPS, **kwargs), results(RPS, **changed), E2E)
    assert verdicts[name] == "changed"


def test_lower_is_better_direction():
    setup = [0.5, 0.51, 0.49, 0.5, 0.52]
    assert verdict(setup, [v * 1.5 for v in setup], "lower", 0.25) == "regression"
    assert verdict(setup, [v * 0.5 for v in setup], "lower", 0.25) == "better"


def test_builtin_time_is_charged_to_calling_layers(tmp_path):
    pkg = tmp_path / "repro"
    core, proxy = str(pkg / "sim" / "core.py"), str(pkg / "proxy" / "proxy.py")
    step, serve = (core, 10, "step"), (proxy, 20, "serve")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/random.py", 5, "uniform")
    # pstats layout: func -> (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
    stats = {
        step: (1, 1, 1.0, 4.0, {}),
        serve: (1, 1, 0.5, 2.0, {step: (1, 1, 0.5, 2.0)}),
        push: (3, 3, 0.9, 0.9, {step: (2, 2, 0.6, 0.6), helper: (1, 1, 0.3, 0.3)}),
        helper: (1, 1, 0.2, 0.5, {serve: (1, 1, 0.2, 0.5)}),
    }
    totals = self_time_by_layer(stats, LayerMap(str(pkg)))
    assert set(totals) == set(LAYERS)
    assert totals["sim.core"] == pytest.approx(1.0 + 0.6)
    assert totals["proxy"] == pytest.approx(0.5 + 0.2 + 0.3)
    assert sum(totals.values()) == pytest.approx(2.6)
