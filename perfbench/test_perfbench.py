"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import run as entry  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ftflow.experiments import load_config, preset, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.MEMBERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    first = workloads.write_configs(workloads.MEMBERS[workload](7), tmp_path / "a")
    second = workloads.write_configs(workloads.MEMBERS[workload](7), tmp_path / "b")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    if workload != "fig1-rosenbrock":  # the presets ignore the seed
        other = workloads.write_configs(workloads.MEMBERS[workload](8), tmp_path / "c")
        assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def test_sweep_draws_stay_in_their_ranges():
    for cfg in workloads.sweep_members(3):
        p = cfg.objective_params["p"]
        assert 1.5 <= p <= 3.0
        assert -1.0 <= cfg.flow.alpha < workloads.alpha_upper(p)
        assert 0.3 <= cfg.flow.beta <= 0.7 and 0.3 <= cfg.flow.gamma <= 0.7
        assert 0.5 <= sum(x * x for x in cfg.theta0) ** 0.5 <= 2.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_passes_see_the_same_inputs(workload, tmp_path):
    # untraced passes hand the CLI the generated files (fig1: the presets it
    # expands itself); traced passes load the same files with load_config
    configs = workloads.MEMBERS[workload](5)
    paths = workloads.write_configs(configs, tmp_path)
    assert [load_config(p) for p in paths] == configs
    if workload == "fig1-rosenbrock":
        assert harness._cli_argvs(workload, paths) == [(["repro", "fig1"], 6)]
    else:
        assert harness._cli_argvs(workload, paths) == [(["run", "--config", str(p)], 1) for p in paths]


def test_checker_flags_a_perturbed_settled_at():
    cfg = preset("fig2-p1.5")
    ref = oracle.reference_solve(cfg)
    assert ref.settled_at == pytest.approx(2.41297286, abs=1e-6)
    _, summary = run(cfg)
    assert oracle.check(summary.settled_at, summary.terminated_reason, ref) is None
    miss = oracle.check(summary.settled_at + 2e-6, summary.terminated_reason, ref)
    assert miss is not None and miss.kind == "settled_at"
    miss = oracle.check(None, "horizon", ref)
    assert miss is not None and miss.kind == "terminated_reason"


@pytest.mark.parametrize("members", [30, 6])
def test_tail_percentile_has_ten_runs_above_it_whatever_the_pass_count(members):
    pct, passes = harness.tail_percentile(members)
    fewest = [i + 0.001 * k for k in range(passes) for i in range(members)]
    assert sum(x > np.percentile(fewest, pct) for x in fewest) == 10
    one_pass = [float(i) for i in range(members)]
    assert np.percentile(one_pass * (passes + 3), pct) == pytest.approx(np.percentile(one_pass * passes, pct))


def test_probes_scale_time_by_the_reference_and_leave_probe_time_out():
    # a probe that takes 2 ms, read against a 4 ms reference: the host looks twice as fast
    with speed.Probes(lambda: time.sleep(0.002), 0.01, 0.004) as probes:
        time.sleep(0.1)
    raw, adjusted = probes.wall()
    assert len(probes.times) >= 5
    # the sleep ends 0.1 s after it began, probes included; raw leaves them out
    assert raw == pytest.approx(0.1 - sum(probes.seconds()[1:-1]), abs=0.005)
    assert adjusted / raw == pytest.approx(2.0, rel=0.2)


def test_benchmark_json_lists_the_harness_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        row[:3] for row in harness.LAYER_METRICS
    ]
    assert WORKLOADS == list(entry.WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section, tmp_path, capsys, monkeypatch):
    # two sweep draws keep this quick; the code path is the full one
    monkeypatch.setitem(workloads.MEMBERS, "ppower-sweep", lambda seed: workloads.sweep_members(seed, count=2))
    args = Namespace(workload="ppower-sweep", seed=1, seconds=0.1, trace=trace)
    assert harness.run(args, 1, tmp_path) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.lstrip().startswith(name) and f" {unit} " in line for line in out[:-1]), name
