"""Tiny-size smoke runs: every workload emits every metric by name with its unit."""

import json
from pathlib import Path

import pytest

import layers
import run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
SWING_UP = "swing-up |theta_N - pi| <= 0.1"

# end-to-end figures each workload reports on the line before the result
REPORTED = {
    "pendulum-train": {"setup_s", "train_s", "train_iters", "train_step_calls",
                       "final_cost", "policy_s", "pipeline_s", "peak_rss_mb"},
    "cartpole-sweep": {"setup_s", "final_cost", "sweep_rollouts_per_s",
                       "var_slope_gap", "pipeline_s", "peak_rss_mb"},
    "cartpole-cli": {"setup_s", "train_s", "train_iters", "train_step_calls",
                     "final_cost", "var_slope_gap", "pipeline_s", "peak_rss_mb"},
}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(REPORTED)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(REPORTED))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, detail = run.run(workload, seed=0, seconds=0.0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == len(detail["failed_checks"])
    # tiny runs stop training after 3 iterations, short of a swing-up
    assert set(detail["failed_checks"]) <= {SWING_UP}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(detail["report"]) == REPORTED[workload]
    assert all(detail["report"][k]["unit"] == run.REPORT_UNITS[k] for k in detail["report"])
    if trace and workload != "cartpole-sweep":
        assert result["metrics"]["ilqr.eval_count_gap"]["value"] == 0
