"""Smoke runs of the scripts under scripts/: each builds its pipeline through
the config factories or the CLI, so a change that breaks a script shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dilqr.envs import ENV_BUILDERS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def _run(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name, *args, cwd):
    result = _run(name, *args, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_feedback_vs_open_loop_rejects_a_bad_seed_before_training(tmp_path):
    result = _run("feedback_vs_open_loop.py", "--env", "linear_test", "--seed", "-1", cwd=tmp_path)
    assert result.returncode != 0
    assert "--seed" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "name, args, expect",
    [
        ("feedback_vs_open_loop.py",
         ("--env", "linear_test", "--rollouts", "50", "--epsilons", "0.02", "0.05"),
         "closed var"),
        ("train_swingup.py",
         ("--env", "linear_test", "--rollouts", "50"),
         "slope="),
    ],
)
def test_study_scripts_run_on_the_linear_system(tmp_path, name, args, expect):
    out = run_script(name, *args, cwd=tmp_path)
    assert "linear_test" in out and expect in out


def test_train_swingup_reports_the_stop_reason_and_slopes(tmp_path):
    out = run_script("train_swingup.py", "--env", "linear_test", "--rollouts", "50",
                     "--out", str(tmp_path), cwd=tmp_path)
    assert "train: linear_test" in out and "iterations (converged)" in out
    assert "sweep: cost_var slope=" in out and "sweep: mean_cost_gap slope=" in out
    fit = (tmp_path / "linear_test" / "fit.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in fit[1:]] == ["cost_var", "mean_cost_gap"]


def test_train_swingup_writes_one_directory_per_environment(tmp_path):
    out = run_script("train_swingup.py", "--env", "linear_test", "pendulum", "--rollouts", "20",
                     "--channel", "control", "--out", str(tmp_path), cwd=tmp_path)
    for name in ("linear_test", "pendulum"):
        assert f"train: {name} " in out
        run_dir = tmp_path / name
        for file in ("trajectory.txt", "policy.txt", "sweep.csv", "fit.csv"):
            assert (run_dir / file).exists(), run_dir / file
        assert "channel = control" in (run_dir / "config.txt").read_text()
        assert (run_dir / "sweep.csv").read_text().splitlines()[1].split(",")[1] == "control"


@pytest.mark.parametrize("name", ["train_swingup.py", "feedback_vs_open_loop.py"])
def test_script_help_lists_every_environment(tmp_path, name):
    out = run_script(name, "--help", cwd=tmp_path)
    assert "--rollouts" in out
    for env_name in ENV_BUILDERS:
        assert env_name in out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_script_has_help_and_writes_nothing(tmp_path, name):
    assert run_script(name, "--help", cwd=tmp_path).startswith("usage:")
    assert not any(tmp_path.iterdir())
