"""Smoke runs of the scripts under scripts/: each builds its pipeline through
the config factories, so a factory change that breaks a script shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dilqr.envs import ENV_BUILDERS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_jacobian_accuracy_prints_every_environment(tmp_path):
    out = run_script("jacobian_accuracy.py", "--sigmas", "1e-3", cwd=tmp_path)
    for name in ("linear_test", "pendulum", "cartpole"):
        assert f"== {name} " in out
    assert "central diff (h=1e-4)" in out


@pytest.mark.parametrize(
    "name, args, expect",
    [
        ("feedback_vs_open_loop.py",
         ("--env", "linear_test", "--rollouts", "50", "--epsilons", "0.02", "0.05"),
         "closed var"),
        ("noise_scaling_study.py",
         ("--envs", "linear_test", "--rollouts", "50"),
         "Var(J) slope"),
    ],
)
def test_study_scripts_run_on_the_linear_system(tmp_path, name, args, expect):
    out = run_script(name, *args, cwd=tmp_path)
    assert "linear_test" in out and expect in out


def test_noise_scaling_study_reports_the_stop_reason(tmp_path):
    out = run_script("noise_scaling_study.py", "--envs", "linear_test", "--rollouts", "50",
                     cwd=tmp_path)
    assert "iterations (converged)" in out


@pytest.mark.parametrize("name", ["train_swingup.py", "feedback_vs_open_loop.py"])
def test_script_help_lists_every_environment(tmp_path, name):
    out = run_script(name, "--help", cwd=tmp_path)
    assert "--rollouts" in out
    for env_name in ENV_BUILDERS:
        assert env_name in out
    assert not any(tmp_path.iterdir())
