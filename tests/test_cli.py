import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dilqr
from dilqr.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    PROBE_POINTS,
    _reference_jacobian,
    main,
)
from dilqr.config import parse_config
from dilqr.costs import total_cost
from dilqr.errors import NumericalFailure
from dilqr.envs import ENV_BUILDERS, NoiseModel, make_env, rollout
from dilqr.evaluation import monte_carlo_eval, variance_scaling_fit
from dilqr.serialize import load_policy, load_trajectory, save_policy
from dilqr.sysid import EstimatorConfig, estimate_fd, estimate_llscd


LINEAR_CFG = """
[env]
name = linear_test
horizon = 15

[eval]
rollouts = 200
epsilons = 0.01, 0.02, 0.04, 0.08
"""


@pytest.fixture()
def linear_cfg(tmp_path):
    p = tmp_path / "linear.cfg"
    p.write_text(LINEAR_CFG)
    return str(p)


def run(*argv):
    return main(list(argv))


def _read_bench(out):
    with open(out / "bench.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def _subprocess_env():
    """The environment, with this checkout's dilqr first on PYTHONPATH."""
    src = Path(dilqr.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class TestPipeline:
    def test_train_feedback_eval_sweep_end_to_end(self, tmp_path, linear_cfg, capsys):
        out = tmp_path / "run"
        assert run("train", "--config", linear_cfg, "--out", str(out)) == EXIT_OK
        assert (out / "trajectory.txt").exists()
        assert (out / "trace.csv").exists()
        assert (out / "config.txt").exists()
        traj, env_name = load_trajectory(out / "trajectory.txt")
        assert env_name == "linear_test"
        assert traj.horizon == 15

        assert (
            run("feedback", "--config", linear_cfg, "--out", str(out),
                str(out / "trajectory.txt"))
            == EXIT_OK
        )
        policy, _ = load_policy(out / "policy.txt")
        assert policy.gains.shape == (15, 1, 2)

        assert (
            run("eval", "--config", linear_cfg, "--out", str(out), str(out / "policy.txt"))
            == EXIT_OK
        )
        eval_lines = (out / "eval.csv").read_text().splitlines()
        assert eval_lines[0].startswith("epsilon,channel")
        assert len(eval_lines) == 2

        assert (
            run("sweep", "--config", linear_cfg, "--out", str(out), str(out / "policy.txt"))
            == EXIT_OK
        )
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep_lines) == 1 + 4  # header + one row per epsilon
        fit_lines = (out / "fit.csv").read_text().splitlines()
        assert fit_lines[0] == "response,slope,intercept,r_squared,n_points"
        assert any(line.startswith("cost_var,") for line in fit_lines[1:])
        out_text = capsys.readouterr().out
        assert "train:" in out_text and "sweep:" in out_text

    @pytest.mark.parametrize("name", list(ENV_BUILDERS))
    def test_jacobian_bench_writes_comparison_table(self, tmp_path, name):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"[env]\nname = {name}\n")
        out = tmp_path / "bench"
        assert run("jacobian-bench", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        header, rows = _read_bench(out)
        assert header == [
            "env", "point", "method", "n_s_or_h", "wall_time_s", "eval_count",
            "max_abs_error_vs_oracle",
        ]
        # the config's environment only: 2 points x 2 methods
        assert [(r["env"], r["point"], r["method"]) for r in rows] == [
            (name, point, method) for point in ("probe", "bound") for method in ("llscd", "fd")
        ]
        env = make_env(name)
        n_s = env.n_x + env.n_u + 4
        for r in rows:
            llscd = r["method"] == "llscd"
            assert float(r["n_s_or_h"]) == (n_s if llscd else 1e-4)
            assert int(r["eval_count"]) == (2 * n_s if llscd else 2 * (env.n_x + env.n_u))
            assert float(r["wall_time_s"]) == 0.0
            assert 0.0 <= float(r["max_abs_error_vs_oracle"]) < 1e-3

    def test_jacobian_bench_uses_the_configured_environment(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[env]\nname = cartpole\ndt = 0.05\nforce_limit = 5\n")
        out = tmp_path / "bench"
        assert run("jacobian-bench", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        _, rows = _read_bench(out)
        bound = {r["method"]: r for r in rows if r["point"] == "bound"}
        env = make_env("cartpole", dt=0.05, force_limit=5.0)
        x, u = PROBE_POINTS["cartpole"][0], np.array([5.0])
        A_ref, B_ref = _reference_jacobian(env, x, u)
        for method, m in (
            ("llscd", estimate_llscd(env, x, u, EstimatorConfig(seed=0))),
            ("fd", estimate_fd(env, x, u, 1e-4)),
        ):
            err = max(np.max(np.abs(m.A - A_ref)), np.max(np.abs(m.B - B_ref)))
            assert float(bound[method]["max_abs_error_vs_oracle"]) == err
            assert int(bound[method]["eval_count"]) == m.eval_count

    def test_jacobian_bench_rejects_an_invalid_environment_override(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[env]\nname = cartpole\ntorque_limit = 5\n")
        out = tmp_path / "bench"
        assert run("jacobian-bench", "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
        assert "torque_limit" in capsys.readouterr().err
        assert not (out / "config.txt").exists()

    def test_trace_explains_the_run(self, tmp_path, linear_cfg, capsys):
        out = tmp_path / "run"
        assert run("train", "--config", linear_cfg, "--out", str(out)) == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == (
            "iteration,cost,mu,alpha,accepted,wall_time_s,eval_count,"
            "backward_success,best_cost,stop_reason"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert [row[-1] for row in rows] == [""] * (len(rows) - 1) + ["converged"]
        assert all(row[7] == "1" for row in rows)
        best = [float(row[8]) for row in rows]
        assert best == sorted(best, reverse=True)
        assert all(float(row[1]) >= b for row, b in zip(rows, best))
        traj, _ = load_trajectory(out / "trajectory.txt")
        assert best[-1] == traj.cost
        assert f"after {len(rows)} iterations (converged)" in capsys.readouterr().out

    def test_a_zero_iteration_run_writes_the_header_alone(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[env]\nname = linear_test\n\n[optimizer]\nmax_iters = 0\n")
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        assert "after 0 iterations (max_iters)" in capsys.readouterr().out
        assert (out / "trace.csv").read_text() == (
            "iteration,cost,mu,alpha,accepted,wall_time_s,eval_count,"
            "backward_success,best_cost,stop_reason\n"
        )
        traj, _ = load_trajectory(out / "trajectory.txt")
        assert traj.cost == 20.0  # the open-loop rollout from e_1 under u = 0

    def test_effective_config_echo_is_reloadable(self, tmp_path, linear_cfg):
        out = tmp_path / "run"
        run("train", "--config", linear_cfg, "--out", str(out))
        echoed = tmp_path / "echo.cfg"
        echoed.write_text((out / "config.txt").read_text())
        out2 = tmp_path / "run2"
        assert run("train", "--config", str(echoed), "--out", str(out2)) == EXIT_OK
        assert (out / "trajectory.txt").read_bytes() == (out2 / "trajectory.txt").read_bytes()

    def test_noiseless_eval_charges_the_config_cost(self, tmp_path, linear_cfg):
        out = tmp_path / "run"
        run("train", "--config", linear_cfg, "--out", str(out))
        run("feedback", "--config", linear_cfg, "--out", str(out), str(out / "trajectory.txt"))
        text = LINEAR_CFG + "\n[cost]\nq = 5\n\n[noise]\nepsilon = 0\n"
        q5 = tmp_path / "q5.cfg"
        q5.write_text(text)
        policy_file = str(out / "policy.txt")
        assert run("eval", "--config", str(q5), "--out", str(out), policy_file) == EXIT_OK
        row = (out / "eval.csv").read_text().splitlines()[1].split(",")
        cfg = parse_config(text)
        env = cfg.make_env()
        policy, _ = load_policy(out / "policy.txt")
        states, controls, _ = rollout(
            env, policy.nominal.states, policy.nominal.controls, policy.gains
        )
        assert float(row[4]) == total_cost(states, controls, cfg.make_cost(env))
        assert float(row[4]) != policy.nominal.cost

    def test_sweep_mean_gap_is_measured_from_the_config_cost(self, tmp_path):
        # the gap's reference is the noiseless rollout under q = 5, not the
        # cost stored with the policy (slope 0.11 against that reference)
        cfg = tmp_path / "q5.cfg"
        cfg.write_text("[env]\nname = linear_test\n")
        out = tmp_path / "run"
        run("train", "--config", str(cfg), "--out", str(out))
        run("feedback", "--config", str(cfg), "--out", str(out), str(out / "trajectory.txt"))
        cfg.write_text("[env]\nname = linear_test\n[cost]\nq = 5\n[eval]\nrollouts = 500\n")
        policy_file = str(out / "policy.txt")
        assert run("sweep", "--config", str(cfg), "--out", str(out), policy_file) == EXIT_OK
        fits = {
            line.split(",")[0]: float(line.split(",")[1])
            for line in (out / "fit.csv").read_text().splitlines()[1:]
        }
        assert fits["mean_cost_gap"] > 1.0

    def test_sweep_says_which_fits_it_skipped(self, tmp_path, capsys):
        # three epsilons are one short of a fit: fit.csv keeps only its header
        cfg = tmp_path / "short.cfg"
        cfg.write_text(
            "[env]\nname = linear_test\n[eval]\nrollouts = 200\nepsilons = 0.01, 0.02, 0.03\n"
        )
        out = tmp_path / "run"
        run("train", "--config", str(cfg), "--out", str(out))
        run("feedback", "--config", str(cfg), "--out", str(out), str(out / "trajectory.txt"))
        capsys.readouterr()
        code = run("sweep", "--config", str(cfg), "--out", str(out), str(out / "policy.txt"))
        assert code == EXIT_OK
        reason = "scaling fit needs >= 4 positive (epsilon, response) pairs, have 3"
        assert capsys.readouterr().out.splitlines() == [
            f"sweep: cost_var not fitted: {reason}",
            f"sweep: mean_cost_gap not fitted: {reason}",
        ]
        assert (out / "fit.csv").read_text() == "response,slope,intercept,r_squared,n_points\n"


@pytest.fixture(scope="module")
def seeded_policy(tmp_path_factory):
    """get(name, seed): the policy file that train and feedback write at that run seed."""
    made = {}

    def get(name, seed):
        if (name, seed) not in made:
            out = tmp_path_factory.mktemp(f"{name}-{seed}")
            cfg = out / "env.cfg"
            cfg.write_text(f"[env]\nname = {name}\n")
            common = ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
            assert run("train", *common) == EXIT_OK
            assert run("feedback", *common, str(out / "trajectory.txt")) == EXIT_OK
            made[name, seed] = out / "policy.txt"
        return made[name, seed]

    return get


class TestSweepReference:
    @pytest.mark.parametrize("channel", ["state", "control"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", ["linear_test", "pendulum", "cartpole"])
    def test_gap_reference_is_the_noiseless_one_row_eval(
        self, monkeypatch, tmp_path, seeded_policy, name, seed, channel
    ):
        # the sweep replays the nominal; monte_carlo_eval at epsilon = 0 steps
        # the same rollout as a one-row batch and must give the same bits
        policy_file = seeded_policy(name, seed)
        text = f"[env]\nname = {name}\n[noise]\nchannel = {channel}\n[eval]\nrollouts = 4\n"
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(text)
        references = []

        def spy(sweep, response, nominal_cost=None):
            references.append(nominal_cost)
            return variance_scaling_fit(sweep, response, nominal_cost=nominal_cost)

        monkeypatch.setattr(dilqr.cli, "variance_scaling_fit", spy)
        argv = ["--config", str(cfg_file), "--seed", str(seed), "--out", str(tmp_path / "out")]
        assert run("sweep", *argv, str(policy_file)) == EXIT_OK
        cfg = parse_config(text)
        env = cfg.make_env()
        policy, _ = load_policy(policy_file)
        noise = NoiseModel(epsilon=0.0, channel=channel, seed=seed)
        expected = monte_carlo_eval(env, policy, noise, 1, cfg.make_cost(env)).cost_mean
        assert [float(r).hex() for r in references] == [expected.hex()] * 2


class TestDeterminism:
    def test_reruns_are_bit_identical(self, tmp_path, linear_cfg):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run("train", "--config", linear_cfg, "--out", str(out))
            run("feedback", "--config", linear_cfg, "--out", str(out),
                str(out / "trajectory.txt"))
            run("sweep", "--config", linear_cfg, "--out", str(out), str(out / "policy.txt"))
            outs.append(out)
        for name in ("trajectory.txt", "trace.csv", "policy.txt", "sweep.csv", "fit.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_timing_column_is_zero_unless_recorded(self, tmp_path, linear_cfg):
        out = tmp_path / "run"
        run("train", "--config", linear_cfg, "--out", str(out))
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[5] == "0.0" for row in rows)

    def test_record_timing_writes_real_durations(self, tmp_path):
        cfg = tmp_path / "timed.cfg"
        cfg.write_text(LINEAR_CFG + "\n[run]\nrecord_timing = true\n")
        out = tmp_path / "run"
        run("train", "--config", str(cfg), "--out", str(out))
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[5]) for r in rows]
        assert all(t > 0.0 for t in times)
        assert times == sorted(times)  # cumulative wall clock

    def test_seed_flag_overrides_config(self, tmp_path, linear_cfg):
        out1, out2, out3 = (tmp_path / t for t in ("s1", "s2", "s3"))
        run("train", "--config", linear_cfg, "--out", str(out1), "--seed", "1")
        run("train", "--config", linear_cfg, "--out", str(out2), "--seed", "1")
        run("train", "--config", linear_cfg, "--out", str(out3), "--seed", "2")
        t1 = (out1 / "trajectory.txt").read_bytes()
        assert t1 == (out2 / "trajectory.txt").read_bytes()
        assert t1 != (out3 / "trajectory.txt").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", "9223372036854775808"])
    def test_seed_outside_63_bits_is_usage_error(self, tmp_path, linear_cfg, capsys, seed):
        # the library folds seeds into 63 bits, so these would alias 2**63 - 1 and 0
        code = run("train", "--config", linear_cfg, "--out", str(tmp_path / "o"), "--seed", seed)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: seed {seed} is outside [0, 2**63)\n"

    def test_largest_seed_still_trains(self, tmp_path, linear_cfg):
        out = tmp_path / "o"
        code = run("train", "--config", linear_cfg, "--out", str(out), "--seed", str(2**63 - 1))
        assert code == EXIT_OK
        assert (out / "trajectory.txt").exists()


class TestExitCodes:
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[rocket]\nthrust = 11\n")
        assert run("train", "--config", str(bad), "--out", str(tmp_path / "o")) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_policy_file_is_usage_error(self, tmp_path):
        assert (
            run("eval", "--out", str(tmp_path / "o"), str(tmp_path / "nope.txt"))
            == EXIT_USAGE
        )

    def test_environment_mismatch_is_usage_error(self, tmp_path, linear_cfg, capsys):
        out = tmp_path / "run"
        run("train", "--config", linear_cfg, "--out", str(out))
        run("feedback", "--config", linear_cfg, "--out", str(out), str(out / "trajectory.txt"))
        capsys.readouterr()
        short = tmp_path / "short.cfg"
        short.write_text(LINEAR_CFG.replace("horizon = 15", "horizon = 5"))
        for command, made, path in (
            ("feedback", "trajectory was recorded", "trajectory.txt"),
            ("eval", "policy was built", "policy.txt"),
            ("sweep", "policy was built", "policy.txt"),
        ):
            # default config selects the pendulum, not the trained linear system
            assert run(command, "--out", str(tmp_path / "o"), str(out / path)) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"{made} on 'linear_test' but config selects 'pendulum'" in err
            # the trained linear system, but not its 15 steps
            argv = ("--config", str(short), "--out", str(tmp_path / "o"), str(out / path))
            assert run(command, *argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"{made} with horizon 15 but config selects horizon 5" in err

    @pytest.mark.parametrize(
        "failure", NumericalFailure.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys, failure):
        import dilqr.cli as cli_mod

        def boom(*args, **kwargs):
            raise failure("boom")

        monkeypatch.setattr(cli_mod, "optimize", boom)
        assert run("train", "--out", str(tmp_path / "o")) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_failed_gain_synthesis_is_numerical_failure(
        self, tmp_path, linear_cfg, monkeypatch, capsys
    ):
        import dilqr.ilqr as ilqr_mod

        out = tmp_path / "run"
        run("train", "--config", linear_cfg, "--out", str(out))
        capsys.readouterr()

        real_cholesky = np.linalg.cholesky

        def boom(a):
            # fail the backward pass's factorization, not the cost-weight checks
            if sys._getframe(1).f_code is ilqr_mod._checked.__code__:
                raise np.linalg.LinAlgError("not positive definite")
            return real_cholesky(a)

        monkeypatch.setattr(ilqr_mod.np.linalg, "cholesky", boom)
        code = run(
            "feedback", "--config", linear_cfg, "--out", str(out), str(out / "trajectory.txt")
        )
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in captured.err
        assert "t=14" in captured.err  # horizon 15: the recursion fails at its first step, N-1
        assert "Traceback" not in captured.err + captured.out

    def test_overflowing_backward_pass_is_numerical_failure(
        self, tmp_path, linear_cfg, monkeypatch, capsys
    ):
        # identified models that overflow J_xx make Q_uu non-finite at every mu,
        # so training escalates mu to mu_max and stops
        import dilqr.ilqr as ilqr_mod
        from dilqr.sysid import LinearizedModel

        overflow = LinearizedModel(
            A=np.broadcast_to(1e200 * np.eye(2), (15, 2, 2)), B=np.ones((15, 2, 1)), eval_count=0
        )
        monkeypatch.setattr(ilqr_mod, "identify_ltv", lambda *args: overflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would escape as an error
            code = run("train", "--config", linear_cfg, "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.err == (
            "numerical failure: mu reached 1e+10 with the backward pass still failing\n"
        )

    def test_overflowing_identification_is_numerical_failure(self, tmp_path):
        # sigma = 1e10 sends cart-pole perturbations to non-finite states; the
        # run fails at identification in one line, with no numpy warnings
        cfg = tmp_path / "huge_sigma.cfg"
        cfg.write_text("[env]\nname = cartpole\n\n[estimator]\nsigma = 1e10\n")
        result = subprocess.run(
            [sys.executable, "-m", "dilqr.cli", "train", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_NUMERICAL
        assert result.stderr == (
            "numerical failure: identification failed at t=0: "
            "linearized model contains non-finite entries\n"
        )

    @pytest.mark.parametrize("env_name", ["pendulum", "cartpole"])
    def test_overflowing_perturbation_draw_is_numerical_failure(self, tmp_path, env_name, capsys):
        # sigma * N(0, 1) overflows to inf at sigma = 1e308; the draw is checked
        # before any step call, in one line and with no numpy warnings
        cfg = tmp_path / "overflowing_sigma.cfg"
        cfg.write_text(f"[env]\nname = {env_name}\n\n[estimator]\nsigma = 1e308\n")
        result = subprocess.run(
            [sys.executable, "-m", "dilqr.cli", "train", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_NUMERICAL
        assert result.stderr == (
            "numerical failure: identification failed at t=0: "
            "perturbations of sigma=1e+308 are not finite\n"
        )
        assert not (tmp_path / "o").exists()
        # jacobian-bench draws the same perturbations after its reference fit
        assert run("jacobian-bench", "--config", str(cfg), "--out", str(tmp_path / "b")) == EXIT_NUMERICAL
        assert "perturbations of sigma=1e+308 are not finite" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command, setting, cores", [
        ("eval", "[noise]\nepsilon = 0.5", 2),
        ("sweep", "[eval]\nrollouts = 600", 1),
        ("sweep", "[eval]\nrollouts = 600", 2),
    ], ids=["eval", "sweep-in-turn", "sweep-forked"])
    def test_a_diverged_evaluation_is_numerical_failure(
        self, tmp_path, seeded_policy, monkeypatch, capsys, command, setting, cores
    ):
        # the default pendulum's policy stepped at dt = 1e3: every rollout overflows;
        # at 600 rollouts per level a sweep on two cores forks, and its child's error
        # comes back through the pipe
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(f"[env]\nname = pendulum\ndt = 1e3\n\n{setting}\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        out = tmp_path / "o"
        argv = ("--config", str(cfg), "--out", str(out), str(seeded_policy("pendulum", 0)))
        assert run(command, *argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: all rollouts diverged; cannot form moments\n"
        )
        assert not out.exists()

    def test_out_naming_a_file_is_usage_error(self, tmp_path, linear_cfg, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run("train", "--config", linear_cfg, "--out", str(taken)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "File exists" in err
        assert taken.read_text() == "not a directory\n"

    def test_rejected_input_file_leaves_no_config_echo(self, tmp_path, linear_cfg, capsys):
        out = tmp_path / "run"
        run("train", "--config", linear_cfg, "--out", str(out))
        run("feedback", "--config", linear_cfg, "--out", str(out), str(out / "trajectory.txt"))
        short = tmp_path / "short.cfg"
        short.write_text(LINEAR_CFG.replace("horizon = 15", "horizon = 5"))
        for command, path in (
            ("feedback", "trajectory.txt"), ("eval", "policy.txt"), ("sweep", "policy.txt"),
        ):
            rejected = tmp_path / command
            argv = ("--config", str(short), "--out", str(rejected), str(out / path))
            assert run(command, *argv) == EXIT_USAGE
            assert not (rejected / "config.txt").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("eval", "[eval]\nrollouts = 0"),
            ("eval", "[eval]\nrollouts = -3"),
            ("eval", "[noise]\nchannel = bogus"),
            ("sweep", "[eval]\nrollouts = 0"),
            ("sweep", "[eval]\nrollouts = -3"),
            ("sweep", "[eval]\nepsilons = 0.5, 1.5"),
            ("sweep", "[eval]\nepsilons = -0.1, 0.05"),
            ("sweep", "[eval]\nepsilons ="),
            ("sweep", "[noise]\nchannel = bogus"),
        ],
        ids=[
            "eval-no-rollouts", "eval-negative-rollouts", "eval-bad-channel",
            "sweep-no-rollouts", "sweep-negative-rollouts", "sweep-epsilon-above-one",
            "sweep-negative-epsilon", "sweep-empty-epsilon-grid", "sweep-bad-channel",
        ],
    )
    def test_rejected_eval_setting_leaves_no_config_echo(
        self, tmp_path, trained_linear, capsys, command, setting
    ):
        policy = tmp_path / "policy.txt"
        save_policy(policy, trained_linear.policy, "linear_test")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[env]\nname = linear_test\n\n{setting}\n")
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out), str(policy)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "config.txt").exists()

    def test_malformed_trajectory_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "traj.txt"
        bad.write_text("dilqr-trajectory v1\nenv = pendulum\nn_x = two\n")
        assert run("feedback", "--out", str(tmp_path / "o"), str(bad)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_x" in err

    def test_substeps_below_one_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "rk4.cfg"
        cfg.write_text("[env]\nsubsteps = 0\n")
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "substeps=0" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("argv", [["train", "--seed", "abc"], ["trian"]])
    def test_argument_errors_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: dilqr") and "error:" in err

    def test_module_entry_point_exists(self):
        import dilqr.cli as cli_mod

        parser = cli_mod.build_parser()
        assert parser.prog == "dilqr"

    def test_import_does_not_load_scipy(self):
        # nor concurrent.futures: epsilon_sweep forks its workers and needs no pool
        probe = "import sys, dilqr.cli; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
