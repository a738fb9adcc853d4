import re
from pathlib import Path

import numpy as np
import pytest

from dilqr.cli import EXIT_USAGE, main
from dilqr.costs import NominalTrajectory
from dilqr.errors import ContractViolation
from dilqr.feedback import DecoupledPolicy
from dilqr.serialize import (
    POLICY_MAGIC,
    TRAJECTORY_MAGIC,
    load_policy,
    load_trajectory,
    save_policy,
    save_trajectory,
)

BENCHMARK_POLICY = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cartpole_policy.txt"

# values chosen to stress decimal round-tripping: exact dyadics, repeating
# binary fractions, subnormal-adjacent magnitudes, and long mantissas
AWKWARD = [0.1, 1 / 3, 2**-30, 1e-300, 123456789.123456789, np.pi, -0.0]


def awkward_trajectory(N=4, n_x=2, n_u=1):
    rng = np.random.default_rng(0)
    states = rng.standard_normal((N + 1, n_x))
    states[0, :] = AWKWARD[: n_x]
    controls = rng.standard_normal((N, n_u))
    controls[0, 0] = AWKWARD[3]
    return NominalTrajectory(states, controls, float(np.pi))


class TestTrajectoryRoundTrip:
    def test_bit_exact(self, tmp_path):
        traj = awkward_trajectory()
        p = tmp_path / "traj.txt"
        save_trajectory(p, traj, "pendulum")
        loaded, env_name = load_trajectory(p)
        assert env_name == "pendulum"
        assert np.array_equal(loaded.states, traj.states)
        assert np.array_equal(loaded.controls, traj.controls)
        assert loaded.cost == traj.cost

    def test_rewriting_is_byte_identical(self, tmp_path):
        traj = awkward_trajectory()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_trajectory(a, traj, "pendulum")
        loaded, name = load_trajectory(a)
        save_trajectory(b, loaded, name)
        assert a.read_bytes() == b.read_bytes()

    def test_file_is_human_readable_text(self, tmp_path):
        p = tmp_path / "traj.txt"
        save_trajectory(p, awkward_trajectory(), "pendulum")
        lines = p.read_text().splitlines()
        assert lines[0] == TRAJECTORY_MAGIC
        assert "env = pendulum" in lines
        assert "[states]" in lines and "[controls]" in lines


class TestPolicyRoundTrip:
    def _policy(self):
        traj = awkward_trajectory()
        gains = np.random.default_rng(1).standard_normal((4, 1, 2))
        gains[0, 0, 0] = 1 / 3
        return DecoupledPolicy(traj, gains)

    def test_bit_exact(self, tmp_path):
        policy = self._policy()
        p = tmp_path / "policy.txt"
        save_policy(p, policy, "cartpole")
        loaded, env_name = load_policy(p)
        assert env_name == "cartpole"
        assert np.array_equal(loaded.gains, policy.gains)
        assert np.array_equal(loaded.nominal.states, policy.nominal.states)
        assert np.array_equal(loaded.nominal.controls, policy.nominal.controls)
        assert loaded.nominal.cost == policy.nominal.cost

    def test_rewriting_is_byte_identical(self, tmp_path):
        policy = self._policy()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_policy(a, policy, "cartpole")
        loaded, name = load_policy(a)
        save_policy(b, loaded, name)
        assert a.read_bytes() == b.read_bytes()

    def test_policy_file_is_the_trajectory_file_plus_gains(self, tmp_path):
        policy = self._policy()
        a, b = tmp_path / "traj.txt", tmp_path / "policy.txt"
        save_trajectory(a, policy.nominal, "cartpole")
        save_policy(b, policy, "cartpole")
        traj_lines, policy_lines = a.read_text().splitlines(), b.read_text().splitlines()
        n = len(traj_lines)
        assert policy_lines[0] == POLICY_MAGIC and traj_lines[0] == TRAJECTORY_MAGIC
        assert policy_lines[1:n] == traj_lines[1:]
        assert policy_lines[n] == "[gains]"
        assert len(policy_lines) == n + 1 + policy.nominal.horizon

    def test_gains_reshape_preserves_layout(self, tmp_path):
        traj = awkward_trajectory()
        gains = np.arange(8, dtype=float).reshape(4, 1, 2)
        p = tmp_path / "policy.txt"
        save_policy(p, DecoupledPolicy(traj, gains), "x")
        loaded, _ = load_policy(p)
        assert np.array_equal(loaded.gains, gains)


class TestMalformedFiles:
    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("some other file\n")
        with pytest.raises(ContractViolation, match="expected a file starting"):
            load_trajectory(p)

    def test_policy_file_is_not_a_trajectory(self, tmp_path):
        p = tmp_path / "policy.txt"
        save_policy(p, DecoupledPolicy(awkward_trajectory(), np.zeros((4, 1, 2))), "x")
        with pytest.raises(ContractViolation):
            load_trajectory(p)

    def test_truncated_section_rejected(self, tmp_path):
        src = tmp_path / "traj.txt"
        save_trajectory(src, awkward_trajectory(), "pendulum")
        lines = src.read_text().splitlines()
        bad = tmp_path / "cut.txt"
        bad.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ContractViolation, match="truncated|shape|section"):
            load_trajectory(bad)

    def test_missing_section_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            "\n".join(
                [
                    TRAJECTORY_MAGIC,
                    "env = x",
                    "n_x = 1",
                    "n_u = 1",
                    "horizon = 1",
                    "cost = 0.0",
                    "0.0",
                ]
            )
            + "\n"
        )
        with pytest.raises(ContractViolation, match=r"expected section \[states\]"):
            load_trajectory(p)

    @pytest.mark.parametrize(
        "index, replacement, match",
        [
            (2, None, "header field 'n_x' missing"),
            (2, "n_x = two", "n_x = 'two'"),
            (8, "0 zero", r"traj.txt:9: section \[states\] row is not numeric"),
            (4, "horizon = 0", "must be positive"),
        ],
        ids=["missing-header-field", "non-integer-header-field", "non-numeric-row", "zero-horizon"],
    )
    def test_malformed_fields_and_rows_rejected(self, tmp_path, index, replacement, match):
        src = tmp_path / "src.txt"
        save_trajectory(src, awkward_trajectory(), "pendulum")
        lines = src.read_text().splitlines()
        lines[index : index + 1] = [] if replacement is None else [replacement]
        bad = tmp_path / "traj.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractViolation, match=match):
            load_trajectory(bad)

    @pytest.mark.parametrize("cost", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["trajectory", "policy"])
    def test_non_finite_cost_rejected(self, tmp_path, capsys, kind, cost):
        traj = awkward_trajectory()
        p = tmp_path / f"{kind}.txt"
        if kind == "trajectory":
            save_trajectory(p, traj, "pendulum")
            load, command = load_trajectory, "feedback"
        else:
            save_policy(p, DecoupledPolicy(traj, np.zeros((4, 1, 2))), "pendulum")
            load, command = load_policy, "eval"
        text = p.read_text()
        p.write_text(text.replace(f"cost = {traj.cost!r}\n", f"cost = {cost}\n"))
        assert p.read_text() != text
        with pytest.raises(ContractViolation, match="cost .* is not finite"):
            load(p)
        assert main([command, "--out", str(tmp_path / "out"), str(p)]) == EXIT_USAGE
        assert "is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["policy", "trajectory"])
    def test_text_after_the_last_section_rejected(self, tmp_path, capsys, kind):
        # a policy with one gains row too many; a trajectory with a [gains] block
        traj = awkward_trajectory()
        p = tmp_path / f"{kind}.txt"
        if kind == "policy":
            save_policy(p, DecoupledPolicy(traj, np.zeros((4, 1, 2))), "pendulum")
            load, command, extra = load_policy, "eval", ["1.0 2.0"]
        else:
            save_trajectory(p, traj, "pendulum")
            load, command, extra = load_trajectory, "feedback", ["[gains]"] + ["0.0 0.0"] * 4
        last = len(p.read_text().splitlines())
        p.write_text(p.read_text() + "\n".join(extra) + "\n")
        where = rf"{kind}.txt:{last + 1}: text after the last section: '{re.escape(extra[0])}'"
        with pytest.raises(ContractViolation, match=where):
            load(p)
        out = tmp_path / "out"
        assert main([command, "--out", str(out), str(p)]) == EXIT_USAGE
        assert "text after the last section" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_lines_after_the_last_section_still_load(self, tmp_path):
        traj = awkward_trajectory()
        p = tmp_path / "policy.txt"
        save_policy(p, DecoupledPolicy(traj, np.ones((4, 1, 2))), "pendulum")
        p.write_text(p.read_text() + "\n  \n\t\n")
        loaded, _ = load_policy(p)
        assert np.array_equal(loaded.gains, np.ones((4, 1, 2)))

    def test_the_stored_benchmark_policy_loads(self):
        policy, env_name = load_policy(BENCHMARK_POLICY)
        assert env_name == "cartpole"
        assert policy.gains.shape == (policy.nominal.horizon, 1, 4)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ContractViolation):
            load_policy(p)
