"""Flat-text serialization of trajectories and policies.

Files are line-oriented decimal text at full round-trip precision, so a
save/load cycle is bit-exact. Layout: a versioned magic line, `key = value`
header fields, then bracketed array sections with one row per line. Only
blank lines may follow the last section.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .costs import NominalTrajectory
from .errors import ContractViolation
from .feedback import DecoupledPolicy

TRAJECTORY_MAGIC = "dilqr-trajectory v1"
POLICY_MAGIC = "dilqr-policy v1"


def _format_row(row) -> str:
    return " ".join(repr(float(v)) for v in np.atleast_1d(row))


def _trajectory_lines(magic: str, traj: NominalTrajectory, env_name: str) -> list[str]:
    lines = [
        magic,
        f"env = {env_name}",
        f"n_x = {traj.states.shape[1]}",
        f"n_u = {traj.controls.shape[1]}",
        f"horizon = {traj.horizon}",
        f"cost = {repr(float(traj.cost))}",
        "[states]",
    ]
    lines += [_format_row(row) for row in traj.states]
    lines.append("[controls]")
    lines += [_format_row(row) for row in traj.controls]
    return lines


def save_trajectory(path, traj: NominalTrajectory, env_name: str) -> None:
    lines = _trajectory_lines(TRAJECTORY_MAGIC, traj, env_name)
    Path(path).write_text("\n".join(lines) + "\n")


def save_policy(path, policy: DecoupledPolicy, env_name: str) -> None:
    """The trajectory file of the policy's nominal, under the policy magic, plus [gains]."""
    lines = _trajectory_lines(POLICY_MAGIC, policy.nominal, env_name)
    lines.append("[gains]")
    lines += [_format_row(K.reshape(-1)) for K in policy.gains]
    Path(path).write_text("\n".join(lines) + "\n")


class _Parser:
    def __init__(self, path, magic: str):
        self.path = path
        self.lines = Path(path).read_text().splitlines()
        if not self.lines or self.lines[0] != magic:
            raise ContractViolation(f"{path}: expected a file starting with {magic!r}")
        self.pos = 1
        self.header: dict[str, str] = {}
        while self.pos < len(self.lines) and "=" in self.lines[self.pos]:
            key, _, value = self.lines[self.pos].partition("=")
            self.header[key.strip()] = value.strip()
            self.pos += 1

    def section(self, name: str, rows: int, cols: int) -> np.ndarray:
        if self.pos >= len(self.lines) or self.lines[self.pos] != f"[{name}]":
            raise ContractViolation(f"expected section [{name}] at line {self.pos + 1}")
        self.pos += 1
        block = self.lines[self.pos : self.pos + rows]
        if len(block) != rows:
            raise ContractViolation(f"section [{name}] truncated")
        data = np.empty((rows, cols))
        for i, line in enumerate(block):
            where = f"{self.path}:{self.pos + i + 1}: section [{name}]"
            try:
                row = [float(v) for v in line.split()]
            except ValueError:
                raise ContractViolation(f"{where} row is not numeric: {line!r}") from None
            if len(row) != cols:
                raise ContractViolation(f"{where} row has {len(row)} values, want {cols}")
            data[i] = row
        self.pos += rows
        return data

    def end(self) -> None:
        """Refuse any non-blank line after the last section read."""
        for number, line in enumerate(self.lines[self.pos :], self.pos + 1):
            if line.strip():
                raise ContractViolation(
                    f"{self.path}:{number}: text after the last section: {line!r}"
                )

    def field(self, key: str, parse=str):
        """Header field `key` converted by parse; missing or malformed raises ContractViolation."""
        if key not in self.header:
            raise ContractViolation(f"{self.path}: header field {key!r} missing")
        try:
            return parse(self.header[key])
        except ValueError:
            raise ContractViolation(f"{self.path}: bad {key} = {self.header[key]!r}") from None


def _read_trajectory(path, magic: str) -> tuple[_Parser, NominalTrajectory]:
    p = _Parser(path, magic)
    n_x, n_u, N = (p.field(key, int) for key in ("n_x", "n_u", "horizon"))
    if min(n_x, n_u, N) < 1:
        raise ContractViolation(f"{path}: n_x, n_u and horizon must be positive")
    states = p.section("states", N + 1, n_x)
    controls = p.section("controls", N, n_u)
    return p, NominalTrajectory(states, controls, p.field("cost", float))


def load_trajectory(path) -> tuple[NominalTrajectory, str]:
    p, traj = _read_trajectory(path, TRAJECTORY_MAGIC)
    p.end()
    return traj, p.field("env")


def load_policy(path) -> tuple[DecoupledPolicy, str]:
    p, traj = _read_trajectory(path, POLICY_MAGIC)
    N, n_x, n_u = traj.horizon, traj.states.shape[1], traj.controls.shape[1]
    gains = p.section("gains", N, n_u * n_x).reshape(N, n_u, n_x)
    p.end()
    return DecoupledPolicy(nominal=traj, gains=gains), p.field("env")
