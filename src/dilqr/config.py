"""Run configuration: flat `key = value` text with bracketed sections.

Every key has a default; unknown sections or keys are rejected with the
offending line number. The effective (fully defaulted) config is echoed
alongside every run's outputs for provenance.

Each default has one home. The [optimizer] and [estimator] sections are
built from the fields of `ilqr.OptimizerConfig` and `sysid.EstimatorConfig`
(the estimator's seed is `run.seed`), and `eval.epsilons` defaults to
`evaluation.DEFAULT_EPSILON_GRID`. The [env], [cost], [noise] and [run]
defaults are written out in SCHEMA below.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import envs
from .costs import QuadraticCostModel
from .envs import Environment, NoiseModel
from .evaluation import DEFAULT_EPSILON_GRID
from .ilqr import OptimizerConfig
from .sysid import EstimatorConfig


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _parse_floats(s: str) -> tuple:
    return tuple(_parse_float(v) for v in s.replace(",", " ").split())


def parse_seed(s) -> int:
    """A run seed. Seeds are folded into 63 bits downstream, so any other
    value would silently alias a seed inside the range."""
    v = int(s)
    if not 0 <= v < 2**63:
        raise ConfigError(f"seed {v} is outside [0, 2**63)")
    return v


def _fields_section(cls, omit: str) -> dict:
    """(parser, default) per field of a config dataclass; the parser follows the default's type."""
    section = {}
    for f in fields(cls):
        if f.name != omit:
            default = f.default if f.default_factory is MISSING else f.default_factory()
            parser = {bool: _parse_bool, float: _parse_float, tuple: _parse_floats}.get(
                type(default), type(default)
            )
            section[f.name] = (parser, default)
    return section


# (parser, default); None default means "derived from the environment"
SCHEMA = {
    "env": {
        "name": (str, "pendulum"),
        "horizon": (int, None),
        "dt": (_parse_float, None),
        "torque_limit": (_parse_float, None),
        "force_limit": (_parse_float, None),
        "damping": (_parse_float, None),
        "substeps": (int, None),
    },
    "cost": {
        "q": (_parse_floats, None),
        "r": (_parse_floats, None),
        "q_terminal": (_parse_floats, None),
        "goal": (_parse_floats, None),
    },
    "optimizer": _fields_section(OptimizerConfig, omit="estimator"),
    "estimator": _fields_section(EstimatorConfig, omit="seed"),
    "noise": {
        "epsilon": (_parse_float, 0.05),
        "channel": (str, "state"),
    },
    "eval": {
        "rollouts": (int, 1000),
        "epsilons": (_parse_floats, DEFAULT_EPSILON_GRID),
    },
    "run": {
        "seed": (parse_seed, 0),
        "record_timing": (_parse_bool, False),
    },
}

# built-in per-environment cost weights (diagonals)
DEFAULT_WEIGHTS = {
    "linear_test": dict(q=(1.0, 1.0), r=(1.0,), q_terminal=(10.0, 10.0)),
    "pendulum": dict(q=(0.5, 0.1), r=(0.1,), q_terminal=(60.0, 6.0)),
    "cartpole": dict(q=(0.05, 0.05, 1.0, 0.2), r=(0.1,), q_terminal=(1.0, 0.5, 40.0, 4.0)),
}


@dataclass
class RunConfig:
    """Parsed, fully defaulted configuration for one command invocation."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, value) -> None:
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        self.values[section][key] = value

    # -- factories ---------------------------------------------------------

    def make_env(self) -> Environment:
        name = self.get("env", "name")
        overrides = {k: v for k, v in self.values["env"].items() if k != "name" and v is not None}
        if name not in envs.ENV_BUILDERS:
            raise ConfigError(f"unknown environment {name!r}")
        allowed = inspect.signature(envs.ENV_BUILDERS[name]).parameters
        bad = [k for k in overrides if k not in allowed]
        if bad:
            raise ConfigError(f"environment {name!r} does not accept {bad}")
        return envs.make_env(name, **overrides)

    def make_cost(self, env: Environment) -> QuadraticCostModel:
        defaults = DEFAULT_WEIGHTS.get(env.name, None)

        def diag(key, size):
            v = self.get("cost", key)
            if v is None:
                if defaults is None:
                    raise ConfigError(f"cost.{key} required for environment {env.name!r}")
                v = defaults[key]
            if len(v) == 1:
                v = v * size
            if len(v) != size:
                raise ConfigError(f"cost.{key} needs 1 or {size} entries, got {len(v)}")
            return np.diag(v)

        goal = self.get("cost", "goal")
        goal = env.x_goal if goal is None else np.asarray(goal, dtype=float)
        if goal.shape != (env.n_x,):
            raise ConfigError(f"cost.goal needs {env.n_x} entries")
        return QuadraticCostModel(
            Q=diag("q", env.n_x),
            R=diag("r", env.n_u),
            Q_terminal=diag("q_terminal", env.n_x),
            x_goal=goal,
        )

    def make_estimator(self) -> EstimatorConfig:
        return EstimatorConfig(**self.values["estimator"], seed=self.get("run", "seed"))

    def make_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(**self.values["optimizer"], estimator=self.make_estimator())

    def make_noise(self) -> NoiseModel:
        return NoiseModel(
            epsilon=self.get("noise", "epsilon"),
            channel=self.get("noise", "channel"),
            seed=self.get("run", "seed"),
        )

    # -- text round trip ---------------------------------------------------

    def dump(self) -> str:
        """Effective config as parseable text (full provenance echo)."""
        out = []
        for section, keys in SCHEMA.items():
            out.append(f"[{section}]")
            for key in keys:
                value = self.values[section][key]
                out.append(f"{key} = {_format_value(value)}")
            out.append("")
        return "\n".join(out)


def _format_value(value) -> str:
    if value is None:
        return "default"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def default_config() -> RunConfig:
    return RunConfig({s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()})


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text over the defaults; errors carry line numbers."""
    cfg = default_config()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {section}.{key}")
        if value == "default":
            continue
        parser, _ = SCHEMA[section][key]
        try:
            cfg.values[section][key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {section}.{key}: {exc}") from exc
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))
