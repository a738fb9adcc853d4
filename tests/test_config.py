import numpy as np
import pytest

from dilqr.config import (
    DEFAULT_WEIGHTS,
    ConfigError,
    default_config,
    load_config,
    parse_config,
)
from dilqr.errors import ContractViolation
from dilqr.ilqr import OptimizerConfig
from dilqr.sysid import EstimatorConfig

DEFAULT_ECHO = """\
[env]
name = pendulum
horizon = default
dt = default
torque_limit = default
force_limit = default
damping = default
substeps = default

[cost]
q = default
r = default
q_terminal = default
goal = default

[optimizer]
mu = 1e-06
mu_factor = 10.0
mu_min = 1e-09
mu_max = 10000000000.0
alphas = 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125
band = 0.05
conv_tol = 0.005
conv_patience = 5
max_iters = 500

[estimator]
n_s = 0
sigma = 0.001
fd_step = 0.0001

[noise]
epsilon = 0.05
channel = state

[eval]
rollouts = 1000
epsilons = 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08

[run]
seed = 0
record_timing = false
"""


class TestDefaults:
    def test_every_section_present(self):
        cfg = default_config()
        for section in ("env", "cost", "optimizer", "estimator", "noise", "eval", "run"):
            assert section in cfg.values

    def test_pendulum_is_the_default_environment(self):
        cfg = default_config()
        assert cfg.get("env", "name") == "pendulum"
        assert cfg.get("noise", "channel") == "state"
        assert cfg.get("run", "seed") == 0

    def test_default_epsilon_grid_is_the_linear_eight_point_one(self):
        cfg = default_config()
        assert cfg.get("eval", "epsilons") == (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)

    def test_default_echo_text_is_pinned(self):
        assert default_config().dump() == DEFAULT_ECHO

    def test_default_optimizer_and_estimator_are_the_dataclass_defaults(self):
        cfg = default_config()
        assert cfg.make_optimizer() == OptimizerConfig()
        assert cfg.make_estimator() == EstimatorConfig()


class TestFactories:
    def test_make_env_applies_overrides(self):
        cfg = default_config()
        cfg.set("env", "name", "pendulum")
        cfg.set("env", "horizon", 17)
        cfg.set("env", "torque_limit", 3.0)
        env = cfg.make_env()
        assert env.horizon == 17
        assert np.allclose(env.control_bounds, [[-3.0, 3.0]])

    def test_inapplicable_override_rejected(self):
        for name, key, value in [
            ("cartpole", "torque_limit", 3.0),  # cart-pole has force_limit instead
            ("linear_test", "dt", 0.5),  # the linear map never reads dt
        ]:
            cfg = default_config()
            cfg.set("env", "name", name)
            cfg.set("env", key, value)
            with pytest.raises(ConfigError, match=rf"{name!r} does not accept \['{key}'\]"):
                cfg.make_env()

    def test_make_cost_uses_per_environment_weights(self):
        for name in DEFAULT_WEIGHTS:
            cfg = default_config()
            cfg.set("env", "name", name)
            env = cfg.make_env()
            cost = cfg.make_cost(env)
            assert np.allclose(np.diag(cost.Q), DEFAULT_WEIGHTS[name]["q"])
            assert np.allclose(np.diag(cost.Q_terminal), DEFAULT_WEIGHTS[name]["q_terminal"])
            assert np.allclose(cost.x_goal, env.x_goal)

    def test_scalar_weight_broadcasts_to_diagonal(self):
        cfg = default_config()
        cfg.set("cost", "q", (2.0,))
        env = cfg.make_env()
        cost = cfg.make_cost(env)
        assert np.allclose(cost.Q, 2.0 * np.eye(env.n_x))

    def test_wrong_weight_length_rejected(self):
        cfg = default_config()
        cfg.set("cost", "q", (1.0, 2.0, 3.0))
        env = cfg.make_env()
        with pytest.raises(ConfigError, match="entries"):
            cfg.make_cost(env)

    def test_make_noise_reads_the_config_epsilon(self):
        cfg = default_config()
        assert cfg.make_noise().epsilon == 0.05
        cfg.set("noise", "epsilon", 0.02)
        assert cfg.make_noise().epsilon == 0.02

    def test_estimator_inherits_run_seed(self):
        cfg = default_config()
        cfg.set("run", "seed", 42)
        assert cfg.make_estimator().seed == 42
        assert cfg.make_noise().seed == 42

    def test_set_unknown_key_rejected(self):
        cfg = default_config()
        with pytest.raises(ConfigError, match="unknown key"):
            cfg.set("env", "gravity", 9.81)


class TestParsing:
    def test_round_trip_through_dump(self):
        cfg = default_config()
        cfg.set("env", "name", "cartpole")
        cfg.set("optimizer", "band", 0.07)
        cfg.set("run", "seed", 11)
        again = parse_config(cfg.dump())
        assert again.values == cfg.values

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\n[run]\nseed = 5  # inline\n")
        assert cfg.get("run", "seed") == 5

    def test_default_keyword_keeps_the_default(self):
        cfg = parse_config("[optimizer]\nband = default\n")
        assert cfg.get("optimizer", "band") == 0.05

    def test_unknown_section_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:3: unknown section"):
            parse_config("\n\n[engine]\n")

    def test_unknown_key_reports_line_number(self):
        # a removed key fails like any other unknown key
        for text, key in [
            ("[run]\npilot = 1\n", "run.pilot"),
            ("[estimator]\napprox_identity = false\n", "estimator.approx_identity"),
        ]:
            with pytest.raises(ConfigError, match=rf"<config>:2: unknown key {key}$"):
                parse_config(text)

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:2: bad value"):
            parse_config("[run]\nseed = pony\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key",
        [("optimizer", "band"), ("estimator", "sigma"), ("env", "damping"), ("cost", "q"),
         ("eval", "epsilons")],
    )
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"<config>:2: bad value for {section}\.{key}"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["-1", "9223372036854775808", "-9223372036854775808"])
    def test_seed_outside_63_bits_rejected(self, value):
        with pytest.raises(ConfigError, match=rf"<config>:2: bad value for run\.seed: seed {value} "):
            parse_config(f"[run]\nseed = {value}\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("seed = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[run]\nseed 1\n")

    def test_dataclass_sections_parse_by_default_type(self):
        cfg = parse_config(
            "[optimizer]\nalphas = 1.0 0.3\nconv_patience = 7\n"
            "[estimator]\nn_s = 9\n[run]\nrecord_timing = yes\n"
        )
        opt = cfg.make_optimizer()
        assert opt.alphas == (1.0, 0.3) and opt.conv_patience == 7
        assert opt.estimator == EstimatorConfig(n_s=9)
        assert cfg.get("run", "record_timing") is True
        for text in ("[estimator]\nn_s = 2.5\n", "[run]\nrecord_timing = maybe\n"):
            with pytest.raises(ConfigError, match="bad value"):
                parse_config(text)

    def test_negative_sample_count_rejected(self):
        cfg = parse_config("[estimator]\nn_s = -5\n")
        with pytest.raises(ContractViolation, match="n_s=-5"):
            cfg.make_estimator()

    def test_estimator_seed_is_not_an_estimator_key(self):
        with pytest.raises(ConfigError, match="unknown key estimator.seed"):
            parse_config("[estimator]\nseed = 3\n")

    def test_float_list_parsing_accepts_commas_and_spaces(self):
        cfg = parse_config("[cost]\nq = 1.0, 2.0\nr = 0.5\n")
        assert cfg.get("cost", "q") == (1.0, 2.0)
        assert cfg.get("cost", "r") == (0.5,)


class TestFileLoading:
    def test_load_from_path(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[run]\nseed = 9\n")
        assert load_config(p).get("run", "seed") == 9

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_file_errors_carry_the_path(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[run]\nseed = x\n")
        with pytest.raises(ConfigError, match=str(p)):
            load_config(p)
