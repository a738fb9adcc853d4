"""Black-box discrete-time dynamics environments.

Every environment reaches the optimizer only as its black box ``step_fn``;
no module outside the test suite ever reads an analytic Jacobian.

Execution goes through one time loop: it checks its inputs once, then
applies the law u_t = clamp(ubar_t + K_t (x_t - xbar_t)), sends every row
of a batch through ``step_fn`` once per timestep and yields (x_t, u_t) as
it goes.
``rollout`` collects that into the state and control history, which the
open-loop rollout (no K) and the ILQR line search (one trajectory) read.
The Monte-Carlo evaluator steps all M noisy rollouts through the loop at
once and adds up each one's cost as it steps, storing no history.

The RK4 environments integrate a call with one row in x and one in u (a
point, such as the line search's one trajectory, or a batch of one row)
on Python floats, and any larger batch on numpy arrays, through the same
stage code and physics, bound to math and to numpy once, as the
environment is built. A point and its one-row batch take the same path,
so they are equal by construction.
The stage code is generated for the environment's n_x, written out one
statement per state component, because on a point a loop over the
components costs several times the physics it integrates. For n_x = 2 a
stage reads

    [k0, k1] = deriv([x0 + half * k0, x1 + half * k1], u)
    t0 = t0 + 2.0 * k0
    t1 = t1 + 2.0 * k1

and rk4_step shows the whole of it.
Where Python floats raise on overflow and numpy returns inf or nan, the
same call runs the numpy stages instead, so a diverging candidate gets
numpy's result and is rejected like any other.

Stochastic execution adds eps * w_t to x_{t+1} on the state channel, or
eps * u_scale * w_t to the control before clamping on the control
channel, with w_t i.i.d. standard Gaussian per dimension. The loop draws
w_t as step t runs: step t has a generator of its own, keyed through
SeedSequence by (seed, t), and rollout i takes row i of its draws.
Sequential draws are prefix-stable, so a rollout's noise depends neither
on how many rollouts run nor on the horizon, and no (N, M, dim) array of
draws is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from .costs import NominalTrajectory, QuadraticCostModel, total_cost
from .errors import ContractViolation, Diverged

STATE_CHANNEL = "state"
CONTROL_CHANNEL = "control"


@dataclass(frozen=True)
class Environment:
    """An immutable environment specification plus its black-box step map."""

    name: str
    n_x: int
    n_u: int
    dt: float
    horizon: int
    control_bounds: np.ndarray  # (n_u, 2) rows of [lo, hi]
    x0: np.ndarray
    x_goal: np.ndarray
    step_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        bounds = np.asarray(self.control_bounds, dtype=float).reshape(self.n_u, 2)
        object.__setattr__(self, "control_bounds", bounds)
        lo, hi = bounds.T.copy()
        object.__setattr__(self, "_u_lo", lo)
        object.__setattr__(self, "_u_hi", hi)
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x_goal", np.asarray(self.x_goal, dtype=float))
        if self.n_x < 1 or self.n_u < 1 or self.horizon < 1 or not 0 < self.dt < math.inf:
            raise ContractViolation("n_x, n_u, horizon must be >= 1 and dt > 0, finite")
        if not np.all(lo < hi):
            raise ContractViolation("control bounds must satisfy lo < hi")

    @property
    def u_scale(self) -> np.ndarray:
        """Per-dimension half-width of the control bounds (control-noise unit)."""
        return 0.5 * (self.control_bounds[:, 1] - self.control_bounds[:, 0])

    def clamp(self, u: np.ndarray) -> np.ndarray:
        """u clipped into the bounds: np.clip's values at under half its per-call cost.

        The bits are np.clip's too, but for one case: where a bound is a
        signed zero and u the other zero, the two compare equal and clamp
        returns the bound, for a point and a batch alike. np.clip returns u
        there on a batch with n_u = 1, so under np.clip a point and its
        one-row batch differ.
        """
        return np.minimum(np.maximum(u, self._u_lo), self._u_hi)


@dataclass(frozen=True)
class NoiseModel:
    """Scaled additive white Gaussian noise, reproducible from a seed.

    Step t's draws come from one generator keyed by (seed, t); rollout i
    takes row i of them.
    """

    epsilon: float = 0.05
    channel: str = STATE_CHANNEL
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ContractViolation("epsilon must lie in [0, 1)")
        if self.channel not in (STATE_CHANNEL, CONTROL_CHANNEL):
            raise ContractViolation(f"unknown noise channel {self.channel!r}")

    def draws(self, t: int, rows: int, dim: int) -> np.ndarray:
        """The (rows, dim) standard normals of step t for rollouts [0, rows).

        Row i is rollout i's draw from one generator keyed through
        SeedSequence by (seed, t), so it does not depend on rows.
        """
        if rows < 1:
            raise ContractViolation("rows must be >= 1")
        key = np.random.SeedSequence([int(self.seed) & (2**63 - 1), t])
        return np.random.default_rng(key).standard_normal((rows, dim))


def child_seed(seed: int, *key: int) -> int:
    """An independent non-negative 63-bit seed for subproblem `key` of `seed`."""
    sub = np.random.SeedSequence([int(seed) & (2**63 - 1), *key])
    return int(sub.generate_state(1, dtype=np.uint64)[0] >> 1)


def all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() minus the ndarray.all wrapper, which costs more than a small check."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _as_floats(env: Environment, name: str, a) -> np.ndarray:
    """a as a float array; numpy's refusal (a ragged nested list) is a contract violation."""
    try:
        return np.asarray(a, dtype=float)
    except ValueError as e:
        raise ContractViolation(f"bad dimensions for {env.name}: {name} ({e})") from None


def step(env: Environment, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Deterministic black-box transition; controls clamped before integration.

    The checked entry for identification and outside callers; the rollout
    loop checks its inputs once and calls step_fn.
    """
    x = _as_floats(env, "x", x)
    u = _as_floats(env, "u", u)
    if x.shape[-1] != env.n_x or u.shape[-1] != env.n_u:
        raise ContractViolation(
            f"bad dimensions for {env.name}: state {x.shape}, control {u.shape}"
        )
    if not (all_finite(x) and all_finite(u)):
        raise ContractViolation("non-finite state or control passed to step")
    return env.step_fn(x, env.clamp(u))


def _closed_loop(
    env: Environment,
    x_bar: np.ndarray,
    u_bar: np.ndarray,
    K: Optional[np.ndarray],
    noise: Optional[NoiseModel],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one time loop: yields (x_t, u_t) for t < N, then (x_N, alive).

    Arguments and conventions are those of ``rollout``; they are checked as
    it starts, so each step calls env.step_fn unchecked. Each step's noise
    is drawn as the step runs, and its state and control are yielded and
    then dropped, so a consumer that keeps nothing holds O(M) memory.
    Consume it under np.errstate(all="ignore"): a diverging row overflows
    before it is masked.
    """
    x_bar = _as_floats(env, "x_bar", x_bar)
    u_bar = _as_floats(env, "u_bar", u_bar)
    if K is not None:
        K = _as_floats(env, "K", K)
    if (
        x_bar.shape[1:] != (env.n_x,)
        or len(x_bar) < 1
        or u_bar.ndim < 2
        or u_bar.shape[-1] != env.n_u
        or (
            K is not None
            and (K.shape != (len(u_bar), env.n_u, env.n_x) or len(x_bar) != len(u_bar) + 1)
        )
    ):
        shapes = [None if a is None else a.shape for a in (x_bar, u_bar, K)]
        raise ContractViolation(f"bad rollout dimensions for {env.name}: {shapes}")
    batch = u_bar.shape[1:-1]
    if 0 in batch or (noise is not None and len(batch) != 1):
        raise ContractViolation(f"bad rollout batch {batch}: noise needs controls (N, M, n_u)")
    channel = None if noise is None else noise.channel
    # the loop reads x_bar[0] and, with K, each reference row x_bar[t] for t < N
    read = [u_bar, x_bar[:1]] + ([] if K is None else [K, x_bar[:-1]])
    if channel == CONTROL_CHANNEL:
        read.append(env.u_scale)
    if not all(map(all_finite, read)):
        raise ContractViolation("non-finite u_bar, K, x_bar or noise u_scale passed to rollout")
    if channel and not np.any(noise.epsilon):
        channel = None  # every draw would be scaled by zero
    x = np.full((*batch, env.n_x), x_bar[0])
    alive = np.ones(batch, dtype=bool)
    # alive.all(): until a row dies, one whole-batch check stands in for the per-row one
    all_alive = True
    for t, u in enumerate(u_bar):
        if K is not None:
            # the per-point form: each row equals the unbatched K_t @ dx bit for bit
            u = u + (K[t] @ (x - x_bar[t])[..., None])[..., 0]
        if channel == CONTROL_CHANNEL:
            u = u + noise.epsilon * env.u_scale * noise.draws(t, *batch, env.n_u)
        u = env.clamp(u)
        x_next = env.step_fn(x, u)
        if channel == STATE_CHANNEL:
            x_next = x_next + noise.epsilon * noise.draws(t, *batch, env.n_x)
        if not (all_alive and all_finite(x_next)):
            all_alive = False
            alive &= np.isfinite(x_next).all(axis=-1)
            x_next = np.where(alive[..., None], x_next, 0.0)
        yield x, u
        x = x_next
    yield x, alive


def rollout(
    env: Environment,
    x_bar: np.ndarray,
    u_bar: np.ndarray,
    K: Optional[np.ndarray] = None,
    noise: Optional[NoiseModel] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Execute u_t = clamp(ubar_t + K_t (x_t - xbar_t)) through ``step_fn`` for t < N.

    x_bar (T, n_x) is the reference trajectory and x_bar[0] the start state:
    T = N + 1 with K (N, n_u, n_x), and without K only x_bar[0] is read. The
    middle axes of u_bar are the batch: (N, n_u) runs one trajectory, and
    (N, M, n_u) runs M rows from x_bar[0], row i under controls u_bar[:, i].
    A NoiseModel needs the (N, M, n_u) form, and step t adds rollout i's
    draw, row i of noise.draws(t, M, dim): on the state channel eps * w_t is
    added to x_{t+1}, on the control channel eps * u_scale * w_t is added to
    u_t before clamping. Noise at epsilon = 0 (every level's, for stacked
    levels) is checked alike but draws nothing: each draw would be scaled
    by zero.

    u_bar, K, the x_bar rows read and, for control noise, env.u_scale must
    be finite; they are checked once, before the first step.

    Returns the whole history: time-major states (N+1, ..., n_x), the
    applied controls (N, ..., n_u) and the alive mask (...). A row whose
    state goes non-finite is marked dead and held at 0 while the batch keeps
    stepping, so every call makes exactly N env.step_fn calls. A feedback
    control that overflows reaches step_fn as it is, and its row dies once
    its state goes non-finite. The line search and the open-loop rollout
    read this history; the Monte-Carlo evaluator adds up its costs as the
    loop steps instead and keeps none.
    """
    with np.errstate(all="ignore"):
        *steps, (x_N, alive) = _closed_loop(env, x_bar, u_bar, K, noise)
    states = np.array([x for x, _ in steps] + [x_N])
    # the reshape gives N = 0 its (0, ..., n_u) shape
    controls = np.array([u for _, u in steps]).reshape(len(steps), *alive.shape, env.n_u)
    return states, controls, alive


def rollout_open_loop(
    env: Environment, x0: np.ndarray, controls: np.ndarray, cost: QuadraticCostModel
) -> NominalTrajectory:
    """Deterministic rollout of a control sequence from x0, with its cost.

    The trajectory records, and is charged for, the applied (clamped) controls.
    A state that goes non-finite raises Diverged.
    """
    states, applied, alive = rollout(env, np.atleast_2d(x0), np.atleast_2d(controls))
    if not alive:
        raise Diverged("open-loop rollout diverged")
    return NominalTrajectory(states, applied, total_cost(states, applied, cost))


# ---------------------------------------------------------------------------
# integrators and built-in environments


# The RK4 stages written out per state component; _rk4_stages fills in the
# component indices, and nothing else. Each component keeps one running total
# t and one stage k, and the arithmetic is the classic update's, term by term.
_RK4_STAGES = """\
def bind(half, h, sixth, substeps):
    def stages(deriv, x, u):
        [{x}] = x
        for _ in range(substeps):
            [{k}] = deriv([{x}], u)
            {t_k}
            [{k}] = deriv([{x_half_k}], u)
            {t_2k}
            [{k}] = deriv([{x_half_k}], u)
            {t_2k}
            [{k}] = deriv([{x_h_k}], u)
            {x_next}
        return [{x}]
    return stages
"""


def _rk4_stages(n_x: int, half: float, h: float, sixth: float, substeps: int) -> Callable:
    """The stage function of rk4_step for n_x components, compiled once from _RK4_STAGES."""

    def each(term: str, sep: str = ", ") -> str:
        return sep.join(term.replace("#", str(i)) for i in range(n_x))

    lines = "\n" + " " * 12  # one statement per component, in the loop body
    source = _RK4_STAGES.format(
        x=each("x#"),
        k=each("k#"),
        t_k=each("t# = k#", lines),
        x_half_k=each("x# + half * k#"),
        t_2k=each("t# = t# + 2.0 * k#", lines),
        x_h_k=each("x# + h * k#"),
        x_next=each("x# = x# + sixth * (t# + k#)", lines),
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["bind"](half, h, sixth, substeps)


RK4_SUBSTEPS = 4


def rk4_step(physics, n_x: int, dt: float, substeps: int = RK4_SUBSTEPS) -> Callable:
    """Returns step_fn(x, u): classic fixed-step RK4 of physics over dt, split into substeps.

    physics(lib) returns deriv, which takes sin and cos from lib and maps the
    lists of n_x state and of control components to the n_x state
    derivatives; it is bound here, once per library. A call whose x and u
    each hold one row, a point (1-D x and u) or a batch of one row, runs
    the stages on Python floats through physics(math), far cheaper than
    numpy's per-call overhead on 1-element arrays. It returns the shape the
    array stages would: (n_x,) for a point, and for a batch of one row the
    broadcast leading axes, all of length 1, plus n_x. Any other batch runs
    its component arrays through physics(numpy) and stacks the result once.
    float64 arithmetic, sin and cos give the same bits either way, so each
    row of a batch equals that row stepped alone. Where Python floats raise
    and numpy returns inf or nan (math.sin(inf), a division by zero), the
    same call runs the array stages, so it gets numpy's result; step_fn
    never calls itself.

    Both paths run one stage function, generated here for n_x from
    _RK4_STAGES. A loop over the components costs a list comprehension per
    stage update, which takes most of a one-point step; written out
    straight, the stages cost little beside the deriv calls. For n_x = 2 it
    reads, with half = h / 2 and sixth = h / 6:

        def stages(deriv, x, u):
            [x0, x1] = x
            for _ in range(substeps):
                [k0, k1] = deriv([x0, x1], u)
                t0 = k0
                t1 = k1
                [k0, k1] = deriv([x0 + half * k0, x1 + half * k1], u)
                t0 = t0 + 2.0 * k0
                t1 = t1 + 2.0 * k1
                [k0, k1] = deriv([x0 + half * k0, x1 + half * k1], u)
                t0 = t0 + 2.0 * k0
                t1 = t1 + 2.0 * k1
                [k0, k1] = deriv([x0 + h * k0, x1 + h * k1], u)
                x0 = x0 + sixth * (t0 + k0)
                x1 = x1 + sixth * (t1 + k1)
            return [x0, x1]

    so k1 + 2 k2 + 2 k3 + k4 is added left to right as each stage is made,
    and no more than one stage is held at a time. A state with other than
    n_x components fails to unpack and raises ValueError.
    """
    h = dt / substeps
    # 0.5 * h * k evaluates as (0.5 * h) * k, so hoisting the step factors keeps every bit
    stages = _rk4_stages(n_x, 0.5 * h, h, h / 6.0, substeps)
    point_deriv, batch_deriv = physics(math), physics(np)

    def step_fn(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        point = x.ndim == u.ndim == 1
        if point or (x.size == x.shape[-1] and u.size == u.shape[-1]):  # one row each
            x_row, u_row = (x, u) if point else (x.ravel(), u.ravel())
            try:
                row = np.array(stages(point_deriv, x_row.tolist(), u_row.tolist()))
                return row if point else row.reshape((1,) * (max(x.ndim, u.ndim) - 1) + row.shape)
            except (ArithmeticError, ValueError):
                pass  # where floats raise, the array stages below return inf or nan
        x = [x[..., i] for i in range(x.shape[-1])]
        u = [u[..., i] for i in range(u.shape[-1])]
        return np.stack(stages(batch_deriv, x, u), axis=-1)

    return step_fn


LINEAR_TEST_A = np.array([[1.0, 0.1], [0.0, 1.0]])
LINEAR_TEST_B = np.array([[0.0], [0.1]])

PENDULUM_PARAMS = dict(mass=1.0, length=1.0, gravity=9.81, damping=0.1)
CARTPOLE_PARAMS = dict(cart_mass=1.0, pole_mass=0.1, pole_length=0.5, gravity=9.81)


def make_linear_env(
    A=LINEAR_TEST_A,
    B=LINEAR_TEST_B,
    horizon: int = 30,
    control_bounds=None,
) -> Environment:
    """Exactly linear system x_{t+1} = A x + B u from e_1 to the origin.

    dt is the 0.1 s step that LINEAR_TEST_A and LINEAR_TEST_B encode; the map
    does not read it, so it is not a parameter.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n_x, n_u = B.shape
    if control_bounds is None:
        control_bounds = np.tile([-100.0, 100.0], (n_u, 1))

    def step_fn(x, u):
        # one contraction for a single point and a batch, so each row of a
        # batched call equals the unbatched call bit for bit
        return np.einsum("...j,ij->...i", x, A) + np.einsum("...j,ij->...i", u, B)

    return Environment(
        name="linear_test",
        n_x=n_x,
        n_u=n_u,
        dt=0.1,
        horizon=horizon,
        control_bounds=control_bounds,
        x0=np.eye(n_x)[0],
        x_goal=np.zeros(n_x),
        step_fn=step_fn,
    )


def _rk4_env(name, physics, x_goal, dt, horizon, limit, substeps) -> Environment:
    """A one-input system integrated by rk4_step, starting at rest at the origin."""
    if substeps < 1:
        raise ContractViolation(f"substeps={substeps} must be >= 1")
    return Environment(
        name=name,
        n_x=len(x_goal),
        n_u=1,
        dt=dt,
        horizon=horizon,
        control_bounds=[[-limit, limit]],
        x0=np.zeros(len(x_goal)),
        x_goal=x_goal,
        step_fn=rk4_step(physics, len(x_goal), dt, substeps),
    )


def pendulum_deriv(lib, *, mass, length, gravity, damping):
    """Damped torque-actuated pendulum; theta = 0 hanging, theta = pi upright.

    Returns deriv(x, u) on math's or numpy's sin (lib) in component form:
    x = (theta, omega), u = (torque,) and it returns (d theta/dt, d omega/dt).
    The parameters are bound once, and so are the two constant products:
    Python evaluates them first in the written-out expression too, so no bit moves.
    """
    sin = lib.sin
    weight_torque = mass * gravity * length
    inertia = mass * length**2

    def deriv(x, u):
        theta, omega = x
        (torque,) = u
        return omega, (torque - damping * omega - weight_torque * sin(theta)) / inertia

    return deriv


def make_pendulum_env(
    dt: float = 0.1,
    horizon: int = 30,
    torque_limit: float = 10.0,
    damping: float = PENDULUM_PARAMS["damping"],
    substeps: int = RK4_SUBSTEPS,
) -> Environment:
    physics = partial(pendulum_deriv, **dict(PENDULUM_PARAMS, damping=damping))
    return _rk4_env("pendulum", physics, [np.pi, 0.0], dt, horizon, torque_limit, substeps)


def cartpole_deriv(lib, *, cart_mass, pole_mass, pole_length, gravity):
    """Cart-pole; pole angle theta = 0 hanging below the cart, pi upright.

    Returns deriv(x, u) on math's or numpy's sin and cos (lib) in component
    form: x = (pos, dpos, theta, dtheta), u = (force,); it returns their
    time derivatives in the same order.
    Squares are written as products: numpy squares an array by multiplying,
    but ``** 2`` on a float or a numpy scalar calls libm's pow, which rounds
    differently in the last bit on about 1 in 1,250 random inputs.
    """
    sin, cos = lib.sin, lib.cos

    def deriv(x, u):
        _, dpos, theta, dtheta = x
        (force,) = u
        s, c = sin(theta), cos(theta)
        accel = (force + pole_mass * s * (pole_length * (dtheta * dtheta) + gravity * c)) / (
            cart_mass + pole_mass * (s * s)
        )
        ang_accel = -(accel * c + gravity * s) / pole_length
        return dpos, accel, dtheta, ang_accel

    return deriv


def make_cartpole_env(
    dt: float = 0.15,
    horizon: int = 30,
    force_limit: float = 20.0,
    substeps: int = RK4_SUBSTEPS,
) -> Environment:
    physics = partial(cartpole_deriv, **CARTPOLE_PARAMS)
    return _rk4_env("cartpole", physics, [0.0, 0.0, np.pi, 0.0], dt, horizon, force_limit, substeps)


ENV_BUILDERS = {
    "linear_test": make_linear_env,
    "pendulum": make_pendulum_env,
    "cartpole": make_cartpole_env,
}


def make_env(name: str, **overrides) -> Environment:
    if name not in ENV_BUILDERS:
        raise ContractViolation(
            f"unknown environment {name!r}; choose from {sorted(ENV_BUILDERS)}"
        )
    return ENV_BUILDERS[name](**overrides)
