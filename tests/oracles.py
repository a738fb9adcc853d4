"""Closed-form reference results the library must reproduce.

These are computed independently of the code under test: analytic
Jacobians pushed through the integrator by the chain rule, the exact
finite-horizon discrete Riccati recursion on known (A, B), the
time-varying Riccati recursion in Joseph form, the ILQR backward pass in
its earlier per-step form and in augmented coordinates with every product
formed per step, the RK4 integrator in its earlier stacked
form, the Monte-Carlo evaluator in its earlier history-based form, and
the trajectory cost in its earlier per-step form.
"""

import numpy as np
import scipy.linalg

from dilqr.costs import stage_cost, terminal_cost, total_cost
from dilqr.envs import CARTPOLE_PARAMS, PENDULUM_PARAMS, rollout
from dilqr.errors import ContractViolation, NotPositiveDefinite
from dilqr.evaluation import RolloutStats


def pendulum_continuous_jacobians(x, u, params=None):
    """d(theta_dot, omega_dot)/d(x, u) of the damped pendulum vector field."""
    p = dict(PENDULUM_PARAMS, **(params or {}))
    m, length, g, b = p["mass"], p["length"], p["gravity"], p["damping"]
    theta = x[0]
    fx = np.array(
        [
            [0.0, 1.0],
            [-g * np.cos(theta) / length, -b / (m * length**2)],
        ]
    )
    fu = np.array([[0.0], [1.0 / (m * length**2)]])
    return fx, fu


def cartpole_continuous_jacobians(x, u, params=None):
    """Jacobians of the cart-pole vector field, by central differences at
    tiny step on the closed-form expressions (exact to ~1e-10, far below the
    tolerances they back)."""
    p = dict(CARTPOLE_PARAMS, **(params or {}))
    mc, mp, length, g = p["cart_mass"], p["pole_mass"], p["pole_length"], p["gravity"]

    def f(x, u):
        pos_d, theta, theta_d = x[1], x[2], x[3]
        s, c = np.sin(theta), np.cos(theta)
        acc = (u[0] + mp * s * (length * theta_d**2 + g * c)) / (mc + mp * s**2)
        ang = -(acc * c + g * s) / length
        return np.array([pos_d, acc, theta_d, ang])

    h = 1e-7
    fx = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fx[:, j] = (f(x + e, u) - f(x - e, u)) / (2 * h)
    fu = ((f(x, u + h) - f(x, u - h)) / (2 * h)).reshape(4, 1)
    return fx, fu


def rk4_step_jacobians(fx_fu, x, u, dt, substeps=4):
    """Exact Jacobian of the RK4 map, chain rule through every stage.

    fx_fu(x, u) -> (df/dx, df/du) of the continuous vector field. Returns
    (A, B) = d(step)/d(x0, u) after `substeps` RK4 sub-intervals of dt.
    """
    n_x = len(x)
    n_u = len(np.atleast_1d(u))
    A = np.eye(n_x)
    B = np.zeros((n_x, n_u))
    h = dt / substeps

    for _ in range(substeps):
        k1 = _field_value(fx_fu, x, u)
        x2 = x + 0.5 * h * k1
        k2 = _field_value(fx_fu, x2, u)
        x3 = x + 0.5 * h * k2
        k3 = _field_value(fx_fu, x3, u)
        x4 = x + h * k3
        k4 = _field_value(fx_fu, x4, u)

        J1x, J1u = fx_fu(x, u)
        J2x_loc, J2u_loc = fx_fu(x2, u)
        J2x = J2x_loc @ (np.eye(n_x) + 0.5 * h * J1x)
        J2u = J2u_loc + J2x_loc @ (0.5 * h * J1u)
        J3x_loc, J3u_loc = fx_fu(x3, u)
        J3x = J3x_loc @ (np.eye(n_x) + 0.5 * h * J2x)
        J3u = J3u_loc + J3x_loc @ (0.5 * h * J2u)
        J4x_loc, J4u_loc = fx_fu(x4, u)
        J4x = J4x_loc @ (np.eye(n_x) + h * J3x)
        J4u = J4u_loc + J4x_loc @ (h * J3u)

        Sx = np.eye(n_x) + (h / 6.0) * (J1x + 2 * J2x + 2 * J3x + J4x)
        Su = (h / 6.0) * (J1u + 2 * J2u + 2 * J3u + J4u)
        A = Sx @ A
        B = Sx @ B + Su
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return A, B


def _field_value(fx_fu, x, u):
    """Recover the vector-field value matching a Jacobian function."""
    from dilqr.envs import cartpole_deriv, pendulum_deriv

    x, u = tuple(np.asarray(x, dtype=float)), tuple(np.atleast_1d(u))
    if fx_fu is pendulum_continuous_jacobians:
        return np.array(pendulum_deriv(np, **PENDULUM_PARAMS)(x, u))
    if fx_fu is cartpole_continuous_jacobians:
        return np.array(cartpole_deriv(np, **CARTPOLE_PARAMS)(x, u))
    raise ValueError("unknown field")


def pendulum_step_jacobians(x, u, dt=0.1, substeps=4):
    return rk4_step_jacobians(pendulum_continuous_jacobians, np.asarray(x, float), np.atleast_1d(u), dt, substeps)


def cartpole_step_jacobians(x, u, dt=0.15, substeps=4):
    return rk4_step_jacobians(cartpole_continuous_jacobians, np.asarray(x, float), np.atleast_1d(u), dt, substeps)


def lqr_optimal_cost(A, B, Q, R, Q_N, x0, N):
    """Exact finite-horizon discrete LQR optimal cost (1/2-quadratic form)."""
    P = Q_N.copy()
    for _ in range(N):
        H = R + B.T @ P @ B
        K = -np.linalg.solve(H, B.T @ P @ A)
        Acl = A + B @ K
        P = Q + K.T @ R @ K + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
    return 0.5 * float(x0 @ P @ x0)


def riccati_reference_gains(A, B, Q, R, Q_N, N):
    """Time-invariant finite-horizon gain sequence, computed independently."""
    P = Q_N.copy()
    gains = []
    for _ in range(N):
        H = R + B.T @ P @ B
        K = -np.linalg.solve(H, B.T @ P @ A)
        Acl = A + B @ K
        P = Q + K.T @ R @ K + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
        gains.append(K)
    return list(reversed(gains))


def per_step_backward_pass(traj, cost, models, mu):
    """The ILQR backward pass with everything evaluated inside its t-loop.

    Per step: the 1-D stage gradients Q (x_t - x_g) and R u_t, and mu * I.
    One numpy Cholesky factorization and two solves give k_t and K_t
    together. Returns (k, K); it does no finiteness checks.
    """
    N, n_x = traj.horizon, traj.states.shape[1]
    k = np.empty((N, traj.controls.shape[1]))
    K = np.empty((N, *k.shape[1:], n_x))
    J_x = cost.Q_terminal @ (traj.states[N] - cost.x_goal)
    J_xx = cost.Q_terminal
    for t in range(N - 1, -1, -1):
        A, B = models.A[t], models.B[t]
        c_x, c_u = cost.Q @ (traj.states[t] - cost.x_goal), cost.R @ traj.controls[t]
        J_xx_reg = J_xx + mu * np.eye(n_x)
        Q_x = c_x + A.T @ J_x
        Q_u = c_u + B.T @ J_x
        Q_xx = cost.Q + A.T @ J_xx @ A
        Q_ux = B.T @ J_xx_reg @ A
        Q_uu = cost.R + B.T @ J_xx_reg @ B
        Q_uu = 0.5 * (Q_uu + Q_uu.T)
        L = np.linalg.cholesky(Q_uu)
        kK = -np.linalg.solve(L.T, np.linalg.solve(L, np.column_stack([Q_u, Q_ux])))
        k[t], K[t] = kK[:, 0], kK[:, 1:]
        J_x = Q_x + K[t].T @ Q_uu @ k[t] + K[t].T @ Q_u + Q_ux.T @ k[t]
        J_xx = Q_xx + K[t].T @ Q_uu @ K[t] + K[t].T @ Q_ux + Q_ux.T @ K[t]
        J_xx = 0.5 * (J_xx + J_xx.T)
    return k, K


def per_step_augmented_backward_pass(traj, cost, models, mu, checked=False):
    """The augmented-coordinate ILQR backward pass with everything formed inside its t-loop.

    Over z = (u, x, 1), per step: F_t = [[B_t A_t 0], [0 0 1]], the stage
    Hessian H_t with the stage gradients Q (x_t - x_g) and R u_t in its last
    row and column and mu * B_t'[B_t A_t] added to its control rows, then
    Z = H_t + F_t' P F_t. Q_uu is symmetrized, one numpy Cholesky
    factorization checks it and one solve gives G = [K_t k_t];
    P = Z_(x,1)(x,1) + Z_u(x,1)' G, symmetrized, with its constant corner
    held at 0. Returns (k, K).

    Unchecked, it raises np.linalg.LinAlgError where Q_uu is not positive
    definite and does no finiteness checks. Checked, each step is checked
    as it runs, and the first step in recursion order whose Cholesky
    factorization or solve fails, or whose Q_uu or G is not finite, raises
    NotPositiveDefinite(t).
    """
    N, n_x, n_u = traj.horizon, traj.states.shape[1], traj.controls.shape[1]
    k = np.empty((N, n_u))
    K = np.empty((N, n_u, n_x))
    P = np.zeros((n_x + 1, n_x + 1))
    P[:n_x, :n_x] = cost.Q_terminal
    P[:n_x, n_x] = P[n_x, :n_x] = cost.Q_terminal @ (traj.states[N] - cost.x_goal)
    for t in range(N - 1, -1, -1):
        A, B = models.A[t], models.B[t]
        F = np.zeros((n_x + 1, n_u + n_x + 1))
        F[:n_x, :n_u], F[:n_x, n_u:-1], F[n_x, -1] = B, A, 1.0
        H = np.zeros((n_u + n_x + 1, n_u + n_x + 1))
        H[:n_u, :n_u], H[n_u:-1, n_u:-1] = cost.R, cost.Q
        H[:n_u, -1] = H[-1, :n_u] = cost.R @ traj.controls[t]
        H[n_u:-1, -1] = H[-1, n_u:-1] = cost.Q @ (traj.states[t] - cost.x_goal)
        H[:n_u, :-1] += mu * (B.T @ F[:n_x, :-1])
        Z = H + F.T @ P @ F
        Z[:n_u, :n_u] = 0.5 * (Z[:n_u, :n_u] + Z[:n_u, :n_u].T)
        try:
            np.linalg.cholesky(Z[:n_u, :n_u])
            G = -np.linalg.solve(Z[:n_u, :n_u], Z[:n_u, n_u:])
        except np.linalg.LinAlgError:
            if checked:
                raise NotPositiveDefinite(t) from None
            raise
        if checked and not (np.isfinite(Z[:n_u, :n_u]).all() and np.isfinite(G).all()):
            raise NotPositiveDefinite(t)
        K[t], k[t] = G[:, :n_x], G[:, n_x]
        P = Z[n_u:, n_u:] + Z[:n_u, n_u:].T @ G
        P = 0.5 * (P + P.T)
        P[n_x, n_x] = 0.0
    return k, K


def joseph_riccati_gains(models, weights):
    """Time-varying Riccati recursion in Joseph form, the former feedback synthesis.

    P_N = Q_N; K_t = -(R_t + B'P B)^{-1} B'P A;
    P_t = Q_t + K'R K + (A + BK)' P (A + BK), symmetrized each step.
    A non-PD R_t + B'P B raises scipy.linalg.LinAlgError.
    """
    N = len(models.A)
    n_x = weights.n_x
    n_u = weights.n_u
    K = np.empty((N, n_u, n_x))
    P = weights.Q_terminal.copy()
    Rt = weights.R
    for t in range(N - 1, -1, -1):
        A, B = models.A[t], models.B[t]
        H = Rt + B.T @ P @ B
        H = 0.5 * (H + H.T)
        chol = scipy.linalg.cho_factor(H, lower=True)
        K[t] = -scipy.linalg.cho_solve(chol, B.T @ P @ A)
        Acl = A + B @ K[t]
        P = weights.Q + K[t].T @ Rt @ K[t] + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
    return K


# The integrator in its stacked form, as it was before the RK4 stages ran per
# component: every derivative stacks its output and the stages do their
# arithmetic on the stacked arrays. The component-wise environments must
# reproduce it bit for bit.


def stacked_rk4_step(deriv, x: np.ndarray, u: np.ndarray, dt: float, substeps: int = 4) -> np.ndarray:
    """Classic fixed-step RK4 over dt, split into substeps for fidelity."""
    h = dt / substeps
    for _ in range(substeps):
        k1 = deriv(x, u)
        k2 = deriv(x + 0.5 * h * k1, u)
        k3 = deriv(x + 0.5 * h * k2, u)
        k4 = deriv(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def stacked_pendulum_deriv(x, u, mass=1.0, length=1.0, gravity=9.81, damping=0.1):
    """Damped torque-actuated pendulum; theta = 0 hanging, theta = pi upright."""
    theta, omega = x[..., 0], x[..., 1]
    torque = u[..., 0]
    alpha = (torque - damping * omega - mass * gravity * length * np.sin(theta)) / (
        mass * length**2
    )
    return np.stack([omega, alpha], axis=-1)


def stacked_cartpole_deriv(x, u, cart_mass=1.0, pole_mass=0.1, pole_length=0.5, gravity=9.81):
    """Cart-pole; pole angle theta = 0 hanging below the cart, pi upright."""
    theta, dpos, dtheta = x[..., 2], x[..., 1], x[..., 3]
    force = u[..., 0]
    s, c = np.sin(theta), np.cos(theta)
    accel = (force + pole_mass * s * (pole_length * dtheta**2 + gravity * c)) / (
        cart_mass + pole_mass * s**2
    )
    ang_accel = -(accel * c + gravity * s) / pole_length
    return np.stack([dpos, accel, dtheta, ang_accel], axis=-1)


def stacked_pendulum_step(x, u, dt=0.1, damping=PENDULUM_PARAMS["damping"], substeps=4):
    params = dict(PENDULUM_PARAMS, damping=damping)
    return stacked_rk4_step(lambda xx, uu: stacked_pendulum_deriv(xx, uu, **params), x, u, dt, substeps)


def stacked_cartpole_step(x, u, dt=0.15, substeps=4):
    return stacked_rk4_step(lambda xx, uu: stacked_cartpole_deriv(xx, uu, **CARTPOLE_PARAMS), x, u, dt, substeps)


def per_step_total_cost(states, controls, cost):
    """The trajectory cost with one stage_cost call per t, added left to right.

    states (N+1, ..., n_x) and controls (N, ..., n_u) are time-major, as in
    total_cost, which must reproduce this bit for bit.
    """
    J = 0.0
    for t in range(controls.shape[0]):
        J += stage_cost(states[t], controls[t], cost)
    return J + terminal_cost(states[-1], cost)


def rows_of(controls, M):
    """M rows that all apply one (N, n_u) control sequence, as an (N, M, n_u) view."""
    return np.broadcast_to(controls[:, None], (controls.shape[0], M, controls.shape[1]))


def history_rollout_costs(env, policy, noise, rows, cost):
    """Each of `rows` rollouts' cost, terminal squared error and alive flag, from the stored history.

    The kernel stores every rollout's states (N+1, rows, n_x) and controls
    (N, rows, n_u); total_cost then reads that history back, and the
    terminal squared error comes from its last row.
    """
    nominal = policy.nominal
    states, controls, ok = rollout(
        env, nominal.states, rows_of(nominal.controls, rows), policy.gains, noise
    )
    with np.errstate(all="ignore"):
        costs = total_cost(states, controls, cost)
        terminal_sq = np.sum((states[-1] - cost.x_goal) ** 2, axis=-1)
    return costs, terminal_sq, ok


def history_monte_carlo_eval(env, policy, noise, M, cost):
    """The Monte-Carlo evaluator as it was before it streamed its costs.

    The moments of history_rollout_costs; the streaming evaluator must
    reproduce it field for field.
    """
    rows = 1 if noise.epsilon == 0.0 else M
    costs, terminal_sq, ok = history_rollout_costs(env, policy, noise, rows, cost)
    n_ok = int(np.sum(ok))
    if n_ok == 0:
        raise ContractViolation("all rollouts diverged; cannot form moments")
    cost_var = float(np.var(costs[ok], ddof=1)) if n_ok > 1 else 0.0
    return RolloutStats(
        epsilon=noise.epsilon,
        n_rollouts=M,
        cost_mean=float(np.mean(costs[ok])),
        cost_var=cost_var,
        terminal_mse_mean=float(np.mean(terminal_sq[ok])),
        channel=noise.channel,
        seed=noise.seed,
        divergences=rows - n_ok,
    )
