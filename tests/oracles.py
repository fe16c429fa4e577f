"""Independently coded reference solvers and derivative checks for the tests.

These deliberately avoid the package's solver internals: the discrete LQR
uses the standard-form Riccati update, the deterministic feedback-Nash
recursion propagates each agent's value in homogeneous coordinates (one
(n+1) x (n+1) matrix per agent instead of separate Z / xi passes), and the
derivative checks are plain central differences.
"""

from __future__ import annotations

import csv

import numpy as np


def textbook_lqr(A, B, Q, R, horizon):
    """Finite-horizon discrete LQR gains for cost 1/2 sum (s'Qs + a'Ra).

    Returns (gains, values): gains[k] is K at step k+1 (k = 0..T-2, no gain
    at the terminal step), values[k] is the cost-to-go Hessian Z at step k+1.
    """
    A, B, Q, R = (np.asarray(M, dtype=float) for M in (A, B, Q, R))
    Z = Q.copy()
    gains = []
    values = [Z.copy()]
    for _ in range(horizon - 1):
        K = np.linalg.solve(R + B.T @ Z @ B, B.T @ Z @ A)
        Z = Q + A.T @ Z @ (A - B @ K)
        Z = (Z + Z.T) / 2.0
        gains.append(K)
        values.append(Z.copy())
    gains.reverse()
    values.reverse()
    return gains, values


def deterministic_nash_lq(A, Bs, Qs, ls, Rs, horizon):
    """Feedback-Nash gains and offsets of a deterministic LQ game.

    Stage cost of agent i: 1/2 (s'Q_i s) + l_i's + 1/2 sum_j a_j'R_ij a_j.
    Each agent's cost-to-go is tracked as one homogeneous quadratic
    1/2 [s;1]' M_i [s;1]; the closed loop acts on [s;1] as a single affine
    map, so the backward pass is a congruence transform plus the stage cost.

    Returns (P, alpha): P[i][k] (m_i, n) and alpha[i][k] (m_i,) for
    k = 0..T-1 (terminal entries are zero).
    """
    N = len(Bs)
    n = np.asarray(A).shape[0]
    A = np.asarray(A, dtype=float)
    Bs = [np.asarray(B, dtype=float) for B in Bs]
    m_dims = [B.shape[1] for B in Bs]

    def stage_matrix(i):
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = Qs[i]
        M[:n, n] = ls[i]
        M[n, :n] = ls[i]
        return M

    M_vals = [stage_matrix(i) for i in range(N)]
    P = [[np.zeros((m, n)) for _ in range(horizon)] for m in m_dims]
    alpha = [[np.zeros(m) for _ in range(horizon)] for m in m_dims]

    for k in range(horizon - 2, -1, -1):
        Z = [M[:n, :n] for M in M_vals]
        xi = [M[:n, n] for M in M_vals]
        blocks = [[None] * N for _ in range(N)]
        rhs_gain = []
        rhs_off = []
        for i in range(N):
            for j in range(N):
                blocks[i][j] = Bs[i].T @ Z[i] @ Bs[j]
                if i == j:
                    blocks[i][j] = blocks[i][j] + Rs[i][i]
            rhs_gain.append(Bs[i].T @ Z[i] @ A)
            rhs_off.append(Bs[i].T @ xi[i])
        S = np.block(blocks)
        sol_gain, *_ = np.linalg.lstsq(S, np.vstack(rhs_gain), rcond=None)
        sol_off, *_ = np.linalg.lstsq(S, np.concatenate(rhs_off), rcond=None)
        splits = np.cumsum(m_dims)[:-1]
        P_k = np.split(sol_gain, splits, axis=0)
        a_k = np.split(sol_off, splits)
        for i in range(N):
            P[i][k] = P_k[i]
            alpha[i][k] = a_k[i]

        # Homogeneous-coordinate closed loop: [s;1] -> [F s + beta; 1].
        F = A - sum(Bs[j] @ P_k[j] for j in range(N))
        beta = -sum(Bs[j] @ a_k[j] for j in range(N))
        G = np.zeros((n + 1, n + 1))
        G[:n, :n] = F
        G[:n, n] = beta
        G[n, n] = 1.0
        new_vals = []
        for i in range(N):
            M = G.T @ M_vals[i] @ G + stage_matrix(i)
            for j in range(N):
                aff = np.zeros((m_dims[j], n + 1))
                aff[:, :n] = P_k[j]
                aff[:, n] = a_k[j]
                M = M + aff.T @ Rs[i][j] @ aff
            new_vals.append((M + M.T) / 2.0)
        M_vals = new_vals
    return P, alpha


def central_difference_gradient(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def central_difference_jacobian(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x))
    J = np.empty((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        J[:, k] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h)
    return J


def finite_difference_jacobians(step, state_dim, action_dims, h=1e-6):
    """Central-difference Jacobian evaluator ``(t, s, actions) -> (A, [B_j])``
    for an arbitrary drift, in the form ``DynamicsModel.jacobians`` takes: it
    broadcasts over a leading axis of points when ``step`` does."""

    def jacobians(t, s, actions):
        lead = np.shape(s)[:-1]
        A = np.empty(lead + (state_dim, state_dim))
        for k in range(state_dim):
            e = np.zeros(state_dim)
            e[k] = h
            A[..., k] = (step(t, s + e, actions) - step(t, s - e, actions)) / (2.0 * h)
        Bs = []
        for j, m in enumerate(action_dims):
            B = np.empty(lead + (state_dim, m))
            for k in range(m):
                hi = [a.copy() for a in actions]
                lo = [a.copy() for a in actions]
                hi[j][..., k] += h
                lo[j][..., k] -= h
                B[..., k] = (step(t, s, hi) - step(t, s, lo)) / (2.0 * h)
            Bs.append(B)
        return A, Bs

    return jacobians


def central_difference_hessian(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    H = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = h
            eb[b] = h
            H[a, b] = (
                fn(x + ea + eb) - fn(x + ea - eb) - fn(x - ea + eb) + fn(x - ea - eb)
            ) / (4.0 * h * h)
    return H


def relative_error(approx, exact, floor=1e-8):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), floor))


def project_psd_single(H, floor):
    """One matrix: clamp negative eigenvalues to ``floor``; a PSD H is only symmetrised."""
    w, V = np.linalg.eigh((H + H.T) / 2.0)
    if w[0] >= 0.0:
        return (H + H.T) / 2.0
    w = np.where(w < 0.0, floor, w)
    return (V * w) @ V.T


def project_psd_masked(H, floor):
    """The stacked projection that reconstructs only the stages with a
    negative eigenvalue: it gathers their eigenvectors and eigenvalues and
    scatters the reconstructions back into the symmetrised H."""
    Q = (H + np.swapaxes(H, 1, 2)) / 2.0
    w, V = np.linalg.eigh(Q)
    neg = w[:, 0] < 0.0
    if np.any(neg):
        w, V = np.where(w[neg] < 0.0, floor, w[neg]), V[neg]
        Q[neg] = (V * w[:, None, :]) @ np.swapaxes(V, 1, 2)
    return Q


def quadratize_per_step(game, nominal, *, floor):
    """Per-time-step cost expansion (Q, l, r) from one-row cost-model calls.

    Returns the lists of per-agent stacks plus, per agent, a boolean (T,) mask
    of the stages whose Hessian had a negative eigenvalue (and was projected).
    """
    T, n = game.horizon, game.state_dim
    Q, l, r, projected = [], [], [], []
    for i, cost in enumerate(game.costs):
        Rii = cost.action_cost[i]
        Q_i, l_i, r_i = np.empty((T, n, n)), np.empty((T, n)), np.empty((T, Rii.shape[0]))
        neg = np.zeros(T, dtype=bool)
        for k in range(T):
            H = cost.state_hessian(k + 1, nominal.states[k])
            Q_i[k] = project_psd_single(H, floor)
            neg[k] = np.linalg.eigvalsh((H + H.T) / 2.0)[0] < 0.0
            l_i[k] = cost.state_gradient(k + 1, nominal.states[k])
            r_i[k] = 2.0 * Rii @ nominal.actions[i][k]
        Q.append(Q_i)
        l.append(l_i)
        r.append(r_i)
        projected.append(neg)
    return Q, l, r, projected


def dense_cost_derivatives(features, weights, t, s):
    """State gradient and Hessian of the cost w . phi as dense sums over the
    features of w_k times each feature's full gradient and Hessian arrays,
    the control-effort feature's zero arrays included."""
    g = sum(w * f.state_gradient(t, s) for w, f in zip(weights, features))
    H = sum(w * f.state_hessian(t, s) for w, f in zip(weights, features))
    return g, H


# -- per-trajectory references for the trial-stacked rollout sets ------------


def feature_sums_per_trajectory(basis, trajectories):
    """Per-agent (K, F_i) feature sums, each row from one trajectory's features
    summed over its T steps."""
    rows = []
    for traj in trajectories:
        steps = np.arange(1, traj.horizon + 1)
        rows.append([
            np.array([np.sum(f.value(steps, traj.states, traj.actions)) for f in feats])
            for feats in basis.agents
        ])
    return [np.array([r[i] for r in rows]) for i in range(basis.num_agents)]


def mean_feature_sums(basis, trajectories):
    """Per-agent feature sums added up trajectory by trajectory, then divided by the count."""
    sums = [np.zeros(len(feats)) for feats in basis.agents]
    count = 0
    for traj in trajectories:
        for i, vec in enumerate(feature_sums_per_trajectory(basis, [traj])):
            sums[i] += vec[0]
        count += 1
    return [s / count for s in sums]


def embed_replay(rollout, agent, replay):
    """The joint rollout of a rollout of agent ``agent``'s reduced game, whose
    one action array is that agent's: every other agent j acts
    ``replay[j]`` (T, m_j) in every trial.  In moments a replayed action is
    a constant, with zero covariance."""
    from dataclasses import replace

    from ecegames.game import TrajectoryMoments

    lead = rollout.states.shape[:-2]
    actions = tuple(rollout.actions[0] if j == agent else np.broadcast_to(r, lead + r.shape)
                    for j, r in enumerate(replay))
    if isinstance(rollout, TrajectoryMoments):
        covariances = tuple(
            rollout.action_covariances[0] if j == agent else np.zeros(r.shape + r.shape[-1:])
            for j, r in enumerate(replay)
        )
        return replace(rollout, actions=actions, action_covariances=covariances)
    return type(rollout)(states=rollout.states, actions=actions)


def goal_distance_stats_per_trajectory(trajectories, goals, position_indices):
    """Mean and sample standard deviation of each agent's final goal distance."""
    out = []
    for i, goal in enumerate(goals):
        idx = np.asarray(position_indices[i], dtype=int)
        dists = np.array(
            [float(np.linalg.norm(traj.states[-1, idx] - goal)) for traj in trajectories]
        )
        std = float(np.std(dists, ddof=1)) if len(dists) > 1 else 0.0
        out.append((float(np.mean(dists)), std))
    return out


def trajectory_rmse_per_trajectory(ref_states, trajectories, position_indices, T):
    """Per-step position RMSE against (T, n) reference states, accumulated
    trajectory by trajectory and agent by agent."""
    sq = np.zeros(T)
    count = 0
    for traj in trajectories:
        for idx in position_indices:
            err = traj.states[:T, idx] - ref_states[:T, idx]
            sq += np.sum(err * err, axis=1)
            count += 1
    return np.sqrt(sq / count)


def linearize_per_step(game, nominal):
    """Dynamics Jacobians along the nominal, one ``jacobians`` call per step."""
    T, n = game.horizon, game.state_dim
    A = np.empty((T - 1, n, n))
    B = [np.empty((T - 1, n, m)) for m in game.action_dims]
    for k in range(T - 1):
        A[k], B_k = game.dynamics.jacobians(
            k + 1, nominal.states[k], [a[k] for a in nominal.actions]
        )
        for j, b in enumerate(B_k):
            B[j][k] = b
    return A, B


def absolute_offsets_per_step(policies):
    """alpha_abs_t = alpha_t - abar_t - P_t sbar_t, one step at a time."""
    out = []
    for P, al, ab in zip(policies.gains, policies.offsets, policies.nominal_actions):
        out.append(np.array([
            al[k] - ab[k] - P[k] @ policies.nominal_states[k] for k in range(al.shape[0])
        ]))
    return out


# -- per-agent reference for the concatenated-action LQ stage recursion -----


def condition_bound(M):
    """||S||_F ||S^-1||_F of S = M / max |M_ij|, at least cond_2(M); inf when
    M is singular or not finite."""
    top = np.max(np.abs(M))
    if not (np.isfinite(top) and top > 0.0):
        return np.inf
    S = M / top
    try:
        bound = float(np.linalg.norm(S) * np.linalg.norm(np.linalg.inv(S)))
    except np.linalg.LinAlgError:
        return np.inf
    return bound if np.isfinite(bound) else np.inf


def solve_stage_coupled_per_agent(Z_next, xi_next, A, B, R, r, *, time_step=0):
    """One stage's coupled gains and offsets, assembled agent by agent.

    Returns per-agent P, alpha lists plus (condition bound of the solved
    matrix, diagonal shift used); the ladder matches ``lq._ladder``.
    """
    from ecegames.errors import StageSingularError
    from ecegames.lq import COND_LIMIT, REG_INIT, REG_MAX

    N = len(B)
    m_dims = [b.shape[1] for b in B]
    n = A.shape[0]
    rows = []
    rhs_rows = []
    for i in range(N):
        BtZ = B[i].T @ Z_next[i]
        row = [BtZ @ B[j] for j in range(N)]
        row[i] = row[i] + R[i][i]
        rows.append(np.concatenate(row, axis=1))
        lin = BtZ @ A
        off = B[i].T @ xi_next[i] + r[i]
        rhs_rows.append(np.concatenate([lin, off[:, None]], axis=1))
    M = np.concatenate(rows, axis=0)
    rhs = np.concatenate(rhs_rows, axis=0)

    cond = condition_bound(M)
    shift = 0.0
    M_solve = M
    if cond > COND_LIMIT:
        lam = REG_INIT
        while True:
            M_solve = M + lam * np.eye(M.shape[0])
            cond = condition_bound(M_solve)
            shift = lam
            if cond <= COND_LIMIT:
                break
            if lam >= REG_MAX:
                raise StageSingularError(time_step=time_step, condition=cond)
            lam = min(2.0 * lam, REG_MAX)
    sol = np.linalg.solve(M_solve, rhs)

    P, alpha = [], []
    row0 = 0
    for m in m_dims:
        P.append(sol[row0 : row0 + m, :n])
        alpha.append(sol[row0 : row0 + m, n])
        row0 += m
    return P, alpha, cond, shift


def backward_value_update_per_agent(P, alpha, Z_next, xi_next, A, B, R, Q_t, l_t, r_t):
    """Every agent's (Z, xi) one step back, one agent and one pair at a time."""
    N = len(B)
    F = A - sum(B[j] @ P[j] for j in range(N))
    beta = -sum(B[j] @ alpha[j] for j in range(N))
    Z_out, xi_out = [], []
    for i in range(N):
        Z = F.T @ Z_next[i] @ F + Q_t[i]
        xi = F.T @ (xi_next[i] + Z_next[i] @ beta)
        for j in range(N):
            RP = R[i][j] @ P[j]
            Z = Z + P[j].T @ RP
            xi = xi + P[j].T @ (R[i][j] @ alpha[j])
        xi = xi + l_t[i] - P[i].T @ r_t[i]
        Z_out.append((Z + Z.T) / 2.0)
        xi_out.append(xi)
    return Z_out, xi_out


def solve_lq_ece_per_agent(game, temperatures=None):
    """``lq.solve_lq_ece`` with per-agent lists through the backward loop.

    Reads the game's concatenated-action data back as per-agent blocks, each
    agent's action rows cut out by ``game.slices``.  Returns a dict of
    per-agent gains, offsets, covariances (symmetrised), Z and xi stacks plus
    the per-stage condition and regularization arrays.
    """
    N, T, n = game.num_agents, game.horizon, game.state_dim
    m_dims, s = game.action_dims, game.slices
    Bs = [game.B[..., s[j]] for j in range(N)]
    Rs = [[game.R[i][s[j], s[j]] for j in range(N)] for i in range(N)]
    rs = [game.r[i][:, s[i]] for i in range(N)]
    if temperatures is None:
        temperatures = (1.0,) * N
    gains = [np.zeros((T, m, n)) for m in m_dims]
    offsets = [np.zeros((T, m)) for m in m_dims]
    Z_hist = [np.zeros((T, n, n)) for _ in range(N)]
    xi_hist = [np.zeros((T, n)) for _ in range(N)]
    condition = np.zeros(max(T - 1, 0))
    regularization = np.zeros(max(T - 1, 0))

    Z = [game.Q[i][T - 1].copy() for i in range(N)]
    xi = [game.l[i][T - 1].copy() for i in range(N)]
    for i in range(N):
        Z_hist[i][T - 1] = Z[i]
        xi_hist[i][T - 1] = xi[i]
        offsets[i][T - 1] = np.linalg.solve(Rs[i][i], rs[i][T - 1])
    for k in range(T - 2, -1, -1):
        B = [Bs[j][k] for j in range(N)]
        r = [rs[i][k] for i in range(N)]
        P, alpha, condition[k], regularization[k] = solve_stage_coupled_per_agent(
            Z, xi, game.A[k], B, Rs, r, time_step=k + 1
        )
        for i in range(N):
            gains[i][k] = P[i]
            offsets[i][k] = alpha[i]
        Z, xi = backward_value_update_per_agent(
            P, alpha, Z, xi, game.A[k], B, Rs,
            [game.Q[i][k] for i in range(N)], [game.l[i][k] for i in range(N)], r
        )
        for i in range(N):
            Z_hist[i][k] = Z[i]
            xi_hist[i][k] = xi[i]

    covs = []
    for i in range(N):
        M = np.broadcast_to(Rs[i][i], (T, m_dims[i], m_dims[i])).copy()
        Bi = Bs[i]
        M[:-1] += np.swapaxes(Bi, 1, 2) @ Z_hist[i][1:] @ Bi
        M = (M + np.swapaxes(M, 1, 2)) / 2.0
        S = temperatures[i] * np.linalg.inv(M)
        covs.append((S + np.swapaxes(S, 1, 2)) / 2.0)
    return {
        "gains": gains, "offsets": offsets, "covariances": covs, "Z": Z_hist, "xi": xi_hist,
        "condition": condition, "regularization": regularization,
    }


# -- cell-by-cell reference for the CSV writers --------------------------------


def write_csv_by_cell(path, header, rows):
    """The CSV writers' output through ``csv.writer``, every number formatted
    on its own with ``format(float(x), ".17g")`` and text as it is."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else format(float(x), ".17g") for x in row])


def write_trajectories_by_cell(path, batch):
    """``trajio.write_trajectories`` one trial and one cell at a time."""
    from ecegames import trajio

    steps = np.arange(1, batch.horizon + 1)

    def rows():
        for trial in range(len(batch)):
            yield from np.column_stack(
                [np.full(batch.horizon, trial), steps, batch.states[trial],
                 *(a[trial] for a in batch.actions)]
            ).tolist()

    write_csv_by_cell(path, trajio.trajectory_header(batch.state_dim, batch.action_dims), rows())


# -- per-step-draw reference sampler ------------------------------------------


def mean_actions_per_agent(policies, k, s):
    """Every agent's mean action a = abar - P (s - sbar) - alpha at 0-based
    step index k, one agent at a time."""
    ds = s - policies.nominal_states[k]
    return [
        policies.nominal_actions[i][k] - policies.gains[i][k] @ ds - policies.offsets[i][k]
        for i in range(policies.num_agents)
    ]


def unicycle_step_per_agent(dt, s, actions):
    """The unicycle drift one agent and one scalar at a time."""
    out = s.astype(float).copy()
    for i, (v, om) in enumerate(actions):
        x, y, th = s[3 * i : 3 * i + 3]
        out[3 * i] = x + dt * v * np.cos(th)
        out[3 * i + 1] = y + dt * v * np.sin(th)
        out[3 * i + 2] = th + dt * om
    return out


def simulate_per_step(game, policies, seed=None):
    """``simulate_stochastic`` (or, with ``seed=None``, ``simulate_mean``)
    drawing each piece of noise with its own ``standard_normal`` call, in
    order: the initial state (when Gaussian), then per step each agent's
    action noise and the process noise (none after the last step).

    Returns (states (T, n), [actions (T, m_i)]); raises
    ``SimulationDivergedError`` at the first non-finite state.
    """
    from ecegames import SimulationDivergedError
    from ecegames.game import psd_factor

    T, n = game.horizon, game.state_dim
    initial = game.initial_state
    s = initial.mean.copy()
    if seed is not None:
        rng = np.random.default_rng(seed)
        if initial.covariance is not None:
            s = initial.mean + psd_factor(initial.covariance) @ rng.standard_normal(n)
        factors = policies.covariance_factors
        G = game.noise.gain @ psd_factor(game.noise.covariance)
    states = np.empty((T, n))
    actions = [np.empty((T, m)) for m in game.action_dims]
    for k in range(T):
        if not np.all(np.isfinite(s)):
            raise SimulationDivergedError(time_step=k + 1)
        states[k] = s
        acts = mean_actions_per_agent(policies, k, s)
        if seed is not None:
            acts = [
                mu + factors[i][k] @ rng.standard_normal(mu.shape[0]) for i, mu in enumerate(acts)
            ]
        for i, a in enumerate(acts):
            actions[i][k] = a
        if k + 1 < T:
            s = game.dynamics.step(k + 1, s, acts)
            if seed is not None:
                s = s + G @ rng.standard_normal(G.shape[1])
    return states, actions


def rollout_batch_per_step(game, policies, trials, base_seed):
    """``rollout_batch`` as stacked ``simulate_per_step`` trials."""
    runs = [simulate_per_step(game, policies, base_seed + k) for k in range(trials)]
    return np.stack([r[0] for r in runs]), [np.stack(a) for a in zip(*(r[1] for r in runs))]
