"""Exact equilibrium solver for linear-quadratic-Gaussian games.

For linear dynamics s' = A_t s + sum_j B^j_t a^j + w and per-agent stage
costs

    c^i_t(s, a) = 1/2 s'Q^i_t s + l^i_t's + 1/2 sum_j a^j'R^{ij} a^j + r^i_t'a^i,

the entropic-cost-equilibrium policies are Gaussian,
a^i ~ N(-P^i_t s - alpha^i_t, gamma^i Sigma^i_t), with means given by the
coupled feedback-Nash gains of the deterministic game and covariances

    Sigma^i_t = (R^{ii} + B^i' Z^i_{t+1} B^i)^{-1}.

All agents' gains at one stage solve a single block-linear system; the
quadratic value coefficients (Z^i_t, xi^i_t) propagate backward from the
terminal conditions Z^i_T = Q^i_T, xi^i_T = l^i_T.  The entropy temperature
gamma^i scales only the covariance; gains and offsets are those of the
deterministic game.

The xi recursion includes the stage term + l^i_t, mirroring the classical
deterministic recursion (without it, affine state costs at intermediate
stages would be ignored).  ``strict_paper=True`` drops that term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StageSingularError
from .game import AffineGaussianPolicySet, Array, _check_symmetric, cholesky_checked

COND_LIMIT = 1e12
REG_INIT = 1e-8
REG_MAX = 1e-2


@dataclass(frozen=True)
class LqStageGame:
    """Time-indexed data of one LQ-Gaussian game.

    Shapes (T = horizon, n = state dim, m_i = action dims):
      A: (T-1, n, n); B[j]: (T-1, n, m_j);
      Q[i]: (T, n, n) symmetric PSD; l[i]: (T, n);
      R[i][j]: (m_j, m_j), constant in time, R[i][i] positive definite;
      r[i]: (T, m_i) linear own-action terms (zeros reproduce the plain
      quadratic game; recentered games produced by the iterative solver
      populate them).
    """

    A: Array
    B: tuple[Array, ...]
    Q: tuple[Array, ...]
    l: tuple[Array, ...]
    R: tuple[tuple[Array, ...], ...]
    r: tuple[Array, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B", tuple(np.asarray(b, dtype=float) for b in self.B))
        object.__setattr__(self, "Q", tuple(np.asarray(q, dtype=float) for q in self.Q))
        object.__setattr__(self, "l", tuple(np.asarray(v, dtype=float) for v in self.l))
        object.__setattr__(
            self, "R", tuple(tuple(np.asarray(Rij, dtype=float) for Rij in row) for row in self.R)
        )
        T, n = self.horizon, self.state_dim
        N = self.num_agents
        if self.A.shape != (T - 1, n, n):
            raise ValueError(f"A must be (T-1, n, n), got {self.A.shape}")
        for j, b in enumerate(self.B):
            if b.shape[:2] != (T - 1, n):
                raise ValueError(f"B[{j}] must be (T-1, n, m_j), got {b.shape}")
        for i in range(N):
            if self.Q[i].shape != (T, n, n) or self.l[i].shape != (T, n):
                raise ValueError(f"Q[{i}]/l[{i}] shapes inconsistent")
            if len(self.R[i]) != N:
                raise ValueError("R must be an N x N table of blocks")
            for j in range(N):
                m = self.action_dims[j]
                if self.R[i][j].shape != (m, m):
                    raise ValueError(f"R[{i}][{j}] must be ({m}, {m})")
                _check_symmetric(self.R[i][j], f"R[{i}][{j}]", tol=1e-8)
            own = self.R[i][i]
            try:
                np.linalg.cholesky(own)
            except np.linalg.LinAlgError:
                raise ValueError(f"R[{i}][{i}] must be positive definite") from None
        if self.r is None:
            object.__setattr__(
                self, "r", tuple(np.zeros((T, m)) for m in self.action_dims)
            )
        else:
            object.__setattr__(self, "r", tuple(np.asarray(v, dtype=float) for v in self.r))
            for i, v in enumerate(self.r):
                if v.shape != (T, self.action_dims[i]):
                    raise ValueError(f"r[{i}] must be (T, m_i), got {v.shape}")

    @property
    def num_agents(self) -> int:
        return len(self.B)

    @property
    def horizon(self) -> int:
        return self.Q[0].shape[0]

    @property
    def state_dim(self) -> int:
        return self.Q[0].shape[1]

    @property
    def action_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[2] for b in self.B)


@dataclass(frozen=True)
class ValueRecursion:
    """Quadratic value coefficients of every agent: Z[i] (T, n, n), xi[i] (T, n)."""

    Z: tuple[Array, ...]
    xi: tuple[Array, ...]


@dataclass(frozen=True)
class StageSolveReport:
    """Per-stage conditioning diagnostics for t = 1..T-1.

    ``condition[k]`` estimates the condition number of the coupled block
    matrix at t = k+1; ``regularization[k]`` is the diagonal shift that was
    required (0 when the plain system solved).
    """

    condition: Array
    regularization: Array


def solve_stage_coupled(
    Z_next: list[Array],
    xi_next: list[Array],
    A: Array,
    B: list[Array],
    R: tuple[tuple[Array, ...], ...],
    r: list[Array] | None = None,
    *,
    time_step: int = 0,
) -> tuple[list[Array], list[Array], float, float]:
    """Solve one stage's coupled linear system for all gains and offsets.

    Assembles M with diagonal blocks R^{ii} + B^i'Z^i B^i and off-diagonal
    blocks B^i'Z^i B^j, then solves M [P^1; ...] = [B^1'Z^1 A; ...] and
    M [alpha^1; ...] = [B^1'xi^1 + r^1; ...] from one LU factorization with
    both right-hand sides stacked.  If the condition estimate exceeds
    ``COND_LIMIT`` the diagonal is shifted by lambda I (lambda doubling from
    REG_INIT up to REG_MAX) before giving up.

    Returns per-agent gain and offset blocks plus (condition, shift used).
    """
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
        off = B[i].T @ xi_next[i]
        if r is not None:
            off = off + r[i]
        rhs_rows.append(np.concatenate([lin, off[:, None]], axis=1))
    M = np.concatenate(rows, axis=0)
    rhs = np.concatenate(rhs_rows, axis=0)

    cond = float(np.linalg.cond(M))
    shift = 0.0
    M_solve = M
    if not np.isfinite(cond) or cond > COND_LIMIT:
        lam = REG_INIT
        while True:
            M_solve = M + lam * np.eye(M.shape[0])
            cond = float(np.linalg.cond(M_solve))
            shift = lam
            if np.isfinite(cond) and cond <= COND_LIMIT:
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


def backward_value_update(
    P: list[Array],
    alpha: list[Array],
    Z_next: list[Array],
    xi_next: list[Array],
    A: Array,
    B: list[Array],
    R: tuple[tuple[Array, ...], ...],
    Q_t: list[Array],
    l_t: list[Array],
    r_t: list[Array] | None = None,
    *,
    include_stage_linear: bool = True,
) -> tuple[list[Array], list[Array]]:
    """Propagate every agent's quadratic value coefficients one step back.

    F = A - sum_j B^j P^j and beta = -sum_j B^j alpha^j are the closed-loop
    drift and offset; then

        Z^i = F'Z^i_next F + sum_j P^j'R^{ij}P^j + Q^i_t
        xi^i = F'(xi^i_next + Z^i_next beta) + sum_j P^j'R^{ij}alpha^j
               [+ l^i_t] [- P^i' r^i_t]

    with Z symmetrized after the update to control rounding drift.  The
    stage linear state cost l^i_t mirrors the classical deterministic
    recursion (skipped under ``include_stage_linear=False``); the -P'r term
    carries the own-action linear cost into the value, which makes
    recentered games (where r = 2 R abar) have their exact expansion point
    as a fixed point.
    """
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
        if include_stage_linear:
            xi = xi + l_t[i]
        if r_t is not None:
            xi = xi - P[i].T @ r_t[i]
        Z_out.append((Z + Z.T) / 2.0)
        xi_out.append(xi)
    return Z_out, xi_out


@dataclass(frozen=True)
class LqSolution:
    policies: AffineGaussianPolicySet
    values: ValueRecursion
    report: StageSolveReport


def solve_lq_ece(
    game: LqStageGame,
    temperatures: tuple[float, ...] | None = None,
    *,
    strict_paper: bool = False,
) -> LqSolution:
    """Solve an LQ-Gaussian game for its entropic-cost-equilibrium policies.

    Backward in time from the terminal conditions Z^i_T = Q^i_T,
    xi^i_T = l^i_T.  The terminal-stage policy has zero gain, offset
    (R^{ii})^{-1} r^i_T and covariance gamma^i (R^{ii})^{-1}; interior stages
    come from :func:`solve_stage_coupled` followed by
    :func:`backward_value_update`, with Sigma^i_t = gamma^i (R^{ii} +
    B^i'Z^i_{t+1}B^i)^{-1}.  The covariances are formed for all stages in one
    stacked pass after the backward loop, and each is checked symmetric
    positive definite (:class:`CovarianceError` names the agent and the first
    failing step).
    """
    N = game.num_agents
    T = game.horizon
    n = game.state_dim
    m_dims = game.action_dims
    if temperatures is None:
        temperatures = tuple(1.0 for _ in range(N))
    if len(temperatures) != N or any(g <= 0 for g in temperatures):
        raise ValueError("one positive temperature required per agent")

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
        offsets[i][T - 1] = np.linalg.solve(game.R[i][i], game.r[i][T - 1])

    for k in range(T - 2, -1, -1):
        A = game.A[k]
        B = [game.B[j][k] for j in range(game.num_agents)]
        P, alpha, cond, shift = solve_stage_coupled(
            Z, xi, A, B, game.R, [game.r[i][k] for i in range(N)], time_step=k + 1
        )
        condition[k] = cond
        regularization[k] = shift
        for i in range(N):
            gains[i][k] = P[i]
            offsets[i][k] = alpha[i]
        Z, xi = backward_value_update(
            P,
            alpha,
            Z,
            xi,
            A,
            B,
            game.R,
            [game.Q[i][k] for i in range(N)],
            [game.l[i][k] for i in range(N)],
            [game.r[i][k] for i in range(N)],
            include_stage_linear=not strict_paper,
        )
        for i in range(N):
            Z_hist[i][k] = Z[i]
            xi_hist[i][k] = xi[i]

    # Sigma^i_t = gamma^i (R^{ii} + B^i'Z^i_{t+1}B^i)^{-1}, all stages at once.
    covs = []
    for i in range(N):
        M = np.broadcast_to(game.R[i][i], (T, m_dims[i], m_dims[i])).copy()
        Bi = game.B[i]
        M[:-1] += np.swapaxes(Bi, 1, 2) @ Z_hist[i][1:] @ Bi
        M = (M + np.swapaxes(M, 1, 2)) / 2.0
        covs.append(cholesky_checked(temperatures[i] * np.linalg.inv(M), i)[0])

    policies = AffineGaussianPolicySet.identity_nominal(gains, offsets, covs)
    values = ValueRecursion(Z=tuple(Z_hist), xi=tuple(xi_hist))
    report = StageSolveReport(condition=condition, regularization=regularization)
    return LqSolution(policies=policies, values=values, report=report)
