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

Layout: the backward loop works on agent-stacked arrays (B (N, T-1, n, m),
R (N, N, m, m), r (N, T, m), Z (N, n, n), xi (N, n), P (N, m, n), alpha
(N, m)), so each stage makes the same number of array calls for any N.
Action blocks are zero-padded to m = max m_i; the stage solve drops the
padded rows and columns (:func:`action_rows`) before the condition estimate
and the LU, so both see the unpadded block matrix.  With equal action dims
nothing is padded, and every product is a per-slice matmul that rounds like
the per-agent one, with sums over agents added in agent order, so results
match a per-agent loop bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def action_rows(action_dims: Sequence[int]) -> Array | None:
    """Rows of the real actions in an agent-stacked action vector.

    Every agent's action block is zero-padded to m = max m_i, so agent i's
    a-th action sits at row i*m + a.  None when no block is padded.
    """
    m = max(action_dims)
    if all(d == m for d in action_dims):
        return None
    return np.concatenate([i * m + np.arange(d) for i, d in enumerate(action_dims)])


def _stack_agents(blocks: Sequence[Array], shape: tuple[int, ...]) -> Array:
    """Per-agent blocks stacked on a new leading axis, each zero-padded to ``shape``."""
    out = np.zeros((len(blocks), *shape))
    for i, b in enumerate(blocks):
        b = np.asarray(b, dtype=float)
        out[(i, *map(slice, b.shape))] = b
    return out


def _stack_action_blocks(B, R, r):
    """Per-agent B, R and r stacked on a leading agent axis, every action block
    zero-padded to m = max m_j: B[j] (..., n, m_j) -> (N, ..., n, m),
    R[i][j] -> (N, N, m, m), r[i] (..., m_i) -> (N, ..., m); and their
    :func:`action_rows`."""
    N = len(B)
    dims = [np.shape(b)[-1] for b in B]
    m = max(dims)
    R = _stack_agents([Rij for row in R for Rij in row], (m, m)).reshape(N, N, m, m)
    r = None if r is None else _stack_agents(r, (*np.shape(r[0])[:-1], m))
    return _stack_agents(B, (*np.shape(B[0])[:-1], m)), R, r, action_rows(dims)


def _condition(M: Array) -> float:
    """2-norm condition number of M, as ``np.linalg.cond`` gives it (inf when
    M is singular), from one singular-value call."""
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] != 0.0 else np.inf


def solve_stage_coupled(
    Z_next: Array | Sequence[Array],
    xi_next: Array | Sequence[Array],
    A: Array,
    B: Array | Sequence[Array],
    R: Array | tuple[tuple[Array, ...], ...],
    r: Array | Sequence[Array] | None = None,
    *,
    time_step: int = 0,
    rows: Array | None = None,
) -> tuple[Array, Array, float, float]:
    """Solve one stage's coupled linear system for all gains and offsets.

    Agent-indexed arguments are stacked on a leading agent axis, each action
    block zero-padded to m = max m_i: Z_next (N, n, n), xi_next (N, n),
    B (N, n, m), R (N, N, m, m), r (N, m), with ``rows`` from
    :func:`action_rows` when a block is padded.  Per-agent sequences
    (B[j] (n, m_j), R[i][j] (m_j, m_j), r[i] (m_i,)) are stacked here.

    Assembles M with diagonal blocks R^{ii} + B^i'Z^i B^i and off-diagonal
    blocks B^i'Z^i B^j, drops the padded rows and columns, then solves
    M [P^1; ...] = [B^1'Z^1 A; ...] and M [alpha^1; ...] = [B^1'xi^1 + r^1; ...]
    from one LU factorization with both right-hand sides stacked.  If the
    condition estimate exceeds ``COND_LIMIT`` the diagonal is shifted by
    lambda I (lambda doubling from REG_INIT up to REG_MAX) before giving up.

    Returns the gains P (N, m, n) and offsets alpha (N, m), zero in padded
    rows, plus (condition, shift used).
    """
    if not isinstance(B, np.ndarray):
        B, R, r, rows = _stack_action_blocks(B, R, r)
    Z_next = np.asarray(Z_next, dtype=float)
    xi_next = np.asarray(xi_next, dtype=float)
    N, n, m = B.shape
    # Per-slice gemm and (X @ v[..., None])[..., 0] round like the per-agent
    # products B^i'Z^i B^j and B^i'xi^i.
    Bt = B.transpose(0, 2, 1)
    BtZ = Bt @ Z_next
    blocks = BtZ[:, None] @ B[None]
    # Every (N + 1)-th of the N * N blocks is a diagonal block (i, i).
    blocks.reshape(N * N, m, m)[:: N + 1] += R.reshape(N * N, m, m)[:: N + 1]
    off = (Bt @ xi_next[..., None])[..., 0]
    if r is not None:
        off = off + r
    M = blocks.transpose(0, 2, 1, 3).reshape(N * m, N * m)
    rhs = np.concatenate([BtZ @ A, off[..., None]], axis=2).reshape(N * m, n + 1)
    if rows is not None:
        M, rhs = M[np.ix_(rows, rows)], rhs[rows]

    cond = _condition(M)
    shift = 0.0
    M_solve = M
    if not cond <= COND_LIMIT:  # also true for an infinite or NaN condition
        lam = REG_INIT
        while True:
            M_solve = M + lam * np.eye(M.shape[0])
            cond = _condition(M_solve)
            shift = lam
            if cond <= COND_LIMIT:
                break
            if lam >= REG_MAX:
                raise StageSingularError(time_step=time_step, condition=cond)
            lam = min(2.0 * lam, REG_MAX)
    sol = np.linalg.solve(M_solve, rhs)
    if rows is not None:
        full = np.zeros((N * m, n + 1))
        full[rows] = sol
        sol = full
    sol = sol.reshape(N, m, n + 1)
    return sol[..., :n], sol[..., n], cond, shift


def backward_value_update(
    P: Array | Sequence[Array],
    alpha: Array | Sequence[Array],
    Z_next: Array | Sequence[Array],
    xi_next: Array | Sequence[Array],
    A: Array,
    B: Array | Sequence[Array],
    R: Array | tuple[tuple[Array, ...], ...],
    Q_t: Array | Sequence[Array],
    l_t: Array | Sequence[Array],
    r_t: Array | Sequence[Array] | None = None,
    *,
    include_stage_linear: bool = True,
) -> tuple[Array, Array]:
    """Propagate every agent's quadratic value coefficients one step back.

    Arguments are stacked on a leading agent axis as in
    :func:`solve_stage_coupled` (P (N, m, n), alpha (N, m), Q_t (N, n, n),
    l_t (N, n)); per-agent sequences are stacked here.  Padded action rows
    are zero and add nothing.  F = A - sum_j B^j P^j and
    beta = -sum_j B^j alpha^j are the closed-loop drift and offset; then

        Z^i = F'Z^i_next F + sum_j P^j'R^{ij}P^j + Q^i_t
        xi^i = F'(xi^i_next + Z^i_next beta) + sum_j P^j'R^{ij}alpha^j
               [+ l^i_t] [- P^i' r^i_t]

    with Z symmetrized after the update to control rounding drift.  The sums
    over j add one agent's term at a time, in order.  The stage linear state
    cost l^i_t mirrors the classical deterministic recursion (skipped under
    ``include_stage_linear=False``); the -P'r term carries the own-action
    linear cost into the value, which makes recentered games (where
    r = 2 R abar) have their exact expansion point as a fixed point.

    Returns Z (N, n, n) and xi (N, n).
    """
    if not isinstance(B, np.ndarray):
        B, R, r_t, _ = _stack_action_blocks(B, R, r_t)
        m, n = B.shape[2], np.shape(A)[0]
        P, alpha = _stack_agents(P, (m, n)), _stack_agents(alpha, (m,))
    Z_next = np.asarray(Z_next, dtype=float)
    xi_next = np.asarray(xi_next, dtype=float)
    N = B.shape[0]
    Pt = P.transpose(0, 2, 1)
    F = A - sum(B @ P)
    beta = -sum((B @ alpha[..., None])[..., 0])
    Z = F.T @ Z_next @ F + np.asarray(Q_t, dtype=float)
    xi = (F.T @ (xi_next + Z_next @ beta)[..., None])[..., 0]
    # [i, j] holds P^j'R^{ij}P^j and P^j'R^{ij}alpha^j.
    PtRP = Pt[None] @ (R @ P[None])
    PtRa = (Pt[None] @ (R @ alpha[None, ..., None]))[..., 0]
    for j in range(N):
        Z = Z + PtRP[:, j]
        xi = xi + PtRa[:, j]
    if include_stage_linear:
        xi = xi + np.asarray(l_t, dtype=float)
    if r_t is not None:
        xi = xi - (Pt @ np.asarray(r_t, dtype=float)[..., None])[..., 0]
    return (Z + Z.transpose(0, 2, 1)) / 2.0, xi


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
    :func:`backward_value_update`, on the game's data stacked once on a
    leading agent axis, with Sigma^i_t = gamma^i (R^{ii} +
    B^i'Z^i_{t+1}B^i)^{-1}.  The covariances are formed for all stages in one
    stacked pass after the backward loop, and each is checked symmetric
    positive definite (:class:`CovarianceError` names the agent and the first
    failing step).  Temperatures must be positive and finite.
    """
    N = game.num_agents
    T = game.horizon
    n = game.state_dim
    m_dims = game.action_dims
    if temperatures is None:
        temperatures = tuple(1.0 for _ in range(N))
    if len(temperatures) != N or not all(0.0 < g < np.inf for g in temperatures):
        raise ValueError("one positive, finite temperature required per agent")

    B, R, r, rows = _stack_action_blocks(game.B, game.R, game.r)
    m = B.shape[-1]
    Q = np.stack(game.Q)
    l = np.stack(game.l)

    gains = np.zeros((N, T, m, n))
    offsets = np.zeros((N, T, m))
    Z_hist = np.zeros((N, T, n, n))
    xi_hist = np.zeros((N, T, n))
    condition = np.zeros(max(T - 1, 0))
    regularization = np.zeros(max(T - 1, 0))

    Z = Z_hist[:, T - 1] = Q[:, T - 1]
    xi = xi_hist[:, T - 1] = l[:, T - 1]
    for i in range(N):
        offsets[i, T - 1, : m_dims[i]] = np.linalg.solve(game.R[i][i], game.r[i][T - 1])

    for k in range(T - 2, -1, -1):
        P, alpha, condition[k], regularization[k] = solve_stage_coupled(
            Z, xi, game.A[k], B[:, k], R, r[:, k], time_step=k + 1, rows=rows
        )
        gains[:, k] = P
        offsets[:, k] = alpha
        Z, xi = backward_value_update(
            P, alpha, Z, xi, game.A[k], B[:, k], R, Q[:, k], l[:, k], r[:, k],
            include_stage_linear=not strict_paper,
        )
        Z_hist[:, k] = Z
        xi_hist[:, k] = xi

    # Sigma^i_t = gamma^i (R^{ii} + B^i'Z^i_{t+1}B^i)^{-1}, all stages at once.
    covs = []
    for i in range(N):
        M = np.broadcast_to(game.R[i][i], (T, m_dims[i], m_dims[i])).copy()
        Bi = game.B[i]
        M[:-1] += np.swapaxes(Bi, 1, 2) @ Z_hist[i, 1:] @ Bi
        M = (M + np.swapaxes(M, 1, 2)) / 2.0
        covs.append(cholesky_checked(temperatures[i] * np.linalg.inv(M), i)[0])

    policies = AffineGaussianPolicySet.identity_nominal(
        [gains[i, :, :d] for i, d in enumerate(m_dims)],
        [offsets[i, :, :d] for i, d in enumerate(m_dims)],
        covs,
    )
    values = ValueRecursion(Z=tuple(Z_hist), xi=tuple(xi_hist))
    report = StageSolveReport(condition=condition, regularization=regularization)
    return LqSolution(policies=policies, values=values, report=report)
