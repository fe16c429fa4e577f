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

The xi recursion includes the stage term + l^i_t, as the classical
affine-quadratic feedback-Nash recursion does (Basar & Olsder, ch. 6), and
the iterative solver's expansion keeps the recentring term r^i = 2R^{ii}abar
(:func:`ecegames.ilq.quadratize`); the paper's printed recursion omits both.
Without them the iteration settles on policies that are not equilibria: on
``lq_tracking``, whose agents are decoupled so each mean is its own LQR
optimum, it stopped after 46 iterations at a cost of 68.5 per agent, where
the direct LQ solution costs 10.38; on ``two_agent_crossing`` it stopped at
costs 718.7/704.7 against 53.9/27.1.

Layout: agent-stacked arrays are the only layout.  :class:`LqStageGame`
stacks the per-agent blocks once (B (N, T-1, n, m), Q (N, T, n, n),
l (N, T, n), R (N, N, m, m), r (N, T, m)), zero-padding every action block to
m = max m_i; the helpers take one stage of it (Z (N, n, n), xi (N, n),
P (N, m, n), alpha (N, m)), so each stage makes the same number of array
calls for any N.  The stage solve drops the padded rows and columns
(:func:`action_rows`) before the condition estimate and the LU, so both see
the unpadded block matrix; the covariance pass uses own blocks with ones on
the padded diagonal.  With equal action dims nothing is padded, and every
product is a per-slice matmul that rounds like the per-agent one, with sums
over agents added in agent order, so results match a per-agent loop bit for
bit.

Conditioning: a stage whose block matrix has a 2-norm condition number above
``COND_LIMIT`` is solved with its diagonal shifted by lambda I, lambda
doubling from ``REG_INIT`` up to ``REG_MAX``.  The backward pass first
solves each stage as it stands, stacking the stage matrices, and takes all
conditions from one stacked singular-value call after the loop; only when a
stage fails (a condition over the limit or not finite, a non-finite matrix,
a failed solve) or an output is not finite does the pass rerun from the
terminal stage through the per-stage ladder of :func:`solve_stage_coupled`.
Both passes give the same results, conditions included.  A solve that needs
the ladder thus pays for both passes; no solve in the benchmark workloads
does (their largest stage condition is below 3).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import StageSingularError
from .game import AffineGaussianPolicySet, Array, cholesky_checked, temperatures_valid

COND_LIMIT = 1e12
REG_INIT = 1e-8
REG_MAX = 1e-2


@dataclass(frozen=True)
class LqStageGame:
    """Time-indexed data of one LQ-Gaussian game, stacked on a leading agent axis.

    Built from per-agent blocks (T = horizon, n = state dim, m_i = action
    dims): A (T-1, n, n); B[j] (T-1, n, m_j); Q[i] (T, n, n) symmetric PSD;
    l[i] (T, n); R[i][j] (m_j, m_j), constant in time, R[i][i] positive
    definite; r[i] (T, m_i) linear own-action terms (zeros reproduce the
    plain quadratic game; recentered games produced by the iterative solver
    populate them).  Construction checks them and stacks them once, every
    action block zero-padded to m = max m_i: B (N, T-1, n, m), Q (N, T, n, n),
    l (N, T, n), R (N, N, m, m), r (N, T, m).  ``R_own`` holds the own blocks
    R^{ii} (N, m, m) with ones on the padded diagonal, so each is positive
    definite; ``action_dims`` keeps the m_i.  With unequal action dims the
    stacked arrays are not valid constructor input: their padding would read
    as real actions.
    """

    A: Array
    B: Array
    Q: Array
    l: Array
    R: Array
    r: Array | None = None
    action_dims: tuple[int, ...] = field(init=False)
    R_own: Array = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        N, (T, n) = len(self.B), np.shape(self.Q[0])[:2]
        dims = tuple(np.shape(b)[-1] for b in self.B)
        r = [np.zeros((T, d)) for d in dims] if self.r is None else self.r
        if A.shape != (T - 1, n, n):
            raise ValueError(f"A must be (T-1, n, n), got {A.shape}")
        for i in range(N):
            if np.shape(self.B[i]) != (T - 1, n, dims[i]):
                raise ValueError(f"B[{i}] must be (T-1, n, m_j), got {np.shape(self.B[i])}")
            if np.shape(self.Q[i]) != (T, n, n) or np.shape(self.l[i]) != (T, n):
                raise ValueError(f"Q[{i}]/l[{i}] shapes inconsistent")
            if np.shape(r[i]) != (T, dims[i]):
                raise ValueError(f"r[{i}] must be (T, m_i), got {np.shape(r[i])}")
        if len(self.R) != N or any(len(row) != N for row in self.R):
            raise ValueError("R must be an N x N table of blocks")
        for i, row in enumerate(self.R):
            for j, Rij in enumerate(row):
                if np.shape(Rij) != (dims[j], dims[j]):
                    raise ValueError(f"R[{i}][{j}] must be ({dims[j]}, {dims[j]})")

        m = max(dims)

        def stack(blocks, shape):
            out = np.zeros((len(blocks), *shape))
            for k, b in enumerate(blocks):
                out[(k, *map(slice, np.shape(b)))] = b
            return out

        R = stack([Rij for row in self.R for Rij in row], (m, m)).reshape(N, N, m, m)
        asymmetric = ~np.isclose(R, R.swapaxes(-1, -2), rtol=0.0, atol=1e-8).all(axis=(-2, -1))
        if asymmetric.any():
            i, j = np.argwhere(asymmetric)[0]
            raise ValueError(f"R[{i}][{j}] is not symmetric")
        own = R[np.arange(N), np.arange(N)]
        pad_agent, pad_row = np.nonzero(np.arange(m) >= np.array(dims)[:, None])
        own[pad_agent, pad_row, pad_row] = 1.0
        try:
            np.linalg.cholesky(own)
        except np.linalg.LinAlgError:
            i = int(np.argmax(np.linalg.eigvalsh(own)[:, 0] <= 0.0))
            raise ValueError(f"R[{i}][{i}] must be positive definite") from None
        for name, value in (
            ("A", A), ("B", stack(self.B, (T - 1, n, m))), ("Q", stack(self.Q, (T, n, n))),
            ("l", stack(self.l, (T, n))), ("R", R), ("r", stack(r, (T, m))),
            ("action_dims", dims), ("R_own", own),
        ):
            object.__setattr__(self, name, value)

    @property
    def num_agents(self) -> int:
        return self.B.shape[0]

    @property
    def horizon(self) -> int:
        return self.Q.shape[1]

    @property
    def state_dim(self) -> int:
        return self.Q.shape[2]

    def per_agent(self, stacked: Array, square: bool = False) -> tuple[Array, ...]:
        """Agent i's block of an agent-stacked (N, T, m, ...) array, cut back to
        its m_i action rows (and columns too when ``square``)."""
        return tuple(
            X[:, :d, :d] if square else X[:, :d] for X, d in zip(stacked, self.action_dims)
        )


@dataclass(frozen=True)
class ValueRecursion:
    """Quadratic value coefficients of every agent: Z (N, T, n, n), xi (N, T, n)."""

    Z: Array
    xi: Array


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


def _condition(M: Array) -> float:
    """2-norm condition number of M, as ``np.linalg.cond`` gives it (inf when
    M is singular), from one singular-value call."""
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] != 0.0 else np.inf


def _stage_system(
    Z_next: Array,
    xi_next: Array,
    A: Array,
    B: Array,
    R: Array,
    r: Array,
    rows: Array | None = None,
) -> tuple[Array, Array]:
    """One stage's coupled block matrix M and right-hand sides.

    Agent-indexed arguments are stacked on a leading agent axis as
    :class:`LqStageGame` stacks them, each action block zero-padded to
    m = max m_i: Z_next (N, n, n), xi_next (N, n), B (N, n, m),
    R (N, N, m, m), r (N, m), with ``rows`` from :func:`action_rows` when a
    block is padded.  M has diagonal blocks R^{ii} + B^i'Z^i B^i and
    off-diagonal blocks B^i'Z^i B^j; the right-hand sides stack
    [B^1'Z^1 A; ...] and [B^1'xi^1 + r^1; ...] as n + 1 columns.  Padded rows
    and columns are dropped, so M is (K, K) and rhs (K, n + 1) with
    K = sum m_i.
    """
    N, n, m = B.shape
    # Per-slice gemm and (X @ v[..., None])[..., 0] round like the per-agent
    # products B^i'Z^i B^j and B^i'xi^i.
    Bt = B.transpose(0, 2, 1)
    BtZ = Bt @ Z_next
    blocks = BtZ[:, None] @ B[None]
    # Every (N + 1)-th of the N * N blocks is a diagonal block (i, i).
    blocks.reshape(N * N, m, m)[:: N + 1] += R.reshape(N * N, m, m)[:: N + 1]
    off = (Bt @ xi_next[..., None])[..., 0] + r
    M = blocks.transpose(0, 2, 1, 3).reshape(N * m, N * m)
    rhs = np.concatenate([BtZ @ A, off[..., None]], axis=2).reshape(N * m, n + 1)
    if rows is not None:
        M, rhs = M[np.ix_(rows, rows)], rhs[rows]
    return M, rhs


def _gains_offsets(sol: Array, N: int, m: int, rows: Array | None) -> tuple[Array, Array]:
    """Split the (K, n + 1) solution of a stage system into gains P (N, m, n)
    and offsets alpha (N, m), zero in padded rows."""
    if rows is not None:
        full = np.zeros((N * m, sol.shape[1]))
        full[rows] = sol
        sol = full
    sol = sol.reshape(N, m, -1)
    return sol[..., :-1], sol[..., -1]


def solve_stage_coupled(
    Z_next: Array,
    xi_next: Array,
    A: Array,
    B: Array,
    R: Array,
    r: Array,
    *,
    time_step: int = 0,
    rows: Array | None = None,
) -> tuple[Array, Array, float, float]:
    """Solve one stage's coupled linear system for all gains and offsets.

    Arguments are those of :func:`_stage_system`, which assembles M; this
    solves M [P^1; ...] = [B^1'Z^1 A; ...] and
    M [alpha^1; ...] = [B^1'xi^1 + r^1; ...] from one LU factorization with
    both right-hand sides stacked.  If the condition estimate exceeds
    ``COND_LIMIT`` the diagonal is shifted by lambda I (lambda doubling from
    REG_INIT up to REG_MAX) before giving up with
    :class:`StageSingularError`.

    Returns the gains P (N, m, n) and offsets alpha (N, m), zero in padded
    rows, plus (condition, shift used).
    """
    M, rhs = _stage_system(Z_next, xi_next, A, B, R, r, rows)
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
    P, alpha = _gains_offsets(np.linalg.solve(M_solve, rhs), B.shape[0], B.shape[2], rows)
    return P, alpha, cond, shift


def backward_value_update(
    P: Array,
    alpha: Array,
    Z_next: Array,
    xi_next: Array,
    A: Array,
    B: Array,
    R: Array,
    Q_t: Array,
    l_t: Array,
    r_t: Array,
) -> tuple[Array, Array]:
    """Propagate every agent's quadratic value coefficients one step back.

    Arguments are stacked on a leading agent axis as in
    :func:`solve_stage_coupled` (P (N, m, n), alpha (N, m), Q_t (N, n, n),
    l_t (N, n)).  Padded action rows are zero and add nothing.
    F = A - sum_j B^j P^j and beta = -sum_j B^j alpha^j are the closed-loop
    drift and offset; then

        Z^i = F'Z^i_next F + sum_j P^j'R^{ij}P^j + Q^i_t
        xi^i = F'(xi^i_next + Z^i_next beta) + sum_j P^j'R^{ij}alpha^j
               + l^i_t - P^i' r^i_t

    with Z symmetrized after the update to control rounding drift.  The sums
    over j add one agent's term at a time, in order.  The -P'r term carries
    the own-action linear cost into the value, which makes recentered games
    (where r = 2 R abar) have their exact expansion point as a fixed point.

    Returns Z (N, n, n) and xi (N, n).
    """
    Pt = P.transpose(0, 2, 1)
    F = A - sum(B @ P)
    beta = -sum((B @ alpha[..., None])[..., 0])
    # [i, j] holds P^j'R^{ij}P^j and P^j'R^{ij}alpha^j; sum() over the j axis
    # adds them to the start value one agent at a time.
    PtRP = Pt[None] @ (R @ P[None])
    PtRa = (Pt[None] @ (R @ alpha[None, ..., None]))[..., 0]
    Z = sum(PtRP.swapaxes(0, 1), F.T @ Z_next @ F + Q_t)
    xi = sum(PtRa.swapaxes(0, 1), (F.T @ (xi_next + Z_next @ beta)[..., None])[..., 0]) + l_t
    xi = xi - (Pt @ r_t[..., None])[..., 0]
    return (Z + Z.transpose(0, 2, 1)) / 2.0, xi


@dataclass(frozen=True)
class LqSolution:
    policies: AffineGaussianPolicySet
    values: ValueRecursion
    report: StageSolveReport


def _backward_pass(game: LqStageGame, checked: bool):
    """The backward loop of :func:`solve_lq_ece`: gains and offsets (N, T, m, ...),
    Z and xi histories, and the stage conditions and shifts.

    ``checked`` solves every stage through :func:`solve_stage_coupled`, which
    alone regularizes and raises :class:`StageSingularError`.  Unchecked, each
    stage is solved as it stands and its matrix kept in a (T-1, K, K) stack;
    after the loop one stacked singular-value call gives every condition.
    An unchecked pass returns None when a stage matrix, a gain, an offset or
    a value coefficient is not finite or a condition is not at most
    ``COND_LIMIT``, and passes on the ``LinAlgError`` of a failed solve: then
    the checked pass must decide.
    """
    N, T, n = game.num_agents, game.horizon, game.state_dim
    B, R, r = game.B, game.R, game.r
    m = B.shape[-1]
    rows = action_rows(game.action_dims)
    gains = np.zeros((N, T, m, n))
    offsets = np.zeros((N, T, m))
    Z_hist = np.zeros((N, T, n, n))
    xi_hist = np.zeros((N, T, n))
    condition = np.zeros(max(T - 1, 0))
    regularization = np.zeros(max(T - 1, 0))
    K = N * m if rows is None else len(rows)
    stack = None if checked else np.empty((max(T - 1, 0), K, K))

    Z = Z_hist[:, T - 1] = game.Q[:, T - 1]
    xi = xi_hist[:, T - 1] = game.l[:, T - 1]
    offsets[:, T - 1] = np.linalg.solve(game.R_own, r[:, T - 1, :, None])[..., 0]

    for k in range(T - 2, -1, -1):
        A_k, B_k, r_k = game.A[k], B[:, k], r[:, k]
        if checked:
            P, alpha, condition[k], regularization[k] = solve_stage_coupled(
                Z, xi, A_k, B_k, R, r_k, time_step=k + 1, rows=rows
            )
        else:
            M, rhs = _stage_system(Z, xi, A_k, B_k, R, r_k, rows)
            stack[k] = M
            P, alpha = _gains_offsets(np.linalg.solve(M, rhs), N, m, rows)
        gains[:, k] = P
        offsets[:, k] = alpha
        Z, xi = backward_value_update(
            P, alpha, Z, xi, A_k, B_k, R, game.Q[:, k], game.l[:, k], r_k
        )
        Z_hist[:, k] = Z
        xi_hist[:, k] = xi

    if not checked:
        # Only a pass that is finite throughout is kept, so an overflow or NaN
        # the errstate of the caller hid always reruns the pass, which warns.
        if not all(np.isfinite(x).all() for x in (stack, gains, offsets, Z_hist, xi_hist)):
            return None
        if T > 1:
            # The stacked call runs the per-matrix routine on each stage, so
            # every ratio equals _condition of that stage.
            s = np.linalg.svd(stack, compute_uv=False)
            condition = s[:, 0] / s[:, -1]
            if not (condition <= COND_LIMIT).all():
                return None
    return gains, offsets, Z_hist, xi_hist, condition, regularization


def solve_lq_ece(game: LqStageGame, temperatures: tuple[float, ...] | None = None) -> LqSolution:
    """Solve an LQ-Gaussian game for its entropic-cost-equilibrium policies.

    Backward in time from the terminal conditions Z^i_T = Q^i_T,
    xi^i_T = l^i_T.  The terminal-stage policy has zero gain, offset
    (R^{ii})^{-1} r^i_T and covariance gamma^i (R^{ii})^{-1}; interior stages
    solve the coupled stage system followed by :func:`backward_value_update`
    on the game's agent-stacked data, with
    Sigma^i_t = gamma^i (R^{ii} + B^i'Z^i_{t+1}B^i)^{-1}.

    The backward pass first solves every stage as it stands, keeping the
    stage matrices in one stack, and takes all stage conditions from one
    stacked singular-value call after the loop.  If any stage matrix is not
    finite, any solve fails, any condition exceeds ``COND_LIMIT`` or any
    gain, offset or value coefficient is not finite, that pass is discarded
    and the pass reruns from the terminal stage through
    :func:`solve_stage_coupled`, whose regularization ladder shifts the
    ill-conditioned stages or raises :class:`StageSingularError` naming the
    first hopeless one.  Either way the results, conditions included, are
    those of the per-stage ladder.

    The covariances of all agents and stages are formed in one stacked pass
    after the backward loop and checked symmetric positive definite
    (:class:`CovarianceError` names the first failing agent and its first
    failing step).  Temperatures must be positive and finite.  The policies
    are cut back to each agent's action dim; the values stay agent-stacked,
    Z (N, T, n, n), xi (N, T, n).
    """
    N, T, m = game.num_agents, game.horizon, game.B.shape[-1]
    if temperatures is None:
        temperatures = tuple(1.0 for _ in range(N))
    if len(temperatures) != N or not temperatures_valid(temperatures):
        raise ValueError("one positive, finite temperature required per agent")

    # Overflow or NaN in a discarded pass must not warn; the rerun repeats it.
    try:
        with np.errstate(all="ignore"):
            stages = _backward_pass(game, checked=False)
    except np.linalg.LinAlgError:
        stages = None
    if stages is None:
        stages = _backward_pass(game, checked=True)
    gains, offsets, Z_hist, xi_hist, condition, regularization = stages

    # Sigma^i_t = gamma^i (R^{ii} + B^i'Z^i_{t+1}B^i)^{-1}, all agents and stages
    # at once; the padded diagonal of R_own keeps each block invertible.
    B = game.B
    M = np.broadcast_to(game.R_own[:, None], (N, T, m, m)).copy()
    M[:, :-1] += B.swapaxes(2, 3) @ Z_hist[:, 1:] @ B
    M = (M + M.swapaxes(2, 3)) / 2.0
    gamma = np.asarray(temperatures, dtype=float)[:, None, None, None]
    covs = cholesky_checked(gamma * np.linalg.inv(M))[0]

    policies = AffineGaussianPolicySet.identity_nominal(
        game.per_agent(gains), game.per_agent(offsets), game.per_agent(covs, square=True)
    )
    values = ValueRecursion(Z=Z_hist, xi=xi_hist)
    report = StageSolveReport(condition=condition, regularization=regularization)
    return LqSolution(policies=policies, values=values, report=report)
