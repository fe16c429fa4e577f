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

Layout: the actions of all agents are concatenated, the only layout.  With
K = sum m_i the joint action a = [a^1; ...; a^N] has K rows, agent i's in
rows ``slices[i]``.  :class:`LqStageGame` lays the game out once on it: B
(T-1, n, K) concatenates the B^j, agent i's action cost is R^i =
blockdiag_j R^{ij} (K, K), and r^i is zero outside agent i's rows.  Every
agent's value is one array W^i = [Z^i | xi^i] (n, n + 1) and a stage's gains
and offsets are one array [P | alpha] (K, n + 1).  Nothing is padded, and a
stage makes the same dozen or so array calls for any N and any action dims:
one product gives every agent's rows of the stage system [M | rhs], one
solve gives [P | alpha], and each term of the value update is one product
over all agents.  The sums over agents happen inside the matrix products, so
results agree with a per-agent loop to rounding (a few ulp), not bit for
bit.  The covariances come from the diagonal blocks of the stage matrices.

Conditioning: a stage whose block matrix has a 2-norm condition number above
``COND_LIMIT`` (or that is not finite) is solved with its diagonal shifted
by lambda I, lambda doubling from ``REG_INIT`` up to ``REG_MAX``, and a
stage that no shift brings under the limit raises
:class:`StageSingularError`.  One stage loop runs both passes of a solve.
The first runs without this ladder and solves each stage as it stands.
When it stops on a singular stage, or when one screen of what it kept
fails (:func:`_failed`), the second pass reruns the whole horizon with the
ladder from the terminal stage, so the results, shifts, warnings and the
step a :class:`StageSingularError` names are those of the ladder alone.  A
solve that passes the screen, as in every benchmark workload (their
largest stage condition is below 3), makes no second pass.  The report's
stage conditions are computed from the kept stage matrices (shifted where
the ladder shifted them) the first time they are read, so a solve whose
conditions nobody reads takes no singular values at all.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, product

import numpy as np

from .errors import StageSingularError
from .game import AffineGaussianPolicySet, Array, cholesky_checked, temperatures_valid

COND_LIMIT = 1e12
REG_INIT = 1e-8
REG_MAX = 1e-2


@dataclass(frozen=True)
class LqStageGame:
    """Time-indexed data of one LQ-Gaussian game, laid out on concatenated actions.

    Built from per-agent blocks (T = horizon, n = state dim, m_i = action
    dims): A (T-1, n, n); B[j] (T-1, n, m_j); Q[i] (T, n, n) symmetric PSD;
    l[i] (T, n); R[i][j] (m_j, m_j), constant in time, R[i][i] positive
    definite; r[i] (T, m_i) linear own-action terms (zeros reproduce the
    plain quadratic game; recentered games produced by the iterative solver
    populate them).  Construction checks them and lays them out once on the
    joint action of K = sum m_i rows, agent i's in rows ``slices[i]``, with
    ``owner`` (K,) naming the agent of each row:

    - BA (T-1, n + 1, K + n + 1) = [[B, A, 0], [0, 0, 1]], the dynamics of
      the affine state [s; 1], read through the views B (T-1, n, K) and
      A (T-1, n, n);
    - QL (N, T, n, n + 1) = [Q | l], read through the views Q (N, T, n, n)
      and l (N, T, n);
    - R (N, K, K) holds agent i's action cost blockdiag_j R^{ij};
    - r (N, T, K) holds r^i in agent i's rows and zeros elsewhere;
    - Rr (T, K, K + n + 1) = [R_own | 0 | r_joint], the part of every stage
      system that does not depend on the values, with R_own (K, K) =
      blockdiag_i R^{ii} and the view r_joint (T, K) = [r^1 ... r^N];
    - Bt = B', F0 = [[A, 0], [0, 1]] and Bpad = [[B], [0]], the loop operands.

    :meth:`with_costs` lays out the cost half (QL, r, Rr) alone, so a solve with
    linear dynamics builds the rest once (:func:`ecegames.ilq.solve_ece`).
    The laid-out arrays are not valid constructor input.
    """

    A: Array
    B: Array
    Q: Array
    l: Array
    R: Array
    r: Array | None = None
    action_dims: tuple[int, ...] = field(init=False)
    owner: Array = field(init=False, repr=False)
    BA: Array = field(init=False, repr=False)
    QL: Array = field(init=False, repr=False)
    Rr: Array = field(init=False, repr=False)
    R_own: Array = field(init=False, repr=False)
    r_joint: Array = field(init=False, repr=False)
    Bt: Array = field(init=False, repr=False)
    F0: Array = field(init=False, repr=False)
    Bpad: Array = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        N, (T, n) = len(self.B), np.shape(self.Q[0])[:2]
        dims = tuple(np.shape(b)[-1] for b in self.B)
        if A.shape != (T - 1, n, n):
            raise ValueError(f"A must be (T-1, n, n), got {A.shape}")
        for i, b in enumerate(self.B):
            if np.shape(b) != (T - 1, n, dims[i]):
                raise ValueError(f"B[{i}] must be (T-1, n, m_j), got {np.shape(b)}")
        if len(self.R) != N or any(len(row) != N for row in self.R):
            raise ValueError("R must be an N x N table of blocks")
        for i, row in enumerate(self.R):
            for j, Rij in enumerate(row):
                if np.shape(Rij) != (dims[j], dims[j]):
                    raise ValueError(f"R[{i}][{j}] must be ({dims[j]}, {dims[j]})")

        self._set(action_dims=dims)
        K, slices = sum(dims), self.slices
        owner = np.repeat(np.arange(N), dims)
        R = np.zeros((N, K, K))
        for i, row in enumerate(self.R):
            for j, Rij in enumerate(row):
                R[i, slices[j], slices[j]] = Rij
        asymmetric = ~np.isclose(R, R.swapaxes(1, 2), rtol=0.0, atol=1e-8)
        if asymmetric.any():
            i, a, _ = np.argwhere(asymmetric)[0]
            raise ValueError(f"R[{i}][{owner[a]}] is not symmetric")
        # Agent i's rows of R_own are its rows of R^i, which are zero outside
        # its own block R^{ii}.
        own = R[owner, np.arange(K)]
        try:
            np.linalg.cholesky(own)
        except np.linalg.LinAlgError:
            least = np.array([np.linalg.eigvalsh(own[s, s])[0] for s in slices])
            i = int(np.argmax(least <= 0.0))
            raise ValueError(f"R[{i}][{i}] must be positive definite") from None
        BA = np.zeros((T - 1, n + 1, K + n + 1))
        BA[:, :n, : K + n] = np.concatenate([*self.B, A], axis=2)
        BA[:, n, -1] = 1.0
        self._set(
            A=BA[:, :n, K:-1], B=BA[:, :n, :K], R=R, owner=owner, R_own=own, BA=BA,
            Bt=np.ascontiguousarray(BA[:, :n, :K].swapaxes(1, 2)),
            F0=BA[..., K:].copy(), Bpad=BA[..., :K].copy(),
        )
        self._lay_out_costs(self.Q, self.l, self.r)

    def with_costs(self, Q, l, r=None) -> LqStageGame:
        """The game with costs Q, l, r instead; every other array is this one's."""
        return copy.copy(self)._lay_out_costs(Q, l, r)

    def _set(self, **fields) -> LqStageGame:
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def _lay_out_costs(self, Q, l, r) -> LqStageGame:
        """Check the per-agent cost blocks, and lay out the cost half."""
        N, K, T, n = self.num_agents, len(self.owner), len(self.BA) + 1, self.BA.shape[1] - 1
        r = [np.zeros((T, d)) for d in self.action_dims] if r is None else r
        r_agent = np.zeros((N, T, K))
        for i, s in enumerate(self.slices):
            if np.shape(Q[i]) != (T, n, n) or np.shape(l[i]) != (T, n):
                raise ValueError(f"Q[{i}]/l[{i}] shapes inconsistent")
            if np.shape(r[i]) != (T, self.action_dims[i]):
                raise ValueError(f"r[{i}] must be (T, m_i), got {np.shape(r[i])}")
            r_agent[i, :, s] = r[i]
        QL = np.empty((N, T, n, n + 1))
        QL[..., :n], QL[..., n] = Q, l
        Rr = np.zeros((T, K, K + n + 1))
        Rr[..., :K] = self.R_own
        Rr[..., -1] = r_agent.sum(axis=0)
        return self._set(Q=QL[..., :n], l=QL[..., n], r=r_agent, QL=QL, Rr=Rr, r_joint=Rr[..., -1])

    @property
    def num_agents(self) -> int:
        return len(self.action_dims)

    @property
    def horizon(self) -> int:
        return self.QL.shape[1]

    @property
    def state_dim(self) -> int:
        return self.QL.shape[2]

    @property
    def slices(self) -> tuple[slice, ...]:
        """Every agent's rows of the joint action."""
        dims = self.action_dims
        return tuple(slice(e - d, e) for e, d in zip(accumulate(dims), dims))


@dataclass(frozen=True)
class ValueRecursion:
    """Quadratic value coefficients of every agent: Z (N, T, n, n), xi (N, T, n)."""

    Z: Array
    xi: Array


def _condition(M: Array) -> float | Array:
    """``np.linalg.cond`` of one matrix or of every matrix of a finite stack;
    inf for a matrix that is not finite, on which the singular-value
    decomposition would not converge."""
    return np.linalg.cond(M) if np.isfinite(M).all() else np.inf


@dataclass(frozen=True)
class StageSolveReport:
    """Per-stage conditioning diagnostics for t = 1..T-1.

    ``regularization[k]`` is the diagonal shift that the coupled block
    matrix at t = k+1 required (0 when the plain system solved) and
    ``stage_matrices[k]`` that matrix unshifted.  ``condition[k]`` is the
    2-norm condition number of the matrix that was solved, shift included.
    It is computed the first time it is read, by one :func:`_condition` call
    on the stack, which gives every stage the value that :func:`_ladder`
    gives it; the screen (:func:`_failed`) takes none, so a solve whose
    conditions nobody reads makes no singular-value call.
    """

    regularization: Array
    stage_matrices: Array = field(repr=False)

    @cached_property
    def condition(self) -> Array:
        M = self.stage_matrices.copy()
        for k in np.flatnonzero(self.regularization):
            M[k] += self.regularization[k] * np.eye(M.shape[-1])
        return _condition(M)


@dataclass(frozen=True)
class LqSolution:
    policies: AffineGaussianPolicySet
    values: ValueRecursion
    report: StageSolveReport


def _stage_system(W_next: Array, Bt: Array, BA: Array, Rr: Array, rows: Array) -> Array:
    """One stage's coupled system [M | rhs] (K, K + n + 1).

    W_next (N, n, n + 1) stacks every agent's [Z^i | xi^i] at t + 1, Bt
    (K, n) is B' laid out contiguously, BA (n + 1, K + n + 1) is
    [[B, A, 0], [0, 0, 1]], Rr (K, K + n + 1) is [R_own | 0 | r_joint] and
    rows = owner * K + arange(K) gathers every action row from its owner's
    product.  Agent i's rows of the block matrix M (K, K) are B^i'Z^i B plus
    R^{ii} in its diagonal block; its rows of the right-hand sides
    (K, n + 1) are [B^i'Z^i A | B^i'xi^i + r^i].
    """
    G = Bt @ W_next
    system = G.reshape(-1, G.shape[-1]).take(rows, axis=0) @ BA
    system += Rr
    return system


def _value_update(
    S: Array, W_next: Array, F0: Array, Bpad: Array, R: Array, QL_t: Array, r0_t: Array
) -> Array:
    """Propagate every agent's value W^i = [Z^i | xi^i] one step back.

    S (K, n + 1) is the stage's [P | alpha], W_next (N, n, n + 1),
    F0 (n + 1, n + 1) = [[A, 0], [0, 1]], Bpad (n + 1, K) = [[B], [0]],
    R (N, K, K), QL_t (N, n, n + 1) = [Q_t | l_t] and r0_t (N, K, n + 1) =
    [0 | r_t], r^i_t in agent i's rows.  The closed loop of the affine state
    [s; 1] is [[F, beta], [0, 1]] = F0 - Bpad [P | alpha], with F the
    closed-loop drift and beta its offset; then

        W^i = F'(Z^i_next [F | beta] + [0 | xi^i_next])
              + P'(R^i [P | alpha] - [0 | r^i_t]) + [Q^i_t | l^i_t],

    that is Z^i = F'Z^i_next F + sum_j P^j'R^{ij}P^j + Q^i_t and
    xi^i = F'(Z^i_next beta + xi^i_next) + sum_j P^j'R^{ij}alpha^j
    - P^i'r^i_t + l^i_t, with Z symmetrized to control rounding drift.  The
    -P'r term carries the own-action linear cost into the value, which makes
    recentered games (where r = 2 R abar) have their exact expansion point as
    a fixed point.  Returns W (N, n, n + 1).
    """
    n = S.shape[1] - 1
    F = F0 - Bpad @ S
    ZF = W_next @ F
    RS = R @ S
    RS -= r0_t
    W = F[:n, :n].T @ ZF
    W += S[:, :n].T @ RS
    W += QL_t
    # Through a temporary: an in-place add against Z's own transpose makes
    # numpy copy the overlapping operand first, which costs more.
    Z = W[..., :n]
    Z_sym = Z + Z.swapaxes(1, 2)
    Z_sym *= 0.5
    W[..., :n] = Z_sym
    return W


def _ladder(M: Array, time_step: int) -> tuple[Array, float]:
    """The matrix to solve for the stage matrix M at ``time_step``, and its
    diagonal shift.

    M itself and 0 when its condition is at most ``COND_LIMIT``; otherwise
    M + lambda I for the first lambda, doubling from ``REG_INIT`` up to
    ``REG_MAX``, that brings the condition under the limit, or
    :class:`StageSingularError` when none does.
    """
    if _condition(M) <= COND_LIMIT:  # false for an infinite or NaN condition
        return M, 0.0
    lam = REG_INIT
    while True:
        M_solve = M + lam * np.eye(len(M))
        cond = _condition(M_solve)
        if cond <= COND_LIMIT:
            return M_solve, lam
        if lam >= REG_MAX:
            raise StageSingularError(time_step=time_step, condition=cond)
        lam = min(2.0 * lam, REG_MAX)


def _stages(game: LqStageGame, hist: tuple[Array, ...], ladder: bool) -> bool:
    """Solve every stage k = T-2, ..., 0 (t = k + 1) backward from the
    terminal value into the histories ``hist`` = ([P | alpha], W, stage
    matrices, shifts) of :func:`_backward_pass`.

    The dynamics operands are the game's; [0 | r] padded to the shape of
    R [P | alpha] and [Q | l] in time-major order are laid out per call.
    Each stage assembles its system, runs :func:`_ladder` on the stage
    matrix when ``ladder`` is on, solves, and updates the values.  Without
    the ladder a ``LinAlgError`` stops the loop and returns False; True
    when every stage solved.
    """
    S_hist, W_hist, stack, regularization = hist
    N, T, n = game.num_agents, game.horizon, game.state_dim
    K = len(game.owner)
    BA, Rr, R, Bt, F0, Bpad = game.BA, game.Rr, game.R, game.Bt, game.F0, game.Bpad
    r0 = np.zeros((T, N, K, n + 1))
    r0[..., n] = game.r.swapaxes(0, 1)
    QL = np.ascontiguousarray(game.QL.swapaxes(0, 1))
    rows = game.owner * K + np.arange(K)

    W = W_hist[:, T - 1]
    for k in range(T - 2, -1, -1):
        system = _stage_system(W, Bt[k], BA[k], Rr[k], rows)
        M = stack[k] = system[:, :K]
        if ladder:
            M, regularization[k] = _ladder(M, k + 1)
        try:
            S = np.linalg.solve(M, system[:, K:])
        except np.linalg.LinAlgError:
            if ladder:
                raise
            return False
        S_hist[k] = S
        W = W_hist[:, k] = _value_update(S, W, F0[k], Bpad[k], R, QL[k], r0[k])
    return True


def _failed(hist: tuple[Array, ...]) -> bool:
    """Whether a pass that ran through without the ladder fails the screen:
    a stage's gains, offsets or value coefficients are not finite, or the
    bound ||M||_F ||M^-1||_F >= cond_2(M) of a stage matrix exceeds
    ``COND_LIMIT / 2`` (it is inf or NaN for a singular or non-finite M).

    The bound costs one stacked inverse, not a singular-value decomposition.
    A stage it flags whose exact condition is under the limit costs a ladder
    pass, which solves that stage unshifted.
    """
    S_hist, W_hist, stack, _ = hist
    finite = np.isfinite(S_hist[:-1]).all() and np.isfinite(W_hist[:, :-1]).all()
    return not (finite and (np.linalg.cond(stack, "fro") <= COND_LIMIT / 2).all())


def _backward_pass(game: LqStageGame, checked: bool = False):
    """The backward loop of :func:`solve_lq_ece`: the [P | alpha] (T, K, n + 1)
    and W (N, T, n, n + 1) histories, the unshifted stage matrices
    (T-1, K, K), and the stage shifts.

    ``checked`` runs every stage through the ladder.  Otherwise every stage
    is first solved as it stands, and the whole pass reruns with the ladder
    from the terminal stage when a ``LinAlgError`` stopped it or it fails
    :func:`_failed`.  A pass that passes the screen makes no ladder call.
    """
    N, T, n = game.num_agents, game.horizon, game.state_dim
    K = len(game.owner)
    hist = (
        np.zeros((T, K, n + 1)), np.empty((N, T, n, n + 1)), np.empty((T - 1, K, K)),
        np.zeros(T - 1),
    )
    S_hist, W_hist = hist[:2]
    W_hist[:, T - 1] = game.QL[:, T - 1]
    S_hist[T - 1, :, n] = np.linalg.solve(game.R_own, game.r_joint[T - 1])
    # Overflow or NaN in a pass the ladder reruns must not warn here; the
    # rerun repeats it.
    with np.errstate(all="ignore"):
        rerun = checked or not _stages(game, hist, ladder=False) or _failed(hist)
    if rerun:
        _stages(game, hist, ladder=True)
    return hist


def solve_lq_ece(game: LqStageGame, temperatures: tuple[float, ...] | None = None) -> LqSolution:
    """Solve an LQ-Gaussian game for its entropic-cost-equilibrium policies.

    Backward in time from the terminal conditions Z^i_T = Q^i_T,
    xi^i_T = l^i_T.  The terminal-stage policy has zero gain, offset
    (R^{ii})^{-1} r^i_T and covariance gamma^i (R^{ii})^{-1}; interior stages
    solve the coupled stage system and propagate the values on the game's
    concatenated-action layout, with
    Sigma^i_t = gamma^i (R^{ii} + B^i'Z^i_{t+1}B^i)^{-1}.  Stages whose
    system is ill-conditioned, singular or not finite are shifted by the
    regularization ladder, or raise :class:`StageSingularError` naming the
    first hopeless one in the backward order (module docstring).

    The covariances of all agents and stages are formed in one stacked pass
    after the backward loop and checked symmetric positive definite
    (:class:`CovarianceError` names the first failing agent and its first
    failing step, also a singular one).  Temperatures must be positive and
    finite.  The policies are cut to each agent's rows of the joint action; the values are
    agent-stacked views of one [Z | xi] history, Z (N, T, n, n) and
    xi (N, T, n).
    """
    N, n = game.num_agents, game.state_dim
    if temperatures is None:
        temperatures = tuple(1.0 for _ in range(N))
    if len(temperatures) != N or not temperatures_valid(temperatures):
        raise ValueError("one positive, finite temperature required per agent")

    S_hist, W_hist, stack, regularization = _backward_pass(game)

    # R^{ii} + B^i'Z^i_{t+1}B^i is agent i's diagonal block of the unshifted
    # stage matrix (R^{ii} at t = T); inverting the block-diagonal part of
    # the stack inverts every agent's block at once.
    owner = game.owner
    M = np.concatenate([stack, game.R_own[None]]) * (owner[:, None] == owner)
    M = (M + M.swapaxes(1, 2)) / 2.0
    slices = game.slices
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # a singular block (the ladder shifted its stage)
        inv = np.full(M.shape, np.nan)  # NaN fails its agent's covariance check
        for k, s in product(range(len(M)), slices):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[k, s, s] = np.linalg.inv(M[k, s, s])
    covs = np.asarray(temperatures, dtype=float)[owner, None] * inv

    policies = AffineGaussianPolicySet.identity_nominal(
        [S_hist[:, s, :n] for s in slices],
        [S_hist[:, s, n] for s in slices],
        [cholesky_checked(covs[:, s, s], i)[0] for i, s in enumerate(slices)],
    )
    values = ValueRecursion(Z=W_hist[..., :n], xi=W_hist[..., n])
    report = StageSolveReport(regularization=regularization, stage_matrices=stack)
    return LqSolution(policies=policies, values=values, report=report)
