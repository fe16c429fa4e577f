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
over all agents.  The stage helpers take one stage of this layout:
``solve_stage_coupled(W_next, BA, Rr, owner)`` returns [P | alpha], the
stage matrix, its condition and the shift, and
``backward_value_update(S, W_next, BA, R, QL_t, r_t)`` returns the new W.
The sums over agents happen inside the matrix products, so results agree
with a per-agent loop to rounding (a few ulp), not bit for bit.  The
covariances come from the diagonal blocks of the stage matrices.

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

from dataclasses import dataclass, field
from itertools import accumulate

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
      system that does not depend on the values, read through the views
      R_own (K, K) = blockdiag_i R^{ii} and r_joint (T, K) = [r^1 ... r^N].

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

        object.__setattr__(self, "action_dims", dims)
        K, slices = sum(dims), self.slices
        owner = np.repeat(np.arange(N), dims)
        R = np.zeros((N, K, K))
        r_agent = np.zeros((N, T, K))
        for i, row in enumerate(self.R):
            r_agent[i, :, slices[i]] = r[i]
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
        QL = np.empty((N, T, n, n + 1))
        QL[..., :n], QL[..., n] = self.Q, self.l
        Rr = np.zeros((T, K, K + n + 1))
        Rr[..., :K] = own
        Rr[..., -1] = r_agent.sum(axis=0)
        for name, value in (
            ("A", BA[:, :n, K:-1]), ("B", BA[:, :n, :K]), ("Q", QL[..., :n]),
            ("l", QL[..., n]), ("R", R), ("r", r_agent), ("owner", owner),
            ("BA", BA), ("QL", QL), ("Rr", Rr), ("R_own", Rr[0, :, :K]), ("r_joint", Rr[..., -1]),
        ):
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True)
class StageSolveReport:
    """Per-stage conditioning diagnostics for t = 1..T-1.

    ``condition[k]`` estimates the condition number of the coupled block
    matrix at t = k+1; ``regularization[k]`` is the diagonal shift that was
    required (0 when the plain system solved).
    """

    condition: Array
    regularization: Array


def _condition(M: Array) -> float:
    """2-norm condition number of M, as ``np.linalg.cond`` gives it (inf when
    M is singular), from one singular-value call."""
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] != 0.0 else np.inf


def _stage_system(W_next: Array, BA: Array, Rr: Array, owner: Array) -> Array:
    """One stage's coupled system [M | rhs] (K, K + n + 1).

    Arguments are one stage of the :class:`LqStageGame` layout: W_next
    (N, n, n + 1) stacks every agent's [Z^i | xi^i] at t + 1, BA
    (n + 1, K + n + 1) is [[B, A, 0], [0, 0, 1]], Rr (K, K + n + 1) is
    [R_own | 0 | r_joint] and owner (K,) names the agent of each action row.
    Agent i's rows of the block matrix M (K, K) are B^i'Z^i B plus R^{ii} in
    its diagonal block; its rows of the right-hand sides (K, n + 1) are
    [B^i'Z^i A | B^i'xi^i + r^i].
    """
    K, n = len(owner), BA.shape[0] - 1
    # Agent i's rows of B'[Z^i | xi^i], for every agent at once.
    G = (BA[:n, :K].T @ W_next)[owner, np.arange(K)]
    system = G @ BA
    system += Rr
    return system


def solve_stage_coupled(
    W_next: Array, BA: Array, Rr: Array, owner: Array, *, time_step: int = 0
) -> tuple[Array, Array, float, float]:
    """Solve one stage's coupled linear system for all gains and offsets.

    Arguments are those of :func:`_stage_system`, which assembles
    [M | rhs]; this solves M [P | alpha] = rhs for both right-hand sides
    from one LU factorization.  If the condition estimate exceeds
    ``COND_LIMIT`` the diagonal is shifted by lambda I (lambda doubling from
    REG_INIT up to REG_MAX) before giving up with :class:`StageSingularError`.

    Returns [P | alpha] (K, n + 1), agent i's gains and offsets in its rows,
    the unshifted M, the condition and the shift used.
    """
    K = len(owner)
    system = _stage_system(W_next, BA, Rr, owner)
    M = M_solve = system[:, :K]
    cond = _condition(M)
    shift = 0.0
    if not cond <= COND_LIMIT:  # also true for an infinite or NaN condition
        lam = REG_INIT
        while True:
            M_solve = M + lam * np.eye(K)
            cond = _condition(M_solve)
            shift = lam
            if cond <= COND_LIMIT:
                break
            if lam >= REG_MAX:
                raise StageSingularError(time_step=time_step, condition=cond)
            lam = min(2.0 * lam, REG_MAX)
    return np.linalg.solve(M_solve, system[:, K:]), M, cond, shift


def backward_value_update(
    S: Array, W_next: Array, BA: Array, R: Array, QL_t: Array, r_t: Array
) -> Array:
    """Propagate every agent's value W^i = [Z^i | xi^i] one step back.

    Arguments are one stage of the :class:`LqStageGame` layout: S (K, n + 1)
    is the [P | alpha] of :func:`solve_stage_coupled`, W_next (N, n, n + 1),
    BA (n + 1, K + n + 1) = [[B, A, 0], [0, 0, 1]], R (N, K, K),
    QL_t (N, n, n + 1) = [Q_t | l_t] and r_t (N, K) holds r^i_t in agent i's
    rows.  The closed loop of the affine state [s; 1] is
    [[F, beta], [0, 1]] = [[A, 0], [0, 1]] - [[B], [0]] [P | alpha], with F
    the closed-loop drift and beta its offset; then

        W^i = F'(Z^i_next [F | beta] + [0 | xi^i_next])
              + P'(R^i [P | alpha] - [0 | r^i_t]) + [Q^i_t | l^i_t],

    that is Z^i = F'Z^i_next F + sum_j P^j'R^{ij}P^j + Q^i_t and
    xi^i = F'(Z^i_next beta + xi^i_next) + sum_j P^j'R^{ij}alpha^j
    - P^i'r^i_t + l^i_t, with Z symmetrized to control rounding drift.  The
    -P'r term carries the own-action linear cost into the value, which makes
    recentered games (where r = 2 R abar) have their exact expansion point as
    a fixed point.

    Returns W (N, n, n + 1).
    """
    K, n = S.shape[0], S.shape[1] - 1
    F = BA[:, K:] - BA[:, :K] @ S
    ZF = W_next @ F
    RS = R @ S
    RS[..., n] -= r_t
    W = F[:n, :n].T @ ZF + S[:, :n].T @ RS + QL_t
    Z = W[..., :n]
    Z += Z.swapaxes(1, 2)
    Z *= 0.5
    return W


@dataclass(frozen=True)
class LqSolution:
    policies: AffineGaussianPolicySet
    values: ValueRecursion
    report: StageSolveReport


def _backward_pass(game: LqStageGame, checked: bool):
    """The backward loop of :func:`solve_lq_ece`: the [P | alpha] (T, K, n + 1)
    and W (N, T, n, n + 1) histories, the unshifted stage matrices
    (T-1, K, K), and the stage conditions and shifts.

    ``checked`` solves every stage through :func:`solve_stage_coupled`, which
    alone regularizes and raises :class:`StageSingularError`.  Unchecked, each
    stage is solved as it stands; after the loop one stacked singular-value
    call on the stage matrices gives every condition.  An unchecked pass
    returns None when a stage matrix, a gain, an offset or a value
    coefficient is not finite or a condition is not at most ``COND_LIMIT``,
    and passes on the ``LinAlgError`` of a failed solve: then the checked
    pass must decide.
    """
    N, T, n = game.num_agents, game.horizon, game.state_dim
    BA, R, r, QL, Rr, owner = game.BA, game.R, game.r, game.QL, game.Rr, game.owner
    K = len(owner)
    S_hist = np.zeros((T, K, n + 1))
    W_hist = np.empty((N, T, n, n + 1))
    stack = np.empty((T - 1, K, K))
    condition = np.zeros(T - 1)
    regularization = np.zeros(T - 1)

    W = W_hist[:, T - 1] = QL[:, T - 1]
    S_hist[T - 1, :, n] = np.linalg.solve(game.R_own, game.r_joint[T - 1])
    for k in range(T - 2, -1, -1):
        if checked:
            S, stack[k], condition[k], regularization[k] = solve_stage_coupled(
                W, BA[k], Rr[k], owner, time_step=k + 1
            )
        else:
            system = _stage_system(W, BA[k], Rr[k], owner)
            stack[k] = system[:, :K]
            S = np.linalg.solve(stack[k], system[:, K:])
        S_hist[k] = S
        W = W_hist[:, k] = backward_value_update(S, W, BA[k], R, QL[:, k], r[:, k])

    if not checked:
        # Only a pass that is finite throughout is kept, so an overflow or NaN
        # the errstate of the caller hid always reruns the pass, which warns.
        if not all(np.isfinite(x).all() for x in (stack, S_hist, W_hist)):
            return None
        if T > 1:
            # The stacked call runs the per-matrix routine on each stage, so
            # every ratio equals _condition of that stage.
            s = np.linalg.svd(stack, compute_uv=False)
            condition = s[:, 0] / s[:, -1]
            if not (condition <= COND_LIMIT).all():
                return None
    return S_hist, W_hist, stack, condition, regularization


def solve_lq_ece(game: LqStageGame, temperatures: tuple[float, ...] | None = None) -> LqSolution:
    """Solve an LQ-Gaussian game for its entropic-cost-equilibrium policies.

    Backward in time from the terminal conditions Z^i_T = Q^i_T,
    xi^i_T = l^i_T.  The terminal-stage policy has zero gain, offset
    (R^{ii})^{-1} r^i_T and covariance gamma^i (R^{ii})^{-1}; interior stages
    solve the coupled stage system followed by :func:`backward_value_update`
    on the game's concatenated-action layout, with
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
    are cut to each agent's rows of the joint action; the values are
    agent-stacked views of one [Z | xi] history, Z (N, T, n, n) and
    xi (N, T, n).
    """
    N, n = game.num_agents, game.state_dim
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
    S_hist, W_hist, stack, condition, regularization = stages

    # R^{ii} + B^i'Z^i_{t+1}B^i is agent i's diagonal block of the unshifted
    # stage matrix (R^{ii} at t = T); inverting the block-diagonal part of
    # the stack inverts every agent's block at once.
    owner = game.owner
    M = np.concatenate([stack, game.R_own[None]]) * (owner[:, None] == owner)
    M = (M + M.swapaxes(1, 2)) / 2.0
    covs = np.asarray(temperatures, dtype=float)[owner, None] * np.linalg.inv(M)

    slices = game.slices
    policies = AffineGaussianPolicySet.identity_nominal(
        [S_hist[:, s, :n] for s in slices],
        [S_hist[:, s, n] for s in slices],
        [cholesky_checked(covs[:, s, s], i)[0] for i, s in enumerate(slices)],
    )
    values = ValueRecursion(Z=W_hist[..., :n], xi=W_hist[..., n])
    report = StageSolveReport(condition=condition, regularization=regularization)
    return LqSolution(policies=policies, values=values, report=report)
