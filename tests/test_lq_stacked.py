"""The concatenated-action LQ stage recursion against its per-agent reference.

``LqStageGame`` lays every agent's data out on the concatenated actions and
``solve_lq_ece`` makes a fixed number of array calls per stage on it;
``oracles.solve_lq_ece_per_agent`` reads the data back per agent and keeps
the per-agent, per-pair loops.  The solver sums over agents inside its
matrix products, so the two agree to rounding: every output to a relative
1e-12, while the regularization shifts and the time step of every
``StageSingularError`` are equal.  Within the solver, the pass without the
regularization ladder and the pass with it run one stage loop and agree
byte for byte.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecegames import StageSingularError, ilq, lq, simulate_mean, solve_ece
from ecegames.errors import CovarianceError
from ecegames.game import cholesky_checked
from ecegames.lq import COND_LIMIT, LqStageGame, solve_lq_ece

from conftest import random_lq_data, shipped_game, stage_game_from_data
from oracles import solve_lq_ece_per_agent, solve_stage_coupled_per_agent

FIELDS = ("gains", "offsets", "covariances", "Z", "xi")


def outputs(sol):
    """solve_lq_ece's results in the layout of the per-agent reference."""
    return {
        "gains": sol.policies.gains,
        "offsets": sol.policies.offsets,
        "covariances": sol.policies.covariances,
        "Z": sol.values.Z,
        "xi": sol.values.xi,
        "condition": sol.report.condition,
        "regularization": sol.report.regularization,
    }


def assert_close(game, temperatures=None, rtol=1e-12):
    """Every output within ``rtol`` of the reference's largest finite entry
    (non-finite entries equal), conditions within ``rtol``, shifts equal."""
    got = outputs(solve_lq_ece(game, temperatures))
    ref = solve_lq_ece_per_agent(game, temperatures)
    for name in FIELDS:
        assert len(got[name]) == len(ref[name])
        for a, b in zip(got[name], ref[name]):
            finite = np.isfinite(b)
            assert a.shape == b.shape and np.array_equal(a[~finite], b[~finite]), name
            scale = max(np.max(np.abs(b[finite]), initial=0.0), 1.0)
            assert np.max(np.abs(a[finite] - b[finite]), initial=0.0) <= rtol * scale, name
    assert np.allclose(got["condition"], ref["condition"], rtol=rtol, atol=0.0)
    assert np.array_equal(got["regularization"], ref["regularization"])


def random_games(seed, count, equal_dims, **kwargs):
    """``count`` random games with cross terms whose action dims are (un)equal."""
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        data = random_lq_data(rng, cross_terms=True, **kwargs)
        if (len({B.shape[1] for B in data[1]}) == 1) == equal_dims:
            games.append(stage_game_from_data(*data))
    return games


SHIPPED = ["two_agent_crossing", "three_agent_ring", "lq_tracking", "lq_tracking_unicycle"]
JITTERED = ["two_agent_crossing_jittered", "three_agent_ring_jittered"]


@pytest.fixture(scope="module", params=SHIPPED + JITTERED)
def solve_stage_games(request, config_dir):
    """Every stage game an equilibrium solve of a shipped scenario, or of a
    crossing or ring with jittered true weights, passes to ``solve_lq_ece``,
    with the temperatures it passes."""
    scenario, game = shipped_game(config_dir, request.param)
    calls = []

    def record(stage, temperatures):
        calls.append((stage, temperatures))
        return solve_lq_ece(stage, temperatures)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ilq, "solve_lq_ece", record)
        solve_ece(game, config=scenario.solver_config)
    assert len(calls) >= 2
    return calls


class TestAgainstPerAgentReference:
    # The test names predate the concatenated layout, which made agreement
    # with the reference a matter of rounding; they are kept so that the test
    # ids stay stable.
    def test_solve_stage_games_bit_identical(self, solve_stage_games):
        for stage, temperatures in solve_stage_games:
            assert_close(stage, temperatures)

    def test_random_equal_dim_games_bit_identical(self):
        games = random_games(31, 60, equal_dims=True)
        assert {g.num_agents for g in games} == {2, 3}
        for game in games:
            assert_close(game)

    def test_one_agent_games_bit_identical(self):
        for game in random_games(32, 20, equal_dims=True, num_agents=1):
            assert_close(game, (0.7,))

    def test_unequal_action_dims_close(self):
        games = random_games(33, 40, equal_dims=False)
        assert any(g.num_agents == 3 for g in games)
        for game in games:
            assert_close(game)

    def test_linear_action_terms_match(self):
        # Recentered games carry r, which sets the terminal offset (R^{ii})^{-1} r^i_T.
        rng = np.random.default_rng(36)
        for _ in range(20):
            A, Bs, Qs, ls, Rs, T = random_lq_data(rng, cross_terms=True)
            r = tuple(rng.normal(size=(T, B.shape[1])) for B in Bs)
            assert_close(stage_game_from_data(A, Bs, Qs, ls, Rs, T, r=r))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=8).map(tuple),
        horizon=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, dims=(1, 3, 2), horizon=12, seed=1)
    @example(n=4, dims=(2,), horizon=12, seed=2)
    @example(n=1, dims=(1,) * 8, horizon=12, seed=3)
    def test_random_cross_cost_games_close(self, n, dims, horizon, seed):
        # Every cross block R^{ij}, i != j, is nonzero; they enter the value
        # update only through each agent's blockdiag_j R^{ij}.  The reference
        # reads its blocks back from the game, so the blocks read back must
        # be the ones given.
        data, temperatures = cross_cost_data(n, dims, horizon, seed)
        game = LqStageGame(**data)
        s = game.slices
        for i in range(len(dims)):
            assert np.array_equal(game.B[..., s[i]], data["B"][i])
            assert np.array_equal(game.r[i][:, s[i]], data["r"][i])
            assert np.count_nonzero(game.r[i]) == np.count_nonzero(data["r"][i])
            for j in range(len(dims)):
                assert np.array_equal(game.R[i][s[j], s[j]], data["R"][i][j])
            assert np.count_nonzero(game.R[i]) == sum(map(np.count_nonzero, data["R"][i]))
        assert_close(game, temperatures)

    def test_regularized_stage_matches(self):
        # cond(R + B'ZB) = 1e9 / 1e-4 needs a diagonal shift near 1e-3.
        game = diagonal_game(q_terminal=1e9, r=1e-4)
        sol = solve_lq_ece(game)
        assert sol.report.regularization[-1] > 0.0
        assert_close(game)

    def test_singular_stage_names_same_time_step(self):
        game = diagonal_game(q_terminal=1e14, r=1e-6, horizon=4)
        with pytest.raises(StageSingularError) as got:
            solve_lq_ece(game)
        with pytest.raises(StageSingularError) as ref:
            solve_lq_ece_per_agent(game)
        assert got.value.time_step == ref.value.time_step == 3
        assert str(got.value) == str(ref.value)


def diagonal_game(q_terminal, r, horizon=3):
    """One agent, s' = s + a in 2-D, terminal cost diag(q_terminal, 0), R = r I."""
    T = horizon
    Q = np.zeros((T, 2, 2))
    Q[-1] = np.diag([q_terminal, 0.0])
    return LqStageGame(
        A=np.tile(np.eye(2), (T - 1, 1, 1)),
        B=(np.tile(np.eye(2), (T - 1, 1, 1)),),
        Q=(Q,),
        l=(np.zeros((T, 2)),),
        R=((r * np.eye(2),),),
    )


def cross_cost_data(n, dims, horizon, seed):
    """``LqStageGame`` arguments of a random well-conditioned game in n state
    dims with action dims ``dims``, nonzero cross blocks R^{ij} and linear
    action terms, and random temperatures."""
    rng = np.random.default_rng(seed)
    T, N = horizon, len(dims)
    A = rng.normal(size=(T - 1, n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max(axis=1)[:, None, None]
    R = []
    for i in range(N):
        R.append([])
        for j, m in enumerate(dims):
            L = rng.normal(size=(m, m))
            R[i].append(L.T @ L / m + (0.5 * np.eye(m) if i == j else 0.0))
    M = rng.normal(size=(N, T, n, n))
    data = dict(
        A=A,
        B=tuple(rng.normal(size=(T - 1, n, m)) for m in dims),
        Q=tuple(M.swapaxes(2, 3) @ M / n + 0.05 * np.eye(n)),
        l=tuple(0.5 * rng.normal(size=(N, T, n))),
        R=R,
        r=tuple(rng.normal(size=(T, m)) for m in dims),
    )
    return data, tuple(rng.uniform(0.2, 3.0, size=N))


# One stage each, as per-agent sequences for the reference:
# (Z_next, xi_next, A, B, R, lead), where ``lead`` counts the stages before it.
HELPER_STAGES = [
    ([np.eye(1)], [np.zeros(1)], np.eye(1), [np.eye(1)], ((np.eye(1),),), 0),
    (
        [np.eye(1), np.eye(1)],
        [np.zeros(1), np.zeros(1)],
        np.eye(1),
        [np.eye(1), np.eye(1)],
        ((np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1))),
        0,
    ),
    # Block matrix I + [[Z^1_00, Z^1_01], [Z^2_10, Z^2_11]] = [[1, 1], [1, 1]]:
    # singular, repaired by the first shift.
    (
        [np.array([[0.0, 1.0], [1.0, 0.0]])] * 2,
        [np.zeros(2)] * 2,
        np.eye(2),
        [np.eye(2)[:, :1], np.eye(2)[:, 1:]],
        ((np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1))),
        0,
    ),
    # cond(1e-6 I + diag(1e14, 0)) = 1e20: no shift up to 1e-2 repairs it.
    ([np.diag([1e14, 0.0])], [np.zeros(2)], np.eye(2), [np.eye(2)], ((1e-6 * np.eye(2),),), 7),
]


class TestHelpers:
    """The last interior stage of a game whose terminal values are Z_next and
    xi_next against the reference's per-agent stage solve."""

    @pytest.mark.parametrize("Z, xi, A, B, R, lead", HELPER_STAGES)
    def test_stage_solve_matches_reference(self, Z, xi, A, B, R, lead):
        T = lead + 2
        game = LqStageGame(
            A=np.tile(A, (T - 1, 1, 1)),
            B=tuple(np.tile(b, (T - 1, 1, 1)) for b in B),
            Q=tuple(np.concatenate([np.zeros((T - 1, *z.shape)), z[None]]) for z in Z),
            l=tuple(np.concatenate([np.zeros((T - 1, *x.shape)), x[None]]) for x in xi),
            R=R,
        )
        r = [np.zeros(b.shape[1]) for b in B]
        try:
            ref = solve_stage_coupled_per_agent(Z, xi, A, B, R, r, time_step=T - 1)
        except StageSingularError as exc:
            with pytest.raises(StageSingularError) as err:
                solve_lq_ece(game)
            assert err.value.time_step == exc.time_step == lead + 1
            assert err.value.condition == pytest.approx(exc.condition, rel=1e-12)
            return
        sol = solve_lq_ece(game)
        assert sol.report.condition[-1] == pytest.approx(ref[2], rel=1e-12)
        assert sol.report.regularization[-1] == ref[3]
        for i in range(len(B)):
            assert np.allclose(sol.policies.gains[i][-2], ref[0][i], rtol=0.0, atol=1e-12)
            assert np.allclose(sol.policies.offsets[i][-2], ref[1][i], rtol=0.0, atol=1e-12)


class TestNonFiniteGuards:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_nonpositive_temperature_rejected(self, gamma):
        game = random_games(35, 1, equal_dims=True, num_agents=2)[0]
        with pytest.raises(ValueError, match="temperature"):
            solve_lq_ece(game, (1.0, gamma))

    def test_singular_own_block_is_a_covariance_error(self):
        # The ladder solves the stage t = 1 block I + [[0, 1], [1, 0]] with a
        # shift, but that block, the inverse covariance, stays singular.
        game = LqStageGame(
            A=np.eye(2)[None], B=(np.eye(2)[None],), R=((np.eye(2),),),
            Q=(np.array([np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]]]),), l=(np.zeros((2, 2)),),
        )
        with pytest.raises(CovarianceError) as err:
            solve_lq_ece(game)
        assert (err.value.agent, err.value.time_step) == (0, 1)

    def test_singular_block_names_its_own_agent(self):
        # Agent 1's block is singular at t = 1; agent 0's covariances are fine.
        game = LqStageGame(
            A=np.eye(2)[None], B=(np.eye(2)[:, :1][None], np.eye(2)[None]),
            R=((np.eye(1), np.zeros((2, 2))), (np.zeros((1, 1)), np.eye(2))),
            Q=(np.zeros((2, 2, 2)), np.array([np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]]])),
            l=(np.zeros((2, 2)), np.zeros((2, 2))),
        )
        with pytest.raises(CovarianceError) as err:
            solve_lq_ece(game)
        assert (err.value.agent, err.value.time_step) == (1, 1)

    def test_cholesky_names_first_non_finite_factor(self):
        S = np.tile(np.eye(2), (6, 1, 1))
        S[2] = np.nan
        S[4] = -np.eye(2)
        with pytest.raises(CovarianceError) as err:
            cholesky_checked(S, agent=1)
        assert (err.value.agent, err.value.time_step) == (1, 3)
        S = np.tile(np.eye(2), (4, 1, 1))
        S[3, 0, 0] = np.inf
        with pytest.raises(CovarianceError) as err:
            cholesky_checked(S, agent=0)
        assert (err.value.agent, err.value.time_step) == (0, 4)


def handover_data(block, horizon=7, stage=3):
    """``LqStageGame`` arguments of two agents with one action each in 2-D
    whose stage matrix at index ``stage`` (t = stage + 1) is exactly
    ``block``; the other stages are well-conditioned.

    Stage ``stage + 1`` has A = B = 0, so its value is Z = Q exactly, and
    stage ``stage`` has A = 0 and unit action columns, so its block matrix
    is I + [[Z^1_00, Z^1_01], [Z^2_10, Z^2_11]] from that Q.  A zero A there
    also makes the gains zero, which keeps earlier stages well-conditioned
    whatever the shift.  Only l at ``stage + 1`` reaches the offsets.
    """
    rng = np.random.default_rng(41)
    T, n = horizon, 2
    (a, b), (c, d) = block
    A = 0.5 * np.eye(n) + 0.1 * rng.normal(size=(T - 1, n, n))
    B = [0.5 * rng.normal(size=(T - 1, n, 1)) for _ in range(2)]
    Q = [np.tile(np.eye(n), (T, 1, 1)) for _ in range(2)]
    l = [0.3 * rng.normal(size=(T, n)) for _ in range(2)]
    A[stage] = A[stage + 1] = 0.0
    for i, e in enumerate(np.eye(n)):
        B[i][stage] = e[:, None]
        B[i][stage + 1] = 0.0
        l[i][stage + 1] = e
    Q[0][stage + 1] = [[a - 1.0, b], [b, 0.0]]
    Q[1][stage + 1] = [[0.0, c], [c, d - 1.0]]
    R = ((np.eye(1), 0.1 * np.eye(1)), (0.2 * np.eye(1), np.eye(1)))
    return dict(A=A, B=tuple(B), Q=tuple(Q), l=tuple(l), R=R)


def handover_game(block, **kwargs):
    return LqStageGame(**handover_data(block, **kwargs))


class TestLadderHandover:
    """The stacked pass hands a failing stage over to the per-stage ladder,
    which must then give the reference's results from the terminal stage on."""

    def test_regularized_mid_horizon_stage_matches(self):
        # cond = 4e13; the ladder doubles 1e-8 up to 3.2e-7, the first shift
        # that brings 2e5 / lambda under 1e12.
        game = handover_game([[1e5, 1e5], [1e5, 1e5 + 1e-8]])
        sol = solve_lq_ece(game)
        assert np.flatnonzero(sol.report.regularization).tolist() == [3]
        assert sol.report.regularization[3] == pytest.approx(3.2e-7, rel=1e-12)
        assert_close(game)

    def test_exactly_singular_stage_matches(self):
        # The plain LU of this stage fails outright; the first shift fixes it.
        block = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(block, np.ones(2))
        game = handover_game(block)
        sol = solve_lq_ece(game)
        assert np.flatnonzero(sol.report.regularization).tolist() == [3]
        assert sol.report.regularization[3] == 1e-8
        assert_close(game)

    def test_hopeless_stage_names_reference_step(self):
        # Singular with norm 1e12: no shift up to 1e-2 brings it under 1e12.
        game = handover_game([[1.0, 1e6], [1e6, 1e12]])
        with pytest.raises(StageSingularError) as got:
            solve_lq_ece(game)
        with pytest.raises(StageSingularError) as ref:
            solve_lq_ece_per_agent(game)
        assert got.value.time_step == ref.value.time_step == 4
        assert str(got.value) == str(ref.value)

    def test_overflow_outside_stage_matrices_warns_as_reference(self):
        # Q at t = 1 reaches only Z_1, which no stage matrix uses, and the
        # symmetrization of its 1.7e308 diagonal overflows to inf.  Every stage
        # matrix stays finite and well-conditioned, so only the finiteness of
        # the outputs hands this pass over to the ladder, which warns.
        data = handover_data(2.0 * np.eye(2))
        for Q in data["Q"]:
            Q[0] = 1.7e308 * np.eye(2)
        game = LqStageGame(**data)
        with pytest.warns(RuntimeWarning, match="overflow"):
            sol = solve_lq_ece(game)
        assert np.isinf(sol.values.Z[:, 0]).any() and np.isfinite(sol.values.Z[:, 1:]).all()
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert_close(game)

    def test_non_finite_stage_behind_hopeless_stage(self):
        # Stage t = 4 is hopeless yet LU-solvable (det 1, cond 1e24), so the
        # stacked pass runs on to the infinite Q at t = 2 that makes the t = 1
        # stage matrix non-finite; the ladder stops at t = 4 first.
        data = handover_data([[1.0, 1e6], [1e6, 1e12 + 1.0]])
        data["Q"][0][1, 0, 0] = np.inf
        game = LqStageGame(**data)
        with pytest.raises(StageSingularError) as got:
            solve_lq_ece(game)
        with pytest.raises(StageSingularError) as ref:
            solve_lq_ece_per_agent(game)
        assert got.value.time_step == ref.value.time_step == 4
        assert str(got.value) == str(ref.value)


def assert_report_matches_ladder(game, sol):
    """Every stage's shift and condition in the report are, bit for bit, those
    that the ladder gives on the solve's own stage matrices."""
    for k, M in enumerate(lq._backward_pass(game)[2]):
        M_solve, shift, condition = lq._ladder(M, k + 1)
        assert shift == sol.report.regularization[k]
        assert condition == sol.report.condition[k] == lq._condition(M_solve)


def terminal_game(diagonal, horizon=3):
    """One agent, s' = s + a with R = I and terminal cost diag(diagonal) - I,
    so the last stage matrix is exactly diag(diagonal); for diagonal entries
    of at least 1 the earlier stage matrices lie between I and 2 I."""
    T, n = horizon, len(diagonal)
    Q = np.zeros((T, n, n))
    Q[-1] = np.diag(diagonal) - np.eye(n)
    return LqStageGame(
        A=np.tile(np.eye(n), (T - 1, 1, 1)),
        B=(np.tile(np.eye(n), (T - 1, 1, 1)),),
        Q=(Q,),
        l=(np.zeros((T, n)),),
        R=((np.eye(n),),),
    )


@pytest.fixture
def no_svd(monkeypatch):
    """Fail the test on any singular-value decomposition, also the one
    inside ``np.linalg.cond``'s 2-norm."""

    def refuse(*args, **kwargs):
        raise AssertionError("singular values taken")

    for module in (np.linalg, sys.modules[np.linalg.svd.__wrapped__.__module__]):
        monkeypatch.setattr(module, "svd", refuse)


class TestConditionScreen:
    """The pass without the ladder screens its stage matrices with one stacked
    :func:`lq._condition`, the bound ||M||_F ||M^-1||_F >= cond_2(M) of M
    scaled to a largest entry of 1, and reruns the whole pass through the
    ladder when a bound exceeds COND_LIMIT.  The ladder and the report use
    the same bound, so no solve takes singular values."""

    def test_lazy_conditions_match_the_ladder(self, solve_stage_games, no_svd, ladder_steps):
        # The name predates the screen's bound becoming the report's
        # conditions; it is kept so that the test ids stay stable.  No solve
        # of these scenarios needs the ladder: every stage game passes the
        # screen, so no stage runs through the ladder.
        for stage, temperatures in solve_stage_games:
            sol = solve_lq_ece(stage, temperatures)
            assert not ladder_steps
            # The screen's stacked bound, bit for bit.
            assert np.array_equal(sol.report.condition, lq._condition(lq._backward_pass(stage)[2]))
            assert sol.report.condition.max() < 7.0
            assert_report_matches_ladder(stage, sol)
            ladder_steps.clear()

    def test_no_solve_takes_singular_values(self, no_svd, ladder_steps):
        # A plain solve, two ladder solves that shift a stage and one that
        # names a hopeless stage.
        assert not solve_lq_ece(terminal_game([1.0, 2.0])).report.regularization.any()
        assert not ladder_steps
        for block in ([[1e5, 1e5], [1e5, 1e5 + 1e-8]], [[1.0, 1.0], [1.0, 1.0]]):
            sol = solve_lq_ece(handover_game(block))
            assert np.flatnonzero(sol.report.regularization).tolist() == [3]
        assert ladder_steps == 2 * list(range(6, 0, -1))
        with pytest.raises(StageSingularError):
            solve_lq_ece(handover_game([[1.0, 1e6], [1e6, 1e12]]))

    @pytest.mark.parametrize("kappa", [0.9e12, 1.1e12], ids=["below", "above"])
    def test_stage_at_the_limit(self, kappa, no_svd, ladder_steps):
        # Stage t = 4 is diag(1, 1 / kappa), up to the rounding of 1 / kappa - 1
        # + 1; for a 2 x 2 matrix the bound is cond_2 + 1 / cond_2, so the
        # screen passes the stage below the limit, and above it the ladder
        # reruns the whole pass and shifts the stage by 1e-8.
        game = handover_game([[1.0, 0.0], [0.0, 1.0 / kappa]])
        sol = solve_lq_ece(game)
        shifted = kappa > COND_LIMIT
        assert ladder_steps == (list(range(6, 0, -1)) if shifted else [])
        assert np.flatnonzero(sol.report.regularization).tolist() == ([3] if shifted else [])
        bound = lq._condition(lq._backward_pass(game)[2][3])
        assert (COND_LIMIT < bound < 1.2e12) if shifted else (0.8e12 < bound <= COND_LIMIT)
        assert_report_matches_ladder(game, sol)
        assert_close(game)

    def test_bound_over_the_limit_shifts_a_stage_under_it(self, no_svd, ladder_steps):
        # diag(1, 1, e, e) with 1 / e = 0.6e12: cond_2 is under the limit but
        # the bound, about 2 / e, is over it, so the ladder shifts the stage
        # by 1e-8.  The two measures differ by at most the factor K = 4.
        e = 1.0 / 0.6e12
        game = terminal_game([1.0, 1.0, e, e], horizon=2)
        sol = solve_lq_ece(game)
        assert ladder_steps == [1]
        assert sol.report.regularization.tolist() == [1e-8]
        d = np.diagonal(lq._backward_pass(game)[2][0])
        assert np.allclose(d, [1.0, 1.0, e, e], rtol=1e-3, atol=0.0)
        assert d.max() / d.min() <= COND_LIMIT < lq._condition(np.diag(d)) <= 4 * d.max() / d.min()
        assert_report_matches_ladder(game, sol)
        assert_close(game)

    def test_large_well_conditioned_stage_passes_unshifted(self, no_svd, ladder_steps):
        # Entries of 1e200 would overflow ||M||_F; the bound of the scaled
        # matrix diag(0.5, 1) is 2.5, so the screen passes the stage.
        game = terminal_game([1e200, 2e200])
        sol = solve_lq_ece(game)
        assert not ladder_steps and not sol.report.regularization.any()
        assert np.array_equal(lq._backward_pass(game)[2][-1], np.diag([1e200, 2e200]))
        assert sol.report.condition[-1] == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize(
        "M",
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, np.nan], [0.0, 1.0]],
         [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["singular", "zero", "nan", "inf"],
    )
    def test_condition_of_a_hopeless_matrix_is_infinite(self, M):
        assert lq._condition(np.array(M)) == np.inf

    def test_condition_of_a_stack(self):
        # For a symmetric 2 x 2 matrix the bound is cond_2 + 1 / cond_2, for
        # any scale, and a matrix gives the same bits alone as in a stack.
        stack = np.stack([np.diag([1.0, 4.0]), np.eye(2), np.diag([1e-3, 2.0])])
        bounds = lq._condition(stack)
        assert np.allclose(bounds, [4.25, 2.0, 2000.0005], rtol=1e-15, atol=0.0)
        assert np.all(bounds >= np.linalg.cond(stack))
        assert [lq._condition(M) for M in stack] == bounds.tolist()
        assert np.allclose(lq._condition(1e300 * stack), bounds, rtol=1e-15, atol=0.0)


def assert_same_bytes(got, want):
    """Equal arrays byte for byte, so that signed zeros count."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module", params=SHIPPED)
def converged_stage_game(request, config_dir):
    """The stage game around a shipped scenario's converged nominal."""
    scenario, game = shipped_game(config_dir, request.param)
    policies = solve_ece(game, config=scenario.solver_config).policies
    return ilq.stage_game_around(game, simulate_mean(game, policies))


def ladder_pass(game):
    """The backward pass rerun whole through the ladder, forced by a screen
    that fails."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lq, "_failed", lambda hist: True)
        return lq._backward_pass(game)


class TestOneStageBody:
    """The pass without the ladder and the pass with it run one stage loop,
    so they agree byte for byte, conditions included, and each stage
    depends on its own data and the next stage's values alone."""

    # The "checked pass" of these names is the rerun through the ladder.
    def test_unchecked_pass_equals_checked_pass(self, converged_stage_game):
        unchecked = lq._backward_pass(converged_stage_game)
        assert not unchecked[4].any()
        assert_same_bytes(unchecked, ladder_pass(converged_stage_game))

    def test_unchecked_pass_equals_checked_pass_unequal_dims(self):
        data, _ = cross_cost_data(3, (1, 3, 2), 12, 5)
        game = LqStageGame(**data)
        assert_same_bytes(lq._backward_pass(game), ladder_pass(game))

    def test_helpers_equal_the_loop_stage(self, converged_stage_game):
        # Every stage equals, byte for byte, the only interior stage of the
        # 2-stage game made of its data and the values the pass gave t + 1.
        game = converged_stage_game
        N, n, s = game.num_agents, game.state_dim, game.slices
        R = tuple(tuple(game.R[i][sj, sj] for sj in s) for i in range(N))
        S_hist, W_hist, stack, condition, _ = lq._backward_pass(game)
        for k in range(game.horizon - 1):
            QL = np.stack([game.QL[:, k], W_hist[:, k + 1]], axis=1)
            two = LqStageGame(
                A=game.A[k : k + 1],
                B=tuple(game.B[k : k + 1, :, sj] for sj in s),
                Q=tuple(QL[..., :n]),
                l=tuple(QL[..., n]),
                R=R,
                r=tuple(game.r[i][k : k + 2, s[i]] for i in range(N)),
            )
            S, W, M, cond, shift = lq._backward_pass(two)
            assert shift[0] == 0.0
            assert_same_bytes(
                (S[0], M[0], W[:, 0], cond[:1]),
                (S_hist[k], stack[k], W_hist[:, k], condition[k : k + 1]),
            )


@pytest.fixture
def ladder_steps(monkeypatch):
    """The time steps the ladder is called for, in order."""
    steps = []

    def spy(M, time_step):
        steps.append(time_step)
        return ladder(M, time_step)

    ladder = lq._ladder
    monkeypatch.setattr(lq, "_ladder", spy)
    return steps


class TestLadderFromFailingStage:
    """A pass with a failing stage reruns whole through the ladder, from the
    terminal stage, so the results are those of a pass that runs the ladder
    throughout."""

    def test_rerun_equals_full_checked_pass(self, ladder_steps):
        # 60 stages, of which t = 30 has condition about 4e13.
        game = LqStageGame(**handover_data([[1e5, 1e5], [1e5, 1e5 + 1e-8]], horizon=61, stage=29))
        full = ladder_pass(game)
        ladder_steps.clear()
        rerun = lq._backward_pass(game)
        assert ladder_steps == list(range(60, 0, -1))
        assert np.flatnonzero(rerun[4]).tolist() == [29]
        assert 1e13 < lq._condition(rerun[2][29]) < 1e14
        assert_same_bytes(rerun, full)

    def test_failed_solve_behind_ill_conditioned_stage(self, ladder_steps):
        # The exactly singular stage t = 10 stops the unchecked loop, behind
        # the ill-conditioned t = 30; the rerun starts at the terminal stage.
        data = handover_data([[1e5, 1e5], [1e5, 1e5 + 1e-8]], horizon=61, stage=29)
        singular = handover_data([[1.0, 1.0], [1.0, 1.0]], horizon=61, stage=9)
        data["A"][9:11] = singular["A"][9:11]
        for name in ("B", "Q", "l"):
            for x, y in zip(data[name], singular[name]):
                x[9:11] = y[9:11]
        game = LqStageGame(**data)
        full = ladder_pass(game)
        ladder_steps.clear()
        rerun = lq._backward_pass(game)
        assert ladder_steps == list(range(60, 0, -1))
        assert np.flatnonzero(rerun[4]).tolist() == [9, 29]
        assert_same_bytes(rerun, full)
        assert_close(game)

    def test_hopeless_stage_names_step_of_full_checked_pass(self):
        game = LqStageGame(**handover_data([[1.0, 1e6], [1e6, 1e12]], horizon=61, stage=29))
        with pytest.raises(StageSingularError) as got:
            solve_lq_ece(game)
        with pytest.raises(StageSingularError) as full:
            ladder_pass(game)
        assert got.value.time_step == full.value.time_step == 30
        assert str(got.value) == str(full.value)
