"""Linear-quadratic-Gaussian equilibrium solver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecegames import StageSingularError, solve_lq_ece
from ecegames.lq import LqStageGame

from conftest import random_lq_data, stage_game_from_data
from oracles import deterministic_nash_lq, textbook_lqr


def scalar_stage_game(horizon=2, a=1.0, b=1.0, q=1.0, l=0.0, r=1.0):
    T = horizon
    return LqStageGame(
        A=np.full((T - 1, 1, 1), a),
        B=(np.full((T - 1, 1, 1), b),),
        Q=(np.full((T, 1, 1), q),),
        l=(np.full((T, 1), l),),
        R=((np.array([[r]]),),),
    )


def two_stage_game(Z, xi, A, B, R, Q=None):
    """A game with one interior stage: dynamics A (n, n), B[j] (n, m_j) and the
    action costs R at t = 1, terminal values Z^i = Q^i_T and xi^i = l^i_T, and
    state costs Q^i (zero by default) at t = 1."""
    Q = np.zeros_like(Z) if Q is None else Q
    return LqStageGame(
        A=np.asarray(A, dtype=float)[None],
        B=tuple(np.asarray(b, dtype=float)[None] for b in B),
        Q=tuple(np.stack([q, z]) for q, z in zip(Q, Z)),
        l=tuple(np.stack([np.zeros_like(x), x]) for x in xi),
        R=R,
    )


class TestStageSolve:
    """Hand-solved stages: the one interior stage of a 2-stage game."""

    def test_single_agent_scalar_hand_solve(self):
        sol = solve_lq_ece(scalar_stage_game(horizon=2))
        assert sol.policies.gains[0][0, 0, 0] == pytest.approx(0.5)
        assert sol.policies.offsets[0][0, 0] == pytest.approx(0.0)
        assert sol.report.stage_matrices.tolist() == [[[2.0]]]
        assert sol.report.regularization.tolist() == [0.0]

    def test_two_agent_scalar_hand_solve(self):
        # Block system [[2, 1], [1, 2]] [P1; P2] = [1; 1].
        ones = np.ones((2, 1, 1))
        R = ((np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1)))
        sol = solve_lq_ece(two_stage_game(ones, np.zeros((2, 1)), np.eye(1), ones, R))
        assert sol.report.stage_matrices.tolist() == [[[2.0, 1.0], [1.0, 2.0]]]
        assert sol.policies.gains[0][0, 0, 0] == pytest.approx(1.0 / 3.0)
        assert sol.policies.gains[1][0, 0, 0] == pytest.approx(1.0 / 3.0)

    def test_zero_value_and_offset_rhs_gives_zero_policy(self):
        # Action dims (2, 1): three joint action rows, two of them agent 0's.
        R = ((np.eye(2), np.zeros((1, 1))), (np.zeros((2, 2)), np.eye(1)))
        sol = solve_lq_ece(two_stage_game(
            np.zeros((2, 3, 3)), np.zeros((2, 3)), np.eye(3),
            (np.ones((3, 2)), np.ones((3, 1))), R,
        ))
        for P, alpha in zip(sol.policies.gains, sol.policies.offsets):
            assert np.all(P[0] == 0.0) and np.all(alpha[0] == 0.0)

    def test_singular_stage_raises_with_time_index(self):
        # Spread of singular values too wide for the capped diagonal shift:
        # cond(1e-6 I + diag(1e14, 0)) = 1e20 at t = 7.
        T = 8
        Q = np.zeros((T, 2, 2))
        Q[-1] = np.diag([1e14, 0.0])
        game = LqStageGame(
            A=np.tile(np.eye(2), (T - 1, 1, 1)),
            B=(np.tile(np.eye(2), (T - 1, 1, 1)),),
            Q=(Q,),
            l=(np.zeros((T, 2)),),
            R=((1e-6 * np.eye(2),),),
        )
        with pytest.raises(StageSingularError) as err:
            solve_lq_ece(game)
        assert err.value.time_step == 7

    def test_regularization_path_reports_shift(self):
        # Two one-action agents whose block matrix is [[1, 1], [1, 1]], which
        # the first diagonal shift repairs.
        Z = np.tile([[0.0, 1.0], [1.0, 0.0]], (2, 1, 1))
        R = ((np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1)))
        game = two_stage_game(Z, np.zeros((2, 2)), np.eye(2), (np.eye(2)[:, :1], np.eye(2)[:, 1:]), R)
        sol = solve_lq_ece(game)
        assert sol.report.regularization.tolist() == [1e-8]
        assert sol.report.stage_matrices.tolist() == [[[1.0, 1.0], [1.0, 1.0]]]
        assert np.isfinite(sol.report.condition[0]) and sol.report.condition[0] <= 1e12


class TestBackwardUpdate:
    """Hand-checked value updates: the values at t = 1 of a 2-stage game."""

    def test_scalar_hand_update(self):
        sol = solve_lq_ece(scalar_stage_game(horizon=2))
        assert sol.values.Z[0][0, 0, 0] == pytest.approx(1.5)
        assert sol.values.xi[0][0, 0] == pytest.approx(0.0)

    def test_zero_cost_agent_stays_zero(self):
        # Action dims (2, 1).  Agent 0 has no state cost and no cost on agent
        # 1's action, so its own gains are zero and so are its values, however
        # agent 1 acts.
        Z = np.stack([np.zeros((1, 1)), np.ones((1, 1))])
        R = ((np.eye(2), np.zeros((1, 1))), (np.zeros((2, 2)), np.eye(1)))
        sol = solve_lq_ece(two_stage_game(
            Z, np.array([[0.0], [1.0]]), np.eye(1), (np.ones((1, 2)), np.ones((1, 1))), R,
        ))
        assert np.any(sol.policies.gains[1][0] != 0.0)
        assert np.all(sol.values.Z[0] == 0.0) and np.all(sol.values.xi[0] == 0.0)

    def test_uncontrolled_lyapunov_step(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        Zn = rng.normal(size=(3, 3))
        Zn = Zn + Zn.T
        Q = np.eye(3) * 0.4
        game = two_stage_game(Zn[None], np.zeros((1, 3)), A, (np.zeros((3, 2)),),
                              ((np.eye(2),),), Q=Q[None])
        sol = solve_lq_ece(game)
        assert np.allclose(sol.values.Z[0][0], A.T @ Zn @ A + Q)


class TestSolveLqEce:
    def test_terminal_only_game(self):
        game = scalar_stage_game(horizon=1, r=1.0)
        sol = solve_lq_ece(game)
        assert np.all(sol.policies.gains[0] == 0.0)
        assert np.all(sol.policies.offsets[0] == 0.0)
        assert sol.policies.covariances[0][0, 0, 0] == pytest.approx(1.0)
        # No interior stage: the conditions are an empty array, not an error.
        assert sol.report.condition.shape == (0,)

    def test_scalar_riccati_hand_solution(self):
        sol = solve_lq_ece(scalar_stage_game(horizon=2))
        assert sol.policies.gains[0][0, 0, 0] == pytest.approx(0.5)
        assert sol.policies.offsets[0][0, 0] == pytest.approx(0.0)
        assert sol.policies.covariances[0][0, 0, 0] == pytest.approx(0.5)
        assert sol.policies.covariances[0][1, 0, 0] == pytest.approx(1.0)
        assert sol.values.Z[0][0, 0, 0] == pytest.approx(1.5)

    def test_terminal_conditions(self):
        rng = np.random.default_rng(11)
        data = random_lq_data(rng, num_agents=2)
        game = stage_game_from_data(*data)
        sol = solve_lq_ece(game)
        for i in range(2):
            assert np.allclose(sol.values.Z[i][-1], game.Q[i][-1])
            assert np.allclose(sol.values.xi[i][-1], game.l[i][-1])

    def test_agent_permutation_symmetry(self):
        # Two agents with mirrored roles under the state swap [s1, s2] -> [s2, s1].
        A = np.array([[0.9, 0.1], [0.1, 0.9]])
        B1 = np.array([[1.0], [0.0]])
        B2 = np.array([[0.0], [1.0]])
        Q = np.eye(2)
        l = np.zeros(2)
        R = np.array([[1.0]])
        T = 6
        game = LqStageGame(
            A=np.tile(A, (T - 1, 1, 1)),
            B=(np.tile(B1, (T - 1, 1, 1)), np.tile(B2, (T - 1, 1, 1))),
            Q=(np.tile(Q, (T, 1, 1)), np.tile(Q, (T, 1, 1))),
            l=(np.tile(l, (T, 1)), np.tile(l, (T, 1))),
            R=((R, np.zeros((1, 1))), (np.zeros((1, 1)), R)),
        )
        sol = solve_lq_ece(game)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for k in range(T):
            assert np.allclose(
                sol.policies.gains[0][k], sol.policies.gains[1][k] @ swap, atol=1e-12
            )
            assert np.allclose(
                sol.policies.covariances[0][k], sol.policies.covariances[1][k], atol=1e-12
            )

    def test_single_agent_matches_textbook_lqr(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            A, Bs, Qs, ls, Rs, T = random_lq_data(rng, num_agents=1)
            game = stage_game_from_data(A, Bs, Qs, [np.zeros_like(ls[0])], Rs, T)
            sol = solve_lq_ece(game)
            gains, values = textbook_lqr(A, Bs[0], Qs[0], Rs[0][0], T)
            for k, K in enumerate(gains):
                assert np.max(np.abs(sol.policies.gains[0][k] - K)) < 1e-9
                expected_cov = np.linalg.inv(Rs[0][0] + Bs[0].T @ values[k + 1] @ Bs[0])
                assert np.max(np.abs(sol.policies.covariances[0][k] - expected_cov)) < 1e-9

    def test_multi_agent_matches_deterministic_nash(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            A, Bs, Qs, ls, Rs, T = random_lq_data(rng, cross_terms=True)
            game = stage_game_from_data(A, Bs, Qs, ls, Rs, T)
            sol = solve_lq_ece(game)
            P_ref, a_ref = deterministic_nash_lq(A, Bs, Qs, ls, Rs, T)
            for i in range(len(Bs)):
                for k in range(T - 1):
                    assert np.max(np.abs(sol.policies.gains[i][k] - P_ref[i][k])) < 1e-8
                    assert np.max(np.abs(sol.policies.offsets[i][k] - a_ref[i][k])) < 1e-8

    def test_temperature_scales_only_covariance(self):
        rng = np.random.default_rng(23)
        data = random_lq_data(rng, num_agents=2)
        game = stage_game_from_data(*data)
        base = solve_lq_ece(game, temperatures=(1.0, 1.0))
        hot = solve_lq_ece(game, temperatures=(3.0, 0.5))
        for i, gamma in enumerate((3.0, 0.5)):
            assert np.array_equal(base.policies.gains[i], hot.policies.gains[i])
            assert np.array_equal(base.policies.offsets[i], hot.policies.offsets[i])
            assert np.allclose(
                hot.policies.covariances[i], gamma * base.policies.covariances[i], rtol=1e-12
            )

    def test_covariance_bounded_by_inverse_action_cost(self):
        # Scalar single agent, Q >= 0 implies Z >= 0 so Sigma_t <= 1/R for t < T.
        rng = np.random.default_rng(24)
        for _ in range(20):
            r = float(rng.uniform(0.2, 3.0))
            game = scalar_stage_game(
                horizon=int(rng.integers(2, 10)),
                a=float(rng.uniform(-1.2, 1.2)),
                b=float(rng.uniform(-2, 2)),
                q=float(rng.uniform(0.0, 3.0)),
                r=r,
            )
            sol = solve_lq_ece(game)
            assert np.all(sol.policies.covariances[0][:-1, 0, 0] <= 1.0 / r + 1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_value_matrices_stay_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        data = random_lq_data(rng)
        sol = solve_lq_ece(stage_game_from_data(*data))
        for Z in sol.values.Z:
            for k in range(Z.shape[0]):
                assert np.max(np.abs(Z[k] - Z[k].T)) < 1e-12

    def test_non_finite_terminal_cost_is_singular_stage(self):
        # A NaN in Q_T makes the last stage matrix NaN, which no diagonal shift
        # repairs; its condition is reported as inf.
        T = 4
        Q = np.ones((T, 1, 1))
        Q[-1] = np.nan
        game = LqStageGame(A=np.ones((T - 1, 1, 1)), B=(np.ones((T - 1, 1, 1)),), Q=(Q,),
                           l=(np.zeros((T, 1)),), R=((np.eye(1),),))
        with pytest.raises(StageSingularError) as err:
            solve_lq_ece(game)
        assert err.value.time_step == T - 1 and err.value.condition == np.inf

    def test_report_shapes(self):
        game = scalar_stage_game(horizon=5)
        sol = solve_lq_ece(game)
        assert sol.report.condition.shape == (4,)
        assert np.all(np.isfinite(sol.report.condition))
        assert np.all(sol.report.regularization == 0.0)


def stage_game_kwargs(T=3, n=2, dims=(2, 1)):
    """Valid two-agent stage-game data with unequal action dims."""
    R = tuple(tuple(np.eye(mj) if i == j else 0.5 * np.eye(mj) for j, mj in enumerate(dims))
              for i in range(len(dims)))
    return dict(
        A=np.tile(np.eye(n), (T - 1, 1, 1)),
        B=tuple(np.ones((T - 1, n, m)) for m in dims),
        Q=tuple(np.tile(np.eye(n), (T, 1, 1)) for _ in dims),
        l=tuple(np.zeros((T, n)) for _ in dims),
        R=R,
        r=tuple(np.zeros((T, m)) for m in dims),
    )


class TestStageGameValidation:
    def test_valid_data_constructs(self):
        kwargs = stage_game_kwargs()
        kwargs["r"] = (np.ones((3, 2)), np.full((3, 1), 2.0))
        game = LqStageGame(**kwargs)
        assert (game.num_agents, game.horizon, game.state_dim) == (2, 3, 2)
        assert game.action_dims == (2, 1) and game.owner.tolist() == [0, 0, 1]
        assert game.slices == (slice(0, 2), slice(2, 3))
        assert game.BA.shape == (2, 3, 6) and game.BA[:, 2].tolist() == [[0.0] * 5 + [1.0]] * 2
        assert game.B.shape == (2, 2, 3) and np.all(game.B == 1.0)
        assert np.all(game.A == np.eye(2)) and np.all(game.BA[:, :2, -1] == 0.0)
        assert game.QL.shape == (2, 3, 2, 3) and np.all(game.Q == np.eye(2))
        assert game.l.shape == (2, 3, 2)
        assert game.R.shape == (2, 3, 3) and np.all(game.R[1] == np.diag([0.5, 0.5, 1.0]))
        assert np.all(game.R_own == np.eye(3))
        assert game.r[1].tolist() == [[0.0, 0.0, 2.0]] * 3
        assert game.r_joint.tolist() == [[1.0, 1.0, 2.0]] * 3

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("A", np.zeros((3, 2, 2)), r"A must be \(T-1, n, n\)"),
            ("B", (np.ones((2, 2, 2)), np.ones((2, 3, 1))), r"B\[1\] must be \(T-1, n, m_j\)"),
            ("Q", (np.zeros((3, 2, 2)), np.zeros((2, 2, 2))), r"Q\[1\]/l\[1\] shapes inconsistent"),
            ("l", (np.zeros((3, 3)), np.zeros((3, 2))), r"Q\[0\]/l\[0\] shapes inconsistent"),
            ("r", (np.zeros((3, 2)), np.zeros((3, 2))), r"r\[1\] must be \(T, m_i\)"),
        ],
    )
    def test_bad_shape_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            LqStageGame(**{**stage_game_kwargs(), field: value})

    def test_non_square_R_table_rejected(self):
        kwargs = stage_game_kwargs()
        kwargs["R"] = (kwargs["R"][0], kwargs["R"][1][:1])
        with pytest.raises(ValueError, match="N x N table"):
            LqStageGame(**kwargs)

    def test_wrong_R_block_shape_rejected(self):
        kwargs = stage_game_kwargs()
        kwargs["R"] = (kwargs["R"][0], (kwargs["R"][1][0], np.eye(2)))
        with pytest.raises(ValueError, match=r"R\[1\]\[1\] must be \(1, 1\)"):
            LqStageGame(**kwargs)

    def test_non_symmetric_R_block_rejected(self):
        kwargs = stage_game_kwargs()
        kwargs["R"] = ((kwargs["R"][0][0], kwargs["R"][0][1]),
                       (np.array([[1.0, 0.1], [0.0, 1.0]]), kwargs["R"][1][1]))
        with pytest.raises(ValueError, match=r"R\[1\]\[0\] is not symmetric"):
            LqStageGame(**kwargs)

    @pytest.mark.parametrize("agent, block", [(0, np.diag([1.0, -1.0])), (1, np.zeros((1, 1)))])
    def test_non_positive_definite_own_block_rejected(self, agent, block):
        kwargs = stage_game_kwargs()
        rows = [list(row) for row in kwargs["R"]]
        rows[agent][agent] = block
        kwargs["R"] = tuple(tuple(row) for row in rows)
        with pytest.raises(ValueError, match=rf"R\[{agent}\]\[{agent}\] must be positive definite"):
            LqStageGame(**kwargs)

    def test_with_costs_equals_a_fresh_build(self):
        kwargs = stage_game_kwargs()
        game = LqStageGame(**kwargs)
        before = game.QL.copy()
        rng = np.random.default_rng(3)
        costs = {key: tuple(rng.normal(size=np.shape(x)) for x in kwargs[key]) for key in "Qlr"}
        for r in (costs["r"], None):
            refreshed = game.with_costs(costs["Q"], costs["l"], r)
            fresh = LqStageGame(**{**kwargs, **costs, "r": r})
            for field in dataclasses.fields(LqStageGame):
                got, want = getattr(refreshed, field.name), getattr(fresh, field.name)
                assert np.shape(got) == np.shape(want), field.name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name
        assert game.QL.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("Q", (np.zeros((3, 2, 2)), np.zeros((2, 2, 2))), r"Q\[1\]/l\[1\] shapes inconsistent"),
            ("l", (np.zeros((3, 3)), np.zeros((3, 2))), r"Q\[0\]/l\[0\] shapes inconsistent"),
            ("r", (np.zeros((3, 2)), np.zeros((3, 2))), r"r\[1\] must be \(T, m_i\)"),
        ],
    )
    def test_with_costs_rejects_bad_shapes(self, field, value, message):
        kwargs = stage_game_kwargs()
        costs = {key: kwargs[key] for key in "Qlr"} | {field: value}
        with pytest.raises(ValueError, match=message):
            LqStageGame(**kwargs).with_costs(**costs)
