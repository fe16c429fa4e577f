"""The agent-stacked LQ stage recursion against its per-agent reference.

``LqStageGame`` stacks every agent's data on a leading agent axis and
``solve_lq_ece`` makes a fixed number of array calls per stage on it;
``oracles.solve_lq_ece_per_agent`` reads the data back per agent and keeps
the per-agent, per-pair loops.  With equal action dims (every shipped
config) the two must agree bit for bit; with unequal dims the stacked solver
pads each action block with zeros, which changes the shapes BLAS sees, so
agreement there is to a relative 1e-12.
"""

import json

import numpy as np
import pytest

from ecegames import StageSingularError, ilq, solve_ece
from ecegames.config import parse_scenario
from ecegames.errors import CovarianceError
from ecegames.game import cholesky_checked
from ecegames.lq import LqStageGame, action_rows, solve_lq_ece, solve_stage_coupled

from conftest import random_lq_data, stage_game_from_data
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


def assert_identical(game, temperatures=None):
    got = outputs(solve_lq_ece(game, temperatures))
    ref = solve_lq_ece_per_agent(game, temperatures)
    for name in FIELDS:
        assert len(got[name]) == len(ref[name])
        for a, b in zip(got[name], ref[name]):
            assert a.shape == b.shape and np.array_equal(a, b), name
    for name in ("condition", "regularization"):
        assert np.array_equal(got[name], ref[name]), name


def assert_close(game, rtol=1e-12):
    got = outputs(solve_lq_ece(game))
    ref = solve_lq_ece_per_agent(game)
    for name in FIELDS:
        for a, b in zip(got[name], ref[name]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= rtol * max(np.max(np.abs(b)), 1.0), name
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


@pytest.fixture(
    scope="module",
    params=["two_agent_crossing", "three_agent_ring", "lq_tracking", "lq_tracking_unicycle"],
)
def solve_stage_games(request, config_dir):
    """Every stage game an equilibrium solve of a shipped scenario passes to
    ``solve_lq_ece``, with the temperatures it passes."""
    name = request.param
    doc = json.loads((config_dir / f"{name.removesuffix('_unicycle')}.json").read_text())
    if name.endswith("_unicycle"):
        doc["dynamics"] = {"kind": "unicycle"}
    scenario = parse_scenario(doc)
    game = scenario.make_game(scenario.true_weights())
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
    def test_solve_stage_games_bit_identical(self, solve_stage_games):
        for stage, temperatures in solve_stage_games:
            assert_identical(stage, temperatures)

    def test_random_equal_dim_games_bit_identical(self):
        games = random_games(31, 60, equal_dims=True)
        assert {g.num_agents for g in games} == {2, 3}
        for game in games:
            assert_identical(game)

    def test_one_agent_games_bit_identical(self):
        for game in random_games(32, 20, equal_dims=True, num_agents=1):
            assert_identical(game, (0.7,))

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
            game = stage_game_from_data(A, Bs, Qs, ls, Rs, T, r=r)
            if len(set(game.action_dims)) == 1:
                assert_identical(game)
            else:
                assert_close(game)

    def test_regularized_stage_matches(self):
        # cond(R + B'ZB) = 1e9 / 1e-4 needs a diagonal shift near 1e-3.
        game = diagonal_game(q_terminal=1e9, r=1e-4)
        sol = solve_lq_ece(game)
        assert sol.report.regularization[-1] > 0.0
        assert_identical(game)

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


# The helper inputs of tests/test_lq.py, as per-agent sequences for the reference:
# (Z_next, xi_next, A, B, R, time_step).
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
    ([np.zeros((1, 1))], [np.zeros(1)], np.eye(1), [np.zeros((1, 2))], ((np.ones((2, 2)),),), 0),
    ([np.diag([1e14, 0.0])], [np.zeros(2)], np.eye(2), [np.eye(2)], ((np.zeros((2, 2)),),), 7),
]


class TestHelpers:
    @pytest.mark.parametrize("Z, xi, A, B, R, time_step", HELPER_STAGES)
    def test_stage_solve_matches_reference(self, Z, xi, A, B, R, time_step):
        # Equal action dims, so the stacked inputs need no padding.
        r = [np.zeros(b.shape[1]) for b in B]
        stacked = [np.asarray(x) for x in (Z, xi, A, B, R, r)]
        try:
            ref = solve_stage_coupled_per_agent(Z, xi, A, B, R, r, time_step=time_step)
        except StageSingularError as exc:
            with pytest.raises(StageSingularError) as err:
                solve_stage_coupled(*stacked, time_step=time_step)
            assert (err.value.time_step, err.value.condition) == (exc.time_step, exc.condition)
            return
        P, alpha, cond, shift = solve_stage_coupled(*stacked, time_step=time_step)
        assert (cond, shift) == ref[2:]
        for i, (P_i, alpha_i) in enumerate(zip(*ref[:2])):
            assert np.array_equal(P[i], P_i) and np.array_equal(alpha[i], alpha_i)

    def test_action_rows(self):
        assert action_rows((2, 2, 2)) is None
        assert action_rows((2, 1, 2)).tolist() == [0, 1, 2, 4, 5]


class TestNonFiniteGuards:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_nonpositive_temperature_rejected(self, gamma):
        game = random_games(35, 1, equal_dims=True, num_agents=2)[0]
        with pytest.raises(ValueError, match="temperature"):
            solve_lq_ece(game, (1.0, gamma))

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
