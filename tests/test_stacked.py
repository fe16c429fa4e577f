"""Time-stacked cost evaluation against per-step references.

Features, cost models, ``quadratize`` and ``evaluate_cost`` evaluate all T
time steps in one broadcasting call; the references here evaluate one step
at a time.  Also pins which error the stacked passes name, and for which
agent and time step.
"""

import json

import numpy as np
import pytest

from ecegames import (
    CovarianceError,
    NonConvergenceError,
    QuadratizationError,
    pin_other_agents,
    quadratic_cost,
    simulate_mean,
    solve_ece,
)
from ecegames.config import parse_scenario
from ecegames.game import AffineGaussianPolicySet, CostModel, cholesky_checked
from ecegames.ilq import HESSIAN_FLOOR, SolverConfig, _project_psd, quadratize
from ecegames.lq import LqStageGame, solve_lq_ece
from ecegames.simulate import evaluate_cost

from conftest import game_spec_from_data, random_lq_data
from oracles import project_psd_masked, project_psd_single, quadratize_per_step


def rel_close(a, b, rtol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rtol * max(np.max(np.abs(b), initial=0.0), 1.0)


@pytest.fixture(scope="module", params=["two_agent_crossing", "three_agent_ring"])
def scenario_nominal(request, config_dir):
    """A scenario, its game and a curved nominal (a few solver iterations in)."""
    scenario = parse_scenario(json.loads((config_dir / f"{request.param}.json").read_text()))
    game = scenario.make_game(scenario.true_weights())
    with pytest.raises(NonConvergenceError) as err:
        solve_ece(game, config=SolverConfig(max_iterations=3))
    policies = err.value.policies
    return scenario, game, simulate_mean(game, policies)


class TestStackedMatchesRows:
    def test_features(self, scenario_nominal):
        scenario, game, nominal = scenario_nominal
        T = game.horizon
        steps = np.arange(1, T + 1)
        for feats in scenario.basis.agents:
            for f in feats:
                v = f.value(steps, nominal.states, nominal.actions)
                g = f.state_gradient(steps, nominal.states)
                H = f.state_hessian(steps, nominal.states)
                assert v.shape == (T,) and g.shape == nominal.states.shape
                for k in range(T):
                    acts = [a[k] for a in nominal.actions]
                    assert v[k] == f.value(k + 1, nominal.states[k], acts)
                    assert np.array_equal(g[k], f.state_gradient(k + 1, nominal.states[k]))
                    assert np.array_equal(H[k], f.state_hessian(k + 1, nominal.states[k]))

    def test_cost_models(self, scenario_nominal):
        _, game, nominal = scenario_nominal
        T = game.horizon
        steps = np.arange(1, T + 1)
        # The reduced game of the independent-mode learner: agent 1 decides,
        # the others replay the nominal actions.
        reduced = pin_other_agents(game, 1, nominal.actions)
        cases = [(cost, nominal.actions) for cost in game.costs]
        cases.append((reduced.costs[0], (nominal.actions[1],)))
        for cost, actions in cases:
            c = cost.stage_cost(steps, nominal.states, actions)
            g = cost.state_gradient(steps, nominal.states)
            H = cost.state_hessian(steps, nominal.states)
            assert c.shape == (T,)
            for k in range(T):
                acts = [a[k] for a in actions]
                assert c[k] == cost.stage_cost(k + 1, nominal.states[k], acts)
                assert np.array_equal(g[k], cost.state_gradient(k + 1, nominal.states[k]))
                assert np.array_equal(H[k], cost.state_hessian(k + 1, nominal.states[k]))

    def test_quadratic_cost(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(3, 3))
        cost = quadratic_cost(M @ M.T, rng.normal(size=3), [np.eye(2), 0.5 * np.eye(1)])
        T = 7
        states = rng.normal(size=(T, 3))
        actions = (rng.normal(size=(T, 2)), rng.normal(size=(T, 1)))
        steps = np.arange(1, T + 1)
        c = cost.stage_cost(steps, states, actions)
        g = cost.state_gradient(steps, states)
        H = cost.state_hessian(steps, states)
        for k in range(T):
            rel_close(c[k], cost.stage_cost(k + 1, states[k], [a[k] for a in actions]))
            rel_close(g[k], cost.state_gradient(k + 1, states[k]))
            assert np.array_equal(H[k], cost.state_hessian(k + 1, states[k]))

    def test_evaluate_cost_is_per_step_sum(self, scenario_nominal):
        _, game, nominal = scenario_nominal
        per_step = np.zeros(game.num_agents)
        for k in range(game.horizon):
            acts = [a[k] for a in nominal.actions]
            for i, cost in enumerate(game.costs):
                per_step[i] += cost.stage_cost(k + 1, nominal.states[k], acts)
        rel_close(evaluate_cost(game, nominal), per_step)


class TestQuadratize:
    def test_matches_per_step_reference(self, scenario_nominal):
        _, game, nominal = scenario_nominal
        Q, l, r = quadratize(game, nominal)
        Q_ref, l_ref, r_ref, projected = quadratize_per_step(game, nominal, floor=HESSIAN_FLOOR)
        assert any(p.any() for p in projected), "no stage exercises the PSD projection"
        for i in range(game.num_agents):
            rel_close(Q[i], Q_ref[i])
            rel_close(l[i], l_ref[i])
            rel_close(r[i], r_ref[i])
            assert np.linalg.eigvalsh(Q[i]).min() > -1e-12  # PSD up to rounding

    def test_project_psd_stack(self):
        rng = np.random.default_rng(11)
        H = rng.normal(size=(40, 4, 4))
        H[::3] = H[::3] @ np.swapaxes(H[::3], 1, 2)  # every third stage PSD
        Q = _project_psd(H)
        for k in range(H.shape[0]):
            rel_close(Q[k], project_psd_single(H[k], HESSIAN_FLOOR))
        # Stages with no negative eigenvalue keep the symmetrised H exactly.
        sym = (H[::3] + np.swapaxes(H[::3], 1, 2)) / 2.0
        assert np.array_equal(Q[::3], sym)

    @pytest.mark.parametrize("negative", ["every", "none", "every third"])
    def test_one_path_projection_bytes_equal_masked_formula(self, negative):
        # Reconstructing every stage and picking with the mask must give the
        # bytes, signed zeros included, of reconstructing only the projected
        # stages; so must the stages that keep the symmetrised H.
        # The PSD stages have eigenvalues of at least 1 - 6e-3; a projected
        # stage has v'Hv < 0 for a unit v, and a zero row and column, whose
        # reconstructed entries are rounding noise of either sign.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(45, 6, 6))
        H = X @ np.swapaxes(X, 1, 2) / 6.0 + np.eye(6) + 1e-3 * rng.normal(size=(45, 6, 6))
        stages = {"every": slice(None), "none": slice(0), "every third": slice(None, None, 3)}
        v = np.zeros(6)
        v[:5] = rng.normal(size=5)
        v /= np.linalg.norm(v)
        H[stages[negative]] -= 100.0 * np.outer(v, v)
        H[stages[negative], 5, :] = H[stages[negative], :, 5] = 0.0
        neg = np.linalg.eigvalsh((H + np.swapaxes(H, 1, 2)) / 2.0)[:, 0] < 0.0
        assert np.array_equal(np.flatnonzero(neg), np.arange(45)[stages[negative]])
        assert _project_psd(H).tobytes() == project_psd_masked(H, HESSIAN_FLOOR).tobytes()

    def test_non_finite_hessian_names_agent_and_earliest_step(self):
        A, Bs, Qs, ls, Rs, _ = random_lq_data(np.random.default_rng(2), num_agents=2, n=2)
        game = game_spec_from_data(A, Bs, Qs, ls, Rs, horizon=8)
        base = game.costs[1]
        bad_steps = [4, 7]

        def state_hessian(t, s):
            bad = np.isin(t, bad_steps)[..., None, None]
            return np.where(bad, np.nan, base.state_hessian(t, s))

        broken = CostModel(base.stage_cost, base.state_gradient, state_hessian, base.action_cost)
        game = type(game)(
            dynamics=game.dynamics,
            costs=(game.costs[0], broken),
            horizon=game.horizon,
            noise=game.noise,
            initial_state=game.initial_state,
        )
        nominal = simulate_mean(
            game, AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims)
        )
        with pytest.raises(QuadratizationError) as err:
            quadratize(game, nominal)
        assert (err.value.agent, err.value.time_step) == (1, 4)


class TestCovarianceCheck:
    def test_non_spd_own_curvature_names_agent_and_step(self):
        # Agent 0's terminal state cost is negative, so R + B'Z_5 B < 0 at t = 4
        # only; the large stage cost at t = 3 keeps every earlier stage SPD.
        T = 5
        one = np.ones((T - 1, 1, 1))
        q0 = np.array([1.0, 1.0, 100.0, 1.0, -5.0]).reshape(T, 1, 1)
        game = LqStageGame(
            A=one,
            B=(one, one),
            Q=(q0, np.ones((T, 1, 1))),
            l=(np.zeros((T, 1)), np.zeros((T, 1))),
            R=((np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1))),
        )
        with pytest.raises(CovarianceError) as err:
            solve_lq_ece(game)
        assert (err.value.agent, err.value.time_step) == (0, 4)

    def test_helper_names_first_failing_step(self):
        S = np.tile(np.eye(2), (6, 1, 1))
        S[2] = np.diag([1.0, -1.0])
        S[4] = -np.eye(2)
        with pytest.raises(CovarianceError) as err:
            cholesky_checked(S, agent=3)
        assert (err.value.agent, err.value.time_step) == (3, 3)
        sym, L = cholesky_checked(np.tile(np.array([[2.0, 1.0], [1.0, 2.0]]), (3, 1, 1)), 0)
        assert np.allclose(L @ np.swapaxes(L, 1, 2), sym)

    def test_helper_names_each_agents_first_failing_step(self):
        S = np.tile(np.eye(2), (3, 5, 1, 1))
        S[2, 0] = -np.eye(2)
        S[1, 3] = np.diag([1.0, -1.0])
        S[1, 4, 0, 0] = np.nan
        S[2, 2, 1, 1] = np.nan
        cholesky_checked(S[0], 0)
        for i, k in ((1, 4), (2, 1)):
            with pytest.raises(CovarianceError) as err:
                cholesky_checked(S[i], i)
            assert (err.value.agent, err.value.time_step) == (i, k)

    def test_later_agent_non_spd_curvature_named(self):
        # As above with the agents swapped: agent 0 stays SPD, agent 1 fails at t = 4.
        T = 5
        one = np.ones((T - 1, 1, 1))
        q1 = np.array([1.0, 1.0, 100.0, 1.0, -5.0]).reshape(T, 1, 1)
        game = LqStageGame(
            A=one,
            B=(one, one),
            Q=(np.ones((T, 1, 1)), q1),
            l=(np.zeros((T, 1)), np.zeros((T, 1))),
            R=((np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1))),
        )
        with pytest.raises(CovarianceError) as err:
            solve_lq_ece(game)
        assert (err.value.agent, err.value.time_step) == (1, 4)

    def test_policy_covariance_factors_name_step(self):
        pol = AffineGaussianPolicySet.zero(4, 2, (1, 2))
        covs = (pol.covariances[0], pol.covariances[1].copy())
        covs[1][1] = -np.eye(2)
        bad = AffineGaussianPolicySet.identity_nominal(pol.gains, pol.offsets, covs)
        with pytest.raises(CovarianceError) as err:
            bad.covariance_factors
        assert (err.value.agent, err.value.time_step) == (1, 2)
