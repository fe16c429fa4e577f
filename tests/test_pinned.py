"""Reduced games of ``pin_other_agents`` on linear dynamics run as linear games.

On a model with ``linear_maps`` the replayed agents become the per-step drift
offset of a ``dynamics.linear`` model, so a reduced game takes the closed-loop
mean rollout and the once-per-solve linearization of a linear game.  These
tests hold it to the closure construction that nonlinear models keep: the
same joint dynamics rewrapped as a plain ``DynamicsModel``, which has no
linear maps, so that the reduced ``step`` re-inserts the replayed actions at
every call.
"""

from dataclasses import replace

import numpy as np
import pytest

from ecegames import irl, pin_other_agents, rollout_batch, run_mairl, simulate_mean, solve_ece
from ecegames import ilq as ilq_module
from ecegames.dynamics import DynamicsModel

from conftest import assert_close, own_policy, shipped_game
from oracles import simulate_per_step

@pytest.fixture(
    scope="module", params=("two_agent_crossing", "three_agent_ring", "lq_tracking_unicycle")
)
def solved(request, config_dir):
    """(scenario, game, equilibrium policies, replayed mean actions)."""
    scenario, game = shipped_game(config_dir, request.param)
    policies = solve_ece(game, config=scenario.solver_config).policies
    return scenario, game, policies, list(simulate_mean(game, policies).actions)


def closure_game(game):
    """``game`` with its dynamics rewrapped as a plain ``DynamicsModel``."""
    dyn = game.dynamics
    model = DynamicsModel(dyn.state_dim, dyn.action_dims, dyn.step, dyn.jacobians)
    return replace(game, dynamics=model)


def test_reduced_games_of_linear_models_are_linear(solved):
    _, game, _, replay = solved
    maps = game.dynamics.linear_maps
    ends = np.cumsum(game.action_dims)
    for agent in range(game.num_agents):
        reduced = pin_other_agents(game, agent, replay)
        if maps is None:
            assert reduced.dynamics.linear_maps is None
            continue
        A, B, offset = reduced.dynamics.linear_maps
        assert np.array_equal(A, maps[0])
        assert np.array_equal(B, maps[1][:, ends[agent] - game.action_dims[agent] : ends[agent]])
        pinned = sum(
            replay[j][:-1] @ maps[1][:, e - m : e].T
            for j, (e, m) in enumerate(zip(ends, game.action_dims))
            if j != agent
        )
        assert_close(offset, pinned)


def test_reduced_rollout_batch_equals_the_closure_construction(solved):
    _, game, policies, replay = solved
    if game.dynamics.linear_maps is None:
        pytest.skip("nonlinear models keep the closure construction")
    for agent in range(game.num_agents):
        own = own_policy(policies, agent)
        reduced = pin_other_agents(game, agent, replay)
        wrapped = pin_other_agents(closure_game(game), agent, replay)
        assert wrapped.dynamics.linear_maps is None
        # 129 trials: both sides of a noise-draw chunk.
        got = rollout_batch(reduced, own, 129, 40)
        ref = rollout_batch(wrapped, own, 129, 40)
        assert got.states.tobytes() == ref.states.tobytes()
        assert got.actions[0].tobytes() == ref.actions[0].tobytes()


def test_independent_mode_mean_rollouts_match_the_per_step_loop(solved):
    scenario, game, policies, replay = solved
    for agent in range(game.num_agents):
        reduced = pin_other_agents(game, agent, replay)
        wrapped = pin_other_agents(closure_game(game), agent, replay)
        solution = solve_ece(reduced, config=scenario.solver_config)
        for own in (own_policy(policies, agent), solution.policies):
            mean = simulate_mean(reduced, own)
            states, actions = simulate_per_step(wrapped, own)
            assert_close(mean.states, states)
            assert_close(mean.actions[0], actions[0])


@pytest.mark.parametrize("placeholder", [None, np.zeros(0)], ids=["None", "empty"])
def test_own_replay_entry_is_never_read(solved, placeholder):
    scenario, game, policies, replay = solved
    if game.num_agents != 2:
        pytest.skip("one two-agent game per dynamics kind")
    for agent in range(game.num_agents):
        runs = []
        for own_entry in (replay[agent], placeholder):
            entries = list(replay)
            entries[agent] = own_entry
            reduced = pin_other_agents(game, agent, entries)
            solution = solve_ece(reduced, config=scenario.solver_config)
            runs.append((simulate_mean(reduced, solution.policies),
                         rollout_batch(reduced, solution.policies, 3, 7)))
        for got, ref in zip(*runs):
            assert np.array_equal(got.states, ref.states)
            assert np.array_equal(got.actions[0], ref.actions[0])


def test_linearize_runs_once_per_independent_solve(config_dir, monkeypatch):
    scenario, game = shipped_game(config_dir, "two_agent_crossing")
    policies = solve_ece(game, config=scenario.solver_config).policies
    demos = rollout_batch(game, policies, 10, 3)
    calls = {"linearize": 0, "quadratize": 0}
    per_solve = []

    def spy(name):
        inner = getattr(ilq_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return counted

    def counted_solve(*args, **kwargs):
        before = dict(calls)
        solution = ilq_module.solve_ece(*args, **kwargs)
        per_solve.append({k: calls[k] - before[k] for k in calls})
        return solution

    for name in calls:
        monkeypatch.setattr(ilq_module, name, spy(name))
    monkeypatch.setattr(irl, "solve_ece", counted_solve)
    cfg = replace(scenario.learn_config, max_outer_iterations=2)
    init = [np.ones(len(feats)) for feats in scenario.basis.agents]
    run_mairl(scenario.make_game, scenario.basis, demos, init, cfg, mode="independent",
              solver_config=scenario.solver_config)
    assert len(per_solve) == 2 * game.num_agents
    assert [c["linearize"] for c in per_solve] == [1] * len(per_solve)
    # Every iteration quadratizes; the cold first solves take several.
    assert max(c["quadratize"] for c in per_solve) > 1
