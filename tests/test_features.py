"""Feature library: values, analytic derivatives, induced cost models."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecegames import InvalidWeightError, Trajectory, eval_features, make_cost_model
from ecegames.features import (
    ControlEffort,
    FeatureBasis,
    GaussianProximity,
    ReferenceTracking,
    straight_line_reference,
)

from conftest import shipped_game
from oracles import (
    central_difference_gradient,
    central_difference_hessian,
    dense_cost_derivatives,
    relative_error,
)


@pytest.fixture(scope="module")
def basis():
    # Two planar agents, joint state (x1, y1, x2, y2); no velocities needed here.
    T = 5
    p0 = np.array([0, 1])
    p1 = np.array([2, 3])
    ref0 = straight_line_reference(np.array([0.0, 0.0]), np.array([4.0, 0.0]), T)
    ref1 = straight_line_reference(np.array([0.0, 2.0]), np.array([0.0, -2.0]), T)
    return FeatureBasis(
        agents=(
            (
                ReferenceTracking(p0, ref0),
                ControlEffort(agent=0),
                GaussianProximity(p0, p1, sigma=1.0, target=1),
            ),
            (
                ReferenceTracking(p1, ref1),
                ControlEffort(agent=1),
                GaussianProximity(p1, p0, sigma=1.0, target=0),
            ),
        ),
    )


def make_traj(states, actions0, actions1):
    return Trajectory(states=states, actions=(actions0, actions1))


class TestFeatureValues:
    def test_stationary_at_reference_is_zero(self, basis):
        T = 5
        ref0 = basis.agents[0][0].reference
        states = np.zeros((T, 4))
        states[:, [0, 1]] = ref0
        states[:, [2, 3]] = 100.0  # far away, proximity ~ 0
        traj = make_traj(states, np.zeros((T, 2)), np.zeros((T, 2)))
        sums = eval_features(basis, traj)
        assert sums[0][0] == pytest.approx(0.0)
        assert sums[0][1] == pytest.approx(0.0)

    def test_control_effort_sum(self, basis):
        T = 5
        actions0 = np.tile([1.0, 2.0], (T, 1))
        traj = make_traj(np.zeros((T, 4)), actions0, np.zeros((T, 2)))
        sums = eval_features(basis, traj)
        assert sums[0][1] == pytest.approx(T * 5.0)

    def test_proximity_at_constant_distance(self, basis):
        T = 5
        states = np.zeros((T, 4))
        states[:, 2] = 1.0  # separation (1, 1): squared distance 2
        states[:, 3] = 1.0
        traj = make_traj(states, np.zeros((T, 2)), np.zeros((T, 2)))
        sums = eval_features(basis, traj)
        assert sums[0][2] == pytest.approx(T * np.exp(-1.0))
        # Symmetric in the two agents.
        assert sums[1][2] == pytest.approx(sums[0][2])

    def test_additive_over_time_concatenation(self, basis):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(5, 4))
        a0, a1 = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        whole = eval_features(basis, make_traj(states, a0, a1))
        # The reference is time-indexed, so split against matching sub-references.
        front_basis = FeatureBasis(
            agents=(
                (
                    ReferenceTracking(np.array([0, 1]), basis.agents[0][0].reference[:2]),
                    ControlEffort(agent=0),
                    GaussianProximity(np.array([0, 1]), np.array([2, 3]), 1.0, target=1),
                ),
            ),
        )
        back_basis = FeatureBasis(
            agents=(
                (
                    ReferenceTracking(np.array([0, 1]), basis.agents[0][0].reference[2:]),
                    ControlEffort(agent=0),
                    GaussianProximity(np.array([0, 1]), np.array([2, 3]), 1.0, target=1),
                ),
            ),
        )
        front = eval_features(front_basis, make_traj(states[:2], a0[:2], a1[:2]))
        back = eval_features(back_basis, make_traj(states[2:], a0[2:], a1[2:]))
        assert np.allclose(front[0] + back[0], whole[0])

    def test_proximity_bounds(self, basis):
        rng = np.random.default_rng(1)
        prox = basis.agents[0][2]
        for _ in range(200):
            s = rng.normal(size=4) * 3
            v = prox.value(1, s, None)
            assert 0.0 < v <= 1.0


class TestDerivatives:
    @pytest.mark.parametrize("feature_idx", [0, 2])
    def test_gradients_and_hessians_match_finite_differences(self, basis, feature_idx):
        rng = np.random.default_rng(42)
        feat = basis.agents[0][feature_idx]
        for _ in range(100):
            s = rng.normal(size=4) * 2.0
            fn = lambda x: feat.value(2, x, None)
            g = feat.state_gradient(2, s)
            H = feat.state_hessian(2, s)
            assert relative_error(g, central_difference_gradient(fn, s)) < 1e-4
            assert relative_error(H, central_difference_hessian(fn, s)) < 1e-4

    def test_reference_hessian_constant_diagonal(self, basis):
        H = basis.agents[0][0].state_hessian(1, np.zeros(4))
        assert np.allclose(H, np.diag([2.0, 2.0, 0.0, 0.0]))


class TestMakeCostModel:
    def test_zero_obstacle_weight_reduces_to_quadratic(self, basis):
        models = make_cost_model(basis, [np.array([1.0, 1.0, 0.0])] * 2, (2, 2))
        rng = np.random.default_rng(3)
        s = rng.normal(size=4)
        H = models[0].state_hessian(1, s)
        assert np.allclose(H, np.diag([2.0, 2.0, 0.0, 0.0]))

    def test_cost_model_derivatives_match_finite_differences(self, basis):
        weights = [np.array([1.5, 0.7, 3.0]), np.array([0.5, 1.2, 2.0])]
        models = make_cost_model(basis, weights, (2, 2))
        rng = np.random.default_rng(4)
        acts = [rng.normal(size=2), rng.normal(size=2)]
        for i, model in enumerate(models):
            for _ in range(100):
                s = rng.normal(size=4) * 2
                fn = lambda x: model.stage_cost(2, x, acts)
                assert relative_error(
                    model.state_gradient(2, s), central_difference_gradient(fn, s)
                ) < 1e-4
                assert relative_error(
                    model.state_hessian(2, s), central_difference_hessian(fn, s)
                ) < 1e-4

    def test_action_blocks(self, basis):
        weights = [np.array([1.0, 0.9, 2.0]), np.array([1.0, 1.7, 2.0])]
        models = make_cost_model(basis, weights, (2, 2))
        assert np.allclose(models[0].action_cost[0], 0.9 * np.eye(2))
        assert np.all(models[0].action_cost[1] == 0.0)
        assert np.allclose(models[1].action_cost[1], 1.7 * np.eye(2))

    def test_nonpositive_effort_weight_rejected(self, basis):
        with pytest.raises(InvalidWeightError):
            make_cost_model(basis, [np.array([1.0, 0.0, 1.0])] * 2, (2, 2))
        with pytest.raises(InvalidWeightError):
            make_cost_model(basis, [np.array([1.0, -0.5, 1.0])] * 2, (2, 2))

    def test_second_effort_feature_rejected(self, basis):
        # R^ii is one weight's: two effort features are refused, whatever their weights.
        doubled = FeatureBasis(
            agents=(basis.agents[0] + (ControlEffort(agent=0),), basis.agents[1])
        )
        weights = [np.array([1.0, 0.5, 2.0, 0.5]), np.array([1.0, 1.7, 2.0])]
        with pytest.raises(InvalidWeightError, match="agent 0: .* and only one"):
            make_cost_model(doubled, weights, (2, 2))

    def test_effort_of_another_agent_rejected(self, basis):
        # The learner measures an agent on its reduced game, where its own
        # action is the only one, so an effort feature reads its own agent's.
        with pytest.raises(ValueError, match="agent 1: a control_effort feature must read"):
            FeatureBasis(agents=(basis.agents[0], basis.agents[0]))

    def test_weight_length_mismatch_rejected(self, basis):
        with pytest.raises(InvalidWeightError):
            make_cost_model(basis, [np.ones(2), np.ones(3)], (2, 2))

    @pytest.mark.parametrize("entry, shape", [(1.0, "()"), ([[1.0, 1.0, 1.0]], "(1, 3)")])
    def test_weight_entry_not_a_vector_reports_its_shape(self, basis, entry, shape):
        with pytest.raises(InvalidWeightError, match=re.escape(f"weights of shape {shape}")):
            make_cost_model(basis, [entry, np.ones(3)], (2, 2))

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_cost_scales_linearly_with_weights(self, basis, scale):
        rng = np.random.default_rng(6)
        w = [np.array([1.0, 1.0, 2.0]), np.array([2.0, 0.5, 1.0])]
        base = make_cost_model(basis, w, (2, 2))
        scaled = make_cost_model(basis, [scale * x for x in w], (2, 2))
        s = rng.normal(size=4)
        acts = [rng.normal(size=2), rng.normal(size=2)]
        assert scaled[0].stage_cost(1, s, acts) == pytest.approx(
            scale * base[0].stage_cost(1, s, acts)
        )


def signed_zero_states(basis, T, n, seed):
    """(T, n) states around the tracking references, with signed zeros in the
    derivatives: every third row sits on the references (offsets +0.0),
    the next row on their negatives (offsets -0.0 where a reference is 0.0),
    and every fifth row has the agents 1e3 apart (proximity underflows to
    0.0, its gradient to -0.0)."""
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(T, n))
    for feats in basis.agents:
        for f in feats:
            if isinstance(f, ReferenceTracking):
                states[:, f.position_index] += f.reference
                states[0::3, f.position_index] = f.reference[0::3]
                states[1::3, f.position_index] = -f.reference[1::3]
    for j, feats in enumerate(basis.agents):
        # Every feature but effort carries its agent's position indices.
        p = next(f.position_index for f in feats if not isinstance(f, ControlEffort))
        states[2::5, p] += 1e3 * j
    return states


class TestInPlaceAssembly:
    """The cost model's state gradient and Hessian, assembled in place, equal
    the dense sums of ``oracles.dense_cost_derivatives`` byte for byte, for
    stacked and one-row calls."""

    def assert_dense_equal(self, basis, weights, action_dims, states):
        models = make_cost_model(basis, weights, action_dims)
        steps = np.arange(1, len(states) + 1)
        calls = [(steps, states)] + [(int(t), s) for t, s in zip(steps, states)]
        for feats, w, model in zip(basis.agents, weights, models):
            for t, s in calls:
                dense = dense_cost_derivatives(feats, w, t, s)
                got = model.state_gradient(t, s), model.state_hessian(t, s)
                for a, b in zip(got, dense):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["two_agent_crossing", "three_agent_ring", "lq_tracking"])
    @pytest.mark.parametrize("tracking_sign", [1.0, -1.0])
    def test_shipped_configs(self, config_dir, name, tracking_sign):
        scenario, game = shipped_game(config_dir, name)
        weights = []
        for feats, w in zip(scenario.basis.agents, scenario.true_weights()):
            w = np.array(w, dtype=float)
            w[[isinstance(f, ReferenceTracking) for f in feats]] *= tracking_sign
            weights.append(w)
        states = signed_zero_states(scenario.basis, game.horizon, game.state_dim, seed=7)
        self.assert_dense_equal(scenario.basis, weights, game.action_dims, states)

    def test_proximity_before_tracking(self, basis):
        reordered = FeatureBasis(agents=tuple((fs[2], fs[1], fs[0]) for fs in basis.agents))
        weights = [np.array([2.5, 0.7, -1.3]), np.array([-0.4, 1.1, 3.0])]
        for seed in range(3):
            states = signed_zero_states(reordered, 5, 4, seed)
            self.assert_dense_equal(reordered, weights, (2, 2), states)

    def test_only_state_features_are_called(self, basis, monkeypatch):
        def unused(*args):
            raise AssertionError("the effort feature's zero derivatives were built")

        monkeypatch.setattr(ControlEffort, "state_gradient", unused)
        monkeypatch.setattr(ControlEffort, "state_hessian", unused)
        model = make_cost_model(basis, [np.array([1.0, 1.0, 2.0])] * 2, (2, 2))[0]
        s = np.ones((5, 4))
        assert model.state_hessian(np.arange(1, 6), s).shape == (5, 4, 4)
        assert model.state_gradient(np.arange(1, 6), s).shape == (5, 4)


class TestReference:
    def test_straight_line_endpoints(self):
        ref = straight_line_reference(np.array([1.0, 2.0]), np.array([3.0, -2.0]), 9)
        assert np.allclose(ref[0], [1.0, 2.0])
        assert np.allclose(ref[-1], [3.0, -2.0])
        steps = np.diff(ref, axis=0)
        assert np.allclose(steps, steps[0])  # uniform sampling
