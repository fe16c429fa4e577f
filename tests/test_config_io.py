"""Scenario config schema and file formats."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from ecegames import (
    AffineGaussianPolicySet,
    ConfigError,
    IngestError,
    LearnConfig,
    SolverConfig,
    rollout_batch,
    simulate_mean,
    solve_ece,
)
from ecegames.cli import main
from ecegames.config import parse_scenario
from ecegames import trajio


def minimal_config(**overrides):
    cfg = {
        "schema_version": 1,
        "name": "mini",
        "num_agents": 1,
        "horizon": 5,
        "dt": 0.1,
        "dynamics": {"kind": "double_integrator"},
        "noise": {"kind": "none"},
        "agents": [
            {
                "start": [0.0, 0.0],
                "goal": [1.0, 0.0],
                "features": [{"kind": "reference_tracking"}, {"kind": "control_effort"}],
                "true_weights": [1.0, 1.0],
            }
        ],
    }
    cfg.update(overrides)
    return cfg


class TestParsing:
    def test_minimal_parses(self):
        scenario = parse_scenario(minimal_config())
        assert scenario.num_agents == 1
        assert scenario.state_dim == 4
        game = scenario.make_game(scenario.true_weights())
        assert game.horizon == 5

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario(minimal_config(extra_field=1))

    def test_unknown_nested_key_rejected(self):
        cfg = minimal_config()
        cfg["agents"][0]["features"][0]["unknown"] = True
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario(cfg)

    def test_unknown_feature_kind_rejected(self):
        cfg = minimal_config()
        cfg["agents"][0]["features"][0] = {"kind": "magic"}
        with pytest.raises(ConfigError, match="magic"):
            parse_scenario(cfg)

    def test_bad_proximity_target_rejected(self):
        cfg = minimal_config()
        cfg["agents"][0]["features"].append(
            {"kind": "gaussian_proximity", "target": 0, "sigma": 1.0}
        )
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_nonpositive_proximity_sigma_rejected(self, crossing_scenario):
        cfg = crossing_scenario.to_dict()
        cfg["agents"][0]["features"][2]["sigma"] = 0.0
        path = r"^agents\[0\]\.features\[2\]: "
        with pytest.raises(ConfigError, match=path + ".*sigma must be positive"):
            parse_scenario(cfg)

    def test_weight_count_mismatch_rejected(self):
        cfg = minimal_config()
        cfg["agents"][0]["true_weights"] = [1.0]
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_missing_schema_version_rejected(self):
        cfg = minimal_config()
        del cfg["schema_version"]
        with pytest.raises(ConfigError, match="schema_version"):
            parse_scenario(cfg)

    def test_state_dependent_noise_unrepresentable(self):
        # The schema only admits constant gains; a bad kind is rejected.
        with pytest.raises(ConfigError):
            parse_scenario(minimal_config(noise={"kind": "state_dependent"}))

    def test_gaussian_initial_state(self):
        n = 4
        cfg = minimal_config(
            initial_state={
                "kind": "gaussian",
                "mean": [0.0] * n,
                "covariance": (0.01 * np.eye(n)).tolist(),
            }
        )
        scenario = parse_scenario(cfg)
        game = scenario.make_game(scenario.true_weights())
        assert game.initial_state.covariance is not None

    def test_zero_width_matrix_noise(self, tmp_path, config_dir):
        # A (4, 0) gain and an empty covariance: noise of width 0, i.e. none.
        scenario = parse_scenario(
            minimal_config(noise={"kind": "matrix", "gain": [[]] * 4, "covariance": []})
        )
        noise = scenario.make_game(scenario.true_weights()).noise
        assert noise.gain.shape == (4, 0) and noise.covariance.shape == (0, 0)
        assert parse_scenario(scenario.to_dict()).to_dict() == scenario.to_dict()
        cfg = json.loads((config_dir / "lq_tracking.json").read_text())
        outputs = []
        for name, block in (("none", {"kind": "none"}),
                            ("matrix", {"kind": "matrix", "gain": [[]] * 8, "covariance": []})):
            cfg["noise"] = block
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}.csv"
            rc = main(["gen-demos", "--config", str(path), "--trials", "3", "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_linear_dynamics_kind(self):
        cfg = {
            "schema_version": 1,
            "name": "lin",
            "num_agents": 1,
            "horizon": 4,
            "dt": 1.0,
            "dynamics": {
                "kind": "linear",
                "A": [[1.0, 0.1], [0.0, 1.0]],
                "B": [[[0.0], [1.0]]],
                "position_indices": [[0]],
            },
            "noise": {"kind": "none"},
            "initial_state": {"kind": "fixed", "value": [1.0, 0.0]},
            "agents": [
                {
                    "start": [1.0],
                    "goal": [0.0],
                    "features": [{"kind": "reference_tracking"}, {"kind": "control_effort"}],
                    "true_weights": [1.0, 0.5],
                }
            ],
        }
        scenario = parse_scenario(cfg)
        game = scenario.make_game(scenario.true_weights())
        assert game.state_dim == 2

    def test_linear_to_dict_holds_coerced_numbers(self):
        cfg = minimal_config(
            dynamics={"kind": "linear", "A": [[1, 0.1], [0, 1]], "B": [[[0], [1]]],
                      "position_indices": [[0.0]]},
            initial_state={"kind": "fixed", "value": [1, 0]},
        )
        cfg["agents"][0].update(start=[1], goal=[0])
        scenario = parse_scenario(cfg)
        dynamics = scenario.to_dict()["dynamics"]
        assert dynamics == {"kind": "linear", "A": [[1.0, 0.1], [0.0, 1.0]], "B": [[[0.0], [1.0]]],
                            "position_indices": [[0]]}
        entries = [*dynamics["A"][0], *dynamics["A"][1], *(b[0] for b in dynamics["B"][0])]
        assert all(type(x) is float for x in entries)
        assert type(dynamics["position_indices"][0][0]) is int
        again = parse_scenario(scenario.to_dict())
        g1, g2 = (sc.make_game(sc.true_weights()) for sc in (scenario, again))
        s, a = np.array([0.3, -0.7]), [np.array([0.2])]
        assert np.array_equal(g1.dynamics.step(1, s, a), g2.dynamics.step(1, s, a))
        (A1, B1), (A2, B2) = g1.dynamics.jacobians(1, s, a), g2.dynamics.jacobians(1, s, a)
        assert np.array_equal(A1, A2) and np.array_equal(B1[0], B2[0])
        assert np.array_equal(again.position_indices[0], scenario.position_indices[0])

    def test_to_dict_writes_every_default(self):
        assert parse_scenario(minimal_config()).to_dict() == {
            "schema_version": 1,
            "name": "mini",
            "num_agents": 1,
            "horizon": 5,
            "dt": 0.1,
            "dynamics": {"kind": "double_integrator"},
            "noise": {"kind": "none"},
            "agents": [
                {
                    "start": [0.0, 0.0],
                    "goal": [1.0, 0.0],
                    "features": [{"kind": "reference_tracking"}, {"kind": "control_effort"}],
                    "temperature": 1.0,
                    "true_weights": [1.0, 1.0],
                }
            ],
            "solver": {
                "max_iterations": 100,
                "convergence_tol": 1e-4,
                "max_step_deviation": 10.0,
            },
            "learner": {
                "learning_rate": 0.05,
                "max_outer_iterations": 200,
                "residual_tol": 0.05,
            },
        }

    def test_default_initial_state_heads_unicycles_to_their_goals(self, config_dir):
        doc = json.loads((config_dir / "two_agent_crossing.json").read_text())
        doc["dynamics"] = {"kind": "unicycle"}
        scenario = parse_scenario(doc)
        initial = scenario.make_game(scenario.true_weights()).initial_state
        # (x, y, heading) per agent: agent 0 drives from (-2, 0) to (2, 0), agent 1
        # from (0, -2) to (0, 2).
        expected = [-2.0, 0.0, np.arctan2(0.0, 4.0), 0.0, -2.0, np.arctan2(4.0, 0.0)]
        assert np.array_equal(initial.mean, expected)
        assert initial.covariance is None

    def test_config_round_trip_preserves_game(self, crossing_scenario):
        doc = crossing_scenario.to_dict()
        reparsed = parse_scenario(doc)
        assert reparsed.to_dict() == doc
        w = crossing_scenario.true_weights()
        g1 = crossing_scenario.make_game(w)
        g2 = reparsed.make_game(reparsed.true_weights())
        policy = AffineGaussianPolicySet.zero(g1.horizon, g1.state_dim, g1.action_dims)
        t1 = simulate_mean(g1, policy)
        t2 = simulate_mean(g2, policy)
        assert np.array_equal(t1.states, t2.states)


def with_value(keys, value):
    """minimal_config with the entry at ``keys`` (dict keys, list indices) set to
    ``value``; with no keys, ``value`` holds top-level overrides."""
    if not keys:
        return minimal_config(**value)
    cfg = minimal_config()
    block = cfg
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    return cfg


def linear(**keys):
    """Top-level overrides that give minimal_config linear dynamics, with ``keys``
    of the dynamics block replaced, and the initial state they require."""
    dynamics = {"kind": "linear", "A": np.eye(4).tolist(), "B": [np.eye(4)[:, 2:].tolist()],
                "position_indices": [[0, 1]], **keys}
    return {"dynamics": dynamics, "initial_state": {"kind": "fixed", "value": [0.0] * 4}}


def proximity(sigma):
    """Top-level overrides that give minimal_config a second agent, which agent 0
    keeps its distance from with length scale ``sigma``."""
    agent = minimal_config()["agents"][0]
    features = [*agent["features"], {"kind": "gaussian_proximity", "target": 1, "sigma": sigma}]
    first = {**agent, "features": features, "true_weights": [1.0, 1.0, 1.0]}
    return {"num_agents": 2, "agents": [first, {**agent, "start": [0.0, 1.0]}]}


SIGMA_RANGE = "sigma must be positive, with a square that is a finite normal float"

# (where the malformed value goes, the value, the path (or message) the error must name).
# Each case has a fixed id, so adding, removing or rewording a case renames no other
# test; the ids of the older cases are the positional names they were first run under.
MALFORMED_VALUES = [
    pytest.param(("num_agents",), "two", "num_agents", id="keys0-two-num_agents"),
    pytest.param(("horizon",), "abc", "horizon", id="keys1-abc-horizon"),
    pytest.param(("horizon",), None, "horizon", id="keys2-None-horizon"),
    pytest.param(("dt",), None, "dt", id="keys3-None-dt"),
    pytest.param(("dt",), [0.1], "dt", id="keys4-value4-dt"),
    pytest.param(("dt",), float("nan"), "dt", id="keys5-nan-dt"),
    pytest.param(("dt",), float("inf"), "dt", id="keys6-inf-dt"),
    pytest.param(("agents",), 3, "agents", id="keys7-3-agents"),
    pytest.param(("agents",), {"start": [0.0, 0.0]}, "agents", id="keys8-value8-agents"),
    pytest.param(("agents", 0), [], "agents[0]", id="keys9-value9-agents[0]"),
    pytest.param(("agents", 0, "start"), 1.0, "agents[0].start", id="keys10-1.0-agents[0].start"),
    pytest.param(("agents", 0, "start"), [None, 0.0], "agents[0].start",
                 id="keys11-value11-agents[0].start"),
    pytest.param(("agents", 0, "goal"), "ab", "agents[0].goal", id="keys12-ab-agents[0].goal"),
    pytest.param(("agents", 0, "goal"), {"x": 1.0}, "agents[0].goal",
                 id="keys13-value13-agents[0].goal"),
    pytest.param(("agents", 0, "features"), "tracking", "agents[0].features",
                 id="keys14-tracking-agents[0].features"),
    pytest.param(("agents", 0, "true_weights"), [1.0, "x"], "agents[0].true_weights",
                 id="keys15-value15-agents[0].true_weights"),
    pytest.param(("agents", 0, "true_weights"), 2.0, "agents[0].true_weights",
                 id="keys16-2.0-agents[0].true_weights"),
    pytest.param(("agents", 0, "temperature"), None, "agents[0].temperature",
                 id="keys17-None-agents[0].temperature"),
    pytest.param(("agents", 0, "temperature"), float("nan"), "agents[0]: temperature",
                 id="keys18-nan-agents[0]: temperature"),
    pytest.param(("solver",), [], "solver", id="keys19-value19-solver"),
    pytest.param(("solver",), "fast", "solver", id="keys20-fast-solver"),
    pytest.param(("solver",), {"max_iterations": "many"}, "solver.max_iterations",
                 id="keys21-value21-solver.max_iterations"),
    pytest.param(("solver",), {"convergence_tol": None}, "solver.convergence_tol",
                 id="keys22-value22-solver.convergence_tol"),
    # Proximity length scales whose square overflows or underflows.
    pytest.param((), proximity(1e200), SIGMA_RANGE, id=f"keys23-value23-{SIGMA_RANGE}"),
    pytest.param((), proximity(1e-200), SIGMA_RANGE, id=f"keys24-value24-{SIGMA_RANGE}"),
    pytest.param(("learner",), [], "learner", id="keys25-value25-learner"),
    pytest.param(("learner",), {"learning_rate": None}, "learner.learning_rate",
                 id="keys26-value26-learner.learning_rate"),
    # The Monte-Carlo sample count is gone: a config that still carries one,
    # however malformed, is refused as an unknown key named with its block.
    pytest.param(("learner",), {"samples_per_expectation": "ten"},
                 "unknown key 'samples_per_expectation' in learner",
                 id="keys27-value27-learner.samples_per_expectation"),
    pytest.param(("dynamics",), [], "dynamics", id="keys30-value30-dynamics"),
    pytest.param(("dynamics",), "double_integrator", "dynamics",
                 id="keys31-double_integrator-dynamics"),
    pytest.param(("dynamics",), {"kind": ["linear"]}, "dynamics", id="keys32-value32-dynamics"),
    pytest.param(("dynamics",),
                 {"kind": "linear", "A": [[1.0]], "B": [[["x"]]], "position_indices": [[0]]},
                 "dynamics", id="keys33-value33-dynamics"),
    pytest.param(("dynamics",),
                 {"kind": "linear", "A": [[1.0]], "B": [[[1.0]]], "position_indices": [0]},
                 "dynamics.position_indices", id="keys34-value34-dynamics.position_indices"),
    pytest.param(("noise",), 0.1, "noise", id="keys35-0.1-noise"),
    pytest.param(("noise",), {"kind": "scaled_identity", "scale": "big"}, "noise",
                 id="keys36-value36-noise"),
    pytest.param(("noise",), {"kind": "scaled_identity", "scale": None}, "noise",
                 id="keys37-value37-noise"),
    pytest.param(("initial_state",), {"kind": "fixed", "value": ["a", 0.0, 0.0, 0.0]},
                 "initial_state", id="keys38-value38-initial_state"),
    # A noise gain with one row for a four-dimensional state.
    pytest.param(("noise",), {"kind": "matrix", "gain": [[1.0]], "covariance": [[1.0]]}, "noise",
                 id="keys39-value39-noise"),
    pytest.param(("name",), [1, 2], "name", id="keys40-value40-name"),
    # Ints from booleans or non-integral numbers, and non-finite floats.
    pytest.param(("horizon",), 2.7, "horizon", id="keys41-2.7-horizon"),
    pytest.param(("horizon",), float("inf"), "horizon", id="keys42-inf-horizon"),
    pytest.param(("num_agents",), True, "num_agents", id="keys43-True-num_agents"),
    pytest.param(("solver",), {"max_iterations": 2.5}, "solver.max_iterations",
                 id="keys44-value44-solver.max_iterations"),
    pytest.param(("solver",), {"max_iterations": True}, "solver.max_iterations",
                 id="keys45-value45-solver.max_iterations"),
    pytest.param(("solver",), {"max_step_deviation": float("inf")}, "solver.max_step_deviation",
                 id="keys46-value46-solver.max_step_deviation"),
    pytest.param(("solver",), {"convergence_tol": float("nan")}, "solver.convergence_tol",
                 id="keys47-value47-solver.convergence_tol"),
    pytest.param(("learner",), {"learning_rate": float("nan")}, "learner.learning_rate",
                 id="keys48-value48-learner.learning_rate"),
    pytest.param(("learner",), {"residual_tol": float("-inf")}, "learner.residual_tol",
                 id="keys49-value49-learner.residual_tol"),
    pytest.param(("learner",), {"samples_per_expectation": 10.5},
                 "unknown key 'samples_per_expectation' in learner",
                 id="keys50-value50-learner.samples_per_expectation"),
    pytest.param(("agents", 0, "start"), [float("nan"), 0.0], "agents[0].start",
                 id="keys51-value51-agents[0].start"),
    pytest.param(("agents", 0, "goal"), [1.0, float("inf")], "agents[0].goal",
                 id="keys52-value52-agents[0].goal"),
    pytest.param(("agents", 0, "true_weights"), [1.0, float("nan")], "agents[0].true_weights",
                 id="keys53-value53-agents[0].true_weights"),
    pytest.param(("agents", 0, "features"),
                 [{"kind": "gaussian_proximity", "target": 0, "sigma": float("nan")}],
                 "agents[0].features[0].sigma",
                 id="keys54-value54-agents[0].features[0].sigma"),
    # Numbers given as JSON strings.
    pytest.param(("horizon",), "5", "horizon", id="keys55-5-horizon"),
    pytest.param(("num_agents",), "1", "num_agents", id="keys56-1-num_agents"),
    pytest.param(("dt",), "0.1", "dt", id="keys57-0.1-dt"),
    pytest.param(("agents", 0, "temperature"), "2.0", "agents[0].temperature",
                 id="keys58-2.0-agents[0].temperature"),
    pytest.param(("agents", 0, "start"), ["0.5", 0.0], "agents[0].start",
                 id="keys59-value59-agents[0].start"),
    pytest.param(("solver",), {"max_iterations": "10"}, "solver.max_iterations",
                 id="keys60-value60-solver.max_iterations"),
    pytest.param(("learner",), {"learning_rate": "0.2"}, "learner.learning_rate",
                 id="keys61-value61-learner.learning_rate"),
    # Matrix entries, vectors and floats go through the same number rule.
    pytest.param((), linear(A=[[float("nan")] * 4] * 4), "dynamics.A[0][0] must be finite",
                 id="keys62-value62-dynamics.A[0][0] must be finite"),
    pytest.param((), linear(B=[[[True, 0.0]] * 4]), "dynamics.B[0][0][0] must be a JSON number",
                 id="keys63-value63-dynamics.B[0][0][0] must be a JSON number"),
    pytest.param((), linear(A=[["1.0"] * 4] * 4), "dynamics.A[0][0] must be a JSON number",
                 id="keys64-value64-dynamics.A[0][0] must be a JSON number"),
    pytest.param((), linear(A=None), "dynamics.A must be a JSON list",
                 id="keys65-value65-dynamics.A must be a JSON list"),
    pytest.param((), linear(position_indices=[[0.7, 1]]),
                 "dynamics.position_indices[0][0] must be an integer",
                 id="keys66-value66-dynamics.position_indices[0][0] must be an integer"),
    pytest.param(("initial_state",), {"kind": "fixed", "value": ["1.0", 0.0, 0.0, 0.0]},
                 "initial_state.value[0] must be a JSON number",
                 id="keys67-value67-initial_state.value[0] must be a JSON number"),
    pytest.param(("initial_state",),
                 {"kind": "gaussian", "mean": [0.0] * 4,
                  "covariance": [[float("inf"), 0.0, 0.0, 0.0]] + np.eye(4)[1:].tolist()},
                 "initial_state.covariance[0][0] must be finite",
                 id="keys68-value68-initial_state.covariance[0][0] must be finite"),
    pytest.param(("noise",),
                 {"kind": "matrix", "gain": [["0.1"], [0.0], [0.0], [0.0]], "covariance": [[1.0]]},
                 "noise.gain[0][0] must be a JSON number",
                 id="keys69-value69-noise.gain[0][0] must be a JSON number"),
    pytest.param(("dt",), True, "dt must be a JSON number",
                 id="keys70-True-dt must be a JSON number"),
    pytest.param(("agents", 0, "start"), [True, 0.0], "agents[0].start[0] must be a JSON number",
                 id="keys71-value71-agents[0].start[0] must be a JSON number"),
    # Learner settings out of range.
    pytest.param(("learner",), {"max_outer_iterations": 0},
                 "learner: need at least one outer iteration",
                 id="keys72-value72-learner: need at least one outer iteration"),
    pytest.param(("learner",), {"residual_tol": -0.5},
                 "learner: residual tolerance must be positive",
                 id="keys73-value73-learner: residual tolerance must be positive"),
    # The effort floor is a constant, not a key: any value is refused.
    pytest.param(("learner",), {"effort_weight_floor": -1.0},
                 "unknown key 'effort_weight_floor' in learner",
                 id="keys74-value74-unknown key 'effort_weight_floor' in learner"),
    # An integral JSON number too large for a float.
    pytest.param(("learner",), {"learning_rate": 10**400},
                 "learner.learning_rate: int too large to convert to float",
                 id="learning-rate-beyond-float"),
    # No control_effort feature: the agent's own action cost R^ii would be zero.
    pytest.param(("agents", 0, "features"), [{"kind": "reference_tracking"}],
                 "agents[0].features must include a control_effort feature",
                 id="keys75-value75-agents[0].features must include a control_effort feature"),
    # Two control_effort features, otherwise valid: two weights would share R^ii.
    pytest.param((), {"agents": [{**minimal_config()["agents"][0],
                                  "features": [{"kind": "reference_tracking"},
                                               {"kind": "control_effort"},
                                               {"kind": "control_effort"}],
                                  "true_weights": [4.0, 0.5, 0.5]}]},
                 "agents[0].features must include a control_effort feature, and only one",
                 id="two-control-efforts"),
]


@pytest.mark.parametrize("keys, value, path", MALFORMED_VALUES)
def test_malformed_value_is_config_error_naming_its_path(keys, value, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_scenario(with_value(keys, value))


@pytest.mark.parametrize("keys, value, path", MALFORMED_VALUES)
def test_malformed_value_fails_solve_with_one_error_line(keys, value, path, tmp_path, capsys):
    # solve builds the game as well, which validate does not.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(with_value(keys, value)))
    out = tmp_path / "policy.json"
    assert main(["solve", "--config", str(config), "--out-policy", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


class TestSettingsRoundTrip:
    SOLVER = {
        "max_iterations": 7,
        "convergence_tol": 2e-3,
        "max_step_deviation": 3.5,
    }
    LEARNER = {
        "learning_rate": 0.3,
        "max_outer_iterations": 9,
        "residual_tol": 0.2,
    }

    def test_every_settable_field_round_trips(self):
        for cls, block in ((SolverConfig, self.SOLVER), (LearnConfig, self.LEARNER)):
            assert set(block) == {f.name for f in fields(cls)}
            default = cls()
            assert all(getattr(default, k) != v for k, v in block.items())
        scenario = parse_scenario(minimal_config(solver=self.SOLVER, learner=self.LEARNER))
        again = parse_scenario(scenario.to_dict())
        assert again.solver_config == SolverConfig(**self.SOLVER)
        assert again.learn_config == LearnConfig(**self.LEARNER)
        assert again.to_dict() == scenario.to_dict()

    def test_readme_tables_list_every_settable_field(self, config_dir):
        # Each solver/learner row of README's settings table: block, key, default.
        readme = (config_dir.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(solver|learner)` \| `(\w+)` \| ([^|]+?) \|", readme, re.M)
        documented = {(block, key): json.loads(default.strip("`")) for block, key, default in rows}
        settable = {
            (block, f.name): f.default
            for block, cls in (("solver", SolverConfig), ("learner", LearnConfig))
            for f in fields(cls)
        }
        assert len(rows) == len(documented) and documented == settable
        assert all(type(documented[k]) is type(v) for k, v in settable.items())

    @pytest.mark.parametrize(
        "block, key",
        [
            # Choices of a run, set by learn --seed and --mode.
            ("learner", "base_seed"),
            ("learner", "mode"),
            ("solver", "hessian_floor"),
            ("solver", "strict_paper"),
            ("solver", "min_step"),
            ("learner", "standardize_gaps"),
            # The Monte-Carlo sample count: the learner draws nothing.
            ("learner", "samples_per_expectation"),
        ],
    )
    def test_unsettable_key_rejected(self, block, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in {block}"):
            parse_scenario(minimal_config(**{block: {key: 1}}))


class TestTrajectoryFile:
    def make_batch(self, small_scenario, trials=3):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        return game, rollout_batch(game, sol.policies, trials, 0)

    def test_round_trip_lossless(self, tmp_path, small_scenario):
        game, batch = self.make_batch(small_scenario)
        path = tmp_path / "demos.csv"
        trajio.write_trajectories(path, batch)
        loaded = trajio.read_trajectories(path, game.state_dim, game.action_dims)
        assert len(loaded) == len(batch)
        for a, b in zip(batch, loaded):
            assert np.array_equal(a.states, b.states)
            for x, y in zip(a.actions, b.actions):
                assert np.array_equal(x, y)

    def test_header_layout(self, tmp_path, small_scenario):
        game, batch = self.make_batch(small_scenario, trials=1)
        path = tmp_path / "demos.csv"
        trajio.write_trajectories(path, batch)
        header = path.read_text().splitlines()[0]
        assert header.startswith("trial,t,s_1,")
        assert header.endswith("a2_1,a2_2")
        n_cols = len(header.split(","))
        assert n_cols == 2 + game.state_dim + sum(game.action_dims)

    def test_malformed_row_cites_line(self, tmp_path, small_scenario):
        game, batch = self.make_batch(small_scenario, trials=1)
        path = tmp_path / "demos.csv"
        trajio.write_trajectories(path, batch)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",", ";broken;", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="line 4"):
            trajio.read_trajectories(path, game.state_dim, game.action_dims)

    def test_unsorted_rows_rejected(self, tmp_path, small_scenario):
        game, batch = self.make_batch(small_scenario, trials=2)
        path = tmp_path / "demos.csv"
        trajio.write_trajectories(path, batch)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="sorted"):
            trajio.read_trajectories(path, game.state_dim, game.action_dims)

    def test_wrong_column_count_rejected(self, tmp_path, small_scenario):
        game, batch = self.make_batch(small_scenario, trials=1)
        path = tmp_path / "demos.csv"
        trajio.write_trajectories(path, batch)
        lines = path.read_text().splitlines()
        lines[2] += ",0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="columns"):
            trajio.read_trajectories(path, game.state_dim, game.action_dims)


class TestPolicyFile:
    def test_round_trip_and_mean_rollout(self, tmp_path, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        path = tmp_path / "policy.json"
        trajio.write_policy(path, sol.policies)
        loaded = trajio.read_policy(path)
        rolled = simulate_mean(game, loaded)
        assert np.max(np.abs(rolled.states - sol.policies.nominal_states)) < 1e-9
        for i in range(game.num_agents):
            assert np.array_equal(loaded.gains[i], sol.policies.gains[i])
            assert np.array_equal(loaded.covariances[i], sol.policies.covariances[i])

    def test_invalid_policy_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"gains\": []}")
        with pytest.raises(IngestError):
            trajio.read_policy(path)

    @pytest.mark.parametrize("field, value, element", [
        ("gains", "1.5", "gains[1][0][0][0] must be a JSON number"),
        ("offsets", True, "offsets[1][0][0] must be a JSON number"),
        ("covariances", float("nan"), "covariances[1][0][0][0] must be finite"),
    ])
    def test_policy_entry_not_a_finite_number(self, tmp_path, field, value, element):
        path = tmp_path / "policy.json"
        trajio.write_policy(path, AffineGaussianPolicySet.zero(3, 4, (2, 1)))
        doc = json.loads(path.read_text())
        target = doc[field][1]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=re.escape(f"invalid policy file ({element}")):
            trajio.read_policy(path)

    def test_well_formed_json_of_wrong_shape(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(IngestError, match="invalid policy file"):
            trajio.read_policy(path)
        with pytest.raises(IngestError, match="invalid weights file"):
            trajio.read_weights(path)


    def test_nesting_deeper_than_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"gains": ' + "[" * 200_000 + "]" * 200_000 + "}")
        with pytest.raises(IngestError, match=r"invalid policy file \(maximum recursion depth"):
            trajio.read_policy(path)


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "weights.json"
        weights = [np.array([1.0, 2.5]), np.array([0.1])]
        trajio.write_weights(path, weights, [["tracking", "control"], ["control"]])
        loaded = trajio.read_weights(path)
        for a, b in zip(weights, loaded):
            assert np.array_equal(a, b)

    def test_seventeen_digit_floats_round_trip(self, tmp_path, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        batch = rollout_batch(game, sol.policies, 2, 3)
        path = tmp_path / "x.csv"
        trajio.write_trajectories(path, batch)
        loaded = trajio.read_trajectories(path, game.state_dim, game.action_dims)
        # Bit-exact equality, not approximate: 17 significant digits suffice.
        assert np.array_equal(loaded[0].states, batch[0].states)
