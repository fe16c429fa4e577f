import json
from pathlib import Path

import numpy as np
import pytest

from ecegames import (
    AffineGaussianPolicySet,
    GameSpec,
    InitialState,
    NoiseModel,
    TrajectoryBatch,
    dynamics,
    quadratic_cost,
)
from ecegames.config import parse_scenario
from ecegames.lq import LqStageGame

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def random_lq_data(rng, num_agents=None, n=None, horizon=None, cross_terms=False):
    """A well-conditioned random LQ game as raw arrays (shared by several tests)."""
    if num_agents is None:
        num_agents = int(rng.integers(2, 4))
    if n is None:
        n = int(rng.integers(1, 5))
    if horizon is None:
        horizon = int(rng.integers(2, 21))
    m_dims = [int(rng.integers(1, 3)) for _ in range(num_agents)]
    A = rng.normal(size=(n, n))
    radius = max(abs(np.linalg.eigvals(A)))
    if radius > 0:
        A *= rng.uniform(0.5, 1.0) / radius
    Bs = [rng.normal(size=(n, m)) for m in m_dims]
    Qs, ls, Rs = [], [], []
    for i in range(num_agents):
        M = rng.normal(size=(n, n))
        Qs.append(M.T @ M / n + 0.05 * np.eye(n))
        ls.append(rng.normal(size=n) * 0.5)
        row = []
        for j in range(num_agents):
            if j == i:
                L = rng.normal(size=(m_dims[j], m_dims[j]))
                row.append(L.T @ L / m_dims[j] + (0.3 + rng.uniform()) * np.eye(m_dims[j]))
            elif cross_terms and rng.uniform() < 0.5:
                L = rng.normal(size=(m_dims[j], m_dims[j]))
                row.append(0.2 * L.T @ L / m_dims[j])
            else:
                row.append(np.zeros((m_dims[j], m_dims[j])))
        Rs.append(row)
    return A, Bs, Qs, ls, Rs, horizon


def stage_game_from_data(A, Bs, Qs, ls, Rs, horizon, r=None) -> LqStageGame:
    T = horizon
    N = len(Bs)
    return LqStageGame(
        A=np.tile(A, (T - 1, 1, 1)),
        B=tuple(np.tile(B, (T - 1, 1, 1)) for B in Bs),
        Q=tuple(np.tile(Q, (T, 1, 1)) for Q in Qs),
        l=tuple(np.tile(l, (T, 1)) for l in ls),
        R=tuple(tuple(Rs[i][j] for j in range(N)) for i in range(N)),
        r=r,
    )


def shipped_game(config_dir, name):
    """A shipped scenario and its game under the true weights.  A name ending
    in ``_unicycle`` gives the scenario with unicycle dynamics, and one ending
    in ``_jittered`` gives it true weights w exp(0.2 z), z standard normal from
    a fixed seed, as the ``solve-mix`` benchmark pool draws them."""
    base = name.removesuffix("_unicycle").removesuffix("_jittered")
    doc = json.loads((config_dir / f"{base}.json").read_text())
    if name.endswith("_unicycle"):
        doc["dynamics"] = {"kind": "unicycle"}
    if name.endswith("_jittered"):
        rng = np.random.default_rng(2022)
        for agent in doc["agents"]:
            w = np.asarray(agent["true_weights"])
            agent["true_weights"] = (w * np.exp(0.2 * rng.standard_normal(w.size))).tolist()
    scenario = parse_scenario(doc)
    return scenario, scenario.make_game(scenario.true_weights())


def own_policy(policies, agent) -> AffineGaussianPolicySet:
    """Agent ``agent``'s law of a joint policy set, as a one-agent set."""
    keep = slice(agent, agent + 1)
    return AffineGaussianPolicySet(
        gains=policies.gains[keep],
        offsets=policies.offsets[keep],
        covariances=policies.covariances[keep],
        nominal_states=policies.nominal_states,
        nominal_actions=policies.nominal_actions[keep],
    )


def assert_close(got, ref, rtol=1e-12):
    """Every entry within ``rtol`` of the reference's largest entry."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= rtol * max(np.max(np.abs(ref)), 1.0)


def stack_trajectories(trajectories) -> TrajectoryBatch:
    """Rollouts that share their dimensions as one batch."""
    trajectories = list(trajectories)
    return TrajectoryBatch(
        states=np.stack([t.states for t in trajectories]),
        actions=tuple(np.stack(a) for a in zip(*(t.actions for t in trajectories))),
    )


def game_spec_from_data(A, Bs, Qs, ls, Rs, horizon, s1=None, rng=None) -> GameSpec:
    n = A.shape[0]
    if s1 is None:
        s1 = (rng or np.random.default_rng(0)).normal(size=n) * 0.5
    costs = tuple(quadratic_cost(Qs[i], ls[i], Rs[i]) for i in range(len(Bs)))
    return GameSpec(
        dynamics=dynamics.linear(A, Bs),
        costs=costs,
        horizon=horizon,
        noise=NoiseModel(np.eye(n), np.eye(n)),
        initial_state=InitialState(mean=np.asarray(s1, dtype=float)),
    )


@pytest.fixture(scope="session")
def crossing_scenario():
    with open(CONFIG_DIR / "two_agent_crossing.json") as fh:
        return parse_scenario(json.load(fh))


@pytest.fixture(scope="session")
def small_scenario():
    """A scaled-down two-agent interaction for fast unit tests."""
    return parse_scenario(
        {
            "schema_version": 1,
            "name": "small_crossing",
            "num_agents": 2,
            "horizon": 20,
            "dt": 0.15,
            "dynamics": {"kind": "double_integrator"},
            "noise": {"kind": "scaled_identity", "scale": 0.005},
            "agents": [
                {
                    "start": [-1.0, 0.0],
                    "goal": [1.0, 0.0],
                    "features": [
                        {"kind": "reference_tracking"},
                        {"kind": "control_effort"},
                        {"kind": "gaussian_proximity", "target": 1, "sigma": 0.4},
                    ],
                    "true_weights": [3.0, 1.0, 4.0],
                },
                {
                    "start": [0.0, -1.0],
                    "goal": [0.0, 1.0],
                    "features": [
                        {"kind": "reference_tracking"},
                        {"kind": "control_effort"},
                        {"kind": "gaussian_proximity", "target": 0, "sigma": 0.4},
                    ],
                    "true_weights": [3.0, 1.0, 2.0],
                },
            ],
            "solver": {
                "max_iterations": 60,
                "convergence_tol": 1e-4,
                "max_step_deviation": 10.0,
            },
            "learner": {
                "learning_rate": 0.1,
                "max_outer_iterations": 60,
                "residual_tol": 0.05,
            },
        }
    )


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
