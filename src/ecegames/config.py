"""Scenario configuration: strict JSON schema and the game factory it induces.

A scenario file fully describes an experiment: dynamics kind and time step,
horizon, noise, initial-state distribution, each agent's features (with
optional ground-truth weights) and temperature, plus solver and learner
settings.  Parsing is strict: unknown keys anywhere are fatal, so an
experiment cannot silently drift when the schema evolves.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import dynamics as dyn
from .errors import ConfigError
from .features import (
    ControlEffort,
    FeatureBasis,
    GaussianProximity,
    ReferenceTracking,
    make_cost_model,
    straight_line_reference,
)
from .game import Array, GameSpec, InitialState, NoiseModel
from .ilq import SolverConfig
from .irl import LearnConfig
from .metrics import TaskStatsSpec

SCHEMA_VERSION = 1

_DYNAMICS_KINDS = ("double_integrator", "unicycle", "linear")
_FEATURE_KINDS = ("reference_tracking", "control_effort", "gaussian_proximity")


def _require(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {path}")
    return d[key]


def _check_no_extras(d: dict, allowed: set[str], path: str) -> None:
    extras = set(d) - allowed
    if extras:
        raise ConfigError(f"unknown key {sorted(extras)[0]!r} in {path}")


@dataclass(frozen=True)
class FeatureSpec:
    kind: str
    target: int | None = None
    sigma: float | None = None


@dataclass(frozen=True)
class AgentSpec:
    start: tuple[float, ...]
    goal: tuple[float, ...]
    features: tuple[FeatureSpec, ...]
    true_weights: tuple[float, ...] | None = None
    temperature: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed image of a scenario file; see :func:`parse_scenario`."""

    name: str
    num_agents: int
    horizon: int
    dt: float
    dynamics_kind: str
    dynamics_params: dict = field(default_factory=dict)
    noise_kind: str = "none"
    noise_params: dict = field(default_factory=dict)
    initial_kind: str = "fixed"
    initial_params: dict = field(default_factory=dict)
    agents: tuple[AgentSpec, ...] = ()
    solver: SolverConfig = field(default_factory=SolverConfig)
    learner: LearnConfig = field(default_factory=LearnConfig)


def parse_scenario(data: dict) -> "Scenario":
    """Build a :class:`Scenario` from a config dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    _check_no_extras(
        data,
        {
            "schema_version",
            "name",
            "num_agents",
            "horizon",
            "dt",
            "dynamics",
            "noise",
            "initial_state",
            "agents",
            "solver",
            "learner",
        },
        "scenario",
    )
    version = _require(data, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    num_agents = int(_require(data, "num_agents", "scenario"))
    horizon = int(_require(data, "horizon", "scenario"))
    dt = float(_require(data, "dt", "scenario"))
    if num_agents < 1 or horizon < 1 or dt <= 0.0:
        raise ConfigError("num_agents, horizon and dt must be positive")

    dyn_block = _require(data, "dynamics", "scenario")
    kind = _require(dyn_block, "kind", "dynamics")
    if kind not in _DYNAMICS_KINDS:
        raise ConfigError(f"unknown dynamics kind {kind!r}")
    if kind == "linear":
        _check_no_extras(dyn_block, {"kind", "A", "B", "position_indices"}, "dynamics")
        params = {
            "A": _require(dyn_block, "A", "dynamics"),
            "B": _require(dyn_block, "B", "dynamics"),
            "position_indices": _require(dyn_block, "position_indices", "dynamics"),
        }
    else:
        _check_no_extras(dyn_block, {"kind"}, "dynamics")
        params = {}

    noise_block = data.get("noise", {"kind": "none"})
    noise_kind = _require(noise_block, "kind", "noise")
    if noise_kind == "scaled_identity":
        _check_no_extras(noise_block, {"kind", "scale"}, "noise")
        noise_params = {"scale": float(_require(noise_block, "scale", "noise"))}
    elif noise_kind == "matrix":
        _check_no_extras(noise_block, {"kind", "gain", "covariance"}, "noise")
        noise_params = {
            "gain": _require(noise_block, "gain", "noise"),
            "covariance": _require(noise_block, "covariance", "noise"),
        }
    elif noise_kind == "none":
        _check_no_extras(noise_block, {"kind"}, "noise")
        noise_params = {}
    else:
        raise ConfigError(f"unknown noise kind {noise_kind!r}")

    agents = []
    agent_blocks = _require(data, "agents", "scenario")
    if len(agent_blocks) != num_agents:
        raise ConfigError(f"expected {num_agents} agent blocks, got {len(agent_blocks)}")
    for i, block in enumerate(agent_blocks):
        path = f"agents[{i}]"
        _check_no_extras(
            block, {"start", "goal", "features", "true_weights", "temperature"}, path
        )
        feats = []
        for k, fblock in enumerate(_require(block, "features", path)):
            fpath = f"{path}.features[{k}]"
            fkind = _require(fblock, "kind", fpath)
            if fkind == "gaussian_proximity":
                _check_no_extras(fblock, {"kind", "target", "sigma"}, fpath)
                target = int(_require(fblock, "target", fpath))
                sigma = float(_require(fblock, "sigma", fpath))
                if not 0 <= target < num_agents or target == i:
                    raise ConfigError(f"{fpath}: invalid proximity target {target}")
                feats.append(FeatureSpec(kind=fkind, target=target, sigma=sigma))
            elif fkind in ("reference_tracking", "control_effort"):
                _check_no_extras(fblock, {"kind"}, fpath)
                feats.append(FeatureSpec(kind=fkind))
            else:
                raise ConfigError(f"{fpath}: unknown feature kind {fkind!r}")
        true_w = block.get("true_weights")
        if true_w is not None:
            if len(true_w) != len(feats):
                raise ConfigError(f"{path}: true_weights length must match features")
            true_w = tuple(float(w) for w in true_w)
        temperature = float(block.get("temperature", 1.0))
        if temperature <= 0.0:
            raise ConfigError(f"{path}: temperature must be positive")
        agents.append(
            AgentSpec(
                start=tuple(float(x) for x in _require(block, "start", path)),
                goal=tuple(float(x) for x in _require(block, "goal", path)),
                features=tuple(feats),
                true_weights=true_w,
                temperature=temperature,
            )
        )

    solver = _parse_solver(data.get("solver", {}))
    learner = _parse_learner(data.get("learner", {}))

    initial_block = data.get("initial_state")
    if initial_block is None:
        initial_kind, initial_params = "default", {}
    else:
        initial_kind = _require(initial_block, "kind", "initial_state")
        if initial_kind == "fixed":
            _check_no_extras(initial_block, {"kind", "value"}, "initial_state")
            initial_params = {"value": _require(initial_block, "value", "initial_state")}
        elif initial_kind == "gaussian":
            _check_no_extras(initial_block, {"kind", "mean", "covariance"}, "initial_state")
            initial_params = {
                "mean": _require(initial_block, "mean", "initial_state"),
                "covariance": _require(initial_block, "covariance", "initial_state"),
            }
        else:
            raise ConfigError(f"unknown initial_state kind {initial_kind!r}")

    config = ScenarioConfig(
        name=str(data.get("name", "scenario")),
        num_agents=num_agents,
        horizon=horizon,
        dt=dt,
        dynamics_kind=kind,
        dynamics_params=params,
        noise_kind=noise_kind,
        noise_params=noise_params,
        initial_kind=initial_kind,
        initial_params=initial_params,
        agents=tuple(agents),
        solver=solver,
        learner=learner,
    )
    return Scenario(config)


def _parse_solver(block: dict) -> SolverConfig:
    """Every SolverConfig field is a key, coerced to the type of its default."""
    defaults = SolverConfig()
    _check_no_extras(block, {f.name for f in fields(SolverConfig)}, "solver")
    try:
        return SolverConfig(**{k: type(getattr(defaults, k))(v) for k, v in block.items()})
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_learner(block: dict) -> LearnConfig:
    _check_no_extras(
        block,
        {
            "learning_rate",
            "samples_per_expectation",
            "max_outer_iterations",
            "residual_tol",
            "mode",
            "standardize_gaps",
            "effort_weight_floor",
        },
        "learner",
    )
    defaults = LearnConfig()
    try:
        return LearnConfig(
            learning_rate=float(block.get("learning_rate", defaults.learning_rate)),
            samples_per_expectation=int(
                block.get("samples_per_expectation", defaults.samples_per_expectation)
            ),
            max_outer_iterations=int(
                block.get("max_outer_iterations", defaults.max_outer_iterations)
            ),
            residual_tol=float(block.get("residual_tol", defaults.residual_tol)),
            mode=str(block.get("mode", defaults.mode)),
            standardize_gaps=bool(block.get("standardize_gaps", defaults.standardize_gaps)),
            effort_weight_floor=float(
                block.get("effort_weight_floor", defaults.effort_weight_floor)
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"learner: {exc}") from exc


def load_scenario(path: str | Path) -> "Scenario":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(data)


class Scenario:
    """A parsed scenario: basis, dimensions, and the weights -> game factory."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._dynamics = self._build_dynamics()
        self._positions = self._build_positions()
        self._validate_geometry()
        self.basis = self._build_basis()
        self._noise = self._build_noise()
        self._initial = self._build_initial_state()

    # -- construction ------------------------------------------------------

    def _build_dynamics(self) -> dyn.DynamicsModel:
        c = self.config
        if c.dynamics_kind == "double_integrator":
            return dyn.double_integrator(c.num_agents, c.dt)
        if c.dynamics_kind == "unicycle":
            return dyn.unicycle(c.num_agents, c.dt)
        A = np.asarray(c.dynamics_params["A"], dtype=float)
        Bs = [np.asarray(B, dtype=float) for B in c.dynamics_params["B"]]
        if len(Bs) != c.num_agents:
            raise ConfigError("linear dynamics must provide one B block per agent")
        return dyn.linear(A, Bs)

    def _build_positions(self) -> list[Array]:
        c = self.config
        if c.dynamics_kind == "linear":
            idx = [np.asarray(p, dtype=int) for p in c.dynamics_params["position_indices"]]
            if len(idx) != c.num_agents:
                raise ConfigError("position_indices must list one entry per agent")
            for p in idx:
                if np.any(p < 0) or np.any(p >= self._dynamics.state_dim):
                    raise ConfigError("position index out of state range")
            return idx
        return dyn.position_indices(c.dynamics_kind, c.num_agents)

    def _validate_geometry(self) -> None:
        for i, agent in enumerate(self.config.agents):
            d = self._positions[i].shape[0]
            if len(agent.start) != d or len(agent.goal) != d:
                raise ConfigError(
                    f"agents[{i}]: start/goal must have {d} coordinates for this dynamics"
                )

    def _build_basis(self) -> FeatureBasis:
        c = self.config
        agents = []
        for i, agent in enumerate(c.agents):
            feats = []
            for spec in agent.features:
                if spec.kind == "reference_tracking":
                    ref = straight_line_reference(
                        np.asarray(agent.start), np.asarray(agent.goal), c.horizon
                    )
                    feats.append(
                        ReferenceTracking(position_index=self._positions[i], reference=ref)
                    )
                elif spec.kind == "control_effort":
                    feats.append(ControlEffort(agent=i))
                else:
                    feats.append(
                        GaussianProximity(
                            position_index=self._positions[i],
                            target_index=self._positions[spec.target],
                            sigma=spec.sigma,
                            target=spec.target,
                        )
                    )
            agents.append(tuple(feats))
        return FeatureBasis(agents=tuple(agents), position_indices=tuple(self._positions))

    def _build_noise(self) -> NoiseModel:
        c = self.config
        n = self._dynamics.state_dim
        if c.noise_kind == "scaled_identity":
            return NoiseModel.scaled_identity(n, c.noise_params["scale"])
        if c.noise_kind == "matrix":
            return NoiseModel(
                np.asarray(c.noise_params["gain"], dtype=float),
                np.asarray(c.noise_params["covariance"], dtype=float),
            )
        return NoiseModel.none(n)

    def _default_initial_mean(self) -> Array:
        c = self.config
        n = self._dynamics.state_dim
        s = np.zeros(n)
        for i, agent in enumerate(c.agents):
            s[self._positions[i]] = agent.start
            if c.dynamics_kind == "unicycle":
                heading = np.arctan2(
                    agent.goal[1] - agent.start[1], agent.goal[0] - agent.start[0]
                )
                s[3 * i + 2] = heading
        return s

    def _build_initial_state(self) -> InitialState:
        c = self.config
        n = self._dynamics.state_dim
        if c.initial_kind == "default":
            if c.dynamics_kind == "linear":
                raise ConfigError("linear dynamics requires an explicit initial_state")
            return InitialState(mean=self._default_initial_mean())
        if c.initial_kind == "fixed":
            value = np.asarray(c.initial_params["value"], dtype=float)
            if value.shape != (n,):
                raise ConfigError(f"initial_state value must have dimension {n}")
            return InitialState(mean=value)
        mean = np.asarray(c.initial_params["mean"], dtype=float)
        cov = np.asarray(c.initial_params["covariance"], dtype=float)
        if mean.shape != (n,):
            raise ConfigError(f"initial_state mean must have dimension {n}")
        try:
            return InitialState(mean=mean, covariance=cov)
        except ValueError as exc:
            raise ConfigError(f"initial_state: {exc}") from exc

    # -- accessors ----------------------------------------------------------

    @property
    def num_agents(self) -> int:
        return self.config.num_agents

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def state_dim(self) -> int:
        return self._dynamics.state_dim

    @property
    def action_dims(self) -> tuple[int, ...]:
        return self._dynamics.action_dims

    @property
    def position_indices(self) -> list[Array]:
        return [p.copy() for p in self._positions]

    @property
    def goals(self) -> list[Array]:
        return [np.asarray(a.goal, dtype=float) for a in self.config.agents]

    @property
    def solver_config(self) -> SolverConfig:
        return self.config.solver

    @property
    def learn_config(self) -> LearnConfig:
        return self.config.learner

    def true_weights(self) -> list[Array] | None:
        if any(a.true_weights is None for a in self.config.agents):
            return None
        return [np.asarray(a.true_weights, dtype=float) for a in self.config.agents]

    def make_game(self, weights: Sequence[Array]) -> GameSpec:
        costs = make_cost_model(self.basis, weights, self._dynamics.action_dims)
        return GameSpec(
            dynamics=self._dynamics,
            costs=costs,
            horizon=self.config.horizon,
            noise=self._noise,
            initial_state=self._initial,
            temperatures=tuple(a.temperature for a in self.config.agents),
        )

    def task_stats_spec(self) -> TaskStatsSpec:
        """Velocity/separation naming for the built-in dynamics kinds."""
        c = self.config
        speeds = {}
        if c.dynamics_kind == "double_integrator":
            for i in range(c.num_agents):
                speeds[f"agent{i}"] = [4 * i + 2, 4 * i + 3]
        distances = {}
        for i in range(c.num_agents):
            for j in range(i + 1, c.num_agents):
                distances[f"agent{i}_agent{j}"] = (
                    list(self._positions[i]),
                    list(self._positions[j]),
                )
        return TaskStatsSpec(speeds=speeds, distances=distances)

    def to_dict(self) -> dict:
        """Canonical config dict; parse(to_dict(s)) reproduces the scenario."""
        c = self.config
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "name": c.name,
            "num_agents": c.num_agents,
            "horizon": c.horizon,
            "dt": c.dt,
            "dynamics": {"kind": c.dynamics_kind, **_jsonable(c.dynamics_params)},
            "noise": {"kind": c.noise_kind, **_jsonable(c.noise_params)},
            "agents": [],
        }
        if c.initial_kind != "default":
            out["initial_state"] = {"kind": c.initial_kind, **_jsonable(c.initial_params)}
        for agent in c.agents:
            block: dict[str, Any] = {
                "start": list(agent.start),
                "goal": list(agent.goal),
                "features": [],
                "temperature": agent.temperature,
            }
            for f in agent.features:
                if f.kind == "gaussian_proximity":
                    block["features"].append(
                        {"kind": f.kind, "target": f.target, "sigma": f.sigma}
                    )
                else:
                    block["features"].append({"kind": f.kind})
            if agent.true_weights is not None:
                block["true_weights"] = list(agent.true_weights)
            out["agents"].append(block)
        out["solver"] = asdict(c.solver)
        le = c.learner
        out["learner"] = {
            "learning_rate": le.learning_rate,
            "samples_per_expectation": le.samples_per_expectation,
            "max_outer_iterations": le.max_outer_iterations,
            "residual_tol": le.residual_tol,
            "mode": le.mode,
            "standardize_gaps": le.standardize_gaps,
            "effort_weight_floor": le.effort_weight_floor,
        }
        return out

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _jsonable(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        else:
            out[key] = value
    return out
