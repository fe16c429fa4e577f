"""Scenario configuration: strict JSON schema and the game factory it induces.

A scenario file fully describes an experiment: dynamics kind and time step,
horizon, noise, initial-state distribution, each agent's features (with
optional ground-truth weights) and temperature, plus solver and learner
settings.  Parsing is strict: unknown keys anywhere are fatal, so an
experiment cannot silently drift when the schema evolves.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
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

SCHEMA_VERSION = 1

# Every kind of each kind-tagged block, with the keys it takes besides "kind".
# Parsing reads the keys in this order, so to_dict writes them in it too.
_BLOCK_KINDS = {
    "dynamics": {
        "double_integrator": (),
        "unicycle": (),
        "linear": ("A", "B", "position_indices"),
    },
    "noise": {"none": (), "scaled_identity": ("scale",), "matrix": ("gain", "covariance")},
    "initial_state": {"fixed": ("value",), "gaussian": ("mean", "covariance")},
}


@contextmanager
def _values_of(path: str):
    """Report a TypeError or ValueError raised in the block as a ConfigError on ``path``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(d: Any, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be a JSON object")
    return d


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a JSON list")
    return value


def _require(d: dict, key: str, path: str) -> Any:
    if key not in _object(d, path):
        raise ConfigError(f"missing key {key!r} in {path}")
    return d[key]


def _check_no_extras(d: dict, allowed: set[str], path: str) -> None:
    extras = set(_object(d, path)) - allowed
    if extras:
        raise ConfigError(f"unknown key {sorted(extras)[0]!r} in {path}")


def _coerce(value: Any, type_: type, path: str, *, finite: bool = True) -> Any:
    """``value`` as ``type_``: a bool only from a JSON boolean, a number not
    from a JSON string, an int not from a boolean or a non-integral number, a
    float only if finite (unless ``finite`` is false: ``dt`` and
    ``temperature`` check their own range)."""
    if type_ is bool and not isinstance(value, bool):
        raise ConfigError(f"{path} must be a JSON boolean (true or false), got {value!r}")
    if type_ in (int, float) and isinstance(value, str):
        raise ConfigError(f"{path} must be a JSON number, got the string {value!r}")
    if type_ is int and (
        isinstance(value, bool) or isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    with _values_of(path):
        value = type_(value)
    if finite and type_ is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return value


def _settable(cls) -> list:
    """Fields of a settings dataclass that a scenario file may set."""
    return [f for f in fields(cls) if f.metadata.get("config", True)]


def _parse_fields(cls, block: Any, path: str):
    """``cls`` from a block whose keys are its settable fields, each coerced to
    the type of the field's default."""
    types = {f.name: type(f.default) for f in _settable(cls)}
    _check_no_extras(block, set(types), path)
    values = {k: _coerce(v, types[k], f"{path}.{k}") for k, v in block.items()}
    with _values_of(path):
        return cls(**values)


def _parse_kind(block: Any, name: str) -> tuple[str, dict]:
    """(kind, params) of a kind-tagged block, its keys taken from _BLOCK_KINDS."""
    kind = _require(block, "kind", name)
    if not isinstance(kind, str) or kind not in _BLOCK_KINDS[name]:
        raise ConfigError(f"unknown {name} kind {kind!r}")
    keys = _BLOCK_KINDS[name][kind]
    _check_no_extras(block, {"kind", *keys}, name)
    return kind, {key: _require(block, key, name) for key in keys}


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
    top_level = {"schema_version", "name", "num_agents", "horizon", "dt", "dynamics", "noise",
                 "initial_state", "agents", "solver", "learner"}
    _check_no_extras(data, top_level, "scenario")
    version = _require(data, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    num_agents = _coerce(_require(data, "num_agents", "scenario"), int, "num_agents")
    horizon = _coerce(_require(data, "horizon", "scenario"), int, "horizon")
    dt = _coerce(_require(data, "dt", "scenario"), float, "dt", finite=False)
    if num_agents < 1 or horizon < 1 or not 0.0 < dt < np.inf:
        raise ConfigError("num_agents, horizon and dt must be positive (dt finite)")

    kind, params = _parse_kind(_require(data, "dynamics", "scenario"), "dynamics")
    noise_kind, noise_params = _parse_kind(data.get("noise", {"kind": "none"}), "noise")
    initial_block = data.get("initial_state")
    if initial_block is None:
        initial_kind, initial_params = "default", {}
    else:
        initial_kind, initial_params = _parse_kind(initial_block, "initial_state")

    agents = []
    agent_blocks = _list(_require(data, "agents", "scenario"), "agents")
    if len(agent_blocks) != num_agents:
        raise ConfigError(f"expected {num_agents} agent blocks, got {len(agent_blocks)}")
    for i, block in enumerate(agent_blocks):
        path = f"agents[{i}]"
        _check_no_extras(
            block, {"start", "goal", "features", "true_weights", "temperature"}, path
        )
        feats = []
        for k, fblock in enumerate(_list(_require(block, "features", path), f"{path}.features")):
            fpath = f"{path}.features[{k}]"
            fkind = _require(fblock, "kind", fpath)
            if fkind == "gaussian_proximity":
                _check_no_extras(fblock, {"kind", "target", "sigma"}, fpath)
                target = _coerce(_require(fblock, "target", fpath), int, f"{fpath}.target")
                sigma = _coerce(_require(fblock, "sigma", fpath), float, f"{fpath}.sigma")
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
            true_w = _floats(true_w, f"{path}.true_weights")
            if len(true_w) != len(feats):
                raise ConfigError(f"{path}: true_weights length must match features")
        temperature = _coerce(
            block.get("temperature", 1.0), float, f"{path}.temperature", finite=False
        )
        if not 0.0 < temperature < np.inf:
            raise ConfigError(f"{path}: temperature must be positive and finite")
        agents.append(
            AgentSpec(
                start=_floats(_require(block, "start", path), f"{path}.start"),
                goal=_floats(_require(block, "goal", path), f"{path}.goal"),
                features=tuple(feats),
                true_weights=true_w,
                temperature=temperature,
            )
        )

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
        solver=_parse_fields(SolverConfig, data.get("solver", {}), "solver"),
        learner=_parse_fields(LearnConfig, data.get("learner", {}), "learner"),
    )
    return Scenario(config)


def _floats(values: Any, path: str) -> tuple[float, ...]:
    return tuple(_coerce(x, float, path) for x in _list(values, path))


def load_scenario(path: str | Path) -> "Scenario":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror or exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(data)


class Scenario:
    """A parsed scenario: basis, dimensions, and the weights -> game factory."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        with _values_of("dynamics"):
            self._dynamics = self._build_dynamics()
            self._positions = self._build_positions()
        self._validate_geometry()
        with _values_of("agents"):
            self.basis = self._build_basis()
        with _values_of("noise"):
            self._noise = self._build_noise()
        with _values_of("initial_state"):
            self._initial = self._build_initial_state()

    # -- construction ------------------------------------------------------

    def _build_dynamics(self) -> dyn.DynamicsModel:
        c = self.config
        if c.dynamics_kind == "double_integrator":
            return dyn.double_integrator(c.num_agents, c.dt)
        if c.dynamics_kind == "unicycle":
            return dyn.unicycle(c.num_agents, c.dt)
        if len(c.dynamics_params["B"]) != c.num_agents:
            raise ConfigError("linear dynamics must provide one B block per agent")
        return dyn.linear(c.dynamics_params["A"], c.dynamics_params["B"])

    def _build_positions(self) -> list[Array]:
        c = self.config
        if c.dynamics_kind == "linear":
            idx = [np.asarray(p, dtype=int) for p in c.dynamics_params["position_indices"]]
            if len(idx) != c.num_agents:
                raise ConfigError("position_indices must list one entry per agent")
            for p in idx:
                if p.ndim != 1:
                    raise ConfigError("dynamics.position_indices: each entry must be a list")
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
            return NoiseModel.scaled_identity(n, float(c.noise_params["scale"]))
        if c.noise_kind == "matrix":
            return NoiseModel(**c.noise_params)
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
        name = "value" if c.initial_kind == "fixed" else "mean"
        p = c.initial_params
        initial = InitialState(mean=p[name], covariance=p.get("covariance"))
        if initial.mean.shape != (n,):
            raise ConfigError(f"initial_state {name} must have dimension {n}")
        return initial

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

    def to_dict(self) -> dict:
        """Canonical config dict; parse(to_dict(s)) reproduces the scenario."""
        c = self.config
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "name": c.name,
            "num_agents": c.num_agents,
            "horizon": c.horizon,
            "dt": c.dt,
            "dynamics": {"kind": c.dynamics_kind, **c.dynamics_params},
            "noise": {"kind": c.noise_kind, **c.noise_params},
            "agents": [],
        }
        if c.initial_kind != "default":
            out["initial_state"] = {"kind": c.initial_kind, **c.initial_params}
        for agent in c.agents:
            block: dict[str, Any] = {
                "start": list(agent.start),
                "goal": list(agent.goal),
                "features": [
                    {k: v for k, v in asdict(f).items() if v is not None} for f in agent.features
                ],
                "temperature": agent.temperature,
            }
            if agent.true_weights is not None:
                block["true_weights"] = list(agent.true_weights)
            out["agents"].append(block)
        for name in ("solver", "learner"):
            settings = getattr(c, name)
            out[name] = {f.name: getattr(settings, f.name) for f in _settable(settings)}
        return out
