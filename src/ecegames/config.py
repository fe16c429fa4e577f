"""Scenario configuration: strict JSON schema and the game factory it induces.

A scenario file fully describes an experiment: dynamics kind and time step,
horizon, noise, initial-state distribution, each agent's features (with
optional ground-truth weights) and temperature, plus solver and learner
settings.  Parsing is strict: unknown keys anywhere are fatal, so an
experiment cannot silently drift when the schema evolves, and every number,
single or in nested lists, passes :func:`_coerce`, the one number rule, which
the weights and policy file readers use as well.

:func:`parse_scenario` reads a document in one pass.  It checks each block
and builds that block's runtime object before it reads the next: the
dynamics model and position layout, the noise model, the initial state and
each agent's features.  Every kind-tagged block (``dynamics``, ``noise``,
``initial_state`` and each feature) looks its kind up in ``_KINDS``, whose
entry holds the kind's keys and the function that builds its object.  The
parse also records the canonical document, which :meth:`Scenario.to_dict`
returns.
"""

from __future__ import annotations

import copy
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import dynamics as dyn
from .errors import ConfigError, InvalidWeightError
from .features import (
    ControlEffort,
    FeatureBasis,
    GaussianProximity,
    ReferenceTracking,
    control_effort_index,
    make_cost_model,
    straight_line_reference,
)
from .game import Array, GameSpec, InitialState, NoiseModel
from .ilq import SolverConfig
from .irl import LearnConfig

SCHEMA_VERSION = 1

_TOP_LEVEL = {"schema_version", "name", "num_agents", "horizon", "dt", "dynamics", "noise",
              "initial_state", "agents", "solver", "learner"}
_AGENT_KEYS = {"start", "goal", "features", "true_weights", "temperature"}


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


def _coerce(value: Any, type_: type, path: str, *, depth: int = 0, finite: bool = True) -> Any:
    """``value`` as ``type_``, or for ``depth`` d > 0 a JSON list of values of
    depth d - 1, each coerced, errors naming the element (``path[0][1]``): a
    number only from a JSON number (not a string or boolean), an int only
    from an integral one, a float only if finite (unless ``finite`` is
    false: ``dt`` and ``temperature`` check it)."""
    if depth:
        return [_coerce(x, type_, f"{path}[{k}]", depth=depth - 1, finite=finite)
                for k, x in enumerate(_list(value, path))]
    if type_ in (int, float) and isinstance(value, (str, bool)):
        what = "string" if isinstance(value, str) else "boolean"
        raise ConfigError(f"{path} must be a JSON number, got the {what} {value!r}")
    if type_ is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    try:  # not `with _values_of`: a generator context per matrix entry is slow
        value = type_(value)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int beyond float
        raise ConfigError(f"{path}: {exc}") from exc
    if finite and type_ is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return value


def _parse_fields(cls, block: Any, path: str):
    """``cls`` from a block whose keys are its fields, each coerced to the
    type of the field's default."""
    types = {f.name: type(f.default) for f in fields(cls)}
    _check_no_extras(block, set(types), path)
    values = {k: _coerce(v, types[k], f"{path}.{k}") for k, v in block.items()}
    with _values_of(path):
        return cls(**values)


# -- builders of the kind-tagged blocks ----------------------------------------


def _planar(model: Callable[[int, float], dyn.DynamicsModel], stride: int):
    """Dynamics builder of a library model whose agent i holds its position
    at state indices stride*i and stride*i + 1."""
    def build(block: dict, num_agents: int, dt: float):
        positions = [np.array([stride * i, stride * i + 1]) for i in range(num_agents)]
        return model(num_agents, dt), positions
    return build


def _linear(block: dict, num_agents: int, dt: float):
    if len(block["B"]) != num_agents:
        raise ConfigError("linear dynamics must provide one B block per agent")
    model = dyn.linear(block["A"], block["B"])
    positions = [np.asarray(p, dtype=int) for p in block["position_indices"]]
    if len(positions) != num_agents:
        raise ConfigError("position_indices must list one entry per agent")
    for p in positions:
        if np.any(p < 0) or np.any(p >= model.state_dim):
            raise ConfigError("position index out of state range")
    return model, positions


def _start_positions(n: int, positions: list[Array], agents: list[dict]) -> Array:
    """Default initial mean: every agent at its start, all else zero."""
    s = np.zeros(n)
    for p, agent in zip(positions, agents):
        s[p] = agent["start"]
    return s


def _start_headings(n: int, positions: list[Array], agents: list[dict]) -> Array:
    """Default unicycle initial mean: start positions, each heading toward the goal."""
    s = _start_positions(n, positions, agents)
    for i, agent in enumerate(agents):
        (x0, y0), (x1, y1) = agent["start"], agent["goal"]
        s[3 * i + 2] = np.arctan2(y1 - y0, x1 - x0)
    return s


def _explicit_start(n: int, positions: list[Array], agents: list[dict]) -> Array:
    raise ConfigError("linear dynamics requires an explicit initial_state")


def _matrix_noise(block: dict, n: int) -> NoiseModel:
    # An empty list is the (0, 0) covariance of zero-width noise (no noise).
    noise = NoiseModel(block["gain"], block["covariance"] or np.zeros((0, 0)))
    if noise.gain.shape[0] != n:
        raise ConfigError(
            f"noise: gain must have {n} rows (the state dimension), got {noise.gain.shape[0]}"
        )
    return noise


def _initial_state(block: dict, n: int) -> InitialState:
    key = "value" if "value" in block else "mean"
    initial = InitialState(mean=block[key], covariance=block.get("covariance"))
    if initial.mean.shape != (n,):
        raise ConfigError(f"initial_state {key} must have dimension {n}")
    return initial


class _Agent(NamedTuple):
    """What a feature builder reads: the agent's index, start and goal, every
    agent's position indices, and the horizon."""

    index: int
    start: list[float]
    goal: list[float]
    positions: list[Array]
    horizon: int


def _tracking(block: dict, agent: _Agent, path: str) -> ReferenceTracking:
    return ReferenceTracking(
        position_index=agent.positions[agent.index],
        reference=straight_line_reference(agent.start, agent.goal, agent.horizon),
    )


def _proximity(block: dict, agent: _Agent, path: str) -> GaussianProximity:
    target = block["target"]
    if not 0 <= target < len(agent.positions) or target == agent.index:
        raise ConfigError(f"{path}: invalid proximity target {target}")
    return GaussianProximity(
        position_index=agent.positions[agent.index],
        target_index=agent.positions[target],
        sigma=block["sigma"],
        target=target,
    )


@dataclass(frozen=True)
class _Kind:
    """One kind of a kind-tagged block.  ``keys`` are the keys it takes besides
    "kind", in document order, each with the entry type and list depth that
    :func:`_coerce` reads its value with (0: one number, 2: a matrix).
    ``build`` makes the block's object from the coerced block.  A dynamics
    kind also gives ``start``, the default initial-state mean."""

    keys: dict[str, tuple[type, int]]
    build: Callable[..., Any]
    start: Callable[[int, list[Array], list[dict]], Array] | None = None


# build(block, num_agents, dt) -> (model, positions) for dynamics,
# build(block, n) for noise and initial_state, build(block, agent, path) for features.
_KINDS: dict[str, dict[str, _Kind]] = {
    "dynamics": {
        "double_integrator": _Kind({}, _planar(dyn.double_integrator, 4), _start_positions),
        "unicycle": _Kind({}, _planar(dyn.unicycle, 3), _start_headings),
        "linear": _Kind({"A": (float, 2), "B": (float, 3), "position_indices": (int, 2)},
                        _linear, _explicit_start),
    },
    "noise": {
        "none": _Kind({}, lambda block, n: NoiseModel.none(n)),
        "scaled_identity": _Kind(
            {"scale": (float, 0)}, lambda block, n: NoiseModel.scaled_identity(n, block["scale"])
        ),
        "matrix": _Kind({"gain": (float, 2), "covariance": (float, 2)}, _matrix_noise),
    },
    "initial_state": {
        "fixed": _Kind({"value": (float, 1)}, _initial_state),
        "gaussian": _Kind({"mean": (float, 1), "covariance": (float, 2)}, _initial_state),
    },
    "feature": {
        "reference_tracking": _Kind({}, _tracking),
        "control_effort": _Kind({}, lambda block, agent, path: ControlEffort(agent=agent.index)),
        "gaussian_proximity": _Kind({"target": (int, 0), "sigma": (float, 0)}, _proximity),
    },
}


def _parse_kind(block: Any, name: str, path: str | None = None) -> tuple[dict, _Kind]:
    """The canonical form of the ``name`` block at ``path`` (default ``name``):
    its kind, then each key of the kind's entry with its value coerced; and
    that entry."""
    path = path or name
    kind = _require(block, "kind", path)
    if not isinstance(kind, str) or kind not in _KINDS[name]:
        where = "" if path == name else f"{path}: "
        raise ConfigError(f"{where}unknown {name} kind {kind!r}")
    entry = _KINDS[name][kind]
    _check_no_extras(block, {"kind", *entry.keys}, path)
    canonical = {"kind": kind}
    for key, (type_, depth) in entry.keys.items():
        canonical[key] = _coerce(_require(block, key, path), type_, f"{path}.{key}", depth=depth)
    return canonical, entry


def parse_scenario(data: dict) -> "Scenario":
    """Build a :class:`Scenario` from a config dict, rejecting unknown keys."""
    return Scenario(data)


def load_scenario(path: str | Path) -> "Scenario":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror or exc})") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(data)


class Scenario:
    """A parsed scenario: basis, dimensions, and the weights -> game factory."""

    def __init__(self, data: dict):
        """Check ``data`` block by block, building each block's object as it goes."""
        _check_no_extras(data, _TOP_LEVEL, "scenario")
        version = _require(data, "schema_version", "scenario")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        num_agents = _coerce(_require(data, "num_agents", "scenario"), int, "num_agents")
        horizon = _coerce(_require(data, "horizon", "scenario"), int, "horizon")
        dt = _coerce(_require(data, "dt", "scenario"), float, "dt", finite=False)
        if num_agents < 1 or horizon < 1 or not 0.0 < dt < np.inf:
            raise ConfigError("num_agents, horizon and dt must be positive (dt finite)")

        dynamics, dynamics_kind = _parse_kind(_require(data, "dynamics", "scenario"), "dynamics")
        with _values_of("dynamics"):
            self._dynamics, self._positions = dynamics_kind.build(dynamics, num_agents, dt)
        n = self._dynamics.state_dim
        noise, entry = _parse_kind(data.get("noise", {"kind": "none"}), "noise")
        with _values_of("noise"):
            self._noise = entry.build(noise, n)
        initial = data.get("initial_state")
        if initial is not None:
            initial, entry = _parse_kind(initial, "initial_state")
            with _values_of("initial_state"):
                self._initial = entry.build(initial, n)

        agent_blocks = _list(_require(data, "agents", "scenario"), "agents")
        if len(agent_blocks) != num_agents:
            raise ConfigError(f"expected {num_agents} agent blocks, got {len(agent_blocks)}")
        agents, basis = [], []
        for i, block in enumerate(agent_blocks):
            path = f"agents[{i}]"
            _check_no_extras(block, _AGENT_KEYS, path)
            # Start and goal come first: the tracking feature is built from them.
            start = _coerce(_require(block, "start", path), float, f"{path}.start", depth=1)
            goal = _coerce(_require(block, "goal", path), float, f"{path}.goal", depth=1)
            d = self._positions[i].shape[0]
            if len(start) != d or len(goal) != d:
                raise ConfigError(f"{path}: start/goal must have {d} coordinates for this dynamics")
            agent = _Agent(i, start, goal, self._positions, horizon)
            features, built = [], []
            feature_blocks = _list(_require(block, "features", path), f"{path}.features")
            for k, fblock in enumerate(feature_blocks):
                fpath = f"{path}.features[{k}]"
                feature, entry = _parse_kind(fblock, "feature", fpath)
                with _values_of(fpath):
                    built.append(entry.build(feature, agent, fpath))
                features.append(feature)
            try:
                control_effort_index(built)
            except InvalidWeightError as exc:
                raise ConfigError(f"{path}.{exc}") from exc
            basis.append(tuple(built))
            true_weights = block.get("true_weights")
            if true_weights is not None:
                true_weights = _coerce(true_weights, float, f"{path}.true_weights", depth=1)
                if len(true_weights) != len(features):
                    raise ConfigError(f"{path}: true_weights length must match features")
            temperature = _coerce(
                block.get("temperature", 1.0), float, f"{path}.temperature", finite=False
            )
            if not 0.0 < temperature < np.inf:
                raise ConfigError(f"{path}: temperature must be positive and finite")
            agents.append({"start": start, "goal": goal, "features": features,
                           "temperature": temperature})
            if true_weights is not None:
                agents[-1]["true_weights"] = true_weights
        self.basis = FeatureBasis(agents=tuple(basis))
        if initial is None:
            self._initial = InitialState(mean=dynamics_kind.start(n, self._positions, agents))

        self._solver = _parse_fields(SolverConfig, data.get("solver", {}), "solver")
        self._learner = _parse_fields(LearnConfig, data.get("learner", {}), "learner")
        name = data.get("name", "scenario")
        if not isinstance(name, str):
            raise ConfigError(f"name must be a JSON string, got {name!r}")
        self._doc = {
            "schema_version": SCHEMA_VERSION,
            "name": name,
            "num_agents": num_agents,
            "horizon": horizon,
            "dt": dt,
            "dynamics": dynamics,
            "noise": noise,
            "agents": agents,
            **({} if initial is None else {"initial_state": initial}),
            **{key: {f.name: getattr(settings, f.name) for f in fields(settings)}
               for key, settings in (("solver", self._solver), ("learner", self._learner))},
        }

    # -- accessors ----------------------------------------------------------

    @property
    def num_agents(self) -> int:
        return self._doc["num_agents"]

    @property
    def horizon(self) -> int:
        return self._doc["horizon"]

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
        return [np.asarray(a["goal"], dtype=float) for a in self._doc["agents"]]

    @property
    def solver_config(self) -> SolverConfig:
        return self._solver

    @property
    def learn_config(self) -> LearnConfig:
        return self._learner

    def true_weights(self) -> list[Array] | None:
        agents = self._doc["agents"]
        if any("true_weights" not in a for a in agents):
            return None
        return [np.asarray(a["true_weights"], dtype=float) for a in agents]

    def make_game(self, weights: Sequence[Array]) -> GameSpec:
        costs = make_cost_model(self.basis, weights, self._dynamics.action_dims)
        return GameSpec(
            dynamics=self._dynamics,
            costs=costs,
            horizon=self.horizon,
            noise=self._noise,
            initial_state=self._initial,
            temperatures=tuple(a["temperature"] for a in self._doc["agents"]),
        )

    def to_dict(self) -> dict:
        """Canonical config dict; parse(to_dict(s)) reproduces the scenario."""
        return copy.deepcopy(self._doc)
