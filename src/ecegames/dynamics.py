"""Dynamics models and the standard model library.

A :class:`DynamicsModel` bundles the drift of the state update

    s_{t+1} = f(t, s_t, a^1_t, ..., a^N_t) + noise

with evaluators for its Jacobians A_t = D_s f and B^j_t = D_{a^j} f at a
point.  Time steps are 1-based everywhere; the drift is applied for
t = 1..T-1 of a horizon-T game.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

Array = npt.NDArray[np.float64]

StepFn = Callable[[int, Array, Sequence[Array]], Array]
JacobianFn = Callable[[int | Array, Array, Sequence[Array]], tuple[Array, list[Array]]]


@dataclass(frozen=True)
class DynamicsModel:
    """Drift and Jacobian evaluators for the shared state update.

    ``step(t, s, actions)`` returns the next-state mean (length ``state_dim``).
    ``jacobians(t, s, actions)`` returns ``(A, [B_1, ..., B_N])`` with shapes
    (n, n) and (n, m_j), evaluated at the given point.

    Like the :class:`~ecegames.game.CostModel` callables, ``jacobians`` (a
    custom one too) broadcasts over a leading time axis: for ``t`` an int
    array of K steps, ``s`` (K, n) and ``actions[j]`` (K, m_j) it returns A
    (K, n, n) and B_j (K, n, m_j), row k equal to the one-row call.

    ``linear_maps`` is (A (n, n), B (n, K)), B = [B_1 ... B_N] on the
    concatenated actions (K = sum m_j), for a model built by :func:`linear`
    and None for every other model.  Only :func:`linear` sets it; it is not a
    constructor argument.  :func:`~ecegames.simulate.simulate_mean` rolls a
    model that has it out through the closed loop of the feedback.
    """

    state_dim: int
    action_dims: tuple[int, ...]
    step: StepFn
    jacobians: JacobianFn
    linear_maps: tuple[Array, Array] | None = field(default=None, init=False, repr=False)

    @property
    def num_agents(self) -> int:
        return len(self.action_dims)


def linear(A: Array, Bs: Sequence[Array]) -> DynamicsModel:
    """Time-invariant linear drift s' = A s + sum_j B_j a_j."""
    A = np.asarray(A, dtype=float)
    Bs = [np.asarray(B, dtype=float) for B in Bs]
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    for B in Bs:
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B block shape {B.shape} inconsistent with state dim {n}")
    action_dims = tuple(B.shape[1] for B in Bs)

    def step(t: int, s: Array, actions: Sequence[Array]) -> Array:
        out = A @ s
        for B, a in zip(Bs, actions):
            out += B @ a
        return out

    def jacobians(t: int | Array, s: Array, actions: Sequence[Array]):
        reps = s.shape[:-1] + (1, 1)
        return np.tile(A, reps), [np.tile(B, reps) for B in Bs]

    model = DynamicsModel(n, action_dims, step, jacobians)
    B_joint = np.concatenate([np.empty((n, 0)), *Bs], axis=1)
    object.__setattr__(model, "linear_maps", (A, B_joint))
    return model


def double_integrator(num_agents: int, dt: float) -> DynamicsModel:
    """Planar point masses under acceleration control (Euler discretization).

    Per-agent state block (x, y, vx, vy), action (ax, ay):

        p' = p + dt * v,    v' = v + dt * a.

    The joint model is linear, so this delegates to :func:`linear`.
    """
    n = 4 * num_agents
    block = np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    A = np.zeros((n, n))
    Bs = []
    for i in range(num_agents):
        sl = slice(4 * i, 4 * i + 4)
        A[sl, sl] = block
        B = np.zeros((n, 2))
        B[4 * i + 2, 0] = dt
        B[4 * i + 3, 1] = dt
        Bs.append(B)
    return linear(A, Bs)


def unicycle(num_agents: int, dt: float) -> DynamicsModel:
    """Planar unicycles with speed and turn-rate control (Euler discretization).

    Per-agent state block (x, y, theta), action (v, omega):

        x' = x + dt * v cos(theta),  y' = y + dt * v sin(theta),
        theta' = theta + dt * omega.

    ``step`` broadcasts over leading axes like ``jacobians``: ``s`` (..., n)
    and ``actions[j]`` (..., 2) give the next states (..., n).
    """
    n = 3 * num_agents
    action_dims = tuple(2 for _ in range(num_agents))

    def step(t: int, s: Array, actions: Sequence[Array]) -> Array:
        # Every agent at once, on the last axis: (v_1, omega_1, v_2, ...) and
        # the increments (dt v cos theta, dt v sin theta, dt omega) per agent.
        a = np.concatenate(actions, axis=-1)
        th = s[..., 2::3]
        dv = dt * a[..., 0::2]
        inc = np.empty(s.shape)
        np.multiply(dv, np.cos(th), out=inc[..., 0::3])
        np.multiply(dv, np.sin(th), out=inc[..., 1::3])
        np.multiply(dt, a[..., 1::2], out=inc[..., 2::3])
        return s + inc

    def jacobians(t: int | Array, s: Array, actions: Sequence[Array]):
        lead = s.shape[:-1]
        A = np.tile(np.eye(n), lead + (1, 1))
        Bs = []
        for i in range(num_agents):
            th = s[..., 3 * i + 2]
            v = actions[i][..., 0]
            A[..., 3 * i, 3 * i + 2] = -dt * v * np.sin(th)
            A[..., 3 * i + 1, 3 * i + 2] = dt * v * np.cos(th)
            B = np.zeros(lead + (n, 2))
            B[..., 3 * i, 0] = dt * np.cos(th)
            B[..., 3 * i + 1, 0] = dt * np.sin(th)
            B[..., 3 * i + 2, 1] = dt
            Bs.append(B)
        return A, Bs

    return DynamicsModel(n, action_dims, step, jacobians)

