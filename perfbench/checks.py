"""Output checks for the benchmark's CLI commands.

Every check raises :class:`CheckFailed` on a wrong output and otherwise
returns the command's work count (solver iterations, trajectories, rows or
agent updates), which the harness turns into per-work rates.

Tolerances are loose enough for reordered floating-point sums (results that
move by a few ulps) and tight enough to reject a wrong answer:

* solve: converged nominal states within ``SOLVE_STATE_TOL`` of the stored
  reference, a mean rollout of the written policy within ``ROLLOUT_TOL`` of
  its own nominal, every covariance symmetric positive definite;
* gen-demos: exact row count and header, byte-identical reruns of one seed,
  and the per-step mean state within ``DEMO_MEAN_SE`` standard errors of a
  stored 1000-trial reference mean;
* eval: all three tables present, KL values finite and non-negative;
* learn: weights within the stored per-weight tolerance (a multiple of the
  learner-seed spread of capped learning runs, see ``make_reference.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from ecegames import load_scenario, simulate_mean, trajio
from ecegames.errors import IngestError

SOLVE_STATE_TOL = 1e-3
ROLLOUT_TOL = 1e-6
SYMMETRY_TOL = 1e-9
DEMO_MEAN_SE = 6.0
CHUNK_BYTES = 1 << 16


class CheckFailed(Exception):
    """A command exited with an unexpected code or wrote a wrong output."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_exit(rc: int | None, expected: int, work: int) -> int:
    """The check of a warm-up command: only its exit code."""
    _require(rc == expected, f"exit code {rc}, expected {expected}")
    return work


def _read_csv(path: Path) -> list[list[str]]:
    _require(path.is_file(), f"{path.name}: missing")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_solve(
    rc: int,
    stdout: str,
    config: Path,
    policy_path: Path,
    trace_path: Path,
    checkpoints: list[int],
    reference_states: list[list[float]],
) -> int:
    """Validate one ``solve`` command; returns its iteration count."""
    _require(rc == 0 and "converged in" in stdout, f"solve exit code {rc}: {stdout.strip()}")
    scenario = load_scenario(config)
    rows = _read_csv(trace_path)
    _require(len(rows) >= 2 and rows[0][:2] == ["iteration", "max_deviation"], "bad trace")
    last_dev = float(rows[-1][1])
    _require(
        last_dev < scenario.solver_config.convergence_tol,
        f"trace not converged (last deviation {last_dev})",
    )
    try:
        policy = trajio.read_policy(policy_path)
    except IngestError as exc:
        raise CheckFailed(str(exc)) from exc
    for i, cov in enumerate(policy.covariances):
        _require(np.all(np.isfinite(cov)), f"agent {i}: non-finite covariance")
        scale = max(1.0, float(np.max(np.abs(cov))))
        asym = float(np.max(np.abs(cov - np.swapaxes(cov, 1, 2))))
        _require(asym <= SYMMETRY_TOL * scale, f"agent {i}: covariance not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise CheckFailed(f"agent {i}: covariance not positive definite") from None
    game = scenario.make_game(scenario.true_weights())
    rolled = simulate_mean(game, policy)
    drift = float(np.max(np.abs(rolled.states - policy.nominal_states)))
    _require(drift <= ROLLOUT_TOL, f"mean rollout leaves the nominal by {drift:.3e}")
    error = float(np.max(np.abs(policy.nominal_states[checkpoints] - np.asarray(reference_states))))
    _require(error <= SOLVE_STATE_TOL, f"nominal states off the reference by {error:.3e}")
    return len(rows) - 1


def trajectory_header(state_dim: int, action_dims: list[int]) -> str:
    """The documented trajectory CSV header, spelled out here rather than
    taken from ``trajio`` so that a change to the writer cannot pass itself."""
    cols = ["trial", "t"] + [f"s_{k + 1}" for k in range(state_dim)]
    for i, m in enumerate(action_dims):
        cols += [f"a{i + 1}_{k + 1}" for k in range(m)]
    return ",".join(cols)


def demo_mean_states(path: Path, state_dim: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean and standard error of the states in a trajectory CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(2, 2 + state_dim))
    states = data.reshape(-1, horizon, state_dim)
    se = states.std(axis=0, ddof=1) / np.sqrt(states.shape[0])
    return states.mean(axis=0), se


def check_gen_demos(
    rc: int,
    path: Path,
    trials: int,
    horizon: int,
    header: str,
    seen_digests: dict,
    key: tuple,
    reference: dict,
) -> int:
    """Validate one ``gen-demos`` command; returns the trajectory count.

    ``seen_digests`` maps (scenario, seed) to the digest of the first file
    written for it in this run: a rerun must reproduce it byte for byte, so
    only the first file of each key is compared with the reference mean.
    That ``read_trajectories`` accepts the file is checked by the
    ``validate`` command the workload runs on it next.  The file is read in
    chunks, so that the check's memory stays below the program's own.
    """
    _require(rc == 0, f"gen-demos exit code {rc}")
    _require(path.is_file(), f"{path.name}: missing")
    with open(path, "rb") as fh:
        first_line = fh.readline()
        sha, newlines = hashlib.sha256(first_line), first_line.count(b"\n")
        for chunk in iter(lambda: fh.read(CHUNK_BYTES), b""):
            sha.update(chunk)
            newlines += chunk.count(b"\n")
    _require(
        first_line.decode("utf-8", "replace").rstrip("\n") == header,
        f"{path.name}: unexpected header",
    )
    rows = newlines - 1
    _require(rows == trials * horizon, f"{path.name}: {rows} rows, expected {trials * horizon}")
    digest = sha.hexdigest()
    if key in seen_digests:
        _require(seen_digests[key] == digest, f"{path.name}: rerun with the same seed differs")
        return trials
    seen_digests[key] = digest
    ref = np.asarray(reference["mean_states"])
    steps = reference["checkpoints"]
    mean, se = demo_mean_states(path, ref.shape[1], horizon)
    allowed = DEMO_MEAN_SE * np.sqrt(2.0) * se[steps] + 1e-9
    excess = np.abs(mean[steps] - ref) - allowed
    _require(
        float(np.max(excess)) <= 0.0,
        f"{path.name}: demo mean state off the reference (worst excess {np.max(excess):.3e})",
    )
    return trials


def check_validate(rc: int, stdout: str, trials: int, horizon: int) -> int:
    """Validate one ``validate`` command; returns the rows it ingested."""
    expected = f"OK ({trials} trajectories, horizon {horizon})"
    _require(rc == 0 and expected in stdout, f"validate exit code {rc}: {stdout.strip()}")
    return trials * horizon


def check_eval(rc: int, out_dir: Path, feature_counts: list[int], horizon: int, trials: int) -> int:
    """Validate one ``eval`` command; returns the model trials it sampled."""
    _require(rc == 0, f"eval exit code {rc}")
    kl = _read_csv(out_dir / "kl.csv")
    _require(kl[0] == ["agent", "feature", "kl"], "kl.csv: bad header")
    _require(len(kl) - 1 == sum(feature_counts), "kl.csv: wrong row count")
    for row in kl[1:]:
        value = float(row[2])
        _require(np.isfinite(value) and value >= 0.0, f"kl.csv: invalid KL {row[2]}")
    goal = _read_csv(out_dir / "goal_stats.csv")
    _require(len(goal) - 1 == len(feature_counts), "goal_stats.csv: wrong row count")
    _require(all(np.isfinite(float(x)) for row in goal[1:] for x in row[1:]), "goal_stats.csv")
    rmse = _read_csv(out_dir / "rmse.csv")
    _require(len(rmse) - 1 == horizon, "rmse.csv: wrong row count")
    _require(all(np.isfinite(float(row[1])) for row in rmse[1:]), "rmse.csv: non-finite")
    return trials


def check_learn(
    rc: int,
    stdout: str,
    weights_path: Path,
    trace_path: Path,
    num_agents: int,
    sweeps: int,
    reference: dict,
) -> int:
    """Validate one capped ``learn`` command; returns its agent updates.

    A capped run ends with exit code 1 ("NOT converged") by design; exit
    code 0 is accepted only with a trace of whole sweeps.
    """
    _require(
        (rc == 1 and "NOT converged" in stdout) or (rc == 0 and "converged" in stdout),
        f"learn exit code {rc}: {stdout.strip()}",
    )
    rows = _read_csv(trace_path)
    _require(rows and rows[0][:2] == ["iteration", "agent"], "learn trace: bad header")
    updates = {(int(r[0]), int(r[1])) for r in rows[1:]}
    done = max((it for it, _ in updates), default=0)
    _require(
        updates == {(it, a) for it in range(1, done + 1) for a in range(num_agents)},
        "learn trace: records are not whole sweeps",
    )
    _require(done == sweeps or (rc == 0 and done < sweeps), f"learn trace: {done} sweeps")
    try:
        with open(weights_path, "r", encoding="utf-8") as fh:
            weights = np.concatenate([np.asarray(w, dtype=float) for w in json.load(fh)["weights"]])
    except (OSError, KeyError, ValueError) as exc:
        raise CheckFailed(f"{weights_path.name}: {exc}") from exc
    ref = np.asarray(reference["mean"])
    tol = np.asarray(reference["tolerance"])
    _require(weights.shape == ref.shape, f"{weights_path.name}: wrong weight count")
    _require(bool(np.all(np.isfinite(weights))), f"{weights_path.name}: non-finite weights")
    worst = int(np.argmax(np.abs(weights - ref) / tol))
    _require(
        abs(weights[worst] - ref[worst]) <= tol[worst],
        f"weight {worst} = {weights[worst]:.4f}, reference {ref[worst]:.4f} +- {tol[worst]:.4f}",
    )
    return len(updates)
