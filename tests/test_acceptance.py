"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they complete).
"""

import csv
import json
import time

import numpy as np
import pytest

from ecegames import (
    SolverConfig,
    dynamics,
    rollout_batch,
    simulate_mean,
    solve_ece,
    solve_lq_ece,
    trajio,
)
from ecegames.cli import main
from ecegames.config import parse_scenario
from ecegames.features import ControlEffort, GaussianProximity, ReferenceTracking
from ecegames.irl import run_mairl
from ecegames.lq import LqStageGame
from ecegames.metrics import kl_divergence_per_feature

from conftest import game_spec_from_data, random_lq_data, stage_game_from_data
from oracles import (
    absolute_offsets_per_step,
    central_difference_gradient,
    central_difference_hessian,
    central_difference_jacobian,
    deterministic_nash_lq,
    mean_actions_per_agent,
    relative_error,
    textbook_lqr,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_lqr_reduction():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst_gain = worst_cov = 0.0
    for _ in range(50):
        A, Bs, Qs, ls, Rs, T = random_lq_data(rng, num_agents=1, n=int(rng.integers(1, 5)))
        game = stage_game_from_data(A, Bs, Qs, [np.zeros_like(ls[0])], Rs, T)
        sol = solve_lq_ece(game)
        gains, values = textbook_lqr(A, Bs[0], Qs[0], Rs[0][0], T)
        for k, K in enumerate(gains):
            worst_gain = max(worst_gain, float(np.max(np.abs(sol.policies.gains[0][k] - K))))
            cov_ref = np.linalg.inv(Rs[0][0] + Bs[0].T @ values[k + 1] @ Bs[0])
            worst_cov = max(
                worst_cov, float(np.max(np.abs(sol.policies.covariances[0][k] - cov_ref)))
            )
    elapsed = time.monotonic() - t0
    ok = worst_gain < 1e-9 and worst_cov < 1e-9 and elapsed < 1.0
    report(
        1,
        ok,
        f"50 single-agent games: max gain err {worst_gain:.2e}, "
        f"max covariance err {worst_cov:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_deterministic_game_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    worst = 0.0
    temperature_clean = True
    for _ in range(50):
        A, Bs, Qs, ls, Rs, T = random_lq_data(rng, cross_terms=True)
        game = stage_game_from_data(A, Bs, Qs, ls, Rs, T)
        sol = solve_lq_ece(game)
        P_ref, a_ref = deterministic_nash_lq(A, Bs, Qs, ls, Rs, T)
        N = len(Bs)
        for i in range(N):
            for k in range(T - 1):
                worst = max(worst, float(np.max(np.abs(sol.policies.gains[i][k] - P_ref[i][k]))))
                worst = max(worst, float(np.max(np.abs(sol.policies.offsets[i][k] - a_ref[i][k]))))
        hot = solve_lq_ece(game, temperatures=tuple(2.5 for _ in range(N)))
        for i in range(N):
            if not (
                np.array_equal(sol.policies.gains[i], hot.policies.gains[i])
                and np.array_equal(sol.policies.offsets[i], hot.policies.offsets[i])
            ):
                temperature_clean = False
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and temperature_clean and elapsed < 5.0
    report(
        2,
        ok,
        f"50 multi-agent games: max gain/offset err {worst:.2e}, "
        f"temperature leaves means bitwise unchanged: {temperature_clean}, {elapsed:.2f}s",
    )


def test_criterion_3_equilibrium_fixed_point():
    # Scalar two-agent LQ-Gaussian game, checked at the first of two stages.
    t0 = time.monotonic()
    A = np.array([[0.9]])
    B = [np.array([[0.8]]), np.array([[1.1]])]
    Q = [np.array([[1.2]]), np.array([[0.7]])]
    l = [np.array([0.3]), np.array([-0.2])]
    R = (
        (np.array([[1.0]]), np.array([[0.5]])),
        (np.array([[0.0]]), np.array([[1.4]])),
    )
    T = 2
    game = LqStageGame(
        A=np.tile(A, (T - 1, 1, 1)),
        B=tuple(np.tile(b, (T - 1, 1, 1)) for b in B),
        Q=tuple(np.tile(q, (T, 1, 1)) for q in Q),
        l=tuple(np.tile(v, (T, 1)) for v in l),
        R=R,
    )
    sol = solve_lq_ece(game)

    def stage_cost(i, s, a1, a2):
        return (
            0.5 * (Q[i][0, 0] * s * s + R[i][0][0, 0] * a1 * a1 + R[i][1][0, 0] * a2 * a2)
            + l[i][0] * s
        )

    s = 0.7
    draws = 30_000
    rng = np.random.default_rng(3003)
    max_dev_over_se = 0.0
    for i in range(2):
        j = 1 - i
        mu_i = float(mean_actions_per_agent(sol.policies, 0, np.array([s]))[i][0])
        var_i = float(sol.policies.covariances[i][0, 0, 0])
        mu_j = float(mean_actions_per_agent(sol.policies, 0, np.array([s]))[j][0])
        var_j = float(sol.policies.covariances[j][0, 0, 0])
        term_std = [float(np.sqrt(sol.policies.covariances[k][1, 0, 0])) for k in range(2)]
        grid = mu_i + 2.0 * np.sqrt(var_i) * np.linspace(-1.0, 1.0, 9)

        # Common random numbers across the grid sharpen the comparison.
        b = rng.normal(mu_j, np.sqrt(var_j), size=draws)
        w = rng.normal(0.0, 1.0, size=draws)
        cT = [rng.normal(0.0, term_std[k], size=draws) for k in range(2)]

        values = np.empty(9)
        ses = np.empty(9)
        for g, a in enumerate(grid):
            own = np.full(draws, a)
            acts = [own, b] if i == 0 else [b, own]
            s2 = A[0, 0] * s + B[0][0, 0] * acts[0] + B[1][0, 0] * acts[1] + w
            total = stage_cost(i, s, acts[0], acts[1]) + stage_cost(i, s2, cT[0], cT[1])
            q_bar = float(np.mean(total))
            ses[g] = float(np.std(total, ddof=1) / np.sqrt(draws))
            log_pi = -0.5 * (a - mu_i) ** 2 / var_i - 0.5 * np.log(2 * np.pi * var_i)
            values[g] = log_pi + q_bar
        const = float(np.mean(values))
        max_dev_over_se = max(max_dev_over_se, float(np.max(np.abs(values - const) / (3 * ses))))
    elapsed = time.monotonic() - t0
    ok = max_dev_over_se < 1.0 and elapsed < 120.0
    report(
        3,
        ok,
        f"max |log pi + Qbar - const| = {max_dev_over_se:.2f} of the 3-SE budget "
        f"over 9-point grids, {draws} rollouts/point, {elapsed:.1f}s",
    )


def test_criterion_4_nonlinear_solver(crossing_scenario):
    t0 = time.monotonic()
    game = crossing_scenario.make_game(crossing_scenario.true_weights())
    cfg = crossing_scenario.solver_config
    sol = solve_ece(game, config=cfg)
    converged = sol.trace.converged and len(sol.trace) <= 100
    resolve = solve_ece(game, init=sol.policies, config=cfg)
    stationary = (
        float(
            np.max(
                np.linalg.norm(
                    resolve.policies.nominal_states - sol.policies.nominal_states, axis=1
                )
            )
        )
        < cfg.convergence_tol
    )

    rng = np.random.default_rng(404)
    lq_ok = True
    worst = 0.0
    for _ in range(10):
        data = random_lq_data(rng)
        lq_game = game_spec_from_data(*data, rng=rng)
        direct = solve_lq_ece(stage_game_from_data(*data))
        it = solve_ece(lq_game, config=SolverConfig(max_step_deviation=1e9))
        lq_ok &= len(it.trace) == 2
        P_i, a_i = it.policies.gains, absolute_offsets_per_step(it.policies)
        P_d, a_d = direct.policies.gains, absolute_offsets_per_step(direct.policies)
        for i in range(lq_game.num_agents):
            worst = max(worst, float(np.max(np.abs(P_i[i] - P_d[i]))))
            worst = max(worst, float(np.max(np.abs(a_i[i] - a_d[i]))))
            worst = max(
                worst,
                float(np.max(np.abs(it.policies.covariances[i] - direct.policies.covariances[i]))),
            )
    elapsed = time.monotonic() - t0
    ok = converged and stationary and lq_ok and worst < 1e-8 and elapsed < 30.0
    report(
        4,
        ok,
        f"collision scenario converged in {len(sol.trace)} iterations, stationary on "
        f"re-solve: {stationary}; 10 LQ games matched direct solver to {worst:.2e} "
        f"in 2 iterations: {lq_ok}; {elapsed:.1f}s",
    )


def test_criterion_5_derivative_suite(crossing_scenario):
    rng = np.random.default_rng(505)
    failures = []

    def check(label, count, fn):
        worst = 0.0
        for _ in range(count):
            worst = max(worst, fn())
        if worst >= 1e-4:
            failures.append(f"{label}: {worst:.2e}")
        return worst

    for kind in ("double_integrator", "unicycle"):
        model = getattr(dynamics, kind)(2, 0.1)

        def one(model=model):
            s = rng.normal(size=model.state_dim)
            acts = [rng.normal(size=m) for m in model.action_dims]
            A, Bs = model.jacobians(1, s, acts)
            errs = [relative_error(A, central_difference_jacobian(lambda x: model.step(1, x, acts), s))]
            for j in range(model.num_agents):
                def step_a(a, j=j):
                    trial = [x.copy() for x in acts]
                    trial[j] = a
                    return model.step(1, s, trial)

                errs.append(relative_error(Bs[j], central_difference_jacobian(step_a, acts[j])))
            return max(errs)

        check(f"{kind} jacobians", 100, one)

    basis = crossing_scenario.basis
    n = crossing_scenario.state_dim
    for i, feats in enumerate(basis.agents):
        for feat in feats:
            if isinstance(feat, ControlEffort):
                continue
            label = f"agent{i} {feat.name}"

            def one(feat=feat):
                s = rng.normal(size=n) * 2.0
                t = int(rng.integers(1, crossing_scenario.horizon + 1))
                fn = lambda x: feat.value(t, x, None)
                ge = relative_error(feat.state_gradient(t, s), central_difference_gradient(fn, s))
                he = relative_error(feat.state_hessian(t, s), central_difference_hessian(fn, s))
                return max(ge, he)

            check(label, 100, one)

    models = crossing_scenario.make_game(crossing_scenario.true_weights()).costs
    for i, model in enumerate(models):
        def one(model=model):
            s = rng.normal(size=n) * 2.0
            acts = [rng.normal(size=2), rng.normal(size=2)]
            t = int(rng.integers(1, crossing_scenario.horizon + 1))
            fn = lambda x: model.stage_cost(t, x, acts)
            ge = relative_error(model.state_gradient(t, s), central_difference_gradient(fn, s))
            he = relative_error(model.state_hessian(t, s), central_difference_hessian(fn, s))
            return max(ge, he)

        check(f"agent{i} cost model", 100, one)

    report(
        5,
        not failures,
        "all analytic derivatives within 1e-4 of central differences at 100 points each"
        if not failures
        else "; ".join(failures),
    )


def _write_config(path, scenario_dict):
    with open(path, "w") as fh:
        json.dump(scenario_dict, fh)
    return str(path)


@pytest.mark.slow
def test_criterion_6_weight_recovery(crossing_scenario, tmp_path, config_dir):
    t0 = time.monotonic()
    config_path = str(config_dir / "two_agent_crossing.json")
    demo_path = str(tmp_path / "demos.csv")
    rc = main(
        ["gen-demos", "--config", config_path, "--trials", "200", "--seed", "1000",
         "--out", demo_path]
    )
    assert rc == 0
    demos = trajio.read_trajectories(
        demo_path, crossing_scenario.state_dim, crossing_scenario.action_dims
    )
    cfg = crossing_scenario.learn_config
    weights, trace = run_mairl(
        crossing_scenario.make_game,
        crossing_scenario.basis,
        demos,
        [np.ones(3), np.ones(3)],
        cfg,
        mode="joint",
        solver_config=crossing_scenario.solver_config,
    )
    last_sweep = {rec.agent: rec.residual for rec in trace.records}
    residual_ok = trace.converged and all(r < 0.05 for r in last_sweep.values())

    weights_path = str(tmp_path / "weights.json")
    names = [crossing_scenario.basis.feature_names(i) for i in range(2)]
    trajio.write_weights(weights_path, weights, names)
    out_dir = tmp_path / "metrics"
    rc = main(
        ["eval", "--config", config_path, "--demos", demo_path, "--weights", weights_path,
         "--trials", "200", "--seed", "2000", "--out", str(out_dir)]
    )
    assert rc == 0
    with open(out_dir / "kl.csv") as fh:
        kls = [float(row["kl"]) for row in csv.DictReader(fh)]
    kl_ok = len(kls) == 6 and all(v < 0.3 for v in kls)
    elapsed = time.monotonic() - t0
    ok = residual_ok and kl_ok and elapsed < 900.0
    report(
        6,
        ok,
        f"residuals {sorted(np.round(list(last_sweep.values()), 4))} (< 0.05: {residual_ok}); "
        f"per-feature KL(demo||learned) max {max(kls):.3f} (< 0.3: {kl_ok}); {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_baseline_ordering(crossing_scenario, tmp_path):
    t0 = time.monotonic()
    true_w = crossing_scenario.true_weights()
    game = crossing_scenario.make_game(true_w)
    sol = solve_ece(game, config=crossing_scenario.solver_config)
    demos = rollout_batch(game, sol.policies, 200, 1000)

    def total_kl(weights, eval_seed):
        g = crossing_scenario.make_game(weights)
        s = solve_ece(g, config=crossing_scenario.solver_config)
        model = rollout_batch(g, s.policies, 200, eval_seed)
        kls = kl_divergence_per_feature(demos, model, crossing_scenario.basis)
        return float(np.sum([np.sum(v) for v in kls]))

    learned = {
        mode: run_mairl(
            crossing_scenario.make_game,
            crossing_scenario.basis,
            demos,
            [np.ones(3), np.ones(3)],
            crossing_scenario.learn_config,
            mode=mode,
            solver_config=crossing_scenario.solver_config,
        )[0]
        for mode in ("joint", "independent")
    }
    wins = 0
    details = []
    # The learner draws nothing, so the seeds vary only the scoring samples.
    for seed in (11, 22, 33, 44, 55):
        totals = {mode: total_kl(w, 9000 + seed) for mode, w in learned.items()}
        wins += totals["joint"] <= totals["independent"]
        details.append(f"{totals['joint']:.2f}/{totals['independent']:.2f}")
    elapsed = time.monotonic() - t0
    ok = wins >= 4 and elapsed < 2700.0
    report(
        7,
        ok,
        f"joint/independent total KL per seed: {', '.join(details)}; "
        f"joint no worse in {wins}/5; {elapsed:.0f}s",
    )


def test_criterion_8_determinism_and_formats(tmp_path, config_dir, crossing_scenario):
    lq_config = str(config_dir / "lq_tracking.json")

    def run_twice(args, outputs):
        blobs = []
        for tag in ("a", "b"):
            paths = {key: str(tmp_path / f"{key}_{tag}") for key in outputs}
            rc = main([a.format(**paths) for a in args])
            assert rc == 0
            blobs.append({key: open(paths[key], "rb").read() for key in outputs})
        return all(blobs[0][k] == blobs[1][k] for k in outputs)

    demos_ok = run_twice(
        ["gen-demos", "--config", lq_config, "--trials", "3", "--seed", "5", "--out", "{demo}"],
        ["demo"],
    )
    solve_ok = run_twice(
        ["solve", "--config", lq_config, "--out-policy", "{pol}", "--trace", "{trace}"],
        ["pol", "trace"],
    )

    demo_path = str(tmp_path / "demos.csv")
    assert main(
        ["gen-demos", "--config", lq_config, "--trials", "5", "--seed", "3", "--out", demo_path]
    ) == 0
    learn_ok = run_twice(
        ["learn", "--config", lq_config, "--demos", demo_path, "--seed", "2",
         "--out-weights", "{w}", "--trace", "{lt}"],
        ["w", "lt"],
    )

    eval_dirs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"ev_{tag}"
        assert main(
            ["eval", "--config", lq_config, "--demos", demo_path, "--trials", "5",
             "--seed", "4", "--out", str(out_dir)]
        ) == 0
        eval_dirs.append(out_dir)
    eval_ok = all(
        open(eval_dirs[0] / f, "rb").read() == open(eval_dirs[1] / f, "rb").read()
        for f in ("kl.csv", "goal_stats.csv", "rmse.csv")
    )

    scenario = parse_scenario(json.load(open(lq_config)))
    game = scenario.make_game(scenario.true_weights())
    batch = trajio.read_trajectories(demo_path, game.state_dim, game.action_dims)
    rt_path = tmp_path / "rt.csv"
    trajio.write_trajectories(rt_path, batch)
    reloaded = trajio.read_trajectories(rt_path, game.state_dim, game.action_dims)
    traj_ok = all(
        np.array_equal(a.states, b.states)
        and all(np.array_equal(x, y) for x, y in zip(a.actions, b.actions))
        for a, b in zip(batch, reloaded)
    )

    doc = crossing_scenario.to_dict()
    config_ok = parse_scenario(doc).to_dict() == doc

    ok = demos_ok and solve_ok and learn_ok and eval_ok and traj_ok and config_ok
    report(
        8,
        ok,
        f"byte-identical reruns (gen-demos {demos_ok}, solve {solve_ok}, learn {learn_ok}, "
        f"eval {eval_ok}); trajectory round-trip lossless: {traj_ok}; "
        f"config round-trip stable: {config_ok}",
    )
