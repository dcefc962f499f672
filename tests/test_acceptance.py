"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines as
they complete. The desk-scale training checks (criteria 6-8) take a few
minutes end to end.
"""

import json
import math

import numpy as np

from voxwind import nn
from voxwind.cli import main
from voxwind.env import EnvConfig, ObjectiveMode, WindTunnelEnv
from voxwind.ppo import PpoConfig, clipped_surrogate, compute_gae, train
from voxwind.report import improvement_pct
from voxwind.voxel import VoxelGrid, VoxelMask, heightmap_sum, synth_heightmap, voxelise
from voxwind.windtunnel import (
    TunnelConfig,
    collision_count_metric,
    drag_force,
    kinetic_energy,
)

from conftest import (
    contacts_per_sphere,
    grid_query,
    oracle_agrees,
    random_contact_batches,
    scalar_contact,
)
from test_nn import max_rel_error, numeric_grads
from test_ppo import gae_bruteforce


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    return ok


def desk_wedge_config(seed, max_training_steps, particle_count=96):
    grid = voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
    tunnel = TunnelConfig(air_speed=10.0, particle_count=particle_count,
                          burst_count=2, max_steps=160,
                          domain_size=(3.2, 1.8, 0.9), seed=seed)
    env_config = EnvConfig(grid=grid, tunnel=tunnel, mode=ObjectiveMode.KE_DF_VCC,
                           control_dims=(4, 4), pool_dims=(4, 4), max_delta=2,
                           episode_length=8, baseline_seeds=3)
    ppo_config = PpoConfig(batch_size=32, buffer_size=128, learning_rate=3e-3,
                           learning_rate_final=0.0, epsilon=0.2, epsilon_final=0.1,
                           epochs=5, max_training_steps=max_training_steps,
                           time_horizon=8, hidden_layers=2, hidden_units=64,
                           seed=seed)
    return env_config, ppo_config


def desk_run_config_json():
    return {
        "seed": 7,
        "tunnel": {"air_speed": 10.0, "particle_count": 64, "burst_count": 2,
                   "max_steps": 140, "domain_size": [3.2, 1.8, 0.9]},
        "ppo": {"batch_size": 32, "buffer_size": 128, "learning_rate": 3e-3,
                "max_training_steps": 100, "time_horizon": 8,
                "hidden_layers": 2, "hidden_units": 32},
        "env": {"synth": {"shape": "wedge", "width": 16, "length": 16,
                          "amplitude": 1.0, "h_max": 8, "voxel_size": 0.1},
                "control_dims": [4, 4], "pool_dims": [4, 4],
                "episode_length": 8, "baseline_seeds": 2},
    }


def test_criterion_1_formula_fidelity():
    drag = drag_force(1.225, 10.0, 0.47, math.pi * 0.05 ** 2)
    ok_drag = abs(drag - 0.2261) <= 1e-4
    ok_ke = kinetic_energy(2.0, np.array([[3.0, 0.0, 0.0]]))[0] == 9.0
    ok_count = collision_count_metric(100.0, 2, 10) == 5.0
    grid = VoxelGrid(np.array([[1, 2], [3, 4]]), 8, 0.1)
    ok_sum = heightmap_sum(grid) == 10
    ok = ok_drag and ok_ke and ok_count and ok_sum
    assert report_line(1, "formula fidelity", ok,
                       f"drag={drag:.6f} N, ke=9 J, count=5.0, height sum=10")


def test_criterion_2_table_anchors():
    drag_cases = [(1786.41, -10.89), (1752.57, -12.57), (1716.85, -14.36)]
    energy_cases = [(371.41, 30.96), (391.16, 37.93), (402.78, 42.02)]
    worst = 0.0
    for optimised, expected in drag_cases:
        worst = max(worst, abs(improvement_pct(2004.63, optimised) - expected))
    for optimised, expected in energy_cases:
        worst = max(worst, abs(improvement_pct(283.60, optimised) - expected))
    assert report_line(2, "table anchors", worst <= 0.01,
                       f"max deviation {worst:.4f} pp")


def test_criterion_3_ppo_correctness():
    rng = np.random.default_rng(2024)
    n = 1_000_000
    ratios = rng.uniform(1e-3, 5.0, n)
    advs = rng.uniform(-10.0, 10.0, n)
    eps = 0.2
    surrogate = clipped_surrogate(ratios, advs, eps)
    ok_bound = bool(np.all(surrogate <= ratios * advs + 1e-12))

    advantages = rng.uniform(-5, 5, 1000)
    ok_identity = bool(np.all(clipped_surrogate(np.ones(1000), advantages, eps)
                              == advantages))

    ok_examples = (clipped_surrogate(1.0, 1.0, 0.2) == 1.0
                   and clipped_surrogate(1.5, 1.0, 0.2) == 1.2
                   and clipped_surrogate(0.5, -1.0, 0.2) == -0.8)

    worst_gae = 0.0
    for _ in range(100):
        steps = int(rng.integers(1, 11))
        rewards = rng.standard_normal(steps)
        values = rng.standard_normal(steps)
        dones = (rng.random(steps) < 0.25).astype(float)
        bootstrap = float(rng.standard_normal())
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        adv, _ = compute_gae(rewards, values, dones, gamma, lam, bootstrap)
        expected = gae_bruteforce(rewards, values, dones, gamma, lam, bootstrap)
        worst_gae = max(worst_gae, float(np.max(np.abs(adv - expected))))
    ok_gae = worst_gae <= 1e-12

    ok = ok_bound and ok_identity and ok_examples and ok_gae
    assert report_line(3, "ppo correctness", ok,
                       f"1e6 clip bound ok={ok_bound}, gae max err {worst_gae:.2e}")


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    shapes_checked = 0
    for _ in range(20):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 6))]
        sizes += [int(rng.integers(1, 9)) for _ in range(depth)]
        sizes.append(int(rng.integers(1, 5)))
        net = nn.Mlp(sizes, rng)
        x = rng.standard_normal(sizes[0])
        loss_weights = rng.standard_normal(sizes[-1])
        _, cache = net.forward(x)
        analytic = net.backward(cache, loss_weights[None])
        numeric = numeric_grads(net, x, loss_weights, h=1e-5)
        worst = max(worst, max_rel_error(analytic, numeric))
        shapes_checked += 1
    ok = shapes_checked >= 20 and worst <= 1e-4
    assert report_line(4, "gradient check", ok,
                       f"{shapes_checked} shapes, max rel err {worst:.2e}")


def test_criterion_5_collision_oracle():
    # 125 grids, each with one radius and 8 spheres: one batched query per
    # grid, and one sphere at a time through the scalar core that small
    # bursts step with
    batches = list(random_contact_batches(125, 8, seed=7))
    sides = {
        "batched": [contacts_per_sphere(grid_query(centers, radius, grid), len(centers))
                    for grid, centers, radius in batches],
        "one at a time (scalar core)": [[scalar_contact(center, radius, grid)
                                         for center in centers]
                                        for grid, centers, radius in batches],
    }
    agreements = dict.fromkeys(sides, 0)
    for side, found in sides.items():
        for (grid, centers, radius), got in zip(batches, found):
            agreements[side] += sum(oracle_agrees(one, grid, center, radius)
                                    for center, one in zip(centers, got))
    spheres = sum(len(centers) for _, centers, _ in batches)
    ok = spheres == 1000 and all(n == spheres for n in agreements.values())
    assert report_line(5, "collision oracle", ok, ", ".join(
        f"{side} {n}/{spheres} agree" for side, n in agreements.items()))


def test_criterion_6_determinism(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(desk_run_config_json()))
    grid = voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
    from voxwind.voxel import grid_to_csv
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(grid_to_csv(grid))

    for name in ("sim_a", "sim_b"):
        code = main(["simulate", "--grid", str(grid_path), "--config",
                     str(config_path), "--out", str(tmp_path / name)])
        assert code == 0
    sim_identical = ((tmp_path / "sim_a" / "simresult.csv").read_bytes()
                     == (tmp_path / "sim_b" / "simresult.csv").read_bytes())

    for name in ("train_a", "train_b"):
        code = main(["train", "--config", str(config_path), "--mode", "ke_df_vcc",
                     "--out", str(tmp_path / name)])
        assert code == 0
    trace_identical = ((tmp_path / "train_a" / "trace.csv").read_bytes()
                       == (tmp_path / "train_b" / "trace.csv").read_bytes())

    ok = sim_identical and trace_identical
    assert report_line(6, "determinism", ok,
                       f"simulate identical={sim_identical}, "
                       f"100-step train trace identical={trace_identical}")


def test_criterion_7_desk_scale_optimisation():
    passes = []
    details = []
    for seed in (7, 8, 9):
        env_config, ppo_config = desk_wedge_config(seed, max_training_steps=1000)
        env = WindTunnelEnv(env_config)
        result = train(env, ppo_config)
        ke = np.array([row["kinetic_energy"] for row in result.trace])
        drag = np.array([row["drag_force"] for row in result.trace])
        ke_ratio = float(ke[-50:].mean() / ke[:50].mean())
        drag_ratio = float(drag[-50:].mean() / drag[:50].mean())
        seed_ok = ke_ratio >= 1.10 and drag_ratio <= 0.95
        passes.append(seed_ok)
        details.append(f"seed {seed}: ke x{ke_ratio:.3f}, drag x{drag_ratio:.3f}")
    ok = sum(passes) >= 2
    assert report_line(7, "desk-scale optimisation", ok,
                       "; ".join(details) + f"; {sum(passes)}/3 seeds pass")


def test_criterion_8_mask_and_shape_constraints():
    frozen = np.zeros((16, 16), dtype=bool)
    frozen[0:4, :] = True
    frozen[10:12, 4:12] = True
    mask = VoxelMask(frozen.copy())

    # hard check: masked columns survive 500 random actions exactly
    env_config, _ = desk_wedge_config(seed=11, max_training_steps=0,
                                      particle_count=8)
    env_config.mask = mask
    env_config.episode_length = 500
    env = WindTunnelEnv(env_config)
    env.reset()
    initial = env.config.grid.column_heights.copy()
    rng = np.random.default_rng(11)
    for _ in range(500):
        env.act(rng.uniform(-1.0, 1.0, env.action_dim))
    masked_ok = bool(np.array_equal(env.grid.column_heights[frozen],
                                    initial[frozen]))

    # soft check: height-sum drift of a trained policy under default w_h
    env_config2, ppo_config2 = desk_wedge_config(seed=7, max_training_steps=300,
                                                 particle_count=48)
    env_config2.mask = VoxelMask(frozen.copy())
    env2 = WindTunnelEnv(env_config2)
    result = train(env2, ppo_config2)
    obs = env2.reset()
    done = False
    while not done:
        obs, _, done, info = env2.act(result.policy.mean_action(obs))
    hs0 = float(env2.baseline.heightmap_sum)
    hs = float(info["result"].heightmap_sum)
    drift = abs(hs - hs0) / hs0
    trained_mask_ok = bool(np.array_equal(env2.grid.column_heights[frozen],
                                          initial[frozen]))

    ok = masked_ok and trained_mask_ok
    assert report_line(8, "mask and shape constraints", ok,
                       f"masked columns exact={masked_ok and trained_mask_ok}, "
                       f"trained-policy |Hs-Hs0|/Hs0={drift:.3f} "
                       f"(soft target < 0.5)")
