import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind.cli import GridSource, RunConfig, SynthSpec, config_echo_json, load_run_config, main
from voxwind.env import EnvConfig, RewardWeights
from voxwind.errors import ConfigError
from voxwind.ppo import PpoConfig
from voxwind.schema import rules
from voxwind.voxel import (
    VoxelMask,
    grid_from_csv,
    grid_to_csv,
    mask_to_csv,
    synth_heightmap,
    voxelise,
    write_heightmap_pgm,
)
from voxwind.windtunnel import TunnelConfig, run_simulation, simresult_from_csv

from conftest import read_checkpoint


def base_config():
    return {
        "seed": 7,
        "tunnel": {
            "air_speed": 10.0,
            "particle_count": 32,
            "burst_count": 2,
            "max_steps": 100,
            "domain_size": [3.2, 1.8, 0.9],
        },
        "ppo": {
            "batch_size": 16,
            "buffer_size": 64,
            "max_training_steps": 24,
            "time_horizon": 8,
            "hidden_layers": 1,
            "hidden_units": 16,
        },
        "env": {
            "synth": {"shape": "wedge", "width": 16, "length": 16,
                      "amplitude": 1.0, "h_max": 8, "voxel_size": 0.1},
            "control_dims": [4, 4],
            "pool_dims": [4, 4],
            "episode_length": 8,
            "baseline_seeds": 1,
        },
    }


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def write_wedge_grid(path):
    grid = voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
    path.write_text(grid_to_csv(grid))
    return str(path)


def assert_stderr_line(capsys, command):
    """A failed command printed one stderr line, and it starts with its name."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{command}: "), err


class TestVoxelize:
    def test_happy_path_prints_summary(self, tmp_path, capsys):
        pgm = tmp_path / "map.pgm"
        pgm.write_bytes(write_heightmap_pgm(synth_heightmap("wedge", 8, 4, 1.0)))
        out = tmp_path / "grid.csv"
        code = main(["voxelize", "--input", str(pgm), "--h-max", "8",
                     "--voxel-size", "0.1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "8x4 columns" in printed
        assert "h_max=8" in printed
        assert "H_s=" in printed
        grid = grid_from_csv(out.read_text())
        assert grid.width == 8 and grid.length == 4

    def test_flat_map_prints_zero_sum(self, tmp_path, capsys):
        pgm = tmp_path / "flat.pgm"
        pgm.write_bytes(write_heightmap_pgm(synth_heightmap("flat", 4, 4, 0.0)))
        code = main(["voxelize", "--input", str(pgm), "--h-max", "8",
                     "--voxel-size", "0.1", "--out", str(tmp_path / "g.csv")])
        assert code == 0
        assert "H_s=0" in capsys.readouterr().out

    def test_roundtrip_preserves_heights(self, tmp_path):
        hm = synth_heightmap("half-cylinder", 12, 6, 0.8)
        pgm = tmp_path / "arch.pgm"
        pgm.write_bytes(write_heightmap_pgm(hm))
        out = tmp_path / "grid.csv"
        assert main(["voxelize", "--input", str(pgm), "--h-max", "16",
                     "--voxel-size", "0.05", "--out", str(out)]) == 0
        loaded = grid_from_csv(out.read_text())
        direct = voxelise(hm, 16, 0.05)
        # PGM quantisation moves values by <= 1/510, far below a voxel step
        assert np.max(np.abs(loaded.column_heights - direct.column_heights)) <= 1

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n255\n\x00")
        code = main(["voxelize", "--input", str(bad), "--h-max", "8",
                     "--voxel-size", "0.1", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "byte" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["voxelize", "--input", str(tmp_path / "nope.pgm"),
                     "--h-max", "8", "--voxel-size", "0.1",
                     "--out", str(tmp_path / "g.csv")]) == 2
        assert_stderr_line(capsys, "voxelize")


class TestSimulate:
    def test_writes_outputs(self, tmp_path):
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", base_config())
        out = tmp_path / "sim"
        assert main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(out)]) == 0
        result = simresult_from_csv((out / "simresult.csv").read_text())
        assert result["collision_count"] > 0
        assert (out / "heatmap.csv").is_file()
        assert (out / "heatmap.pgm").read_bytes().startswith(b"P5")
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["tunnel"]["particle_count"] == 32
        assert echo["seed"] == 7

    def test_zero_particles_zero_metrics(self, tmp_path):
        doc = base_config()
        doc["tunnel"]["particle_count"] = 0
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", doc)
        out = tmp_path / "sim"
        assert main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(out)]) == 0
        result = simresult_from_csv((out / "simresult.csv").read_text())
        assert result["drag_force"] == 0.0
        assert result["kinetic_energy"] == 0.0
        assert result["collision_count"] == 0.0
        assert result["heightmap_sum"] > 0

    def test_determinism_byte_identical(self, tmp_path):
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", base_config())
        for name in ("a", "b"):
            assert main(["simulate", "--grid", grid, "--config", config,
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "simresult.csv").read_bytes() == \
            (tmp_path / "b" / "simresult.csv").read_bytes()

    def test_air_speed_out_of_range_names_field(self, tmp_path, capsys):
        doc = base_config()
        doc["tunnel"]["air_speed"] = 130.0
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", doc)
        code = main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(tmp_path / "sim")])
        assert code == 3
        assert "tunnel.air_speed" in capsys.readouterr().err

    def test_grid_wider_than_a_tiny_domain_exits_3(self, tmp_path, capsys):
        # a 16 x 16 box of 1e-10 m voxels is 1.6e-9 m wide: in a 1e-9 m cube
        # its origin would land at -3e-10 m, outside the domain
        grid = tmp_path / "grid.csv"
        rows = "\n".join(",".join(["1"] * 16) for _ in range(16))
        grid.write_text(f"width,length,h_max,voxel_size\n16,16,1,1e-10\n{rows}\n")
        doc = base_config()
        doc["tunnel"].update(domain_size=[1e-9] * 3, particle_radius=5e-11)
        code = main(["simulate", "--grid", str(grid), "--config",
                     write_config(tmp_path / "run.json", doc), "--out", str(tmp_path / "sim")])
        assert code == 3
        assert capsys.readouterr().err.startswith("simulate: tunnel.domain_size: ")
        assert not (tmp_path / "sim").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = base_config()
        doc["tunnel"]["air_sped"] = 60.0
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", doc)
        code = main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(tmp_path / "sim")])
        assert code == 3
        assert "tunnel.air_sped" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", base_config())
        bad = tmp_path / "grid.csv"
        bad.write_text("not,a,grid\n")
        assert main(["simulate", "--grid", str(bad), "--config", config,
                     "--out", str(tmp_path / "sim")]) == 2
        assert_stderr_line(capsys, "simulate")

    def test_seed_flag_changes_result(self, tmp_path):
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", base_config())
        main(["simulate", "--grid", grid, "--config", config,
              "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["simulate", "--grid", grid, "--config", config,
              "--out", str(tmp_path / "b"), "--seed", "2"])
        assert (tmp_path / "a" / "simresult.csv").read_text() != \
            (tmp_path / "b" / "simresult.csv").read_text()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", base_config())
        code = main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(tmp_path / "sim"), "--seed", "-3"])
        assert code == 3
        assert "seed" in capsys.readouterr().err


class TestTrain:
    def test_smoke_run_outputs_parse(self, tmp_path):
        config = write_config(tmp_path / "run.json", base_config())
        out = tmp_path / "train"
        assert main(["train", "--config", config, "--mode", "ke_df_vcc",
                     "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 25  # header + 24 steps
        echo = json.loads((out / "config_echo.json").read_text())
        # observations: a 4x4 pooled height map and the four metrics; actions: 4x4 controls
        for name in ("checkpoint_init.json", "checkpoint_final.json"):
            read_checkpoint(out / name, echo["ppo"], obs_dim=20, act_dim=16)
        grid_from_csv((out / "optimised_grid.csv").read_text())
        simresult_from_csv((out / "simresult_ke_df_vcc.csv").read_text())
        simresult_from_csv((out / "baseline" / "simresult.csv").read_text())
        assert (out / "heatmap_before.pgm").read_bytes().startswith(b"P5")
        assert (out / "heatmap_after.pgm").read_bytes().startswith(b"P5")
        assert echo["env"]["mode"] == "ke_df_vcc"

    def test_zero_steps_initial_checkpoint_only(self, tmp_path):
        doc = base_config()
        doc["ppo"]["max_training_steps"] = 0
        config = write_config(tmp_path / "run.json", doc)
        out = tmp_path / "train"
        assert main(["train", "--config", config, "--mode", "ke",
                     "--out", str(out)]) == 0
        assert (out / "checkpoint_init.json").is_file()
        assert not (out / "checkpoint_final.json").exists()
        assert not (out / "optimised_grid.csv").exists()
        assert (out / "trace.csv").read_text().splitlines()[0].startswith("step,")

    def test_grid_source_required(self, tmp_path, capsys):
        doc = base_config()
        doc["env"].pop("synth")
        config = write_config(tmp_path / "run.json", doc)
        code = main(["train", "--config", config, "--mode", "ke",
                     "--out", str(tmp_path / "train")])
        assert code == 3
        assert "env.grid" in capsys.readouterr().err

    def test_mode_from_config_when_flag_absent(self, tmp_path):
        doc = base_config()
        doc["env"]["mode"] = "ke"
        config = write_config(tmp_path / "run.json", doc)
        out = tmp_path / "train"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        assert (out / "simresult_ke.csv").is_file()


class TestTrainFailures:
    def test_bad_mask_cell_exits_3(self, tmp_path, capsys):
        lines = mask_to_csv(VoxelMask(np.zeros((16, 16), dtype=bool))).splitlines()
        lines[3] = "2" + lines[3][1:]
        mask = tmp_path / "mask.csv"
        mask.write_text("\n".join(lines) + "\n")
        doc = base_config()
        doc["env"]["mask_csv"] = str(mask)
        code = main(["train", "--config", write_config(tmp_path / "run.json", doc),
                     "--out", str(tmp_path / "train")])
        assert code == 3
        err = capsys.readouterr().err
        assert "env.mask_csv" in err and "row 1 column 0" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_action_exits_4(self, tmp_path, capsys):
        doc = base_config()
        doc["ppo"]["log_std_init"] = 1000.0     # exp overflows: the first action is infinite
        code = main(["train", "--config", write_config(tmp_path / "run.json", doc),
                     "--out", str(tmp_path / "train")])
        assert code == 4
        err = capsys.readouterr().err
        assert "step 1" in err and "non-finite" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_diverged_update_exits_4(self, tmp_path, capsys):
        # a learning rate of 1e300 makes the one PPO update, on the last step,
        # leave non-finite parameters, which no final checkpoint may record
        out = tmp_path / "train"
        code = main(["train", "--config", diverged_config(tmp_path), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err == DIVERGED_MESSAGE
        assert (out / "checkpoint_init.json").is_file()
        assert not (out / "checkpoint_final.json").exists()

    def test_diverged_update_stderr_is_the_message_alone(self, tmp_path):
        # pytest captures numpy's RuntimeWarnings in process, so only a fresh
        # interpreter shows whether the update prints any before the message
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "voxwind", "train", "--config", diverged_config(tmp_path),
             "--out", str(tmp_path / "train")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 4
        assert proc.stderr == DIVERGED_MESSAGE


class CappedRun:
    """Runs the CLI in a child whose address space is capped, so an input
    that makes the program allocate far more than it needs dies with a
    MemoryError on any machine."""
    LIMIT = 2 << 30

    def run_capped(self, tmp_path, *args):
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = ("import resource, sys\n"
                 f"resource.setrlimit(resource.RLIMIT_AS, ({self.LIMIT}, {self.LIMIT}))\n"
                 "from voxwind.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        return subprocess.run([sys.executable, "-c", child, *args], capture_output=True,
                              text=True, env=env, timeout=300, cwd=tmp_path)

    def assert_one_line(self, proc, code, *names):
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert all(name in proc.stderr for name in names), proc.stderr


class TestOversizedHeaders(CappedRun):
    # Each file's header claims far more cells than the file holds. Parsing
    # must size its arrays from what it reads, so the run fails on the
    # missing cells.

    def test_simulate_grid(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("width,length,h_max,voxel_size\n1,1000000000000,1,0.1\n1\n")
        config = write_config(tmp_path / "run.json", base_config())
        proc = self.run_capped(tmp_path, "simulate", "--grid", str(grid), "--config", config,
                               "--out", "sim")
        self.assert_one_line(proc, 2, str(grid), "row 0 has 1 cells, expected 1000000000000")

    def test_voxelize_ascii_pgm(self, tmp_path):
        pgm = tmp_path / "map.pgm"
        pgm.write_bytes(b"P2\n100000 100000\n255\n0\n")
        proc = self.run_capped(tmp_path, "voxelize", "--input", str(pgm), "--h-max", "8",
                               "--voxel-size", "0.1", "--out", "g.csv")
        self.assert_one_line(proc, 2, str(pgm), "end of input")

    def test_train_mask(self, tmp_path):
        mask = tmp_path / "mask.csv"
        mask.write_text("width,length\n1,1000000000000\n0\n")
        doc = base_config()
        doc["env"]["mask_csv"] = str(mask)
        proc = self.run_capped(tmp_path, "train", "--config",
                               write_config(tmp_path / "run.json", doc), "--out", "train")
        self.assert_one_line(proc, 3, "env.mask_csv", "row 0 has 1 cells, expected 1000000000000")


class TestGridAgainstTunnel(CappedRun):
    # A design the tunnel cannot hold fails before any simulation allocates:
    # a grid wider than the domain, voxels so small that one sphere's contact
    # window (and the near test's table) would take gigabytes, or an h_max or
    # synth size past its bound.
    @pytest.mark.parametrize("voxel_size", ["1e-5", "1e-300"])
    def test_simulate_tiny_voxels(self, tmp_path, voxel_size):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"width,length,h_max,voxel_size\n1,1,1,{voxel_size}\n1\n")
        config = write_config(tmp_path / "run.json", base_config())
        proc = self.run_capped(tmp_path, "simulate", "--grid", str(grid), "--config", config,
                               "--out", "sim")
        self.assert_one_line(proc, 3, "simulate: tunnel.particle_radius: ",
                             f"voxels of {float(voxel_size)!r} m")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("tunnel, field", [
        ({"particle_radius": 1e200}, "tunnel.particle_radius"),
        ({"particle_radius": 1e200, "dt": 1e198}, "tunnel.particle_radius"),
        ({}, "tunnel.domain_size"),
    ], ids=["radius", "radius and dt", "domain"])
    def test_simulate_huge_lengths(self, tmp_path, tunnel, field):
        # a grid of 1e200 m voxels in a 1e201 m domain: lengths whose squares
        # would overflow float64 are refused before any simulation
        grid = tmp_path / "grid.csv"
        grid.write_text("width,length,h_max,voxel_size\n1,1,1,1e200\n1\n")
        doc = base_config()
        doc["tunnel"].update(domain_size=[1e201] * 3, **tunnel)
        proc = self.run_capped(tmp_path, "simulate", "--grid", str(grid), "--config",
                               write_config(tmp_path / "run.json", doc), "--out", "sim")
        self.assert_one_line(proc, 3, f"simulate: {field}: ", "<= 1e+150")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("setting, field", [
        (("tunnel", "domain_size", [1.0, 1.8, 0.9]), "tunnel.domain_size"),
        (("env", "synth", "voxel_size", 1e-300), "tunnel.particle_radius"),
        (("env", "synth", "h_max", 2 ** 63 - 1), "env.synth.h_max"),
        (("env", "synth", "h_max", 10 ** 21), "env.synth.h_max"),
        (("env", "synth", "width", 200_000), "env.synth.width"),
    ])
    def test_train_design_does_not_fit(self, tmp_path, setting, field):
        doc = base_config()
        set_key(doc, setting[:-1], setting[-1])
        proc = self.run_capped(tmp_path, "train", "--config",
                               write_config(tmp_path / "run.json", doc), "--out", "train")
        self.assert_one_line(proc, 3, f"train: {field}: ")
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("h_max, message", [
        (2 ** 63 - 1, "voxelize: h_max must be at most "),
        (-10 ** 21, "voxelize: h_max must be at least 1"),
    ])
    def test_voxelize_h_max_out_of_range(self, tmp_path, h_max, message):
        pgm = tmp_path / "map.pgm"
        pgm.write_bytes(write_heightmap_pgm(synth_heightmap("wedge", 8, 4, 1.0)))
        proc = self.run_capped(tmp_path, "voxelize", "--input", str(pgm), "--h-max",
                               str(h_max), "--voxel-size", "0.1", "--out", "g.csv")
        self.assert_one_line(proc, 3, message)
        assert not (tmp_path / "g.csv").exists()


class TestHugeStep(CappedRun):
    # A dt so long that a particle's drift over max_steps would overflow its
    # position is refused before any simulation, in one line; the longest
    # dt accepted runs with no numpy warning on stderr.

    @pytest.mark.parametrize("dt, code", [(1e308, 3), (1e300, 0)])
    def test_simulate(self, tmp_path, dt, code):
        doc = base_config()
        doc["tunnel"]["dt"] = dt
        proc = self.run_capped(tmp_path, "simulate", "--grid", write_wedge_grid(tmp_path / "g.csv"),
                               "--config", write_config(tmp_path / "run.json", doc),
                               "--out", "sim")
        if code:
            self.assert_one_line(proc, code, "simulate: tunnel.dt: ", "<= 1e+300")
        else:
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert (tmp_path / "sim").exists() == (code == 0)


# each tunnel setting that scales a metric
SCALES = pytest.mark.parametrize("field", ["particle_mass", "fluid_density", "drag_coefficient"])


class TestMetricOverflow(CappedRun):
    # A tunnel setting so large that a metric overflows float64 fails as a
    # config error in one line, with no numpy warning before it.

    def overflowing_config(self, tmp_path, field):
        doc = base_config()
        doc["tunnel"][field] = 1e308
        return write_config(tmp_path / "run.json", doc)

    @SCALES
    def test_simulate_exits_3(self, tmp_path, field):
        proc = self.run_capped(tmp_path, "simulate", "--grid", write_wedge_grid(tmp_path / "g.csv"),
                               "--config", self.overflowing_config(tmp_path, field),
                               "--out", "sim")
        self.assert_one_line(proc, 3, "simulate: tunnel: ")
        assert not (tmp_path / "sim").exists()

    @SCALES
    def test_train_exits_3(self, tmp_path, field):
        proc = self.run_capped(tmp_path, "train", "--config",
                               self.overflowing_config(tmp_path, field), "--out", "train")
        self.assert_one_line(proc, 3, "train: tunnel: ")
        assert not (tmp_path / "train").exists()

    @SCALES
    def test_zero_step_train_exits_3(self, tmp_path, field):
        # the baseline is measured even when no step is trained
        doc = base_config()
        doc["tunnel"][field] = 1e308
        doc["ppo"]["max_training_steps"] = 0
        proc = self.run_capped(tmp_path, "train", "--config",
                               write_config(tmp_path / "run.json", doc), "--out", "train")
        self.assert_one_line(proc, 3, "train: tunnel: ")
        assert not (tmp_path / "train").exists()

    def test_baseline_mean_exits_3(self, tmp_path):
        # Each baseline seed's kinetic energy is finite, but their sum, from
        # which np.mean takes the mean, overflows. One particle keeps a
        # seed's own mean from overflowing first.
        doc = {"tunnel": {"particle_count": 1, "burst_count": 1, "max_steps": 240,
                          "particle_mass": 1.5e307},
               "ppo": {"max_training_steps": 0},
               "env": {"synth": {"shape": "wedge"}, "baseline_seeds": 3}}
        grid = voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
        energies = [run_simulation(grid, TunnelConfig(**doc["tunnel"], seed=seed)).kinetic_energy
                    for seed in range(3)]
        assert sum(energies) == math.inf
        proc = self.run_capped(tmp_path, "train", "--config",
                               write_config(tmp_path / "run.json", doc), "--out", "train")
        self.assert_one_line(proc, 3, "train: tunnel: kinetic_energy")
        assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("voxel_size", ["nan", "inf"])
class TestNonFiniteVoxelSize:
    # A voxel size must be finite: each command that reads one rejects it
    # as bad input, before it writes or simulates anything.
    MESSAGE = "voxel_size must be finite and positive"

    def write_grid(self, tmp_path, voxel_size):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"width,length,h_max,voxel_size\n1,1,1,{voxel_size}\n1\n")
        return str(grid)

    def test_voxelize_exits_3(self, tmp_path, capsys, voxel_size):
        pgm = tmp_path / "map.pgm"
        pgm.write_bytes(write_heightmap_pgm(synth_heightmap("wedge", 8, 4, 1.0)))
        out = tmp_path / "grid.csv"
        assert main(["voxelize", "--input", str(pgm), "--h-max", "8",
                     "--voxel-size", voxel_size, "--out", str(out)]) == 3
        assert f"voxelize: {self.MESSAGE}" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_exits_2(self, tmp_path, capsys, voxel_size):
        grid = self.write_grid(tmp_path, voxel_size)
        config = write_config(tmp_path / "run.json", base_config())
        out = tmp_path / "sim"
        assert main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"simulate: cannot load grid {grid}: " in err and self.MESSAGE in err
        assert not out.exists()

    def test_train_exits_3(self, tmp_path, capsys, voxel_size):
        doc = base_config()
        del doc["env"]["synth"]
        doc["env"]["grid_csv"] = self.write_grid(tmp_path, voxel_size)
        out = tmp_path / "train"
        assert main(["train", "--config", write_config(tmp_path / "run.json", doc),
                     "--out", str(out)]) == 3
        assert f"train: env.grid_csv: {self.MESSAGE}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("cell", [str(10 ** 20), str(-10 ** 20)])
class TestGridCellPastInt64:
    # A grid CSV cell outside int64 is bad input: each command that reads a
    # grid rejects it by row and column, before it writes or simulates anything.
    def write_grid(self, tmp_path, cell):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"width,length,h_max,voxel_size\n1,2,1,0.1\n1,{cell}\n")
        return str(grid)

    def message(self, cell):
        return f"grid csv: row 0 column 1: cell '{cell}' is outside the int64 range"

    def test_simulate_exits_2(self, tmp_path, capsys, cell):
        grid = self.write_grid(tmp_path, cell)
        config = write_config(tmp_path / "run.json", base_config())
        out = tmp_path / "sim"
        assert main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"simulate: cannot load grid {grid}: {self.message(cell)}\n")
        assert not out.exists()

    def test_train_exits_3(self, tmp_path, capsys, cell):
        doc = base_config()
        del doc["env"]["synth"]
        doc["env"]["grid_csv"] = self.write_grid(tmp_path, cell)
        out = tmp_path / "train"
        assert main(["train", "--config", write_config(tmp_path / "run.json", doc),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"train: env.grid_csv: {self.message(cell)}\n"
        assert not out.exists()


def refuse(monkeypatch, name):
    """Make `voxwind.cli.<name>` fail the test if it is called."""
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(f"voxwind.cli.{name}", refused)


@pytest.mark.parametrize("below", ["", "sub"])
class TestOutIsAFile:
    # An --out that is an existing file, or lies under one, cannot become the
    # output directory: one line and exit 2, before anything is simulated or
    # trained, and the file is left as it was.
    def out_path(self, tmp_path, below):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        return taken, taken / below if below else taken

    def test_simulate_exits_2(self, tmp_path, capsys, monkeypatch, below):
        taken, out = self.out_path(tmp_path, below)
        refuse(monkeypatch, "run_simulation")
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", base_config())
        assert main(["simulate", "--grid", grid, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"simulate: --out {out}: {taken} exists and is not a directory\n")
        assert taken.read_text() == "keep\n"

    def test_train_exits_2(self, tmp_path, capsys, monkeypatch, below):
        taken, out = self.out_path(tmp_path, below)
        refuse(monkeypatch, "train")
        config = write_config(tmp_path / "run.json", base_config())
        assert main(["train", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"train: --out {out}: {taken} exists and is not a directory\n")
        assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("case", ["directory", "missing parent", "file parent"])
class TestOutFileBlocked:
    # An output file --out that is a directory, or whose parent is missing or
    # is a file: one line and exit 2, before any work, and nothing is written.
    def out_path(self, tmp_path, case):
        taken = tmp_path / "taken"
        if case == "directory":
            taken.mkdir()
            return taken, f"--out {taken}: is a directory"
        out = taken / "g.csv"
        if case == "missing parent":
            return out, f"--out {out}: {taken} does not exist"
        taken.write_text("keep\n")
        return out, f"--out {out}: {taken} exists and is not a directory"

    def test_voxelize_exits_2(self, tmp_path, capsys, monkeypatch, case):
        out, message = self.out_path(tmp_path, case)
        refuse(monkeypatch, "voxelise")
        pgm = tmp_path / "map.pgm"
        pgm.write_bytes(write_heightmap_pgm(synth_heightmap("wedge", 8, 4, 1.0)))
        assert main(["voxelize", "--input", str(pgm), "--h-max", "8",
                     "--voxel-size", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"voxelize: {message}\n"
        assert not out.is_file()

    def test_report_exits_2(self, tmp_path, capsys, monkeypatch, case):
        out, message = self.out_path(tmp_path, case)
        refuse(monkeypatch, "build_comparison_table")
        TestReport.write_simresult(tmp_path / "before" / "simresult.csv", 10, 5, 4, 100)
        TestReport.write_simresult(tmp_path / "after" / "simresult_ke.csv", 9, 5, 4, 100)
        assert main(["report", "--before", str(tmp_path / "before"),
                     "--after", str(tmp_path / "after"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"report: {message}\n"
        assert not out.is_file()


DIVERGED_MESSAGE = ("train: non-finite policy or value parameters after the PPO "
                    "update at training step 8\n")


def diverged_config(tmp_path):
    """A train config whose one PPO update, at step 8, diverges: lr 1e300 and
    no gradient clipping."""
    doc = base_config()
    doc["tunnel"].update(particle_count=4, burst_count=1, max_steps=40)
    doc["ppo"] = {"batch_size": 8, "buffer_size": 8, "max_training_steps": 8,
                  "time_horizon": 8, "epochs": 3, "learning_rate": 1e300,
                  "learning_rate_final": 1e300, "hidden_layers": 1, "hidden_units": 8,
                  "grad_clip": 0}
    doc["env"].update(control_dims=[2, 2], pool_dims=[2, 2], episode_length=4)
    doc["env"]["synth"].update(width=8, length=8, h_max=4)
    return write_config(tmp_path / "run.json", doc)


def set_key(doc, keys, value):
    for key in keys[:-1]:
        doc = doc.setdefault(key, {})
    doc[keys[-1]] = value


class TestRunConfig:
    @pytest.mark.parametrize("keys, value", [
        (("tunnel", "particle_count"), "64"),
        (("tunnel", "max_steps"), 2.5),
        (("env", "control_dims"), ["a", 2]),
        (("env", "synth", "shape"), "blob"),
        (("env", "synth", "width"), 0),
        (("tunnel", "dt"), float("nan")),
        (("seed",), True),
        (("ppo", "epsilon_final"), 1.5),
        (("tunnel", "domain_size"), [3.2, 1.8]),
        (("env", "mode"), "fast"),
        (("env", "weights", "w_h"), 0),
        (("tunnel", "particle_count"), 1000000000000),
        (("tunnel", "burst_count"), 101),
        (("ppo", "buffer_size"), 100001),
        (("ppo", "hidden_layers"), 17),
        (("ppo", "hidden_units"), 10 ** 9),
        (("out_dir",), "runs"),
        (("env", "reward_scale"), 1.0),
        (("tunnel", "max_steps"), 100_001),
        (("ppo", "epochs"), 1_001),
    ])
    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_bad_value_exits_3_naming_field(self, tmp_path, capsys, command, keys, value):
        doc = base_config()
        set_key(doc, keys, value)
        argv = [command, "--config", write_config(tmp_path / "run.json", doc),
                "--out", str(tmp_path / "out")]
        if command == "simulate":
            argv += ["--grid", write_wedge_grid(tmp_path / "grid.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {'.'.join(keys)}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("data", [b"[" * 100000, b"\xff\xfe{}", b"{"])
    def test_unparseable_file_exits_3(self, tmp_path, capsys, data):
        path = tmp_path / "run.json"
        path.write_bytes(data)
        code = main(["simulate", "--grid", write_wedge_grid(tmp_path / "grid.csv"),
                     "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("simulate: config: ")

    def test_readme_example_loads(self, tmp_path):
        """The README's run-config block, comments stripped, loads, and every
        key in it is a declared field."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//[^\n]*", "", block))
        load_run_config(write_config(tmp_path / "readme.json", doc))

        def walk(section, classes, path):
            declared = rules(*classes)
            for key, value in section.items():
                assert key in declared, f"{path}{key} is not a config field"
                kind = declared[key].kind
                if isinstance(value, dict):
                    walk(value, kind if isinstance(kind, tuple) else (kind,), f"{path}{key}.")

        walk(doc, (RunConfig,), "")


FIELD_NAMES = sorted({name for cls in (RunConfig, TunnelConfig, PpoConfig, GridSource, EnvConfig,
                                       SynthSpec, RewardWeights) for name in rules(cls)})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), children, max_size=5),
    max_leaves=24)


def leaf_paths(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        yield prefix + (key,)


def with_value(keys, value):
    doc = base_config()
    set_key(doc, keys, value)
    return doc


@given(doc=JSON_VALUES | st.builds(with_value, st.sampled_from(list(leaf_paths(base_config()))),
                                   JSON_VALUES))
@settings(max_examples=300, deadline=None)
def test_any_json_document_loads_or_raises_config_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        run = load_run_config(path)
    except ConfigError:
        return
    assert isinstance(run, RunConfig)
    echo = config_echo_json(run)
    path.write_text(echo)
    assert config_echo_json(load_run_config(path)) == echo


class TestReport:
    @staticmethod
    def write_simresult(path, drag, ke, cc, hs):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "drag_force,kinetic_energy,collision_count,heightmap_sum\n"
            f"{drag},{ke},{cc},{hs}\n")

    def test_identical_dirs_zero_improvements(self, tmp_path):
        self.write_simresult(tmp_path / "before" / "simresult.csv", 10, 5, 4, 100)
        for mode in ("ke", "ke_df", "ke_df_vcc"):
            self.write_simresult(tmp_path / "after" / f"simresult_{mode}.csv",
                                 10, 5, 4, 100)
        out = tmp_path / "table.csv"
        assert main(["report", "--before", str(tmp_path / "before"),
                     "--after", str(tmp_path / "after"), "--out", str(out)]) == 0
        header, *rows = csv.reader(io.StringIO(out.read_text()))
        assert len(rows) == 4
        for cells in rows:
            assert len(cells) == len(header) == 9
            assert cells[3::2] == [cells[2]] * 3
            assert cells[4::2] == ["0.00"] * 3

    def test_f1_fixture_reproduces_percentages(self, tmp_path):
        self.write_simresult(tmp_path / "before" / "simresult.csv",
                             2004.63, 283.60, 20507, 1000)
        self.write_simresult(tmp_path / "after" / "simresult_ke.csv",
                             1786.41, 371.41, 18268, 1000)
        self.write_simresult(tmp_path / "after" / "simresult_ke_df.csv",
                             1752.57, 391.16, 17934, 1000)
        self.write_simresult(tmp_path / "after" / "simresult_ke_df_vcc.csv",
                             1716.85, 402.78, 18083, 1000)
        out = tmp_path / "table.csv"
        assert main(["report", "--before", str(tmp_path / "before"),
                     "--after", str(tmp_path / "after"), "--out", str(out),
                     "--name", "F1 car"]) == 0
        lines = out.read_text().splitlines()
        drag = lines[1].split(",")
        assert drag[0] == "F1 car"
        assert float(drag[4]) == pytest.approx(-10.89, abs=0.01)
        assert float(drag[6]) == pytest.approx(-12.57, abs=0.01)
        assert float(drag[8]) == pytest.approx(-14.36, abs=0.01)
        energy = lines[2].split(",")
        assert float(energy[4]) == pytest.approx(30.96, abs=0.01)
        assert float(energy[6]) == pytest.approx(37.93, abs=0.01)
        assert float(energy[8]) == pytest.approx(42.02, abs=0.01)

    def test_missing_after_dir_exits_5(self, tmp_path, capsys):
        self.write_simresult(tmp_path / "before" / "simresult.csv", 10, 5, 4, 100)
        assert main(["report", "--before", str(tmp_path / "before"),
                     "--after", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "t.csv")]) == 5
        assert_stderr_line(capsys, "report")

    def test_missing_before_exits_5(self, tmp_path, capsys):
        (tmp_path / "after").mkdir()
        self.write_simresult(tmp_path / "after" / "simresult_ke.csv", 10, 5, 4, 100)
        assert main(["report", "--before", str(tmp_path / "nope"),
                     "--after", str(tmp_path / "after"),
                     "--out", str(tmp_path / "t.csv")]) == 5
        assert_stderr_line(capsys, "report")

    @pytest.mark.parametrize("side", ["before", "after"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_metric_exits_2(self, tmp_path, capsys, side, value):
        before = tmp_path / "before" / "simresult.csv"
        after = tmp_path / "after" / "simresult_ke.csv"
        self.write_simresult(before, 10, 5, 4, 100)
        self.write_simresult(after, 9, 5, 4, 100)
        bad = before if side == "before" else after
        self.write_simresult(bad, 10, value, 4, 100)
        out = tmp_path / "t.csv"
        assert main(["report", "--before", str(before.parent), "--after", str(after.parent),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"report: {bad}: kinetic_energy must be finite and non-negative, "
            f"got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["car,v2", 'the "F1" car', "two\nlines", "two\rlines"])
    def test_name_not_one_cell_exits_2(self, tmp_path, capsys, name):
        self.write_simresult(tmp_path / "before" / "simresult.csv", 10, 5, 4, 100)
        self.write_simresult(tmp_path / "after" / "simresult_ke.csv", 9, 5, 4, 100)
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["report", "--before", str(tmp_path / "before"),
                  "--after", str(tmp_path / "after"), "--out", str(out), "--name", name])
        assert exc.value.code == 2
        assert "--name" in capsys.readouterr().err
        assert not out.exists()
