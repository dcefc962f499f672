import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind.cli import GridSource, RunConfig, SynthSpec, config_echo_json, load_run_config, main
from voxwind.env import EnvConfig, RewardWeights
from voxwind.errors import ConfigError
from voxwind.nn import load_checkpoint
from voxwind.ppo import PpoConfig
from voxwind.report import parse_comparison_table
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
from voxwind.windtunnel import TunnelConfig, simresult_from_csv


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

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["voxelize", "--input", str(tmp_path / "nope.pgm"),
                     "--h-max", "8", "--voxel-size", "0.1",
                     "--out", str(tmp_path / "g.csv")]) == 2


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = base_config()
        doc["tunnel"]["air_sped"] = 60.0
        grid = write_wedge_grid(tmp_path / "grid.csv")
        config = write_config(tmp_path / "run.json", doc)
        code = main(["simulate", "--grid", grid, "--config", config,
                     "--out", str(tmp_path / "sim")])
        assert code == 3
        assert "tunnel.air_sped" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path):
        config = write_config(tmp_path / "run.json", base_config())
        bad = tmp_path / "grid.csv"
        bad.write_text("not,a,grid\n")
        assert main(["simulate", "--grid", str(bad), "--config", config,
                     "--out", str(tmp_path / "sim")]) == 2

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
        load_checkpoint(out / "checkpoint_init.json")
        load_checkpoint(out / "checkpoint_final.json")
        grid_from_csv((out / "optimised_grid.csv").read_text())
        simresult_from_csv((out / "simresult_ke_df_vcc.csv").read_text())
        simresult_from_csv((out / "baseline" / "simresult.csv").read_text())
        assert (out / "heatmap_before.pgm").read_bytes().startswith(b"P5")
        assert (out / "heatmap_after.pgm").read_bytes().startswith(b"P5")
        echo = json.loads((out / "config_echo.json").read_text())
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
        doc = base_config()
        doc["tunnel"].update(particle_count=4, burst_count=1, max_steps=40)
        doc["ppo"] = {"batch_size": 8, "buffer_size": 8, "max_training_steps": 8,
                      "time_horizon": 8, "epochs": 3, "learning_rate": 1e300,
                      "learning_rate_final": 1e300, "hidden_layers": 1, "hidden_units": 8,
                      "grad_clip": 0}
        doc["env"].update(control_dims=[2, 2], pool_dims=[2, 2], episode_length=4)
        doc["env"]["synth"].update(width=8, length=8, h_max=4)
        out = tmp_path / "train"
        code = main(["train", "--config", write_config(tmp_path / "run.json", doc),
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err == ("train: non-finite policy or value parameters after the PPO "
                       "update at training step 8\n")
        assert (out / "checkpoint_init.json").is_file()
        assert not (out / "checkpoint_final.json").exists()


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
    def write_simresult(self, path, drag, ke, cc, hs):
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
        for row in parse_comparison_table(out.read_text()):
            for mode, value in row.optimised.items():
                assert value == row.original

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

    def test_missing_after_dir_exits_5(self, tmp_path):
        self.write_simresult(tmp_path / "before" / "simresult.csv", 10, 5, 4, 100)
        assert main(["report", "--before", str(tmp_path / "before"),
                     "--after", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "t.csv")]) == 5

    def test_missing_before_exits_5(self, tmp_path):
        (tmp_path / "after").mkdir()
        self.write_simresult(tmp_path / "after" / "simresult_ke.csv", 10, 5, 4, 100)
        assert main(["report", "--before", str(tmp_path / "nope"),
                     "--after", str(tmp_path / "after"),
                     "--out", str(tmp_path / "t.csv")]) == 5
