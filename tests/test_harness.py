import dataclasses
import errno
import hashlib
import json
import os
import re
import zipfile

import numpy as np
import pytest

from memqnn import cli, harness
from memqnn.cli import build_parser, main as cli_main
from memqnn.data import TaskSpec, load_dataset
from memqnn.errors import ConfigError
from memqnn.harness import (
    ExperimentConfig,
    build_grid,
    evaluate,
    ops_histogram,
    preset,
    read_ops_counts,
    restore_run,
    run_repeated,
    run_sequential,
    run_sweep,
    save_checkpoint,
    schedule,
    write_ops_histogram_csv,
)
from memqnn.xbar import CrossbarTile, dump_tiles_tsv

from conftest import make_synth_task, uniform_mlp, write_idx_images, write_idx_labels
from oracles import reference_ops_histogram


def synth_config(synth_data_dir, out_dir, **overrides):
    base = dict(
        dims=(64, 24, 24, 10),
        tasks=[TaskSpec("synthA", 3), TaskSpec("synthB", 2)],
        pretrain_epochs=1,
        batch_size=64,
        lr=5e-3,
        m_star=3.0,
        seed=7,
        data_dir=str(synth_data_dir),
        out_dir=str(out_dir),
        eval_batch=256,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = preset("desk", seed=3, out_dir=str(tmp_path))
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_json_bytes_pinned(self):
        # guards the serialized form: json writes the tuple fields as lists
        cfg = ExperimentConfig(grid_source="explicit",
                               grid_level_values=[-1.0, -0.25, 0.0, 0.25, 1.0],
                               data_dir="data/pinned",
                               out_dir="runs/pinned")
        text = cfg.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5fd1c2af63b8b247c44a32f26cd59ec0b6ebe3789ae9740308169867f4892a50")
        assert ExperimentConfig.from_json(text) == cfg

    def test_preset_scales(self):
        assert preset("full").dims == (784, 512, 512, 10)
        assert preset("desk").dims == (784, 256, 256, 10)
        with pytest.raises(ConfigError):
            preset("planet")

    @pytest.mark.parametrize("bad", [
        dict(dims=(784,)),
        dict(grid_source="fancy"),
        dict(weight_source="fpga"),
        dict(weight_source="crossbar"),  # uniform grid + crossbar
        dict(grid_levels=1),
        dict(grid_lo=2.0, grid_hi=-2.0),
        dict(m_star=-1.0),
        dict(lr=-1e-3),
        dict(batch_size=0),
        dict(dtype="float16"),
        dict(tasks=[TaskSpec("a", 1), TaskSpec("a", 2)]),
        dict(init_span=-2.0),
        dict(init_span=0.0),
        dict(init_span=float("nan")),
        dict(init_span=float("inf")),
        dict(pretrain_epochs=-1),
        dict(target_max=0.0),
        dict(read_noise_sigma=-0.1),
        dict(device_sigma_frac=-0.1),
        dict(endurance=0),
    ])
    def test_validation_failures(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validate()

    @pytest.mark.parametrize("grid_source", ["uniform", "device"])
    def test_m_star_slope_must_be_finite(self, grid_source):
        # 2 * m* / (narrowest width) is about 1e301 here: finite in float64 only
        for where in ("m_star", "task"):
            def cfg(m, dtype):
                task_m = m if where == "task" else None
                return ExperimentConfig(grid_source=grid_source, dtype=dtype, pretrain_epochs=1,
                                        tasks=[TaskSpec("a", 1), TaskSpec("b", 1, m_star=task_m)],
                                        **({"m_star": m} if where == "m_star" else {}))
            cfg(1e300, "float64").validate()
            for m, dtype in ((1e300, "float32"), (1e308, "float64")):
                with pytest.raises(ConfigError, match="overflows the plasticity slope"):
                    cfg(m, dtype).validate()

    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\rb", "a\nb"])
    def test_task_names_fit_run_tables(self, name):
        # a name heads the acc_<name> column of metrics.csv and sweep.csv
        with pytest.raises(ConfigError, match="task names must be non-empty"):
            ExperimentConfig(pretrain_epochs=0, tasks=[TaskSpec(name, 1)]).validate()
        ExperimentConfig(pretrain_epochs=0, tasks=[TaskSpec("a b-é'", 1)]).validate()

    def test_pretraining_longer_than_first_task_rejected(self):
        tasks = [TaskSpec("a", 2), TaskSpec("b", 5)]
        ExperimentConfig(pretrain_epochs=2, tasks=tasks).validate()
        with pytest.raises(ConfigError, match="pretrain_epochs 3 exceeds the 2 epochs"):
            ExperimentConfig(pretrain_epochs=3, tasks=tasks).validate()
        ExperimentConfig(pretrain_epochs=3, tasks=[]).validate()  # nothing to pretrain

    def test_level_spec_from_rows(self):
        cfg = ExperimentConfig(grid_source="device",
                               device_rows=[[k, 2.0 + 3 * k, 0.1] for k in range(9)])
        spec = build_grid(cfg)[1].spec
        assert spec.means[0] == 2.0 and spec.means[8] == 26.0

    def test_explicit_grid_levels(self, synth_data_dir, tmp_path):
        levels = [-1.0, -0.25, 0.0, 0.4, 1.2]
        cfg = synth_config(synth_data_dir, tmp_path / "e",
                           grid_source="explicit", grid_level_values=levels)
        grid, dgrid = build_grid(cfg.validate())
        assert grid.levels.tolist() == levels and dgrid is None
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.grid_level_values == levels
        with pytest.raises(ConfigError):
            ExperimentConfig(grid_source="explicit").validate()


class TestSequentialRun:
    def test_exact_run_outputs(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "run")
        res = run_sequential(cfg)
        assert (res.out_dir / "metrics.csv").exists()
        assert (res.out_dir / "config.json").exists()
        assert (res.out_dir / "checkpoint.npz").exists()
        assert (res.out_dir / "run.json").exists()
        assert not (res.out_dir / "devices.tsv").exists()  # exact mode
        assert len(res.records) == 5
        # both tasks evaluated every epoch
        for rec in res.records:
            assert set(rec.accuracies) == {"synthA", "synthB"}
        # the synthetic task is learnable
        assert res.max_accuracy("synthA") > 60.0

    def test_metrics_csv_contract(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "run")
        run_sequential(cfg)
        lines = (tmp_path / "run" / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,task,acc_synthA,acc_synthB,cum_ops"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "synthA" and first[4] == "0"

    def test_byte_for_byte_reproducibility(self, synth_data_dir, tmp_path):
        a = run_sequential(synth_config(synth_data_dir, tmp_path / "a"))
        b = run_sequential(synth_config(synth_data_dir, tmp_path / "b"))
        ma = (a.out_dir / "metrics.csv").read_bytes()
        mb = (b.out_dir / "metrics.csv").read_bytes()
        assert ma == mb

    def test_seed_changes_results(self, synth_data_dir, tmp_path):
        a = run_sequential(synth_config(synth_data_dir, tmp_path / "a"))
        b = run_sequential(synth_config(synth_data_dir, tmp_path / "b", seed=8))
        assert (a.out_dir / "metrics.csv").read_bytes() != (b.out_dir / "metrics.csv").read_bytes()

    def test_empty_task_list_header_only(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "none", tasks=[])
        res = run_sequential(cfg)
        lines = (res.out_dir / "metrics.csv").read_text().strip().split("\n")
        assert lines == ["epoch,task,cum_ops"]

    @pytest.mark.parametrize("dims", [(63, 24, 10), (64, 24, 5)])
    def test_dims_must_fit_data(self, synth_data_dir, tmp_path, dims):
        cfg = synth_config(synth_data_dir, tmp_path / "run", dims=dims)
        with pytest.raises(ConfigError, match="dims"):
            run_sequential(cfg)
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_twelve_class_task_trains(self, tmp_path):
        # any label count that fits dims loads; labels >= dims[-1] stay refused above
        rng = np.random.default_rng(0)
        task_dir = tmp_path / "data" / "twelve"
        task_dir.mkdir(parents=True)
        for part, n in (("train", 96), ("t10k", 48)):
            write_idx_images(task_dir / f"{part}-images-idx3-ubyte",
                             rng.integers(0, 256, size=(n, 8, 8)))
            write_idx_labels(task_dir / f"{part}-labels-idx1-ubyte", np.arange(n) % 12)
        res = run_sequential(synth_config(tmp_path / "data", tmp_path / "run", dims=(64, 16, 12),
                                          tasks=[TaskSpec("twelve", 1)], pretrain_epochs=0))
        assert [r.task for r in res.records] == ["twelve"]

    def test_missing_data_dir_fails(self, tmp_path):
        cfg = synth_config(tmp_path, tmp_path / "run")  # no datasets here
        with pytest.raises(FileNotFoundError):
            run_sequential(cfg)

    def test_per_task_bn_snapshot_protocol(self, synth_data_dir, tmp_path):
        on = run_sequential(synth_config(synth_data_dir, tmp_path / "bn_on"))
        off = run_sequential(synth_config(synth_data_dir, tmp_path / "bn_off",
                                          per_task_bn=False))
        _, mlp, *_, snaps_on = restore_run(on.out_dir / "checkpoint.npz")
        *_, snaps_off = restore_run(off.out_dir / "checkpoint.npz")
        assert set(snaps_on) == {"synthA", "synthB"}
        assert snaps_off == {}
        # the recorded metric for a finished task is the snapshot-BN evaluation
        split = load_dataset(synth_data_dir / "synthA", "test", name="synthA",
                             dtype=np.float32)
        snap_eval = evaluate(mlp, split, 256, bn_state=snaps_on["synthA"])
        assert snap_eval == pytest.approx(on.final_accuracy("synthA"), abs=1e-9)

    def test_evaluate_restores_live_bn_state(self, synth_data_dir, tmp_path):
        from memqnn.quantgrid import uniform_grid
        mlp = uniform_mlp((64, 8, 10), uniform_grid(17, -1.5, 1.5), np.random.default_rng(0))
        snap = mlp.bn_state()
        mlp.layers[0].bn.gamma += 0.5  # live state diverges from the snapshot
        live_gamma = mlp.layers[0].bn.gamma.copy()
        split = load_dataset(synth_data_dir / "synthA", "test", name="synthA",
                             dtype=np.float64)
        evaluate(mlp, split, 256, bn_state=snap)
        assert np.array_equal(mlp.layers[0].bn.gamma, live_gamma)

    def test_task_m_star_override(self, synth_data_dir, tmp_path, monkeypatch):
        # every step of an epoch trains at that epoch's m*: pretraining, a task's own, the config's
        steps, real_step = [], harness.train_step

        def train_step(mlp, adam, x, y, m_star, lr, dgrid=None):
            steps.append(m_star)
            return real_step(mlp, adam, x, y, m_star, lr, dgrid)

        monkeypatch.setattr(harness, "train_step", train_step)
        cfg = synth_config(synth_data_dir, tmp_path / "o",
                           tasks=[TaskSpec("synthA", 2, m_star=5.0),
                                  TaskSpec("synthB", 2, m_star=0.0),
                                  TaskSpec("againA", 1, dataset="synthA")])
        res = run_sequential(cfg)
        assert len(res.records) == 5
        # every synthetic split has the same size, so the epochs split the steps evenly
        per_epoch = [set(epoch.tolist()) for epoch in np.split(np.array(steps), 5)]
        assert per_epoch == [{0.0}, {5.0}, {0.0}, {0.0}, {3.0}]


class TestSchedule:
    def test_epochs_tasks_m_stars_and_last_flags(self):
        cfg = ExperimentConfig(m_star=3.0, pretrain_epochs=2,
                               tasks=[TaskSpec("a", 3), TaskSpec("b", 2, m_star=0.0),
                                      TaskSpec("c", 1, m_star=5.0), TaskSpec("d", 2)])
        assert [(e, t.name, m, last) for e, t, m, last in schedule(cfg)] == [
            (1, "a", 0.0, False), (2, "a", 0.0, False), (3, "a", 3.0, True),
            (4, "b", 0.0, False), (5, "b", 0.0, True),
            (6, "c", 5.0, True),
            (7, "d", 3.0, False), (8, "d", 3.0, True),
        ]

    def test_pretraining_overrides_the_first_task_m_star(self):
        tasks = [TaskSpec("a", 2, m_star=5.0), TaskSpec("b", 1)]
        for pretrain, expected in ((0, [5.0, 5.0, 1.0]), (1, [0.0, 5.0, 1.0]),
                                   (2, [0.0, 0.0, 1.0])):
            cfg = ExperimentConfig(m_star=1.0, pretrain_epochs=pretrain, tasks=tasks)
            assert [m for _, _, m, _ in schedule(cfg)] == expected

    def test_empty_task_list_yields_nothing(self):
        assert list(schedule(ExperimentConfig(pretrain_epochs=3, tasks=[]))) == []


class TestCrossbarRun:
    def test_crossbar_outputs_and_ops(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "xb",
                           weight_source="crossbar", grid_source="device")
        res = run_sequential(cfg)
        assert (res.out_dir / "devices.tsv").exists()
        n_cells = 2 * (64 * 24 + 24 * 24 + 24 * 10)
        assert res.cum_ops >= n_cells  # at least the init programming
        counts = read_ops_counts(res.out_dir)
        assert counts.size == n_cells
        assert counts.sum() == res.cum_ops  # op conservation incl. dump
        # histogram artifacts: final plus per-epoch snapshots
        final_rows = (res.out_dir / "ops_histogram.csv").read_text().strip().split("\n")
        assert final_rows[0] == "ops_lo,ops_hi,pct_devices"
        by_epoch = (res.out_dir / "ops_histogram_by_epoch.csv").read_text().strip().split("\n")
        assert by_epoch[0] == "epoch,ops_lo,ops_hi,pct_devices"
        epochs_present = {int(r.split(",")[0]) for r in by_epoch[1:]}
        assert epochs_present == set(range(1, 6))

    def test_zero_lr_zero_programming(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "frozen", lr=0.0,
                           weight_source="crossbar", grid_source="device",
                           tasks=[TaskSpec("synthA", 2)], pretrain_epochs=0)
        res = run_sequential(cfg)
        n_cells = 2 * (64 * 24 + 24 * 24 + 24 * 10)
        assert res.cum_ops == n_cells  # init only, nothing reprogrammed

    def test_crossbar_learns_with_variability(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "xl",
                           weight_source="crossbar", grid_source="device",
                           tasks=[TaskSpec("synthA", 4)], pretrain_epochs=1)
        res = run_sequential(cfg)
        assert res.max_accuracy("synthA") > 55.0


class TestCheckpoint:
    def test_restore_reproduces_eval(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "ck")
        res = run_sequential(cfg)
        config, mlp, adam, _, _, epoch, cum_ops, snaps = restore_run(
            res.out_dir / "checkpoint.npz")
        assert set(snaps) == {"synthA", "synthB"}
        assert (epoch, cum_ops) == (len(res.records), res.cum_ops)
        split = load_dataset(synth_data_dir / "synthA", "test", name="synthA",
                             dtype=np.dtype(config.dtype))
        acc = evaluate(mlp, split, config.eval_batch, bn_state=snaps["synthA"])
        assert acc == pytest.approx(res.final_accuracy("synthA"), abs=1e-9)
        assert adam.t == sum(t.epochs for t in cfg.tasks) * 24  # 1536/64 steps

    def test_restore_crossbar_state(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "ckx",
                           weight_source="crossbar", grid_source="device")
        res = run_sequential(cfg)
        config, mlp, *_, cum_ops, snaps = restore_run(res.out_dir / "checkpoint.npz")
        assert cum_ops == res.cum_ops
        split = load_dataset(synth_data_dir / "synthB", "test", name="synthB",
                             dtype=np.dtype(config.dtype))
        acc = evaluate(mlp, split, 256, bn_state=snaps["synthB"])
        assert acc == pytest.approx(res.final_accuracy("synthB"), abs=1e-9)

    def test_tile_must_encode_layer_levels(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "alt", weight_source="crossbar",
                           grid_source="device", tasks=[TaskSpec("synthA", 1)],
                           pretrain_epochs=0)
        res = run_sequential(cfg)
        state = dict(np.load(res.out_dir / "checkpoint.npz"))
        level = state["tile0.plus.level"].copy()
        level.flat[7] = (level.flat[7] + 1) % 9
        state["tile0.plus.level"] = level
        np.savez(tmp_path / "altered.npz", **state)
        with pytest.raises(ConfigError, match="tile0"):
            restore_run(tmp_path / "altered.npz")
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "altered.npz"),
                         "--data-dir", str(synth_data_dir)]) == 2
        assert "tile0" in capsys.readouterr().err

    def test_damaged_checkpoint(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "dm", weight_source="crossbar",
                           grid_source="device", tasks=[TaskSpec("synthA", 1)],
                           pretrain_epochs=0)
        res = run_sequential(cfg)
        saved = dict(np.load(res.out_dir / "checkpoint.npz"))
        config = json.loads(saved["config_json"].tobytes())
        tile_ops = sum(int(v.sum()) for k, v in saved.items() if k.endswith(".ops"))
        assert tile_ops == saved["cum_ops"] > 0

        def with_config(state=saved, **fields):
            packed = json.dumps({**config, **fields}).encode()
            return {**state, "config_json": np.frombuffer(packed, np.uint8)}

        def without(*keys):
            return {k: v for k, v in saved.items() if k not in keys}

        def planted(a, value):
            a = a.copy()
            a.flat[0] = value
            return a

        damaged = {
            "lacking.npz": ({k: v for k, v in saved.items() if k != "tile0.minus.g"},
                            "tile0.minus.g"),
            "fewer_dims.npz": (with_config(dims=[64, 24, 10]), "dims (64, 24, 24)"),
            "more_dims.npz": (with_config(dims=[64, 30, 24, 10]), "dims (64, 24, 24, 10)"),
            "cell_shape.npz": ({**saved, "tile0.plus.g": saved["tile0.plus.g"].T},
                               "tile0.plus.g shape (24, 64)"),
            "nan_weight.npz": ({**saved, "layer1.w_hidden": saved["layer1.w_hidden"] * np.nan},
                               "must be finite"),
            "adam_slot.npz": ({**saved, "adam.m.w0": saved["adam.m.w0"][:3]},
                              "adam slot 'w0' of shape (3, 24)"),
            # the compiled step would read the slot in the run dtype
            "adam_dtype.npz": ({**saved, "adam.v.w1": saved["adam.v.w1"].astype(np.float16)},
                               "adam slots are not all"),
            # each of these would restore, then misstep: bias corrections of a
            # negative or fractional t, a NaN moment, the square root of v < 0
            "adam_t_negative.npz": ({**saved, "adam.t": np.asarray(-5)},
                                    "t = -5 is not a whole number >= 0"),
            "adam_t_fraction.npz": ({**saved, "adam.t": np.asarray(2.5)},
                                    "t = 2.5 is not a whole number >= 0"),
            "adam_t_zero.npz": ({**saved, "adam.t": np.asarray(0)},
                                "t = 0 with moment slots stored"),
            "adam_nan_moment.npz": (
                {**saved, "adam.m.bn0.gamma": planted(saved["adam.m.bn0.gamma"], np.nan)},
                "'bn0.gamma' holds a moment that is not finite"),
            "adam_negative_v.npz": ({**saved, "adam.v.w1": planted(saved["adam.v.w1"], -1.0)},
                                    "'w1' holds a negative second moment"),
            # a lost slot would restart its moments from zero under t + 1's bias
            # correction, and a second moment without its first is no slot
            "adam_lost_m.npz": (without("adam.m.w0"), "lacks array 'adam.m.w0'"),
            "adam_lost_v.npz": (without("adam.v.w0"), "lacks array 'adam.v.w0'"),
            "adam_lost_slot.npz": (without("adam.m.w0", "adam.v.w0"), "lacks array 'adam.m.w0'"),
            "adam_lost_bn_slot.npz": (without("adam.m.bn0.gamma", "adam.v.bn0.gamma"),
                                      "lacks array 'adam.m.bn0.gamma'"),
            "adam_lone_v.npz": ({**without(*(k for k in saved if k.startswith("adam."))),
                                 "adam.t": np.asarray(0), "adam.v.w0": saved["adam.v.w0"]},
                                "lacks array 'adam.m.w0'"),
            # counters and generator states no run writes: a vector, a list, a
            # fraction, a negative count, an epoch past the schedule's one epoch
            "version_vector.npz": ({**saved, "format_version": np.asarray([1, 1])},
                                   "unsupported checkpoint version [1 1]"),
            "epoch_vector.npz": ({**saved, "epoch": np.asarray([1, 1])},
                                 "epoch = [1 1] is not a whole number >= 0"),
            "cum_ops_vector.npz": ({**saved, "cum_ops": np.asarray([7])},
                                   "cum_ops = [7] is not a whole number >= 0"),
            "data_rng_list.npz": ({**saved, "data_rng": np.frombuffer(b"[1, 2]", np.uint8)},
                                  "data_rng holds no bit-generator state"),
            "epoch_fraction.npz": ({**saved, "epoch": np.asarray(0.7)},
                                   "epoch = 0.7 is not a whole number >= 0"),
            "epoch_negative.npz": ({**saved, "epoch": np.asarray(-3)},
                                   "epoch = -3 is not a whole number >= 0"),
            "cum_ops_negative.npz": ({**saved, "cum_ops": np.asarray(-1)},
                                     "cum_ops = -1 is not a whole number >= 0"),
            "epoch_past.npz": ({**saved, "epoch": np.asarray(2)},
                               "epoch 2 is past the schedule's end"),
            # cum_ops counts every program op since set-up: the tiles' total,
            # and 0 in exact mode, which has no tiles
            "cum_ops_not_tiles.npz": ({**saved, "cum_ops": np.asarray(5)},
                                      f"cum_ops 5 != {tile_ops}, the program ops of the tiles"),
            "cum_ops_exact.npz": (
                with_config({**without(*(k for k in saved if k.startswith("tile"))),
                             "cum_ops": np.asarray(5)}, weight_source="exact"),
                "cum_ops 5 != 0, the program ops of the tiles"),
        }
        for name, (state, _) in damaged.items():
            np.savez(tmp_path / name, **state)
        (tmp_path / "text.npz").write_text("not a checkpoint file\n")
        cases = [(name, named) for name, (_, named) in damaged.items()]
        cases.append(("text.npz", "text.npz"))
        for name, named in cases:
            with pytest.raises(ConfigError, match=re.escape(named)):
                restore_run(tmp_path / name)
            assert cli_main(["eval", "--checkpoint", str(tmp_path / name),
                             "--data-dir", str(synth_data_dir)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mode", ["exact", "crossbar"])
    def test_restore_returns_what_was_saved(self, synth_data_dir, tmp_path, mode, dtype):
        cfg = synth_config(synth_data_dir, tmp_path / "rt", weight_source=mode, dtype=dtype,
                           grid_source="device" if mode == "crossbar" else "uniform",
                           tasks=[TaskSpec("synthA", 1), TaskSpec("synthB", 1)],
                           pretrain_epochs=0)
        first = run_sequential(cfg).out_dir / "checkpoint.npz"
        save_checkpoint(tmp_path / "again.npz", *restore_run(first))
        with np.load(first) as a, np.load(tmp_path / "again.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            assert {"bnsnap.synthB.1.var", "epoch", "cum_ops"} <= set(a.files)
            assert not {"dims", "grid_levels", "layer0.level_idx", "adam.betas_eps"} & set(a.files)
            for name in a.files:
                x, y = a[name], b[name]
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    def test_compressed_checkpoint_restores(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "cz", weight_source="crossbar",
                           grid_source="device", tasks=[TaskSpec("synthA", 1)],
                           pretrain_epochs=0)
        first = run_sequential(cfg).out_dir / "checkpoint.npz"
        with zipfile.ZipFile(first) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
        # as written before the checkpoint went uncompressed, Adam betas included
        with np.load(first) as z:
            original = {k: z[k] for k in z.files}
        np.savez_compressed(tmp_path / "old.npz", **original,
                            **{"adam.betas_eps": np.asarray([0.5, 0.5, 1.0])})
        save_checkpoint(tmp_path / "again.npz", *restore_run(tmp_path / "old.npz"))
        with np.load(tmp_path / "again.npz") as b:
            assert sorted(b.files) == sorted(original)
            for name, x in original.items():
                y = b[name]
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    def test_version_gate(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "cv",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        res = run_sequential(cfg)
        state = dict(np.load(res.out_dir / "checkpoint.npz"))
        state["format_version"] = np.asarray(99)
        np.savez(tmp_path / "bad.npz", **state)
        with pytest.raises(ConfigError, match="version 99"):
            restore_run(tmp_path / "bad.npz")


class TestSweep:
    def test_single_value_equals_sequential(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "sw")
        sweep = run_sweep(cfg, [3.0])
        solo = run_sequential(dataclasses.replace(cfg, out_dir=str(tmp_path / "solo")))
        assert sweep[0].final_accuracy("synthA") == solo.final_accuracy("synthA")
        table = (tmp_path / "sw" / "sweep.csv").read_text().strip().split("\n")
        assert table[0] == ("m_star,final_acc_synthA,final_acc_synthB,"
                            "max_acc_synthA,max_acc_synthB,cum_ops")
        assert len(table) == 2

    def test_empty_sweep_rejected(self, synth_data_dir, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(synth_config(synth_data_dir, tmp_path / "e"), [])

    @pytest.mark.parametrize("values", [[0.0, -1.0], [0.0, float("nan")], [float("inf")]])
    def test_sweep_values_checked_first(self, synth_data_dir, tmp_path, values):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            run_sweep(synth_config(synth_data_dir, tmp_path / "v"), values)
        assert not (tmp_path / "v").exists()

    def test_sweep_slopes_checked_first(self, synth_data_dir, tmp_path):
        with pytest.raises(ConfigError, match="m_star 1e\\+300 overflows"):
            run_sweep(synth_config(synth_data_dir, tmp_path / "v"), [0.0, 1e300])
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("tasks", [
        [TaskSpec("synthA", 2, m_star=0.0), TaskSpec("synthB", 1, m_star=5.0)],
        [TaskSpec("synthA", 1), TaskSpec("synthB", 1, m_star=5.0)],  # pretraining only
        [],
    ])
    def test_sweep_needs_an_epoch_at_config_m_star(self, synth_data_dir, tmp_path, tasks):
        cfg = synth_config(synth_data_dir, tmp_path / "m", tasks=tasks,
                           pretrain_epochs=1 if tasks else 0)
        with pytest.raises(ConfigError, match="no epoch trains at the config's m"):
            run_sweep(cfg, [0.0, 3.0, 10.0])
        assert not (tmp_path / "m").exists()

    def test_sweep_with_one_epoch_at_config_m_star(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "m", pretrain_epochs=1,
                           tasks=[TaskSpec("synthA", 2), TaskSpec("synthB", 1, m_star=5.0)])
        run_sweep(cfg, [0.0, 3.0])
        rows = (tmp_path / "m" / "sweep.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "3"]

    def test_sweep_run_names_unique(self, synth_data_dir, tmp_path):
        with pytest.raises(ConfigError, match="twice"):
            run_sweep(synth_config(synth_data_dir, tmp_path / "u"), [0.1, 0.1000001])
        assert not (tmp_path / "u").exists()

    def test_repeats_summary(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "rep",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        results = run_repeated(cfg, 2)
        assert len(results) == 2
        table = (tmp_path / "rep" / "summary.csv").read_text().strip().split("\n")
        assert table[0] == "task,final_mean,final_std,max_mean,max_std"
        with pytest.raises(ConfigError):
            run_repeated(cfg, 0)


class TestOpsHistogram:
    def test_untrained_network_single_bucket(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "h0", lr=0.0,
                           weight_source="crossbar", grid_source="device",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        res = run_sequential(cfg)
        rows = ops_histogram(res.out_dir)
        assert rows[0][2] == pytest.approx(100.0, abs=1e-9)

    def test_percentages_sum_to_100(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "h1",
                           weight_source="crossbar", grid_source="device")
        res = run_sequential(cfg)
        rows = ops_histogram(res.out_dir, bucket_width=5)
        assert sum(pct for _, _, pct in rows) == pytest.approx(100.0, abs=0.01)

    @pytest.mark.parametrize("bucket_width", [1, 3, 5, 7])
    def test_rows_equal_reference(self, bucket_width):
        class Tile:  # all read_ops_counts asks of a tile
            def __init__(self, ops):
                self.ops = ops

            def ops_per_cell(self):
                return self.ops

        rng = np.random.default_rng(bucket_width)
        tiles = [Tile(rng.integers(0, 40, size)) for size in (50, 1, 7)]
        tiles.append(Tile(np.array([0, 4 * bucket_width, 4 * bucket_width - 1])))
        before = [t.ops.copy() for t in tiles]
        want = reference_ops_histogram(np.concatenate(before), bucket_width)
        assert ops_histogram(tiles, bucket_width) == want
        assert all(np.array_equal(t.ops, b) for t, b in zip(tiles, before))
        with pytest.raises(ConfigError, match="bucket_width must be >= 1"):
            ops_histogram(tiles, bucket_width=0)

    def test_csv_written(self, tmp_path):
        rows = [(0, 5, 60.0), (5, 10, 40.0)]
        write_ops_histogram_csv(tmp_path / "h.csv", rows)
        lines = (tmp_path / "h.csv").read_text().strip().split("\n")
        assert lines[0] == "ops_lo,ops_hi,pct_devices"
        assert lines[1].startswith("0,5,60")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_hist_ops_reads_the_checkpoint(self, synth_data_dir, tmp_path, monkeypatch, dtype):
        live = []

        def keep_tiles(path, tiles):  # the run's final tiles, on their way to devices.tsv
            live.extend(tiles)
            dump_tiles_tsv(path, tiles)

        monkeypatch.setattr(harness, "dump_tiles_tsv", keep_tiles)
        cfg = synth_config(synth_data_dir, tmp_path / "hc", weight_source="crossbar",
                           grid_source="device", dtype=dtype)
        res = run_sequential(cfg)
        out = res.out_dir
        written = (out / "ops_histogram.csv").read_bytes()
        (out / "devices.tsv").unlink()
        (out / "ops_histogram.csv").unlink()
        assert cli_main(["hist-ops", "--run-dir", str(out)]) == 0
        assert (out / "ops_histogram.csv").read_bytes() == written
        counts = read_ops_counts(out)
        assert len(live) == 3 and counts.dtype == np.int64
        assert np.array_equal(counts, np.concatenate([t.ops_per_cell() for t in live]))
        assert counts.sum() == res.cum_ops

    def test_missing_dump_rejected(self, tmp_path, capsys):
        path = tmp_path / "checkpoint.npz"  # a directory with no checkpoint
        with pytest.raises(ConfigError, match=re.escape(f"no checkpoint at {path}")):
            ops_histogram(tmp_path)
        assert cli_main(["hist-ops", "--run-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no checkpoint at {path}\n"
        assert not (tmp_path / "ops_histogram.csv").exists()

    def test_no_cells_rejected(self):
        cfg = ExperimentConfig(dims=(4, 3), weight_source="crossbar",
                               grid_source="device").validate()
        _, dgrid = harness.build_grid(cfg)
        empty = CrossbarTile(0, 3, dgrid, np.random.default_rng(0))
        for source in ([], [empty], [empty, empty]):
            for read in (read_ops_counts, ops_histogram):
                with pytest.raises(ConfigError, match="^no device cells in source$"):
                    read(source)

    def test_exact_run_rejected(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "he",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        out = run_sequential(cfg).out_dir
        named = f"{out / 'checkpoint.npz'}: an exact-mode checkpoint has no tiles"
        with pytest.raises(ConfigError, match=re.escape(named)):
            read_ops_counts(out)
        assert cli_main(["hist-ops", "--run-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (out / "ops_histogram.csv").exists()

    def test_damaged_cells_rejected(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "hd", weight_source="crossbar",
                           grid_source="device", tasks=[TaskSpec("synthA", 1)],
                           pretrain_epochs=0)
        saved = dict(np.load(run_sequential(cfg).out_dir / "checkpoint.npz"))

        def edited(key, value):
            a = saved[key].astype(np.result_type(saved[key], value))
            a.flat[5] = value
            return {**saved, key: a}

        bad_g = "holds a conductance that is negative or not finite"
        for key, value, named in (
                ("tile0.plus.ops", -4, "tile0.plus.ops holds a negative op count -4"),
                ("tile0.minus.level", np.int16(259),
                 "tile0.minus.level holds a level outside -1..8"),
                ("tile0.minus.ops", np.float64(2.7),
                 "tile0.minus.ops holds an op count that is not a whole number"),
                ("tile0.plus.g", np.nan, f"tile0.plus.g {bad_g}"),
                ("tile0.minus.g", -5.0, f"tile0.minus.g {bad_g}")):
            run_dir = tmp_path / key
            run_dir.mkdir()
            path = run_dir / "checkpoint.npz"
            np.savez(path, **edited(key, value))
            with pytest.raises(ConfigError, match=re.escape(f"{path}: {named}")):
                read_ops_counts(run_dir)
            for argv in (["hist-ops", "--run-dir", str(run_dir)],
                         ["eval", "--checkpoint", str(path), "--data-dir", str(synth_data_dir)]):
                assert cli_main(argv) == 2
                assert capsys.readouterr().err == f"error: {path}: {named}\n"
            assert not (run_dir / "ops_histogram.csv").exists()
        # a conductance of -0.0 is a valid zero
        run_dir = tmp_path / "negative_zero"
        run_dir.mkdir()
        np.savez(run_dir / "checkpoint.npz", **edited("tile0.minus.g", -0.0))
        assert read_ops_counts(run_dir).sum() == int(saved["cum_ops"])


class TestCli:
    def test_train_and_eval(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "cli",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "final synthA" in out
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "cli" / "checkpoint.npz"),
                         "--data-dir", str(synth_data_dir)]) == 0
        assert "synthA:" in capsys.readouterr().out
        assert cli_main(["train", "--config", str(cfg_path), "--repeats", "2",
                         "--out", str(tmp_path / "reps")]) == 0
        assert "wrote 2 runs under" in capsys.readouterr().out
        assert (tmp_path / "reps" / "summary.csv").exists()

    def test_run_flags_land_in_config_fields(self, synth_data_dir, tmp_path):
        cfg = synth_config(synth_data_dir, tmp_path / "flags")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())

        def load(*flags):
            return cli._load_config(build_parser().parse_args(
                ["train", "--config", str(cfg_path), *flags]))

        assert load() == cfg  # unset flags keep the file's values
        for flags, fields in (
                (["--m-star", "5"], dict(m_star=5.0)),
                (["--mode", "crossbar"], dict(weight_source="crossbar", grid_source="device")),
                (["--seed", "9"], dict(seed=9)),
                (["--data-dir", "elsewhere"], dict(data_dir="elsewhere")),
                (["--out", "runs/o"], dict(out_dir="runs/o")),
                (["--dtype", "float64"], dict(dtype="float64"))):
            assert load(*flags) == dataclasses.replace(cfg, **fields), flags

    def test_eval_uses_run_dtype(self, synth_data_dir, tmp_path, capsys, monkeypatch):
        cfg = synth_config(synth_data_dir, tmp_path / "f64", dtype="float64",
                           tasks=[TaskSpec("synthA", 1), TaskSpec("synthB", 1)],
                           pretrain_epochs=0)
        res = run_sequential(cfg)
        seen = []

        def spy(mlp, split, *args, **kwargs):
            seen.append(split.rows(slice(0, 1)).dtype)
            return evaluate(mlp, split, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", spy)
        assert cli_main(["eval", "--checkpoint", str(res.out_dir / "checkpoint.npz")]) == 0
        assert seen == [np.float64, np.float64]
        # the final accuracies are the last row of metrics.csv
        assert capsys.readouterr().out.splitlines() == [
            f"{n}: {res.final_accuracy(n):.2f}%" for n in ("synthA", "synthB")]

    def test_eval_dims_must_fit_data(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "ev",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        res = run_sequential(cfg)
        make_synth_task(tmp_path / "small" / "synthA", "forward", n_train=20, n_test=20, side=6)
        assert cli_main(["eval", "--checkpoint", str(res.out_dir / "checkpoint.npz"),
                         "--data-dir", str(tmp_path / "small")]) == 2
        assert "do not fit dims" in capsys.readouterr().err

    def test_sweep_and_hist(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "clis",
                           weight_source="crossbar", grid_source="device",
                           tasks=[TaskSpec("synthA", 1)], pretrain_epochs=0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert cli_main(["sweep", "--config", str(cfg_path), "--m-stars", "0,3"]) == 0
        assert (tmp_path / "clis" / "sweep.csv").exists()
        run_dir = tmp_path / "clis" / "mstar_3"
        assert cli_main(["hist-ops", "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "ops_histogram.csv").exists()

    def test_invalid_config_exit_code(self, synth_data_dir, tmp_path, capsys):
        cfg = synth_config(synth_data_dir, tmp_path / "bad")
        texts = [("{not json", "not valid JSON"), ("", "not valid JSON"),
                 ("[1, 2]", "JSON object")]
        for edit, named in ((lambda d: d.update(m_star=-3), "m_star"),
                            (lambda d: d.update(m_str=3), "m_str"),
                            (lambda d: d["tasks"][0].pop("epochs"), "epochs"),
                            (lambda d: d["tasks"][1].update(lr=0.1), "lr"),
                            (lambda d: d.update(dims=784), "dims"),
                            (lambda d: d["tasks"][0].update(epochs="3"), "epochs"),
                            (lambda d: d.update(lr="fast"), "lr"),
                            (lambda d: d.update(batch_size=True), "batch_size"),
                            (lambda d: d.update(tasks=["mnist"]), "tasks[0]"),
                            (lambda d: d.update(physical_tile=[32, 16]), "physical_tile"),
                            (lambda d: d.update(init_span=-2.0), "init_span"),
                            (lambda d: d.update(init_span=float("nan")), "init_span"),
                            (lambda d: d.update(init_span=1e300), "init_span"),
                            (lambda d: d.update(dims=[64, "a", 10]), "dims"),
                            (lambda d: d.update(dims=[64, 24.5, 10]), "dims"),
                            (lambda d: d.update(dims=[64, True, 10]), "dims"),
                            (lambda d: d.update(lr=float("nan")), "lr"),
                            (lambda d: d.update(lr=float("inf")), "lr"),
                            (lambda d: d.update(m_star=float("inf")), "m_star"),
                            (lambda d: d.update(target_max=float("inf")), "target_max"),
                            (lambda d: d.update(device_sigma_frac=float("nan")),
                             "device_sigma_frac"),
                            (lambda d: d.update(read_noise_sigma=float("nan")),
                             "read_noise_sigma"),
                            (lambda d: d.update(adam_beta1=float("nan")), "adam_beta1"),
                            (lambda d: d.update(adam_beta2=1.0), "adam_beta2"),
                            (lambda d: d.update(adam_beta1=-0.1), "adam_beta1"),
                            (lambda d: d.update(adam_eps=-1.0), "adam_eps"),
                            (lambda d: d.update(adam_eps=0.0), "adam_eps"),
                            (lambda d: d["tasks"][1].update(m_star=-1.0), "m_star"),
                            (lambda d: d["tasks"][1].update(m_star=float("nan")), "m_star"),
                            (lambda d: d.update(m_star=1e300), "m_star"),
                            (lambda d: d["tasks"][1].update(m_star=1e300), "m_star"),
                            (lambda d: d.update(seed=-1), "seed"),
                            (lambda d: d.update(grid_source="explicit",
                                                grid_level_values=["a", "b"]), "grid_source"),
                            (lambda d: d.update(grid_source="explicit",
                                                grid_level_values=[10**400, 1]), "grid_source"),
                            (lambda d: d.update(grid_source="device", device_rows=[[0, 1]]),
                             "grid_source"),
                            (lambda d: d.update(grid_source="device", device_rows=[1, 2, 3]),
                             "grid_source")):
            payload = json.loads(cfg.to_json())
            edit(payload)
            texts.append((json.dumps(payload), named))
        cfg_path = tmp_path / "bad.json"
        for text, named in texts:
            cfg_path.write_text(text)
            assert cli_main(["train", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err, text
        # not UTF-8, and (after a UTF-16 byte-order mark) an odd byte count
        for raw in ('{"seed": "\xe9"}'.encode("latin-1"), b"\xff\xfe{\xe9}"):
            cfg_path.write_bytes(raw)
            assert cli_main(["train", "--config", str(cfg_path)]) == 2
            assert capsys.readouterr().err.startswith("error: config is not valid JSON")
        cfg_path.write_text(cfg.to_json())
        assert cli_main(["sweep", "--config", str(cfg_path), "--m-stars", "0,x"]) == 2
        assert capsys.readouterr().err.startswith("error: --m-stars")
        assert cli_main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        for repeats in ("0", "-1"):
            assert cli_main(["train", "--config", str(cfg_path), "--repeats", repeats]) == 2
            assert capsys.readouterr().err.startswith("error: repeats")
        assert not (tmp_path / "bad").exists()

    def test_os_error_exit_code(self, synth_data_dir, tmp_path, capsys):
        """A path the OS refuses is an ``error:`` line and exit 2, not a traceback."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(synth_config(synth_data_dir, tmp_path / "run").to_json())
        taken = tmp_path / "taken"
        taken.write_text("")
        for argv, code in ((["eval", "--checkpoint", str(tmp_path)], errno.EISDIR),
                           (["train", "--config", str(cfg_path), "--out", str(taken)],
                            errno.EEXIST)):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: [Errno {code}] {os.strerror(code)}")

    @pytest.mark.parametrize("fault", ["bad magic", "no records"])
    def test_bad_data_exit_code(self, tmp_path, capsys, fault):
        task_dir = make_synth_task(tmp_path / "data" / "synthA", "forward", n_train=64, n_test=32)
        images = task_dir / "train-images-idx3-ubyte"
        if fault == "bad magic":
            raw = bytearray(images.read_bytes())
            raw[3] = 0x01
            images.write_bytes(raw)
        else:
            write_idx_images(images, np.zeros((0, 8, 8)))
            write_idx_labels(task_dir / "train-labels-idx1-ubyte", [])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(synth_config(tmp_path / "data", tmp_path / "run",
                                         tasks=[TaskSpec("synthA", 1)]).to_json())
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fault in err and str(images) in err

    def test_fetch_verify_only(self, real_data_dir, capsys):
        rc = cli_main(["fetch-data", "--dataset", "mnist",
                       "--dest", str(real_data_dir), "--verify-only"])
        assert rc == 0
        assert "4 files verified" in capsys.readouterr().out

    def test_fetch_missing_fails(self, tmp_path, capsys):
        rc = cli_main(["fetch-data", "--dataset", "mnist",
                       "--dest", str(tmp_path), "--verify-only"])
        assert rc == 2
