"""Tests for the command-line interface and the experiment runner."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitbridge
from splitbridge import runner
from splitbridge.cli import cli_main
from splitbridge.data import load_csv
from splitbridge.engine import run_sequence
from splitbridge.metrics import evaluate
from splitbridge.net import DenseNet, build_net
from splitbridge.runner import (
    DEFAULT_BENCHMARK,
    build_config,
    make_benchmark,
    run_experiment,
    run_matrix,
)

TINY_BENCH = {
    **DEFAULT_BENCHMARK,
    "num_classes": 4,
    "feature_dim": 6,
    "train_per_class": 30,
    "test_per_class": 15,
}
GLYPHS_SIDE_0 = {"source": "glyphs", "side": 0, "num_classes": 4, "train_per_class": 5,
                 "test_per_class": 2}
TINY_CONFIG = {
    "hidden": [10, 10, 10],
    "split_index": 1,
    "epochs_first": 4,
    "epochs_sparsify": 2,
    "epochs_branched": 2,
    "epochs_bridge": 2,
    "epochs_std": 4,
    "memory_capacity": 12,
}


class TestRunner:
    def test_make_benchmark_sources(self, tmp_path):
        seq = make_benchmark(TINY_BENCH, 2)
        assert seq.num_classes == 4
        with pytest.raises(ValueError, match="source"):
            make_benchmark({**TINY_BENCH, "source": "nope"}, 2)

    def test_build_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config("sb", 0, {"learning_rte": 0.1})

    def test_run_experiment_manifest(self, tmp_path):
        m = run_experiment(TINY_BENCH, "sb", 2, 0, TINY_CONFIG, out_dir=tmp_path)
        assert [r["step"] for r in m["reports"]] == [1, 2]
        assert m["plans"][0] is None and m["plans"][1] is not None
        assert m["avg_incremental_acc"] == m["reports"][1]["overall_acc"]
        # one checkpoint file of the two steps' records: each step's net loads from it
        assert sorted(f.name for f in tmp_path.iterdir()) == ["manifest.json", "steps.ckpt"]
        assert [DenseNet.load(tmp_path / "steps.ckpt", t).num_classes for t in (1, 2)] == [2, 4]
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(m))

    def test_report_is_the_manifest_record(self, tmp_path):
        # the report's key order is the manifest format; a step's report of its
        # checkpoint must serialise to that step's manifest entry, byte for byte
        run_experiment(TINY_BENCH, "sb", 2, 0, TINY_CONFIG, out_dir=tmp_path)
        seq = make_benchmark(TINY_BENCH, 2)
        entries = json.loads((tmp_path / "manifest.json").read_text())["reports"]
        accs = ["overall_acc", "old_acc", "new_acc", "intra_old_acc", "intra_new_acc"]
        for step, entry in enumerate(entries, start=1):
            report = evaluate(DenseNet.load(tmp_path / "steps.ckpt", step), seq.tasks[:step])
            assert list(report) == ["step", *accs, "per_task_acc", "n_old", "n_new",
                                    "block_confusion"]
            assert all(type(report[k]) is float for k in accs)
            assert [type(a) for a in report["per_task_acc"]] == [float] * step
            assert all(type(report[k]) is int for k in ("step", "n_old", "n_new"))
            confusion = report["block_confusion"]
            assert type(confusion) is list and len(confusion) == 2
            assert all(type(row) is list and [type(v) for v in row] == [int, int]
                       for row in confusion)
            assert json.dumps(report) == json.dumps(entry)

    def test_checkpoints_load_and_widths_grow(self, tmp_path):
        run_experiment(TINY_BENCH, "std", 2, 0, TINY_CONFIG, out_dir=tmp_path)
        n1 = DenseNet.load(tmp_path / "steps.ckpt", 1)
        n2 = DenseNet.load(tmp_path / "steps.ckpt", 2)
        assert n1.num_classes == 2
        assert n2.num_classes == 4

    def test_cell_directory_holds_a_manifest_and_one_checkpoint_file(self, tmp_path):
        run_experiment(TINY_BENCH, "ce", 2, 0, TINY_CONFIG, out_dir=tmp_path / "single")
        matrix = {"benchmark": TINY_BENCH, "schemes": ["sb"], "task_counts": [2, 4],
                  "seeds": [0, 1], "config": TINY_CONFIG}
        assert run_matrix(matrix, tmp_path / "matrix") == 0
        cells = [tmp_path / "single", *(tmp_path / "matrix" / f"sb_t{t}_s{s}"
                                         for t in (2, 4) for s in (0, 1))]
        for cell in cells:
            assert sorted(f.name for f in cell.iterdir()) == ["manifest.json", "steps.ckpt"]
        assert sorted(f.name for f in (tmp_path / "matrix").iterdir() if f.is_file()) == [
            "rows.jsonl", "summary.csv"]

    @pytest.mark.parametrize("scheme", ["sb", "dd"])
    def test_checkpoint_record_t_is_step_t_net(self, tmp_path, scheme):
        # steps.ckpt is each step's one-record save() file, back to back in step order
        run_experiment(TINY_BENCH, scheme, 4, 0, TINY_CONFIG, out_dir=tmp_path)
        (results,) = run_sequence(make_benchmark(TINY_BENCH, 4),
                                  [build_config(scheme, 0, TINY_CONFIG)])
        path, singles = tmp_path / "steps.ckpt", []
        for t, result in enumerate(results, start=1):
            loaded = DenseNet.load(path, t)
            assert loaded.layout == result.net.layout
            assert loaded.params.tobytes() == result.net.params.tobytes()
            result.net.save(tmp_path / f"step{t}.ckpt")
            singles.append((tmp_path / f"step{t}.ckpt").read_bytes())
        assert len(singles) == 4 and path.read_bytes() == b"".join(singles)

    def test_matrix_outputs_and_rerun_identical(self, tmp_path):
        matrix = {
            "benchmark": TINY_BENCH,
            "schemes": ["ce", "std"],
            "task_counts": [2],
            "seeds": [0, 1],
            "config": TINY_CONFIG,
        }
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_matrix(matrix, out1) == 0
        assert run_matrix(matrix, out2) == 0
        rows = [json.loads(line) for line in (out1 / "rows.jsonl").read_text().splitlines()]
        # 2 schemes x 2 seeds x 2 steps
        assert len(rows) == 8
        assert (out1 / "summary.csv").exists()
        assert not (out1 / "failures.json").exists()
        # byte-identical artifacts on rerun
        assert (out1 / "rows.jsonl").read_bytes() == (out2 / "rows.jsonl").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    @pytest.mark.parametrize("axis, value, message", [
        # an axis is a non-empty list of distinct values
        ("seeds", [0, 0], "matrix config's 'seeds' must be a non-empty list of distinct "
                          "values, got [0, 0]"),
        ("seeds", 5, "matrix config's 'seeds' must be a non-empty list of distinct values, got 5"),
        ("task_counts", [], "matrix config's 'task_counts' must be a non-empty list of distinct "
                            "values, got []"),
        ("task_counts", [2, 4, 2], "matrix config's 'task_counts' must be a non-empty list of "
                                   "distinct values, got [2, 4, 2]"),
        ("schemes", "ce", "matrix config's 'schemes' must be a non-empty list of distinct "
                          "values, got 'ce'"),
        ("schemes", ["ce", "ce"], "matrix config's 'schemes' must be a non-empty list of "
                                  "distinct values, got ['ce', 'ce']"),
        ("schemes", ["ce", "kd"], "scheme must be one of sb, std, ce, dd, got 'kd'"),
        # errors every cell would hit: one ValueError, not a failures.json naming
        # it once per cell beside an empty rows.jsonl and summary.csv
        ("task_counts", [3], "num_tasks must be a positive divisor of 4 classes, got 3"),
        ("task_counts", [0], "num_tasks must be a positive divisor of 4 classes, got 0"),
        ("task_counts", [3, 5], "num_tasks must be a positive divisor of 4 classes, got 5"),
        ("seeds", [1.5], "seed must be an integer >= 0, got 1.5"),
        ("seeds", [0, 1.5], "seed must be an integer >= 0, got 1.5"),
        ("config", {**TINY_CONFIG, "bogus": 1}, "unknown config keys: ['bogus']"),
        ("config", {**TINY_CONFIG, "tau": -1}, "tau must be a finite number > 0, got -1"),
        # a task count is an integer: not a bool, a string or a float
        ("task_counts", [True], "num_tasks must be a positive divisor of 4 classes, got True"),
        ("task_counts", ["a"], "num_tasks must be a positive divisor of 4 classes, got 'a'"),
        ("task_counts", [2.0], "num_tasks must be a positive divisor of 4 classes, got 2.0"),
        # a benchmark value of the wrong kind fails naming its key, before any is read
        ("benchmark", {**TINY_BENCH, "num_classes": "4"},
         "benchmark key 'num_classes' must be an integer >= 2, got '4'"),
        ("benchmark", {**TINY_BENCH, "num_classes": 4.0},
         "benchmark key 'num_classes' must be an integer >= 2, got 4.0"),
        ("benchmark", {**TINY_BENCH, "data_seed": True},
         "benchmark key 'data_seed' must be an integer >= 0, got True"),
        ("benchmark", {**TINY_BENCH, "train_per_class": -1},
         "benchmark key 'train_per_class' must be an integer >= 0, got -1"),
        ("benchmark", {**TINY_BENCH, "mean_radius": float("nan")},
         "benchmark key 'mean_radius' must be a finite number, got nan"),
        ("benchmark", {**TINY_BENCH, "mean_radius": 10 ** 400},
         "benchmark key 'mean_radius' must be a finite number, got 1000"),
        ("benchmark", {"source": "glyphs", "noise": -0.5},
         "benchmark key 'noise' must be a finite number >= 0, got -0.5"),
        ("benchmark", {"source": "csv", "train_csv": None, "test_csv": "test.csv"},
         "benchmark key 'train_csv' must be a path string, got None"),
        # a seed is >= 0; a glyph side >= 1 (a side of 0 left build_net a fan-in of
        # 0); a key that no source reads (a misspelt noise) is rejected by name
        ("seeds", [-1], "seed must be an integer >= 0, got -1"),
        ("benchmark", GLYPHS_SIDE_0, "benchmark key 'side' must be an integer >= 1, got 0"),
        ("benchmark", {"source": "glyphs", "nosie": 0.9},
         "unknown benchmark key 'nosie' = 0.9, expected one of source, num_classes"),
        # a source rejects the keys only another source reads, naming the source;
        # a benchmark that is not an object fails as _load_config's sections do
        ("benchmark", {**GLYPHS_SIDE_0, "side": 3, "mean_radius": 3.0},
         "unknown benchmark key 'mean_radius' = 3.0, expected one of source, num_classes, "
         "side, train_per_class, test_per_class, data_seed, arrange_seed, noise (the keys "
         "source 'glyphs' reads)"),
        ("benchmark", {**TINY_BENCH, "source": "csv", "train_csv": "a", "test_csv": "b"},
         "unknown benchmark key 'num_classes' = 4, expected one of source, train_csv, "
         "test_csv, arrange_seed (the keys source 'csv' reads)"),
        ("benchmark", 5, "benchmark must be a JSON object, got 5"),
        ("benchmark", {"source": ["csv"]},
         "benchmark key 'source' must be one of synthetic, glyphs, idx, csv, got ['csv']"),
        # a source needs a class, and every task test rows: not numpy's "need at
        # least one array to concatenate", nor an empty sweep after training
        ("benchmark", {"source": "glyphs", "num_classes": 0},
         "benchmark key 'num_classes' must be an integer >= 2, got 0"),
        ("benchmark", {**TINY_BENCH, "test_per_class": 0},
         "test split has no rows of task 1, class window [0, 2) (data labels "),
    ])
    def test_bad_axis_rejected_before_writing(self, tmp_path, axis, value, message):
        matrix = {"benchmark": TINY_BENCH, "schemes": ["ce"], "task_counts": [2],
                  "seeds": [0], "config": TINY_CONFIG, axis: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            run_matrix(matrix, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme", ["sb", "std", "ce", "dd"])
    def test_cell_identical_across_hash_seeds(self, tmp_path, scheme):
        # str hashing is salted per process; no stream may depend on it
        src = str(Path(splitbridge.__file__).resolve().parents[1])
        code = ("import sys; from splitbridge.runner import run_experiment; "
                f"run_experiment({TINY_BENCH!r}, {scheme!r}, 2, 0, {TINY_CONFIG!r}, "
                "out_dir=sys.argv[1])")
        outputs = []
        for hash_seed in ("1", "3"):
            out = tmp_path / hash_seed
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": "1"}
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True,
                           timeout=300)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert "manifest.json" in outputs[0] and "steps.ckpt" in outputs[0]

    @pytest.mark.parametrize("scheme", ["sb", "std", "ce", "dd"])
    def test_run_cells_writes_the_bytes_of_single_runs(self, tmp_path, scheme):
        # three seeds trained as one stack write every file as three single runs do
        seeds = [0, 1, 2]
        manifests = runner.run_cells(TINY_BENCH, scheme, 4, seeds, TINY_CONFIG,
                                     [tmp_path / "stack" / str(s) for s in seeds])
        assert [m["seed"] for m in manifests] == seeds
        for s, manifest in zip(seeds, manifests):
            single = run_experiment(TINY_BENCH, scheme, 4, s, TINY_CONFIG,
                                    out_dir=tmp_path / "single" / str(s))
            assert manifest == single
        files = [{f.relative_to(root): f.read_bytes() for f in sorted(root.rglob("*.*"))}
                 for root in (tmp_path / "stack", tmp_path / "single")]
        # a manifest and a checkpoint file of four step records per seed
        assert files[0] == files[1] and len(files[0]) == 3 * (1 + 1)
        assert all(DenseNet.load(tmp_path / "stack" / str(s) / "steps.ckpt", 4).num_classes == 4
                   for s in seeds)

    @pytest.mark.parametrize("n_dirs", [1, 4])
    def test_run_cells_needs_one_out_dir_per_seed(self, tmp_path, monkeypatch, n_dirs):
        # out_dirs of another length fails before training, where zip dropped seeds
        monkeypatch.setattr(runner, "run_sequence", lambda *a: pytest.fail("trained"))
        out_dirs = [tmp_path / str(i) for i in range(n_dirs)]
        with pytest.raises(ValueError, match=f"one out_dir per seed, got {n_dirs} for 3 seeds"):
            runner.run_cells(TINY_BENCH, "ce", 2, [0, 1, 2], TINY_CONFIG, out_dirs)
        assert not any(tmp_path.iterdir())

    def test_matrix_records_failures(self, tmp_path):
        matrix = {
            "benchmark": TINY_BENCH,
            "schemes": ["sb"],
            # 4 classes do not divide into 3 tasks, so this cell must fail
            "task_counts": [2, 3],
            "seeds": [0],
            "config": TINY_CONFIG,
        }
        assert run_matrix(matrix, tmp_path) == 1
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert len(failures) == 1
        assert failures[0]["cell"] == "sb_t3_s0"
        # the healthy cell still produced rows
        rows = (tmp_path / "rows.jsonl").read_text().splitlines()
        assert len(rows) == 2
        # a sweep without failures into the same directory leaves no failures.json,
        # which would name cells that did not fail this time
        assert run_matrix({**matrix, "task_counts": [2]}, tmp_path) == 0
        assert not (tmp_path / "failures.json").exists()

    def test_matrix_failure_fails_each_cell_of_its_stack(self, tmp_path):
        # the seeds of a (scheme, task count) group train as one stack: its
        # error is recorded once per cell, and the other group still runs
        matrix = {"benchmark": TINY_BENCH, "schemes": ["std"], "task_counts": [3, 2],
                  "seeds": [0, 1], "config": TINY_CONFIG}
        assert run_matrix(matrix, tmp_path) == 1
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert [f["cell"] for f in failures] == ["std_t3_s0", "std_t3_s1"]
        assert failures[0]["error"] == failures[1]["error"]
        assert "divisor" in failures[0]["error"]
        assert len((tmp_path / "rows.jsonl").read_text().splitlines()) == 4
        assert not (tmp_path / "std_t3_s0").exists()


class TestCli:
    def _write_config(self, tmp_path, extra=None):
        cfg = {"benchmark": TINY_BENCH, "config": TINY_CONFIG, "tasks": 2,
               "scheme": "std", **(extra or {})}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_run_exit_zero_and_manifest(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        printed = capsys.readouterr().out
        assert "step 1" in printed and "step 2" in printed
        assert "avg incremental acc" in printed

    def test_run_overrides_change_manifest(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        cli_main(["run", "--config", str(cfg), "--out", str(out),
                  "--seed", "3", "--scheme", "ce", "--tau", "4.0"])
        m = json.loads((out / "manifest.json").read_text())
        assert m["seed"] == 3
        assert m["scheme"] == "ce"
        assert m["config"]["tau"] == 4.0

    def test_eval_from_checkpoint(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        cli_main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "steps.ckpt"),
                         "--config", str(cfg), "--tasks", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        m = json.loads((out / "manifest.json").read_text())
        # evaluating the saved step-2 model reproduces the manifest report
        assert report == m["reports"][1]

    def test_eval_step_picks_its_record(self, tmp_path, capsys):
        # a run's checkpoint file holds every step: --step 1 evaluates the step-1 net
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        cli_main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["eval", "--checkpoint", str(out / "steps.ckpt"),
                         "--config", str(cfg), "--tasks", "2", "--step", "1"])
        assert code == 0
        m = json.loads((out / "manifest.json").read_text())
        assert json.loads(capsys.readouterr().out) == m["reports"][0]

    @pytest.mark.parametrize("source", ["csv", "glyphs"])
    def test_one_section_one_dataset(self, tmp_path, source):
        # a section means one dataset on every entry point: a csv section without
        # arrange_seed, or a glyphs one without num_classes, writes the same bytes
        # through run_experiment, `run` and a 1-cell `matrix`, and each manifest
        # records the source's own keys, with the defaults filled in
        if source == "csv":
            assert cli_main(["gen-data", "--classes", "4", "--dim", "3", "--train-per-class",
                             "10", "--test-per-class", "4", "--out", str(tmp_path)]) == 0
            bench = {"source": "csv", "train_csv": str(tmp_path / "train.csv"),
                     "test_csv": str(tmp_path / "test.csv")}
        else:
            bench = {"source": "glyphs", "side": 3, "train_per_class": 5, "test_per_class": 2}
        resolved = {"source": source, **runner.BENCH_SOURCES[source], **bench}
        run_experiment(bench, "sb", 2, 0, TINY_CONFIG, out_dir=tmp_path / "lib")
        run_cfg, matrix_cfg = tmp_path / "run.json", tmp_path / "matrix.json"
        run_cfg.write_text(json.dumps({"benchmark": bench, "config": TINY_CONFIG}))
        matrix_cfg.write_text(json.dumps({"benchmark": bench, "config": TINY_CONFIG,
                                          "schemes": ["sb"], "task_counts": [2], "seeds": [0]}))
        assert cli_main(["run", "--tasks", "2", "--config", str(run_cfg),
                         "--out", str(tmp_path / "run")]) == 0
        assert cli_main(["matrix", "--config", str(matrix_cfg),
                         "--out", str(tmp_path / "matrix")]) == 0
        outputs = [{f.name: f.read_bytes() for f in sorted(d.iterdir())}
                   for d in (tmp_path / "lib", tmp_path / "run", tmp_path / "matrix" / "sb_t2_s0")]
        assert outputs[0] == outputs[1] == outputs[2]
        assert sorted(outputs[0]) == ["manifest.json", "steps.ckpt"]
        manifest = json.loads(outputs[0]["manifest.json"])
        assert list(manifest["benchmark"].items()) == list(resolved.items())

    def test_matrix_command(self, tmp_path):
        p = tmp_path / "matrix.json"
        p.write_text(json.dumps({
            "benchmark": TINY_BENCH, "schemes": ["ce"], "task_counts": [2],
            "seeds": [0], "config": TINY_CONFIG,
        }))
        out = tmp_path / "out"
        assert cli_main(["matrix", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "rows.jsonl").exists()

    def test_matrix_overrides_reach_cells(self, tmp_path):
        p = tmp_path / "matrix.json"
        p.write_text(json.dumps({
            "benchmark": TINY_BENCH, "schemes": ["sb", "std"], "task_counts": [1, 2],
            "seeds": [0, 1], "config": {**TINY_CONFIG, "memory_capacity": 12, "tau": 3.0},
        }))
        out = tmp_path / "out"
        code = cli_main(["matrix", "--config", str(p), "--out", str(out), "--seed", "5",
                         "--scheme", "ce", "--tasks", "2", "--rho", "1.2",
                         "--memory-size", "7"])
        assert code == 0
        assert sorted(d.name for d in out.iterdir() if d.is_dir()) == ["ce_t2_s5"]
        m = json.loads((out / "ce_t2_s5" / "manifest.json").read_text())
        assert (m["scheme"], m["tasks"], m["seed"]) == ("ce", 2, 5)
        assert m["config"]["seed"] == 5 and m["config"]["scheme"] == "ce"
        assert m["config"]["rho"] == 1.2
        assert m["config"]["memory_capacity"] == 7
        # keys the flags leave alone keep the file's values
        assert m["config"]["tau"] == 3.0
        assert m["config"]["epochs_std"] == TINY_CONFIG["epochs_std"]

    def test_gen_data_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = cli_main(["gen-data", "--classes", "3", "--dim", "4",
                             "--train-per-class", "5", "--test-per-class", "2",
                             "--seed", "7", "--out", str(out)])
            assert code == 0
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        ds = load_csv(a / "train.csv")
        assert len(ds) == 15 and ds.x.shape[1] == 4

    def test_replicate_table_smoke(self, capsys):
        assert cli_main(["replicate-table1", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == ["loss", "overall_acc", "old_acc", "new_acc",
                                    "intra_old_acc", "intra_new_acc"]
        assert lines[1].startswith("CE")
        assert lines[2].startswith("KD+CE")
        assert lines[3].startswith("delta")

    def test_unknown_flag_exit_2(self, capsys):
        assert cli_main(["run", "--bogus"]) == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_config_parse_error_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli_main(["run", "--config", str(p)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["run", "--tasks", "0"], "num_tasks must be a positive divisor"),
        (["run", "--rho", "-1", "--tasks", "2"], "rho must be a finite number > 0, got -1.0"),
        (["run", "--tasks", "2", "--config", {"config": {"batch_size": 2.5}}],
         "batch_size must be an integer"),
        (["run", "--tasks", "2", "--config", {"config": {"tau": "2"}}],
         "tau must be a finite number"),
        (["run", "--tasks", "2", "--config", {"config": {"learning_rate": None}}],
         "learning_rate must be a finite number"),
        (["run", "--tasks", "2", "--config", {"config": {"scheme": "std"}}],
         "'scheme' is set at the top level (a matrix: schemes), not in 'config'"),
        (["run", "--tasks", "2", "--config", {"config": {"seed": 3}}],
         "'seed' is set at the top level (a matrix: seeds), not in 'config'"),
        (["run", "--tasks", "2", "--config", {"config": {"hidden": 5}}],
         "hidden must be a list of widths, got 5"),
        (["run", "--tasks", "2", "--config", {"config": {"hidden": "32"}}],
         "hidden must be a list of widths, got '32'"),
        (["matrix", "--out", "OUT", "--config", {"task_counts": [2], "seeds": [0]}],
         "matrix config's 'schemes' must be a non-empty list of distinct values, got None"),
        (["run", "--tasks", "2", "--config", {"benchmark": {"source": "idx"}}],
         "benchmark source 'idx' needs the key 'train_images'"),
        (["run", "--tasks", "2", "--config", {"benchmark": {
            "source": "idx", "train_images": "MISSING", "train_labels": "MISSING",
            "test_images": "MISSING", "test_labels": "MISSING"}}],
         "No such file or directory: 'MISSING'"),
        (["run", "--tasks", "2", "--config", {"benchmark": {
            "source": "csv", "train_csv": "MISSING", "test_csv": "MISSING"}}],
         "No such file or directory: 'MISSING'"),
        (["eval", "--checkpoint", "MISSING", "--tasks", "2"],
         "No such file or directory: 'MISSING'"),
        (["replicate-table1", "--seeds", "0"], "--seeds must be an integer >= 1, got 0"),
        (["replicate-table1", "--seeds", "-2"], "--seeds must be an integer >= 1, got -2"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["ce"], "task_counts": [2],
                                                 "seeds": [0, 0]}],
         "matrix config's 'seeds' must be a non-empty list of distinct values, got [0, 0]"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["ce"], "task_counts": [2],
                                                 "seeds": 5}],
         "matrix config's 'seeds' must be a non-empty list of distinct values, got 5"),
        (["matrix", "--out", "OUT", "--config", {"schemes": "ce", "task_counts": [2],
                                                 "seeds": [0]}],
         "matrix config's 'schemes' must be a non-empty list of distinct values, got 'ce'"),
        # a config file that is not an object, or whose benchmark or config is not,
        # fails naming the file and the section
        (["run", "--config", [1]], "cfg.json: the top level must be a JSON object, got [1]"),
        (["matrix", "--out", "OUT", "--config", [1]],
         "cfg.json: the top level must be a JSON object, got [1]"),
        (["run", "--config", {"benchmark": 5}],
         "cfg.json: 'benchmark' must be a JSON object, got 5"),
        (["matrix", "--out", "OUT", "--config", {"benchmark": 5}],
         "cfg.json: 'benchmark' must be a JSON object, got 5"),
        (["run", "--config", {"config": [1]}],
         "cfg.json: 'config' must be a JSON object, got [1]"),
        (["matrix", "--out", "OUT", "--config", {"config": [1]}],
         "cfg.json: 'config' must be a JSON object, got [1]"),
        # matrix errors every cell would hit fail before the sweep writes anything
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [3],
                                                 "seeds": [0]}],
         "num_tasks must be a positive divisor of 8 classes, got 3"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [0],
                                                 "seeds": [0]}],
         "num_tasks must be a positive divisor of 8 classes, got 0"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [1.5]}],
         "seed must be an integer >= 0, got 1.5"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [0], "config": {"bogus": 1}}],
         "unknown config keys: ['bogus']"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [0], "config": {"tau": -1}}],
         "tau must be a finite number > 0, got -1"),
        # a run's task count is an integer too
        (["run", "--out", "OUT", "--config", {"tasks": "2"}],
         "num_tasks must be a positive divisor of 8 classes, got '2'"),
        (["run", "--out", "OUT", "--config", {"tasks": 2.0}],
         "num_tasks must be a positive divisor of 8 classes, got 2.0"),
        (["run", "--out", "OUT", "--config", {"tasks": True}],
         "num_tasks must be a positive divisor of 8 classes, got True"),
        # a top-level key the command does not take fails, naming it
        (["run", "--out", "OUT", "--config", {"seeds": [3], "schem": "dd", "tasks": 2}],
         "cfg.json: unknown top-level key 'schem', expected one of "
         "benchmark, scheme, tasks, seed, config"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["ce"], "task_counts": [2],
                                                 "seeds": [0], "scheme": "dd"}],
         "cfg.json: unknown top-level key 'scheme', expected one of "
         "benchmark, schemes, task_counts, seeds, config"),
        # a benchmark value of the wrong kind is one error line naming its key; a
        # path is a string, never a number read as a file descriptor
        (["run", "--out", "OUT", "--config", {"benchmark": {"num_classes": "8"}}],
         "benchmark key 'num_classes' must be an integer >= 2, got '8'"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"feature_dim": 2.5}}],
         "benchmark key 'feature_dim' must be an integer >= 2, got 2.5"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"source": "glyphs", "side": 2.5}}],
         "benchmark key 'side' must be an integer >= 1, got 2.5"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"data_seed": "a"}}],
         "benchmark key 'data_seed' must be an integer >= 0, got 'a'"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"arrange_seed": -1}}],
         "benchmark key 'arrange_seed' must be an integer >= 0, got -1"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"mean_radius": "x"}}],
         "benchmark key 'mean_radius' must be a finite number, got 'x'"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"source": "glyphs", "noise": -1}}],
         "benchmark key 'noise' must be a finite number >= 0, got -1"),
        (["run", "--out", "OUT", "--config", {"benchmark": {
            "source": "csv", "train_csv": 987654321, "test_csv": "MISSING"}}],
         "benchmark key 'train_csv' must be a path string, got 987654321"),
        (["run", "--out", "OUT", "--config", {"benchmark": {
            "source": "idx", "train_images": 987654321, "train_labels": 987654321,
            "test_images": 987654321, "test_labels": 987654321}}],
         "benchmark key 'train_images' must be a path string, got 987654321"),
        (["run", "--out", "OUT", "--config", {"benchmark": {
            "source": "csv", "train_csv": ["a"], "test_csv": "MISSING"}}],
         "benchmark key 'train_csv' must be a path string, got ['a']"),
        # a negative seed names seed, not numpy's "expected non-negative integer"
        (["run", "--seed", "-1", "--tasks", "2", "--out", "OUT"],
         "seed must be an integer >= 0, got -1"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [-1]}],
         "seed must be an integer >= 0, got -1"),
        # a glyph side of 0 is one error line, not build_net's ZeroDivisionError
        (["run", "--out", "OUT", "--config", {"benchmark": GLYPHS_SIDE_0}],
         "benchmark key 'side' must be an integer >= 1, got 0"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [0], "benchmark": GLYPHS_SIDE_0}],
         "benchmark key 'side' must be an integer >= 1, got 0"),
        # a misspelt key fails by name instead of running at the default noise
        (["run", "--out", "OUT", "--config", {"benchmark": {"source": "glyphs", "nosie": 0.9}}],
         "unknown benchmark key 'nosie' = 0.9"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [0], "benchmark": {"nosie": 0.9}}],
         "unknown benchmark key 'nosie' = 0.9"),
        # so does a key that only another source reads, naming the source
        (["run", "--out", "OUT", "--config", {"benchmark": {"source": "glyphs",
                                                            "mean_radius": 3.0}}],
         "unknown benchmark key 'mean_radius' = 3.0, expected one of source, num_classes, side"),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [0], "benchmark": {"noise": 0.9}}],
         "unknown benchmark key 'noise' = 0.9, expected one of source, num_classes, "
         "feature_dim"),
        # a glyphs source of no classes, or a task without test rows, fails before training
        (["run", "--out", "OUT", "--config", {"benchmark": {"source": "glyphs",
                                                            "num_classes": 0}}],
         "benchmark key 'num_classes' must be an integer >= 2, got 0"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"test_per_class": 0}}],
         "test split has no rows of task 1, class window [0, 4) (data labels "),
        (["matrix", "--out", "OUT", "--config", {"schemes": ["sb"], "task_counts": [2],
                                                 "seeds": [0], "benchmark": {
                                                     "test_per_class": 0}}],
         "test split has no rows of task 1, class window [0, 4) (data labels "),
        # a step outside 1..--tasks fails before the checkpoint is opened
        (["eval", "--checkpoint", "MISSING", "--tasks", "2", "--step", "0"],
         "--step must be in 1..2 (--tasks), got 0"),
        (["eval", "--checkpoint", "MISSING", "--tasks", "2", "--step", "3"],
         "--step must be in 1..2 (--tasks), got 3"),
        # a task count below 1 names --tasks, not the --step it defaults
        (["eval", "--checkpoint", "MISSING", "--tasks", "0"],
         "--tasks must be an integer >= 1, got 0"),
        # a one-feature benchmark fails as its key, not inside gen_synthetic
        (["run", "--out", "OUT", "--config", {"benchmark": {"feature_dim": 1}}],
         "benchmark key 'feature_dim' must be an integer >= 2, got 1"),
        # so does a one-class benchmark: on synthetic not gen_synthetic's error, on
        # glyphs not a one-logit net, whose CE gradient is 0, reading overall 1.0000
        (["run", "--out", "OUT", "--config", {"benchmark": {"num_classes": 1}}],
         "benchmark key 'num_classes' must be an integer >= 2, got 1"),
        (["run", "--out", "OUT", "--config", {"benchmark": {"source": "glyphs",
                                                            "num_classes": 1}}],
         "benchmark key 'num_classes' must be an integer >= 2, got 1"),
        # gen-data's flags follow the rules of the benchmark keys they set, naming the flag
        (["gen-data", "--classes", "1", "--out", "OUT"],
         "--classes must be an integer >= 2, got 1"),
        (["gen-data", "--dim", "1", "--out", "OUT"], "--dim must be an integer >= 2, got 1"),
        (["gen-data", "--seed", "-1", "--out", "OUT"], "--seed must be an integer >= 0, got -1"),
        (["gen-data", "--train-per-class", "-1", "--out", "OUT"],
         "--train-per-class must be an integer >= 0, got -1"),
    ])
    def test_bad_value_exit_1_one_line(self, tmp_path, capsys, argv, message):
        # OUT and MISSING stand for an output directory and a file that does
        # not exist; a dict or a list is a config, passed as a file
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        argv = [{"OUT": out, "MISSING": missing}.get(arg, arg) if isinstance(arg, str) else arg
                for arg in argv]
        for i, arg in enumerate(argv):
            if isinstance(arg, (dict, list)):
                (tmp_path / "cfg.json").write_text(json.dumps(arg).replace("MISSING", missing))
                argv[i] = str(tmp_path / "cfg.json")
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.replace("MISSING", missing) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()   # nothing is written before the error

    def test_csv_test_label_outside_train_exit_1_one_line(self, tmp_path, capsys):
        # a csv benchmark runs; once a test row holds a class train.csv lacks, the
        # run ends in one error line that names the label and the split
        assert cli_main(["gen-data", "--classes", "4", "--dim", "3", "--train-per-class", "5",
                         "--test-per-class", "2", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": {
            "source": "csv", "train_csv": str(tmp_path / "train.csv"),
            "test_csv": str(tmp_path / "test.csv")}}))
        assert cli_main(["run", "--tasks", "2", "--config", str(cfg)]) == 0
        header, first, *rest = (tmp_path / "test.csv").read_text().splitlines()
        first = "7" + first[first.index(","):]
        (tmp_path / "test.csv").write_text("\n".join([header, first, *rest]) + "\n")
        capsys.readouterr()
        assert cli_main(["run", "--tasks", "2", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: test label 7 is outside the train split's 4 classes\n"

    def test_csv_train_missing_class_exit_1_one_line(self, tmp_path, capsys):
        # a train.csv without class 1's rows ends in one error line naming the
        # class and the split, not in a run whose second task lacks a class
        assert cli_main(["gen-data", "--classes", "4", "--dim", "3", "--train-per-class", "5",
                         "--test-per-class", "2", "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "train.csv").read_text().splitlines()
        kept = [row for row in rows if not row.startswith("1,")]
        assert len(kept) == 15
        (tmp_path / "train.csv").write_text("\n".join([header, *kept]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": {
            "source": "csv", "train_csv": str(tmp_path / "train.csv"),
            "test_csv": str(tmp_path / "test.csv")}}))
        capsys.readouterr()
        assert cli_main(["run", "--tasks", "2", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: train split has no rows of class 1, one of its 4 classes\n"

    def test_eval_other_source_key_exit_1_one_line(self, tmp_path, capsys):
        # eval reads its config's benchmark by the same rule as run and matrix
        build_net(DEFAULT_BENCHMARK["feature_dim"], [4], 2, seed=0).save(tmp_path / "net.ckpt")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": {"source": "glyphs", "feature_dim": 16}}))
        argv = ["eval", "--checkpoint", str(tmp_path / "net.ckpt"), "--config", str(cfg),
                "--tasks", "2"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown benchmark key 'feature_dim' = 16, expected one of ")
        assert err.endswith(" (the keys source 'glyphs' reads)\n") and err.count("\n") == 1

    def test_eval_step_past_the_records_exit_1_one_line(self, tmp_path, capsys):
        path = tmp_path / "steps.ckpt"
        with open(path, "wb") as f:
            for classes in (2, 4):
                build_net(DEFAULT_BENCHMARK["feature_dim"], [4], classes, seed=0).save(f)
        argv = ["eval", "--checkpoint", str(path), "--tasks", "3", "--step", "3"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {path} holds 2 records; step 3 is not one\n"

    def test_eval_step_0_exit_1_one_line(self, tmp_path, capsys):
        # a readable checkpoint: the step is refused by name, not by the loader
        build_net(DEFAULT_BENCHMARK["feature_dim"], [4], 2, seed=0).save(tmp_path / "net.ckpt")
        argv = ["eval", "--checkpoint", str(tmp_path / "net.ckpt"), "--tasks", "2", "--step", "0"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --step must be in 1..2 (--tasks), got 0\n"
