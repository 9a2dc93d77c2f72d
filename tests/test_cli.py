"""Tests for the command-line interface and the experiment runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitbridge
from splitbridge import runner
from splitbridge.cli import cli_main
from splitbridge.data import load_csv
from splitbridge.net import DenseNet
from splitbridge.runner import (
    DEFAULT_BENCHMARK,
    WORKERS_ENV,
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
        assert (tmp_path / "step1.ckpt").exists()
        assert (tmp_path / "step2.ckpt").exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(m))

    def test_checkpoints_load_and_widths_grow(self, tmp_path):
        run_experiment(TINY_BENCH, "std", 2, 0, TINY_CONFIG, out_dir=tmp_path)
        n1 = DenseNet.load(tmp_path / "step1.ckpt")
        n2 = DenseNet.load(tmp_path / "step2.ckpt")
        assert n1.num_classes == 2
        assert n2.num_classes == 4

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

    def test_process_pool_matches_serial(self, tmp_path, monkeypatch):
        matrix = {
            "benchmark": TINY_BENCH,
            "schemes": ["sb", "std", "ce", "dd"],
            "task_counts": [2],
            "seeds": [0, 1],
            "config": TINY_CONFIG,
        }
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            out = tmp_path / workers
            assert run_matrix(matrix, out) == 0
            outputs.append({str(f.relative_to(out)): f.read_bytes()
                            for f in sorted(out.rglob("*")) if f.is_file()})
        assert outputs[0] == outputs[1]
        # rows.jsonl, summary.csv, then a manifest and two checkpoints per cell
        assert len(outputs[0]) == 2 + 8 * 3

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5"])
    def test_bad_workers_rejected_before_writing(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV, value)
        matrix = {"benchmark": TINY_BENCH, "schemes": ["ce"], "task_counts": [2],
                  "seeds": [0], "config": TINY_CONFIG}
        with pytest.raises(ValueError, match=WORKERS_ENV):
            run_matrix(matrix, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        # a serial stand-in for the process pool: the test starts no process
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv(WORKERS_ENV, "64")
        matrix = {"benchmark": TINY_BENCH, "schemes": ["ce"], "task_counts": [2],
                  "seeds": [0, 1], "config": TINY_CONFIG}
        assert run_matrix(matrix, tmp_path) == 0
        assert requested == [2]
        assert len((tmp_path / "rows.jsonl").read_text().splitlines()) == 4

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
        assert "manifest.json" in outputs[0] and "step2.ckpt" in outputs[0]

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
        code = cli_main(["eval", "--checkpoint", str(out / "step2.ckpt"),
                         "--config", str(cfg), "--tasks", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        m = json.loads((out / "manifest.json").read_text())
        # evaluating the saved step-2 model reproduces the manifest report
        assert report == m["reports"][1]

    def test_matrix_command(self, tmp_path):
        p = tmp_path / "matrix.json"
        p.write_text(json.dumps({
            "benchmark": TINY_BENCH, "schemes": ["ce"], "task_counts": [2],
            "seeds": [0], "config": TINY_CONFIG,
        }))
        out = tmp_path / "out"
        assert cli_main(["matrix", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "rows.jsonl").exists()

    def test_matrix_bad_workers_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        p = tmp_path / "matrix.json"
        p.write_text(json.dumps({"benchmark": TINY_BENCH, "schemes": ["ce"],
                                 "task_counts": [2], "seeds": [0], "config": TINY_CONFIG}))
        assert cli_main(["matrix", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {WORKERS_ENV} must be an integer >= 1, got 'abc'\n"
        assert not (tmp_path / "out").exists()

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
        (["--tasks", "0"], "num_tasks must be a positive divisor"),
        (["--rho", "-1", "--tasks", "2"], "rho > 0"),
        (["--tasks", "2", "--config", {"config": {"batch_size": 2.5}}],
         "batch_size must be an integer"),
        (["--tasks", "2", "--config", {"config": {"tau": "2"}}],
         "tau must be a finite number"),
        (["--tasks", "2", "--config", {"config": {"learning_rate": None}}],
         "learning_rate must be a finite number"),
        (["--tasks", "2", "--config", {"config": {"scheme": "std"}}],
         "'scheme' is set at the top level (a matrix: schemes), not in 'config'"),
        (["--tasks", "2", "--config", {"config": {"seed": 3}}],
         "'seed' is set at the top level (a matrix: seeds), not in 'config'"),
        (["--tasks", "2", "--config", {"config": {"hidden": 5}}],
         "hidden must be a list of widths, got 5"),
        (["--tasks", "2", "--config", {"config": {"hidden": "32"}}],
         "hidden must be a list of widths, got '32'"),
    ])
    def test_bad_value_exit_1_one_line(self, tmp_path, capsys, argv, message):
        argv = list(argv)
        for i, arg in enumerate(argv):
            if isinstance(arg, dict):  # a config, passed as a file
                (tmp_path / "cfg.json").write_text(json.dumps(arg))
                argv[i] = str(tmp_path / "cfg.json")
        assert cli_main(["run", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
