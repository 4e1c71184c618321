import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgcn.cli import main

from conftest import write_synthetic_raw

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    return write_synthetic_raw(
        tmp_path_factory.mktemp("cli_raw"),
        n_attrs=5, items_per_attr=6, n_users=30, pos_per_user=3, seed=2,
    )


@pytest.fixture(scope="module")
def prep_dir(raw_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_prep")
    code = main([
        "preprocess",
        "--ratings", str(raw_dir / "ratings.tsv"),
        "--kg", str(raw_dir / "kg.txt"),
        "--item2entity", str(raw_dir / "item2entity.tsv"),
        "--out-dir", str(out),
        "--seed", "3",
    ])
    assert code == 0
    return out


def _train_args(prep_dir, out_dir, **extra):
    args = [
        "train",
        "--data-dir", str(prep_dir),
        "--out-dir", str(out_dir),
        "--K", "4", "--d", "4", "--H", "1",
        "--eta", "0.01", "--lambda", "1e-5", "--batch-size", "16",
        "--epochs", "2", "--seed", "7",
    ]
    for k, v in extra.items():
        args.extend([k, v] if v is not None else [k])
    return args


@pytest.fixture(scope="module")
def trained_dir(prep_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    assert main(_train_args(prep_dir, out)) == 0
    return out


class TestPreprocess:
    def test_outputs_exist(self, prep_dir):
        for name in ("final_ratings.txt", "kg.txt", "user_index.tsv",
                     "item_index.tsv", "stats.json"):
            assert (prep_dir / name).exists()

    def test_stats_printed_in_table_order(self, raw_dir, tmp_path, capsys):
        out = tmp_path / "prep2"
        main([
            "preprocess",
            "--ratings", str(raw_dir / "ratings.tsv"),
            "--kg", str(raw_dir / "kg.txt"),
            "--item2entity", str(raw_dir / "item2entity.tsv"),
            "--out-dir", str(out), "--seed", "3",
        ])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
        keys = [l.split(":")[0] for l in lines]
        assert keys == ["# users", "# items", "# interactions",
                        "# entities", "# relations", "# kg triples"]

    def test_rerun_is_byte_identical(self, raw_dir, prep_dir, tmp_path):
        out = tmp_path / "prep_again"
        main([
            "preprocess",
            "--ratings", str(raw_dir / "ratings.tsv"),
            "--kg", str(raw_dir / "kg.txt"),
            "--item2entity", str(raw_dir / "item2entity.tsv"),
            "--out-dir", str(out), "--seed", "3",
        ])
        for name in ("final_ratings.txt", "kg.txt", "user_index.tsv", "item_index.tsv"):
            assert (out / name).read_bytes() == (prep_dir / name).read_bytes()

    def test_final_ratings_format(self, prep_dir):
        for line in (prep_dir / "final_ratings.txt").read_text().splitlines():
            u, v, y = line.split("\t")
            assert int(u) >= 0 and int(v) >= 0 and y in ("0", "1")

    def test_empty_ratings_is_data_error(self, raw_dir, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main([
            "preprocess", "--ratings", str(empty),
            "--kg", str(raw_dir / "kg.txt"),
            "--item2entity", str(raw_dir / "item2entity.tsv"),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_missing_file_is_data_error(self, raw_dir, tmp_path):
        code = main([
            "preprocess", "--ratings", str(tmp_path / "nope.tsv"),
            "--kg", str(raw_dir / "kg.txt"),
            "--item2entity", str(raw_dir / "item2entity.tsv"),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 2


class TestTrain:
    def test_artifacts(self, trained_dir):
        assert (trained_dir / "checkpoint_seed7.kgcn").exists()
        assert (trained_dir / "checkpoint_seed7.kgcn.json").exists()
        assert (trained_dir / "train_report_seed7.csv").exists()
        assert (trained_dir / "test_metrics.csv").exists()

    def test_repeat_produces_aggregate(self, prep_dir, tmp_path, capsys):
        out = tmp_path / "rep3"
        code = main(_train_args(prep_dir, out) + ["--repeat", "3"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "test_auc_mean" in stdout and "test_auc_std" in stdout
        ckpts = sorted(p.name for p in out.glob("checkpoint_*.kgcn"))
        assert ckpts == ["checkpoint_seed7.kgcn", "checkpoint_seed8.kgcn",
                         "checkpoint_seed9.kgcn"]
        lines = (out / "test_metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,test_auc,test_f1"
        assert len(lines) == 4
        for line in lines[1:]:
            seed, test_auc, test_f1 = line.split(",")
            int(seed)
            assert 0.0 <= float(test_auc) <= 1.0
            assert 0.0 <= float(test_f1) <= 1.0

    def test_deterministic_across_runs(self, prep_dir, trained_dir, tmp_path):
        out = tmp_path / "again"
        assert main(_train_args(prep_dir, out)) == 0
        a = (trained_dir / "checkpoint_seed7.kgcn").read_bytes()
        b = (out / "checkpoint_seed7.kgcn").read_bytes()
        assert a == b
        # report identical except wall-clock column
        ra = [l.rsplit(",", 1)[0] for l in (trained_dir / "train_report_seed7.csv").read_text().splitlines()]
        rb = [l.rsplit(",", 1)[0] for l in (out / "train_report_seed7.csv").read_text().splitlines()]
        assert ra == rb

    def test_h_zero_is_config_error(self, prep_dir, tmp_path):
        code = main(_train_args(prep_dir, tmp_path / "x") + ["--H", "0"])
        assert code == 1

    def test_unknown_flag_is_config_error(self, prep_dir, tmp_path):
        assert main(_train_args(prep_dir, tmp_path / "x") + ["--frobnicate"]) == 1

    def test_mf_model_trains(self, prep_dir, tmp_path):
        out = tmp_path / "mf"
        code = main(_train_args(prep_dir, out) + ["--model", "mf"])
        assert code == 0
        sidecar = json.loads((out / "checkpoint_seed7.kgcn.json").read_text())
        assert sidecar["aggregator"] == "mf"


class TestEvaluate:
    def test_ctr_mode(self, prep_dir, trained_dir, capsys):
        code = main([
            "evaluate", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), "--mode", "ctr",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "metric,value"
        metrics = dict(l.split(",", 1) for l in out[1:])
        assert 0.0 <= float(metrics["auc"]) <= 1.0
        assert 0.0 <= float(metrics["f1"]) <= 1.0

    def test_topk_mode(self, prep_dir, trained_dir, capsys):
        code = main([
            "evaluate", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), "--mode", "topk", "--k-list", "1,5,10",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k,recall"
        ks = [int(l.split(",")[0]) for l in out[1:]]
        recalls = [float(l.split(",")[1]) for l in out[1:]]
        assert ks == [1, 5, 10]
        assert all(b >= a - 1e-15 for a, b in zip(recalls, recalls[1:]))

    def test_missing_checkpoint_is_data_error(self, prep_dir, tmp_path):
        code = main([
            "evaluate", "--checkpoint", str(tmp_path / "none.kgcn"),
            "--data-dir", str(prep_dir),
        ])
        assert code == 2

    def test_matches_training_report(self, prep_dir, trained_dir, capsys):
        sidecar = json.loads((trained_dir / "checkpoint_seed7.kgcn.json").read_text())
        main([
            "evaluate", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), "--mode", "ctr",
        ])
        out = dict(l.split(",", 1) for l in capsys.readouterr().out.splitlines()[1:])
        assert abs(float(out["auc"]) - sidecar["test_auc"]) <= 1e-12


class TestSweep:
    def test_h_sweep_rows(self, prep_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--data-dir", str(prep_dir), "--out-dir", str(out),
            "--parameter", "H", "--values", "1,2",
            "--K", "2", "--d", "2", "--epochs", "1", "--batch-size", "32",
            "--eta", "0.01", "--seed", "5",
        ])
        assert code == 0
        lines = (out / "sweep_H.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,value,test_auc,test_f1"
        assert len(lines) == 3
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == "parameter,value,test_auc,test_f1"
        assert stdout[1:] == lines[1:]
        for line in lines[1:]:
            name, value, test_auc, test_f1 = line.split(",")
            assert name == "H"
            int(value)
            assert 0.0 <= float(test_auc) <= 1.0
            assert 0.0 <= float(test_f1) <= 1.0

    def test_empty_values_is_config_error(self, prep_dir, tmp_path):
        code = main([
            "sweep", "--data-dir", str(prep_dir), "--out-dir", str(tmp_path / "s"),
            "--parameter", "K", "--values", "",
        ])
        assert code == 1


class TestPredict:
    def test_topk_lines_sorted(self, prep_dir, trained_dir, capsys):
        code = main([
            "predict", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), "--user", "0", "--k", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "item,score"
        rows = [l.split(",") for l in out[1:]]
        assert len(rows) == 5
        scores = [float(s) for _, s in rows]
        assert all(0.0 < s < 1.0 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_unknown_user_is_data_error(self, prep_dir, trained_dir):
        code = main([
            "predict", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), "--user", "99999", "--k", "3",
        ])
        assert code == 2

    def test_explicit_item_list(self, prep_dir, trained_dir, capsys):
        code = main([
            "predict", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), "--user", "1", "--items", "0,1,2", "--k", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0] == "item,score"
        for line in out[1:]:
            item, score = line.split(",")
            assert int(item) in (0, 1, 2)
            assert 0.0 < float(score) < 1.0


@pytest.fixture(scope="module")
def larger_prep_dir(tmp_path_factory):
    """Preprocessed data with more users, items and entities than prep_dir."""
    root = tmp_path_factory.mktemp("cli_larger")
    raw = write_synthetic_raw(root / "raw", n_attrs=6, items_per_attr=6, n_users=40,
                              pos_per_user=3, seed=4)
    code = main([
        "preprocess", "--ratings", str(raw / "ratings.tsv"), "--kg", str(raw / "kg.txt"),
        "--item2entity", str(raw / "item2entity.tsv"), "--out-dir", str(root / "prep"),
    ])
    assert code == 0
    return root / "prep"


class TestMismatchedData:
    @pytest.mark.parametrize("command", [
        ["evaluate", "--mode", "ctr"],
        ["evaluate", "--mode", "topk"],
        ["predict", "--user", "0"],
    ], ids=["evaluate_ctr", "evaluate_topk", "predict"])
    def test_checkpoint_against_other_data_is_data_error(self, trained_dir, larger_prep_dir,
                                                          command):
        code = main(command + [
            "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(larger_prep_dir),
        ])
        assert code == 2

    def test_negative_item_index_is_data_error(self, prep_dir, tmp_path):
        bad = tmp_path / "bad_prep"
        shutil.copytree(prep_dir, bad)
        with open(bad / "final_ratings.txt", "a", encoding="utf-8") as f:
            f.write("0\t-5\t1\n")
        assert main(_train_args(bad, tmp_path / "out")) == 2


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_config_error(self):
        assert main([]) == 1


def _evaluate(checkpoint, data_dir):
    return ["evaluate", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir)]


def _edited_checkpoint(edit):
    """evaluate on a copy of the trained checkpoint whose bytes went through edit."""
    def build(trained_dir, prep_dir, tmp_path):
        ckpt = tmp_path / "checkpoint.kgcn"
        ckpt.write_bytes(edit((trained_dir / "checkpoint_seed7.kgcn").read_bytes()))
        shutil.copy(trained_dir / "checkpoint_seed7.kgcn.json", str(ckpt) + ".json")
        return _evaluate(ckpt, prep_dir)
    return build


def _huge_dims(raw):
    # the header's M and d are 2^20 and 2^12: 32 GiB of user table
    return raw[:8] + struct.pack("<I", 2**20) + raw[12:20] + struct.pack("<I", 2**12) + raw[24:]


def _edited_sidecar(edit):
    """evaluate with a run-config sidecar whose text went through edit."""
    def build(trained_dir, prep_dir, tmp_path):
        ckpt = tmp_path / "checkpoint.kgcn"
        shutil.copy(trained_dir / "checkpoint_seed7.kgcn", ckpt)
        text = (trained_dir / "checkpoint_seed7.kgcn.json").read_text()
        Path(str(ckpt) + ".json").write_text(edit(text))
        return _evaluate(ckpt, prep_dir)
    return build


def _edited_stats(edit):
    """evaluate against a data dir whose stats.json text went through edit."""
    def build(trained_dir, prep_dir, tmp_path):
        data_dir = tmp_path / "prep"
        shutil.copytree(prep_dir, data_dir)
        (data_dir / "stats.json").write_text(edit((data_dir / "stats.json").read_text()))
        return _evaluate(trained_dir / "checkpoint_seed7.kgcn", data_dir)
    return build


def _replace(text):
    return lambda _: text


def _json_with(key, value):
    """An edit that sets one key of a JSON object."""
    return lambda text: json.dumps({**json.loads(text), key: value})


def _with_checkpoint(*argv):
    def build(trained_dir, prep_dir, tmp_path):
        return [argv[0], "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
                "--data-dir", str(prep_dir), *argv[1:]]
    return build


def _sweep_values(trained_dir, prep_dir, tmp_path):
    return ["sweep", "--data-dir", str(prep_dir), "--out-dir", str(tmp_path / "s"),
            "--parameter", "K", "--values", "a"]


class TestBadInput:
    @pytest.mark.parametrize("build, code", [
        (_sweep_values, 1),
        (_with_checkpoint("evaluate", "--mode", "topk", "--k-list", "1,x"), 1),
        (_with_checkpoint("predict", "--user", "0", "--items", "0,x"), 1),
        (_edited_checkpoint(lambda raw: raw[:20]), 2),
        (_edited_checkpoint(_huge_dims), 2),
        (_edited_checkpoint(lambda raw: raw + b"\x00"), 2),
        (_edited_sidecar(_replace("{not json")), 2),
        (_edited_sidecar(_replace("{}")), 2),
        (_edited_sidecar(_json_with("K", "x")), 2),
        (_edited_sidecar(_json_with("K", None)), 2),
        (_edited_sidecar(_json_with("ratios", 7)), 2),
        (_edited_sidecar(_json_with("split_seed", 1.5)), 2),
        (_edited_stats(_replace("{not json")), 2),
        (_edited_stats(_json_with("users", "x")), 2),
    ], ids=["sweep_values", "k_list", "predict_items", "truncated_checkpoint",
            "huge_dims_checkpoint", "trailing_byte_checkpoint",
            "malformed_sidecar", "sidecar_missing_key", "sidecar_K_string",
            "sidecar_K_null", "sidecar_ratios_int", "sidecar_split_seed_float",
            "malformed_stats", "stats_users_string"])
    def test_exit_code_without_traceback(self, trained_dir, prep_dir, tmp_path, build, code):
        argv = build(trained_dir, prep_dir, tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "kgcn.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
