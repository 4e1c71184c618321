import argparse
import json
import logging
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgcn import cli
from kgcn.cli import main
from kgcn.data import read_final_ratings, split as split_data
from kgcn.errors import ConfigError, DataError, NumericalError, ParseError
from kgcn.graph import build_adjacency, load_kg, sample_neighborhood
from kgcn.model import KgcnScorer, ModelConfig
from kgcn.numerics import init_params, save_checkpoint
from kgcn.trainer import TrainConfig, train

from conftest import run_capped, write_synthetic_raw

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


def _sweep_args(prep_dir, out_dir, parameter, values, *extra):
    """sweep over one parameter with the training flags of _train_args."""
    return ["sweep", *_train_args(prep_dir, out_dir)[1:],
            "--parameter", parameter, "--values", values, *extra]


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

    def test_repeat_equals_the_library_composition(self, prep_dir, tmp_path):
        # repeat i samples the neighborhood, initialises and trains at seed 7 + i, each on
        # the split drawn at --seed 7
        out = tmp_path / "rep2"
        assert main(_train_args(prep_dir, out) + ["--repeat", "2"]) == 0
        stats = json.loads((prep_dir / "stats.json").read_text())
        E, R = stats["entities"], stats["relations"]
        dataset = read_final_ratings(prep_dir / "final_ratings.txt", stats["users"],
                                     stats["num_items_prefix"])
        adjacency = build_adjacency(load_kg(prep_dir / "kg.txt")[0], E)
        split = split_data(dataset, (6.0, 2.0, 2.0), 7)
        config = ModelConfig(d=4, H=1, K=4, aggregator="sum")
        for seed in (7, 8):
            sample = sample_neighborhood(adjacency, config.K, seed, R)
            params = init_params(split.train.num_users, E, R, config.d, config.H,
                                 config.aggregator, seed)
            best, _ = train(split, KgcnScorer(params, sample, config), TrainConfig(
                eta=0.01, lam=1e-5, batch_size=16, max_epochs=2, seed=seed))
            expected = tmp_path / f"expected_seed{seed}.kgcn"
            save_checkpoint(expected, best, sample, config)
            assert (out / f"checkpoint_seed{seed}.kgcn").read_bytes() == expected.read_bytes()

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


class TestSamplingStatistics:
    """Items 0-5 link to attributes 6 and 7 (three items each); one more
    triple links 9 and 11. Of the 12 entities, 8 and 10 have no triple, and
    the other 10 have 1 or 3 pairs."""

    @pytest.fixture
    def data_dir(self, tmp_path):
        raw = write_synthetic_raw(tmp_path / "raw", n_attrs=2, items_per_attr=3, n_users=12,
                                  pos_per_user=2, seed=1)
        with open(raw / "kg.txt", "a", encoding="utf-8") as f:
            f.write("9\t0\t11\n")
        assert main(["preprocess", "--ratings", str(raw / "ratings.tsv"),
                     "--kg", str(raw / "kg.txt"), "--item2entity", str(raw / "item2entity.tsv"),
                     "--out-dir", str(tmp_path / "prep")]) == 0
        return tmp_path / "prep"

    def test_isolated_entities_in_stats(self, data_dir):
        stats = json.loads((data_dir / "stats.json").read_text())
        assert (stats["entities"], stats["isolated_entities"]) == (12, 2)

    def test_train_logs_each_sample(self, data_dir, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        assert main(_sweep_args(data_dir, tmp_path / "s", "K", "2,4")) == 0
        logged = re.findall(r"neighbor sample K=(\d+) seed (\d+): of (\d+) entities, "
                            r"(\d+) isolated, (\d+) drawn with replacement", caplog.text)
        # at K = 2 the 8 entities with one pair draw with replacement; at K = 4 all 10
        assert logged == [("2", "7", "12", "2", "8"), ("4", "8", "12", "2", "10")]


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

    def test_mf_point_matches_mf_train(self, prep_dir, tmp_path, capsys):
        # a grid point trains the same model as train at the grid point's seed
        assert main(_train_args(prep_dir, tmp_path / "mf", **{"--model": "mf"})) == 0
        _, *trained = (tmp_path / "mf" / "test_metrics.csv").read_text().splitlines()[1].split(",")
        capsys.readouterr()
        code = main(_sweep_args(prep_dir, tmp_path / "sweep", "d", "4", "--model", "mf"))
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].split(",") == ["d", "4", *trained]

    def test_kgcn_point_matches_train_at_its_seed(self, prep_dir, tmp_path, capsys):
        # grid point i trains at seed --seed + i on the split at --seed, as repeat i of train
        assert main(_train_args(prep_dir, tmp_path / "t", **{"--repeat": "2"})) == 0
        *_, second = (tmp_path / "t" / "test_metrics.csv").read_text().splitlines()
        capsys.readouterr()
        assert main(_sweep_args(prep_dir, tmp_path / "sweep", "K", "2,4")) == 0
        rows = capsys.readouterr().out.splitlines()
        assert second.split(",")[0] == "8"
        assert rows[2].split(",") == ["K", "4", *second.split(",")[1:]]

    @pytest.mark.parametrize("parameter, values", [("K", "64,2,16,4,32,8"), ("H", "3,1,4,2")],
                             ids=["K", "H"])
    def test_grid_order_and_row_count(self, prep_dir, tmp_path, parameter, values):
        out = tmp_path / "sweep"
        assert main(_sweep_args(prep_dir, out, parameter, values, "--K", "2", "--d", "2",
                                "--epochs", "1", "--batch-size", "32")) == 0
        _, *rows = (out / f"sweep_{parameter}.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows] == [[parameter, v] for v in values.split(",")]

    def test_mf_h_sweep_is_config_error(self, prep_dir, tmp_path):
        assert main(_sweep_args(prep_dir, tmp_path / "s", "H", "1", "--model", "mf")) == 1

    def test_unknown_parameter_is_config_error(self, prep_dir, tmp_path):
        assert main(_sweep_args(prep_dir, tmp_path / "s", "eta", "1")) == 1

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

    def test_listed_item_ranked_once(self, prep_dir, trained_dir, capsys):
        outputs = []
        for items in ("3,3,1", "1,3"):
            assert main(_predict(trained_dir, prep_dir, "--user", "1", "--items", items,
                                 "--k", "3")) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].splitlines()) == 3 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("items", ["all", "0,2,5,9"])
    def test_reads_only_stats(self, prep_dir, trained_dir, tmp_path, capsys, items):
        stats_only = tmp_path / "prep"
        shutil.copytree(prep_dir, stats_only)
        (stats_only / "final_ratings.txt").unlink()
        (stats_only / "kg.txt").unlink()
        outputs = []
        for data_dir in (prep_dir, stats_only):
            assert main(["predict", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
                         "--data-dir", str(data_dir), "--user", "2", "--items", items]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_reads_no_sidecar(self, prep_dir, trained_dir, tmp_path, capsys):
        # the checkpoint alone, without the run-config sidecar train wrote beside it
        alone = tmp_path / "checkpoint.kgcn"
        shutil.copy(trained_dir / "checkpoint_seed7.kgcn", alone)
        outputs = []
        for ckpt in (trained_dir / "checkpoint_seed7.kgcn", alone):
            assert main(["predict", "--checkpoint", str(ckpt), "--data-dir", str(prep_dir),
                         "--user", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("key", ["entities", "relations"])
    @pytest.mark.parametrize("command", [["evaluate"], ["predict", "--user", "0"]],
                             ids=["evaluate", "predict"])
    def test_other_kg_counts_in_stats_are_data_error(self, trained_dir, prep_dir, tmp_path,
                                                      key, command):
        data_dir = tmp_path / "prep"
        shutil.copytree(prep_dir, data_dir)
        stats = json.loads((data_dir / "stats.json").read_text())
        (data_dir / "stats.json").write_text(json.dumps({**stats, key: stats[key] + 1}))
        code = main(command + ["--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
                               "--data-dir", str(data_dir)])
        assert code == 2

    def test_negative_item_index_is_data_error(self, prep_dir, tmp_path):
        bad = tmp_path / "bad_prep"
        shutil.copytree(prep_dir, bad)
        with open(bad / "final_ratings.txt", "a", encoding="utf-8") as f:
            f.write("0\t-5\t1\n")
        assert main(_train_args(bad, tmp_path / "out")) == 2


def _u32(raw, offset):
    return struct.unpack_from("<I", raw, offset)[0]


def _sample_start(raw):
    """Offset of the stored neighbors in a version 2 checkpoint: E at byte 12
    and K at byte 32 of the header; neighbors and relations fill the end."""
    return len(raw) - 16 * _u32(raw, 12) * _u32(raw, 32)


def _version_1(raw):
    """A version 1 file of a version 2 checkpoint's model: magic, the seven
    header fields with version 1, then flat."""
    header = struct.pack("<7I", 1, *struct.unpack_from("<6I", raw, 8))
    return b"KGCN" + header + raw[36:_sample_start(raw)]


class Rebuilt(Exception):
    """Raised in place of rebuilding the adjacency or the neighbor sample."""


class TestStoredSample:
    COMMANDS = [["evaluate", "--mode", "ctr"], ["evaluate", "--mode", "topk"],
                ["evaluate", "--mode", "ctr", "--split", "train"],
                ["predict", "--user", "1"], ["predict", "--user", "3", "--items", "0,2,5,9"]]
    IDS = ["evaluate_ctr", "evaluate_topk", "evaluate_ctr_train", "predict_all", "predict_items"]

    @pytest.fixture
    def version_1(self, trained_dir, tmp_path):
        ckpt = tmp_path / "checkpoint_v1.kgcn"
        ckpt.write_bytes(_version_1((trained_dir / "checkpoint_seed7.kgcn").read_bytes()))
        shutil.copy(trained_dir / "checkpoint_seed7.kgcn.json", str(ckpt) + ".json")
        return ckpt

    @staticmethod
    def _refuse_rebuild(monkeypatch):
        calls = []

        def rebuild(*args, **kwargs):
            calls.append(args)
            raise Rebuilt
        monkeypatch.setattr(cli, "build_adjacency", rebuild)
        monkeypatch.setattr(cli, "sample_neighborhood", rebuild)
        return calls

    @pytest.mark.parametrize("command", COMMANDS, ids=IDS)
    def test_version_2_scores_without_rebuilding(self, prep_dir, trained_dir, monkeypatch,
                                                 command):
        self._refuse_rebuild(monkeypatch)
        assert main(command + ["--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
                               "--data-dir", str(prep_dir)]) == 0

    # A version 1 file stores no sample, and the sampler's random stream has changed since
    # version 1 files were written, so drawing one again would score with another sample.
    # The two tests below keep the names of the re-sampling path such files once took; both
    # now check that the file is refused. _refuse_rebuild replaces cli.build_adjacency and
    # cli.sample_neighborhood, the names through which the CLI builds an adjacency and,
    # when it trains, draws a sample, so a command that rebuilt either would raise Rebuilt.
    @pytest.mark.parametrize("command", COMMANDS, ids=IDS)
    def test_version_1_rebuilds(self, prep_dir, version_1, monkeypatch, command):
        calls = self._refuse_rebuild(monkeypatch)
        assert main(command + ["--checkpoint", str(version_1), "--data-dir", str(prep_dir)]) == 2
        # refused before the adjacency or the sample is built
        assert calls == []

    @pytest.mark.parametrize("command", COMMANDS, ids=IDS)
    def test_version_1_scores_as_version_2(self, prep_dir, trained_dir, version_1, capsys,
                                           caplog, command):
        args = ["--data-dir", str(prep_dir)]
        assert main(command + ["--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
                               *args]) == 0
        assert capsys.readouterr().out
        # the same model as a version 1 file prints no scores and asks for a retrain
        assert main(command + ["--checkpoint", str(version_1), *args]) == 2
        assert capsys.readouterr().out == ""
        assert "checkpoint version 1" in caplog.text and "retrain" in caplog.text

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file size limit")
    def test_failed_write_keeps_the_previous_pair(self, prep_dir, trained_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(trained_dir, out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        # the sidecar fits below the limit, the retrained checkpoint does not
        limit = len(before["checkpoint_seed7.kgcn"]) // 2
        assert len(before["checkpoint_seed7.kgcn.json"]) < limit

        def limit_file_size():
            import resource
            # ignored, a write past the limit fails with EFBIG instead of ending the process
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE,
                               (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        argv = _train_args(prep_dir, out, **{"--epochs": "1"})
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "kgcn.cli", *argv], env=env,
                              preexec_fn=limit_file_size, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_config_error(self):
        assert main([]) == 1


def _predict(trained_dir, prep_dir, *flags):
    return ["predict", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(prep_dir), *flags]


class TestParserReuse:
    """main builds its parser on the first call in a process and reuses it."""

    def test_built_once(self, prep_dir, trained_dir, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        argv = _predict(trained_dir, prep_dir, "--user", "0")
        assert main(argv) == 0
        assert built   # the first call built the parser and its subparsers
        del built[:]
        assert main(argv) == 0
        assert built == []

    def test_calls_do_not_affect_each_other(self, prep_dir, trained_dir, monkeypatch, capsys):
        sequence = [
            ["--frobnicate"],
            _predict(trained_dir, prep_dir, "--user", "0", "--frobnicate"),
            ["--help"],
            _predict(trained_dir, prep_dir, "--user", "0"),
            ["evaluate", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
             "--data-dir", str(prep_dir), "--mode", "ctr"],
            _predict(trained_dir, prep_dir, "--user", "99999"),
            _predict(trained_dir, prep_dir, "--user", "1", "--items", "0,2,5", "--k", "2"),
        ]

        def run_all():
            results = []
            for argv in sequence:
                code = main(argv)
                results.append((code, capsys.readouterr().out))
            return results

        reused = run_all()
        assert [code for code, _ in reused] == [1, 1, 0, 0, 0, 2, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert run_all() == reused

    def test_module_run_prints_the_same_bytes(self, prep_dir, trained_dir, capsys):
        argv = _predict(trained_dir, prep_dir, "--user", "3", "--items", "all")
        assert main(argv) == 0
        in_process = capsys.readouterr().out.encode("utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "kgcn.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert in_process and done.stdout == in_process


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


def _items_past_entities(trained_dir, prep_dir, tmp_path):
    """predict every item against a data dir whose stats.json counts one item
    more than there are entities."""
    data_dir = tmp_path / "prep"
    shutil.copytree(prep_dir, data_dir)
    stats = json.loads((data_dir / "stats.json").read_text())
    stats["num_items_prefix"] = stats["entities"] + 1
    (data_dir / "stats.json").write_text(json.dumps(stats))
    return ["predict", "--checkpoint", str(trained_dir / "checkpoint_seed7.kgcn"),
            "--data-dir", str(data_dir), "--user", "0", "--items", "all"]


def _without_sidecar(trained_dir, prep_dir, tmp_path):
    """evaluate a copy of the trained checkpoint with no run-config sidecar beside it."""
    ckpt = tmp_path / "checkpoint.kgcn"
    shutil.copy(trained_dir / "checkpoint_seed7.kgcn", ckpt)
    return _evaluate(ckpt, prep_dir)


def _train_with_stats(**counts):
    """train on a copy of the data dir whose stats.json has keys set to counts."""
    def build(trained_dir, prep_dir, tmp_path):
        data_dir = tmp_path / "prep"
        shutil.copytree(prep_dir, data_dir)
        _with_stats(data_dir, **counts)
        return _train_args(data_dir, tmp_path / "t")
    return build


def _without_stats(trained_dir, prep_dir, tmp_path):
    """evaluate against a data dir whose stats.json was deleted."""
    data_dir = tmp_path / "prep"
    shutil.copytree(prep_dir, data_dir)
    (data_dir / "stats.json").unlink()
    return _evaluate(trained_dir / "checkpoint_seed7.kgcn", data_dir)


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


def _small_preprocess(tmp_path):
    """Small raw files and the preprocess command for them: (raw_dir, argv)."""
    raw = write_synthetic_raw(tmp_path / "raw", n_attrs=2, items_per_attr=3, n_users=4,
                              pos_per_user=2)
    return raw, ["preprocess", "--ratings", str(raw / "ratings.tsv"),
                 "--kg", str(raw / "kg.txt"), "--item2entity", str(raw / "item2entity.tsv"),
                 "--out-dir", str(tmp_path / "p")]


def _preprocess_seed(trained_dir, prep_dir, tmp_path):
    return _small_preprocess(tmp_path)[1] + ["--seed", "-1"]


def _preprocess_appended(name, line):
    """preprocess after appending the bytes `line` to the raw file `name`."""
    def build(trained_dir, prep_dir, tmp_path):
        raw, argv = _small_preprocess(tmp_path)
        with open(raw / name, "ab") as f:
            f.write(line)
        return argv
    return build


def _preprocess_prepended(name, prefix):
    """preprocess after putting the bytes `prefix` before the raw file `name`."""
    def build(trained_dir, prep_dir, tmp_path):
        raw, argv = _small_preprocess(tmp_path)
        (raw / name).write_bytes(prefix + (raw / name).read_bytes())
        return argv
    return build


def _train_appended(name, line):
    """train on a copy of the data dir after appending the bytes `line` to `name`."""
    def build(trained_dir, prep_dir, tmp_path):
        data_dir = tmp_path / "prep"
        shutil.copytree(prep_dir, data_dir)
        with open(data_dir / name, "ab") as f:
            f.write(line)
        return _train_args(data_dir, tmp_path / "t")
    return build


def _small_split(command, ratios):
    """train, or sweep, on 72 records split by `ratios`: at 70:1:1 validation and
    test each hold one record, so one class."""
    def build(trained_dir, prep_dir, tmp_path):
        raw = write_synthetic_raw(tmp_path / "raw", n_attrs=4, items_per_attr=5, n_users=12,
                                  pos_per_user=3, seed=1)
        assert main(["preprocess", "--ratings", str(raw / "ratings.tsv"),
                     "--kg", str(raw / "kg.txt"), "--item2entity", str(raw / "item2entity.tsv"),
                     "--out-dir", str(tmp_path / "p")]) == 0
        return _train_or_sweep(command, tmp_path / "p", tmp_path / "out") + ["--ratios", ratios]
    return build


def _train_with(*flags):
    return lambda trained_dir, prep_dir, tmp_path: _train_args(prep_dir, tmp_path / "t") + list(flags)


def _train_seed(trained_dir, prep_dir, tmp_path):
    return _train_args(prep_dir, tmp_path / "t") + ["--seed", "-1"]


def _sweep_seed(trained_dir, prep_dir, tmp_path):
    return _sweep_args(prep_dir, tmp_path / "s", "d", "4", "--seed", "-1")


def _sweep_d_past_header(trained_dir, prep_dir, tmp_path):
    # 2^64: past a checkpoint header's uint32, and more than numpy can allocate
    return _sweep_args(prep_dir, tmp_path / "s", "d", "18446744073709551616")


def _d_zero(raw):
    # a header with d = 0 and no tables after it, so the file size still matches
    return raw[:20] + struct.pack("<I", 0) + raw[24:36] + raw[_sample_start(raw):]


def _stored_value(offset_of, value):
    """An edit that writes the int64 `value(raw)` at `offset_of(raw)`."""
    def edit(raw):
        at = offset_of(raw)
        return raw[:at] + struct.pack("<q", value(raw)) + raw[at + 8:]
    return edit


# the first stored neighbor set to E, the last stored relation to R + 1
_neighbor_e = _stored_value(_sample_start, lambda raw: _u32(raw, 12))
_relation_past_r = _stored_value(lambda raw: len(raw) - 8, lambda raw: _u32(raw, 16))


def _k_zero(raw):
    # K = 0 and no sample after flat, so the file size still matches
    return raw[:32] + struct.pack("<I", 0) + raw[36:_sample_start(raw)]


def _mf_nan_user(*argv):
    """A command on an MF checkpoint (H = 0) whose first user vector is NaN."""
    def build(trained_dir, prep_dir, tmp_path):
        assert main(_train_args(prep_dir, tmp_path) + ["--model", "mf"]) == 0
        ckpt = tmp_path / "checkpoint_seed7.kgcn"
        raw = ckpt.read_bytes()
        d = _u32(raw, 20)
        ckpt.write_bytes(raw[:36] + np.full(d, np.nan).astype("<f8").tobytes() + raw[36 + 8 * d:])
        return [argv[0], "--checkpoint", str(ckpt), "--data-dir", str(prep_dir), *argv[1:]]
    return build


def _mf_tagged_sum(trained_dir, prep_dir, tmp_path):
    """evaluate on an MF checkpoint (H = 0) whose aggregator tag reads sum."""
    assert main(_train_args(prep_dir, tmp_path) + ["--model", "mf"]) == 0
    ckpt = tmp_path / "checkpoint_seed7.kgcn"
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:28] + struct.pack("<I", 0) + raw[32:])
    return _evaluate(ckpt, prep_dir)


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
        (_edited_sidecar(_json_with("ratios", 7)), 2),
        (_edited_sidecar(_json_with("split_seed", 1.5)), 2),
        (_edited_stats(_replace("{not json")), 2),
        (_edited_stats(_json_with("users", "x")), 2),
        (_preprocess_seed, 1),
        (_train_seed, 1),
        (_sweep_seed, 1),
        (_with_checkpoint("evaluate", "--seed", "-1"), 1),
        (_with_checkpoint("predict", "--user", "0", "--seed", "-1"), 1),
        (_edited_sidecar(_json_with("split_seed", -1)), 2),
        (_with_checkpoint("evaluate", "--mode", "topk", "--split", "validation"), 1),
        (_with_checkpoint("evaluate", "--seed", "1"), 1),
        (_mf_tagged_sum, 2),
        (_edited_checkpoint(_d_zero), 2),
        (_preprocess_appended("item2entity.tsv", b"a\t99999999999999999999\n"), 2),
        (_preprocess_appended("kg.txt", b"2147483648\t0\t1\n"), 2),
        (_train_with("--ratios", "nan:1:1"), 1),
        (_train_with("--eta", "nan"), 1),
        (_train_with("--lambda", "inf"), 1),
        (_with_checkpoint("evaluate", "--mode", "topk", "--k-list", "0,-5"), 1),
        (_with_checkpoint("evaluate", "--mode", "topk", "--k-list", ","), 1),
        (_with_checkpoint("predict", "--user", "0", "--k", "-2"), 1),
        (_small_split("train", "70:1:1"), 2),
        (_preprocess_appended("item2entity.tsv", b"it\xff\t0\n"), 2),
        (_preprocess_appended("kg.txt", b"0\t\xff\t1\n"), 2),
        (_train_appended("final_ratings.txt", b"0\t\xff\t1\n"), 2),
        (_preprocess_appended("ratings.tsv", b"u\xff\tit0\t1.0\nu\xfe\tit1\t1.0\n"), 2),
        (_without_stats, 2),
        (_preprocess_appended("kg.txt", b"1_0\t0\t1\n"), 2),
        (_preprocess_prepended("ratings.tsv", b"\xef\xbb\xbf"), 2),
        (_preprocess_prepended("item2entity.tsv", b"\xef\xbb\xbf"), 2),
        (_preprocess_appended("item2entity.tsv", b"new\t1_0\n"), 2),
        (_preprocess_appended("ratings.tsv", b"u0\tit0\t1_0\n"), 2),
        (_edited_checkpoint(_neighbor_e), 2),
        (_edited_checkpoint(_relation_past_r), 2),
        (_edited_checkpoint(lambda raw: raw[:-8]), 2),
        (_edited_checkpoint(lambda raw: raw[:34]), 2),
        (_edited_checkpoint(_k_zero), 2),
        (_edited_stats(_json_with("entities", "x")), 2),
        (_edited_stats(_json_with("relations", None)), 2),
        (_items_past_entities, 2),
        (_edited_sidecar(_json_with("ratios", "1:2")), 2),
        (_edited_sidecar(_json_with("ratios", "x")), 2),
        (_edited_sidecar(_json_with("ratios", "nan:1:1")), 2),
        (_edited_sidecar(_json_with("ratios", "0:0:0")), 2),
        (_with_checkpoint("predict", "--user", "0", "--items", "9223372036854775808"), 2),
        (_with_checkpoint("predict", "--user", "0", "--items", "-99999999999999999999"), 2),
        (_sweep_d_past_header, 1),
        (_train_with("--K", "18446744073709551616"), 1),
        (_mf_nan_user("evaluate", "--mode", "ctr"), 2),
        (_mf_nan_user("evaluate", "--mode", "topk"), 2),
        (_mf_nan_user("predict", "--user", "0"), 2),
        (_train_with_stats(users=99999999999999999999), 2),
        (_without_sidecar, 2),
    ], ids=["sweep_values", "k_list", "predict_items", "truncated_checkpoint",
            "huge_dims_checkpoint", "trailing_byte_checkpoint",
            "malformed_sidecar", "sidecar_missing_key", "sidecar_ratios_int",
            "sidecar_split_seed_float",
            "malformed_stats", "stats_users_string", "preprocess_negative_seed",
            "train_negative_seed", "sweep_negative_seed", "evaluate_negative_seed",
            "predict_negative_seed", "sidecar_negative_split_seed",
            "topk_validation_split", "evaluate_seed", "mf_checkpoint_tagged_sum",
            "checkpoint_d_zero", "huge_entity_index", "huge_kg_head",
            "nan_ratio", "nan_eta", "inf_lambda", "k_list_below_one", "k_list_empty",
            "predict_k_below_one", "single_class_validation", "item2entity_not_utf8",
            "kg_not_utf8", "final_ratings_not_utf8", "ratings_not_utf8", "stats_missing",
            "kg_underscore_digits", "ratings_byte_order_mark", "item2entity_byte_order_mark",
            "item2entity_underscore_digits", "ratings_underscore_digits",
            "stored_neighbor_e", "stored_relation_past_r", "truncated_sample",
            "truncated_v2_header", "checkpoint_K_zero",
            "stats_entities_string", "stats_relations_null",
            "stats_items_past_entities", "sidecar_ratios_two_parts", "sidecar_ratios_text",
            "sidecar_ratios_nan", "sidecar_ratios_zero", "predict_item_past_int64",
            "predict_item_below_int64", "sweep_d_past_header", "train_K_past_header",
            "mf_nan_user_evaluate_ctr", "mf_nan_user_evaluate_topk", "mf_nan_user_predict",
            "stats_users_past_int64", "evaluate_without_sidecar"])
    def test_exit_code_without_traceback(self, trained_dir, prep_dir, tmp_path, build, code):
        argv = build(trained_dir, prep_dir, tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "kgcn.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr


def _sweep_with(*flags):
    return lambda trained_dir, prep_dir, tmp_path: _sweep_args(prep_dir, tmp_path / "s", *flags)


def _preprocess_with(*flags):
    return lambda trained_dir, prep_dir, tmp_path: _small_preprocess(tmp_path)[1] + list(flags)


class TestBadNumericFlag:
    """A numeric flag follows the rule of the input files: int() and float()
    alone read "1_0" as 10 and a non-ASCII digit such as "\u0663" as 3."""

    @pytest.mark.parametrize("build, value", [
        (_train_with("--K", "1_0"), "1_0"),
        (_train_with("--d", "\u0663"), "\u0663"),
        (_train_with("--H", "\u0661"), "\u0661"),
        (_train_with("--batch-size", "1_6"), "1_6"),
        (_train_with("--epochs", "\u0661"), "\u0661"),
        (_train_with("--repeat", "0_1"), "0_1"),
        (_train_with("--seed", "1_0"), "1_0"),
        (_train_with("--eta", "0.0_1"), "0.0_1"),
        (_train_with("--eta", "\u0660.01"), "\u0660.01"),
        (_train_with("--lambda", "1_0e-5"), "1_0e-5"),
        (_train_with("--ratios", "6_0:2:2"), "6_0:2:2"),
        (_sweep_with("K", "1_0"), "1_0"),
        (_sweep_with("K", "2,\u0663"), "2,\u0663"),
        (_preprocess_with("--threshold", "0_1"), "0_1"),
        (_preprocess_with("--threshold", "nan"), "nan"),
        (_preprocess_with("--threshold", "inf"), "inf"),
        (_preprocess_with("--seed", "\u0663"), "\u0663"),
        (_with_checkpoint("predict", "--user", "\u0663"), "\u0663"),
        (_with_checkpoint("predict", "--user", "0", "--k", "1_0"), "1_0"),
        (_with_checkpoint("predict", "--user", "0", "--items", "1_0"), "1_0"),
        (_with_checkpoint("predict", "--user", "0", "--items", "0, \u0663"), "0, \u0663"),
        (_with_checkpoint("evaluate", "--mode", "topk", "--k-list", "1_0"), "1_0"),
    ], ids=["K", "d", "H", "batch_size", "epochs", "repeat", "seed", "eta_underscore",
            "eta_arabic_zero", "lambda", "ratios", "sweep_values", "sweep_values_arabic",
            "threshold", "threshold_nan", "threshold_inf", "preprocess_seed", "user", "k",
            "items", "items_arabic", "k_list"])
    def test_config_error_naming_the_value(self, trained_dir, prep_dir, tmp_path, capsys,
                                           caplog, build, value):
        argv = build(trained_dir, prep_dir, tmp_path)
        assert main(argv) == 1
        assert repr(value) in capsys.readouterr().err + caplog.text
        assert not _out_dir_made(argv)

    def test_decimal_values_still_parse(self):
        args = cli.build_parser().parse_args([
            "train", "--data-dir", "d", "--out-dir", "o", "--K", "+3", "--d", "08",
            "--seed", "0", "--eta", "1e-3", "--lambda", " .5", "--epochs", "-1"])
        assert (args.K, args.d, args.seed, args.eta, args.lam, args.epochs) == (3, 8, 0, 1e-3,
                                                                              0.5, -1)
        assert cli._ints(cli._int)(" 1, +2,,03 ") == [1, 2, 3]


def _out_dir_made(argv):
    """Whether the --out-dir that argv names, if any, exists."""
    return "--out-dir" in argv and Path(argv[argv.index("--out-dir") + 1]).exists()


def _fit_without_data(command):
    """train, or sweep, on a data dir that does not exist."""
    return lambda trained_dir, prep_dir, tmp_path: _train_or_sweep(
        command, tmp_path / "missing", tmp_path / "out")


def _preprocess_without(name):
    """preprocess after deleting the raw file `name`."""
    def build(trained_dir, prep_dir, tmp_path):
        raw, argv = _small_preprocess(tmp_path)
        (raw / name).unlink()
        return argv
    return build


class TestNothingWrittenOnError:
    """A command creates --out-dir only once its flags, configs and inputs pass."""

    @pytest.mark.parametrize("build, code", [
        (_train_with("--K", "0"), 1),
        (_train_with("--epochs", "-1"), 1),
        (_train_with("--repeat", "0"), 1),
        (_train_with("--ratios", "0:0:0"), 1),
        (_fit_without_data("train"), 2),
        (_train_appended("final_ratings.txt", b"0\t-5\t1\n"), 2),
        (_sweep_with("K", "2,0"), 1),
        (_sweep_with("K", ""), 1),
        (_sweep_with("d", "4", "--eta", "0"), 1),
        (_fit_without_data("sweep"), 2),
        (_small_split("train", "70:1:1"), 2),
        (_small_split("sweep", "70:1:1"), 2),
        (_small_split("train", "70:0:1"), 2),
        (_small_split("train", "0:1:1"), 1),
        (_small_split("sweep", "0:1:1"), 1),
        (_preprocess_with("--threshold=-inf"), 1),
        (_preprocess_without("ratings.tsv"), 2),
        (_preprocess_without("kg.txt"), 2),
        (_preprocess_appended("kg.txt", b"1_0\t0\t1\n"), 2),
    ], ids=["train_K_zero", "train_epochs_negative", "train_repeat_zero", "train_ratios_zero",
            "train_missing_data_dir", "train_negative_item", "sweep_K_zero", "sweep_values_empty",
            "sweep_eta_zero", "sweep_missing_data_dir", "train_one_class_validation",
            "sweep_one_class_validation", "train_one_class_test", "train_empty_training_part",
            "sweep_empty_training_part", "preprocess_threshold_inf",
            "preprocess_missing_ratings", "preprocess_missing_kg", "preprocess_kg_underscore"])
    def test_exit_code_and_no_out_dir(self, trained_dir, prep_dir, tmp_path, monkeypatch,
                                      build, code):
        argv = build(trained_dir, prep_dir, tmp_path)
        trained = []

        def recording_train(*args):
            trained.append(args)
            return train(*args)
        monkeypatch.setattr(cli, "train", recording_train)
        assert main(argv) == code
        assert not _out_dir_made(argv) and trained == []

    def test_empty_training_part_at_zero_epochs_writes(self, trained_dir, prep_dir, tmp_path):
        # no epoch runs, so the initial parameters are the model and nothing is refused
        argv = _small_split("train", "0:1:1")(trained_dir, prep_dir, tmp_path) + ["--epochs", "0"]
        assert main(argv) == 0
        assert (tmp_path / "out" / "checkpoint_seed7.kgcn").exists()


class TestErrorExitCodes:
    """main returns the raised error type's exit code and logs its label; an
    OSError is a data error and a MemoryError exits 1."""

    @pytest.mark.parametrize("error, code, label", [
        (ConfigError("bad"), 1, "config error"),
        (DataError("bad"), 2, "data error"),
        (ParseError("f", 3, "bad"), 2, "data error"),
        (NumericalError("bad"), 3, "numerical failure"),
        (FileNotFoundError("bad"), 2, "data error"),
        (MemoryError("bad"), 1, "not enough memory"),
    ], ids=["config", "data", "parse", "numerical", "os", "memory"])
    def test_exit_code_and_label(self, monkeypatch, caplog, error, code, label):
        def fail(args):
            raise error
        monkeypatch.setitem(cli.COMMANDS, "predict", fail)
        assert main(["predict", "--checkpoint", "c", "--data-dir", "d", "--user", "0"]) == code
        assert f"{label}: {error}" in caplog.text


def _with_stats(data_dir, **counts):
    """Set keys of data_dir's stats.json; returns the stats before the edit."""
    path = data_dir / "stats.json"
    stats = json.loads(path.read_text())
    path.write_text(json.dumps({**stats, **counts}))
    return stats


def _train_or_sweep(command, data_dir, out_dir):
    if command == "train":
        return _train_args(data_dir, out_dir)
    return _sweep_args(data_dir, out_dir, "K", "2")


class TestDataDirCounts:
    """A data dir's stats.json gives its counts to every command."""

    @pytest.fixture
    def data_dir(self, prep_dir, tmp_path):
        shutil.copytree(prep_dir, tmp_path / "prep")
        return tmp_path / "prep"

    @pytest.mark.parametrize("field", ["head", "relation", "tail"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_kg_naming_more_than_stats_is_data_error(self, data_dir, tmp_path, field, command):
        stats = _with_stats(data_dir)
        E, R = stats["entities"], stats["relations"]
        row = {"head": (E, 0, 0), "relation": (0, R, 1), "tail": (0, 0, E)}[field]
        with open(data_dir / "kg.txt", "a", encoding="utf-8") as f:
            f.write("%d\t%d\t%d\n" % row)
        assert main(_train_or_sweep(command, data_dir, tmp_path / "out")) == 2

    @pytest.mark.parametrize("key", ["entities", "relations"])
    def test_trained_on_stats_counts(self, data_dir, tmp_path, capsys, key):
        stats = _with_stats(data_dir)
        _with_stats(data_dir, **{key: stats[key] + 2})
        assert main(_train_args(data_dir, tmp_path / "t")) == 0
        ckpt = str(tmp_path / "t" / "checkpoint_seed7.kgcn")
        for command in (["evaluate", "--mode", "ctr"], ["evaluate", "--mode", "topk"],
                        ["predict", "--user", "0"]):
            capsys.readouterr()
            assert main(command + ["--checkpoint", ckpt, "--data-dir", str(data_dir)]) == 0
            assert capsys.readouterr().out

    @pytest.mark.parametrize("counts", [
        lambda stats: {"num_items_prefix": stats["entities"] + 1},
        lambda stats: {"entities": 2 ** 31 + 1},
        lambda stats: {"entities": 99999999999999999999},
        lambda stats: {"relations": 2 ** 31 + 1},
    ], ids=["items_past_entities", "entities_past_index_limit", "entities_past_int64",
            "relations_past_index_limit"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_impossible_counts_are_data_error(self, data_dir, tmp_path, counts, command):
        _with_stats(data_dir, **counts(_with_stats(data_dir)))
        assert main(_train_or_sweep(command, data_dir, tmp_path / "out")) == 2


class TestTooLargeForMemory:
    """Sizes too large for memory end in a message; each run is a child
    process whose address space is capped, so no allocation takes the
    machine's memory."""

    @pytest.mark.parametrize("flags, message", [
        (["--K", "2147483647"], "not enough memory"),
        (["--d", "100000"], "not enough memory"),
        (["--d", "2147483647"], "more bytes than numpy can index"),
    ], ids=["K_past_memory", "d_past_memory", "d_past_numpy"])
    def test_exit_code_without_traceback(self, prep_dir, tmp_path, flags, message):
        argv = _train_args(prep_dir, tmp_path / "t") + ["--epochs", "1", *flags]
        done = run_capped(["-m", "kgcn.cli", *argv])
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr and message in done.stderr
        assert done.stdout == ""
