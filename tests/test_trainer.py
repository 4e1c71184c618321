import dataclasses
import math

import numpy as np
import pytest

from kgcn.data import preprocess, split as split_ds
from kgcn.errors import ConfigError
from kgcn.evaluate import ctr_eval
from kgcn.graph import build_adjacency, load_kg
from kgcn.model import KgcnScorer, ModelConfig
from kgcn.numerics import init_params, load_checkpoint, save_checkpoint
from kgcn.trainer import TrainConfig, batch_loss, train

from conftest import write_synthetic_raw


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    """Compact synthetic dataset with a real KG, preprocessed and split."""
    raw = write_synthetic_raw(
        tmp_path_factory.mktemp("small"),
        n_attrs=6, items_per_attr=8, n_users=40, pos_per_user=4, seed=3,
    )
    dataset, *_ = preprocess(raw / "ratings.tsv", raw / "item2entity.tsv", seed=5)
    triples, kg_entities, num_relations = load_kg(raw / "kg.txt")
    sp = split_ds(dataset, (6, 2, 2), seed=5)
    adjacency = build_adjacency(triples, max(kg_entities, dataset.num_items))
    return sp, adjacency, num_relations


class TestBatchLoss:
    def test_coin_flip_predictions(self):
        params = init_params(1, 1, 0, 1, 0, "mf", seed=0)
        preds = np.full(10, 0.5)
        labels = np.array([0, 1] * 5, dtype=np.float64)
        assert abs(batch_loss(preds, labels, params, 0.0) - math.log(2.0)) <= 1e-12

    def test_perfect_predictions(self):
        params = init_params(1, 1, 0, 1, 0, "mf", seed=0)
        preds = np.array([1 - 1e-12, 1e-12])
        labels = np.array([1.0, 0.0])
        assert batch_loss(preds, labels, params, 0.0) <= 1e-10

    def test_regularizer_only(self):
        params = init_params(2, 3, 1, 2, 1, "sum", seed=1)
        preds = np.array([1 - 1e-12])
        labels = np.array([1.0])
        lam = 0.25
        got = batch_loss(preds, labels, params, lam)
        assert abs(got - lam * params.squared_norm()) <= 1e-10


VALID_CONFIG = TrainConfig(eta=5e-4, lam=0.0, batch_size=128, max_epochs=20, seed=0)


def _fresh_scorer(small_setup, seed=1, **cfg_kw):
    sp, adjacency, R = small_setup
    from kgcn.graph import sample_neighborhood

    mc = ModelConfig(d=4, H=1, K=4, aggregator="sum", **cfg_kw)
    sample = sample_neighborhood(adjacency, mc.K, seed, R)
    params = init_params(sp.train.num_users, len(adjacency), R, mc.d, mc.H, mc.aggregator, seed)
    return KgcnScorer(params, sample, mc)


class TestTrain:
    def test_zero_epochs_returns_initial(self, small_setup):
        sp, *_ = small_setup
        scorer = _fresh_scorer(small_setup)
        before = scorer.params.copy()
        best, report = train(sp, scorer, dataclasses.replace(VALID_CONFIG, max_epochs=0))
        assert report.train_loss == [] and report.best_epoch == -1
        for (_, a), (_, b) in zip(best.blocks(), before.blocks()):
            assert np.array_equal(a, b)

    def test_same_seed_reproducible(self, small_setup):
        sp, *_ = small_setup
        runs = []
        for _ in range(2):
            scorer = _fresh_scorer(small_setup, seed=2)
            best, report = train(sp, scorer, TrainConfig(
                eta=5e-3, lam=1e-5, batch_size=16, max_epochs=3, seed=9))
            runs.append((best, report))
        assert runs[0][1].train_loss == runs[1][1].train_loss
        assert runs[0][1].val_auc == runs[1][1].val_auc
        for (_, a), (_, b) in zip(runs[0][0].blocks(), runs[1][0].blocks()):
            assert np.array_equal(a, b)

    def test_descent_on_separable_toy(self, small_setup):
        sp, *_ = small_setup
        scorer = _fresh_scorer(small_setup, seed=4)
        best, report = train(sp, scorer, TrainConfig(
            eta=0.01, lam=0.0, batch_size=16, max_epochs=20, seed=4))
        assert report.train_loss[-1] < 0.5 * report.train_loss[0]

    def test_every_record_seen_once_per_epoch(self, small_setup):
        # no validation part, so every forward call belongs to a train batch
        sp, *_ = small_setup
        sp_train_only = split_ds(sp.train, (1, 0, 0), seed=0)
        scorer = _fresh_scorer(small_setup, seed=6)
        seen = []
        inner = scorer.forward_batch

        def recording_forward(users, items):
            seen.extend(zip(users.tolist(), items.tolist()))
            return inner(users, items)

        scorer.forward_batch = recording_forward
        train(sp_train_only, scorer, TrainConfig(eta=1e-3, lam=0.0, batch_size=7, max_epochs=1,
                                                 seed=0))
        train_pairs = sorted(zip(sp_train_only.train.users.tolist(),
                                 sp_train_only.train.items.tolist()))
        assert sorted(seen) == train_pairs

    def test_without_validation_returns_last_epoch(self, small_setup):
        sp, *_ = small_setup
        sp_train_only = split_ds(sp.train, (1, 0, 0), seed=0)
        scorer = _fresh_scorer(small_setup, seed=11)
        best, report = train(sp_train_only, scorer, TrainConfig(
            eta=5e-3, lam=0.0, batch_size=16, max_epochs=3, seed=11))
        assert report.best_epoch == 2 and len(report.train_loss) == 3
        assert np.isnan(report.val_auc).all() and np.isnan(report.val_f1).all()
        assert len(report.val_auc) == len(report.val_f1) == 3
        assert np.array_equal(best.flat, scorer.params.flat) and best.flat is not scorer.params.flat

    def test_best_epoch_is_argmax_val_auc(self, small_setup):
        sp, *_ = small_setup
        scorer = _fresh_scorer(small_setup, seed=7)
        best, report = train(sp, scorer, TrainConfig(
            eta=5e-3, lam=0.0, batch_size=16, max_epochs=5, seed=7))
        aucs = np.array(report.val_auc)
        assert report.best_epoch == int(np.argmax(aucs))

    def test_best_checkpoint_reproduces_val_auc(self, small_setup):
        sp, adjacency, R = small_setup
        scorer = _fresh_scorer(small_setup, seed=8)
        best, report = train(sp, scorer, TrainConfig(
            eta=5e-3, lam=0.0, batch_size=16, max_epochs=4, seed=8))
        best_scorer = KgcnScorer(best, scorer.sample, scorer.config)
        val_auc = ctr_eval(best_scorer, sp.validation)["auc"]
        assert abs(val_auc - max(report.val_auc)) <= 1e-12

    def test_checkpoint_round_trip_val_auc(self, small_setup, tmp_path):
        sp, *_ = small_setup
        scorer = _fresh_scorer(small_setup, seed=9)
        best, _ = train(sp, scorer, TrainConfig(eta=5e-3, lam=0.0, batch_size=16,
                                                max_epochs=2, seed=9))
        before = ctr_eval(KgcnScorer(best, scorer.sample, scorer.config), sp.validation)["auc"]
        path = tmp_path / "ck.kgcn"
        save_checkpoint(path, best, scorer.sample, scorer.config)
        after = ctr_eval(KgcnScorer(*load_checkpoint(path)), sp.validation)["auc"]
        assert abs(before - after) <= 1e-12

    def test_report_csv_schema(self, small_setup, tmp_path):
        sp, *_ = small_setup
        scorer = _fresh_scorer(small_setup, seed=10)
        _, report = train(sp, scorer, TrainConfig(eta=1e-3, lam=0.0, batch_size=32,
                                                  max_epochs=2, seed=0))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_auc,val_f1,seconds"
        assert len(lines) == 3
        for line in lines[1:]:
            epoch, *floats = line.split(",")
            int(epoch)
            loss, vauc, vf1, secs = (float(v) for v in floats)
            assert loss > 0.0 and secs >= 0.0
            assert 0.0 <= vauc <= 1.0 and 0.0 <= vf1 <= 1.0

    def test_bad_config_rejected(self):
        for bad in ({"eta": 0.0}, {"batch_size": 0}, {"lam": -1.0}):
            with pytest.raises(ConfigError):
                dataclasses.replace(VALID_CONFIG, **bad)

    def test_config_frozen(self):
        # checked once, at construction, so no field may change afterwards
        config = VALID_CONFIG
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.eta = 0.0

