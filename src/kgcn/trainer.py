"""Minibatch training loop: shuffling, cross-entropy loss with L2, backprop,
Adam updates, validation-based checkpoint selection and hyperparameter
sweeps. Fully deterministic given the seed.
"""

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .evaluate import ctr_eval
from .graph import sample_neighborhood
from .model import KgcnScorer
from .numerics import AdamState, adam_step, format_float, init_params

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    eta: float = 5e-4        # learning rate
    lam: float = 0.0         # L2 regularizer weight
    batch_size: int = 128
    max_epochs: int = 20
    seed: int = 0
    eval_every: int = 1      # epochs between validation passes

    def validate(self):
        if self.eta <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.eta}")
        if self.lam < 0:
            raise ConfigError(f"L2 weight must be >= 0, got {self.lam}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max epochs must be >= 0, got {self.max_epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval interval must be >= 1, got {self.eval_every}")
        return self


@dataclass
class TrainReport:
    """Per-epoch training curve; best_epoch is the argmax of validation AUC
    (first occurrence on ties, -1 when no epoch ran)."""

    train_loss: list = field(default_factory=list)
    val_auc: list = field(default_factory=list)      # nan on epochs not evaluated
    val_f1: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = -1

    def rows(self):
        for e in range(len(self.train_loss)):
            yield (e, self.train_loss[e], self.val_auc[e], self.val_f1[e], self.seconds[e])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("epoch,train_loss,val_auc,val_f1,seconds\n")
            for e, *values in self.rows():
                f.write(f"{e},{','.join(map(format_float, values))}\n")


def batch_loss(predictions, labels, params, lam):
    """Mean binary cross-entropy plus lam * ||all parameters||^2."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if np.any(predictions <= 0.0) or np.any(predictions >= 1.0):
        raise NumericalError("predictions must lie strictly inside (0, 1)")
    bce = -np.mean(labels * np.log(predictions) + (1.0 - labels) * np.log(1.0 - predictions))
    return float(bce + lam * params.squared_norm())


def train(split, scorer, config):
    """Run the minibatch loop and return (best_params, TrainReport).

    Every epoch shuffles the train records (seeded), walks batches of
    batch_size (final partial batch included), and applies one Adam step per
    batch. Validation AUC/F1 are computed every eval_every epochs (always on
    the last); the returned parameters are a copy from the epoch with the
    highest validation AUC.
    """
    config.validate()
    params = scorer.params
    report = TrainReport()
    if config.max_epochs == 0:
        return params.copy(), report
    n = len(split.train)
    if n == 0:
        raise ConfigError("empty training set")
    adam = AdamState.zeros_like(params)
    rng = np.random.default_rng(config.seed)
    best_params = params.copy()
    best_auc = -np.inf
    users = split.train.users
    items = split.train.items
    labels = split.train.labels.astype(np.float64)
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            y = labels[idx]
            probs, state = scorer.forward_batch(users[idx], items[idx])
            loss = batch_loss(probs, y, params, config.lam)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at epoch {epoch} batch {bi}")
            loss_sum += loss * len(idx)
            # d(mean BCE)/dprob per record
            upstream = (probs - y) / (probs * (1.0 - probs)) / len(idx)
            grads = scorer.backward_batch(state, upstream)
            adam_step(params, grads, adam, config.eta, config.lam)
        report.train_loss.append(loss_sum / n)
        evaluate_now = ((epoch + 1) % config.eval_every == 0) or (epoch == config.max_epochs - 1)
        if evaluate_now and len(split.validation) > 0:
            metrics = ctr_eval(scorer, split.validation)
            report.val_auc.append(metrics["auc"])
            report.val_f1.append(metrics["f1"])
            if metrics["auc"] > best_auc:
                best_auc = metrics["auc"]
                best_params = params.copy()
                report.best_epoch = epoch
        else:
            report.val_auc.append(float("nan"))
            report.val_f1.append(float("nan"))
        report.seconds.append(time.perf_counter() - t0)
        log.info(
            "epoch %d: train_loss=%.6f val_auc=%s (%.2fs)",
            epoch, report.train_loss[-1],
            f"{report.val_auc[-1]:.4f}" if np.isfinite(report.val_auc[-1]) else "-",
            report.seconds[-1],
        )
    if report.best_epoch < 0:
        # no validation data: fall back to the final parameters
        best_params = params.copy()
        report.best_epoch = config.max_epochs - 1
    return best_params, report


def train_kgcn(split, adjacency, num_entities, num_relations, model_config,
               train_config):
    """Sample the neighborhood, init parameters and train a KGCN.

    Returns (KgcnScorer over the best parameters, TrainReport). The neighbor
    sample and the parameter init derive their seeds from train_config.seed
    so a single seed reproduces the whole run.
    """
    model_config.validate()
    sample = sample_neighborhood(adjacency, model_config.K, train_config.seed, num_relations)
    params = init_params(
        split.train.num_users, num_entities, num_relations,
        model_config.d, model_config.H, model_config.aggregator,
        seed=train_config.seed,
    )
    best_params, report = train(split, KgcnScorer(params, sample, model_config), train_config)
    return KgcnScorer(best_params, sample, model_config), report


def sweep(split, adjacency, num_entities, num_relations, base_model_config,
          base_train_config, parameter, values):
    """Train one model per grid value of K, H or d; report test AUC/F1.

    Each grid point gets its own seed (base + index). Returns rows of
    (parameter, value, test_auc, test_f1).
    """
    if parameter not in ("K", "H", "d"):
        raise ConfigError(f"sweep parameter must be one of K, H, d; got {parameter!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for i, value in enumerate(values):
        model_config = replace(base_model_config, **{parameter: value})
        train_config = replace(base_train_config, seed=base_train_config.seed + i)
        scorer, _ = train_kgcn(
            split, adjacency, num_entities, num_relations, model_config, train_config
        )
        metrics = ctr_eval(scorer, split.test)
        log.info("sweep %s=%s: test_auc=%.4f test_f1=%.4f",
                 parameter, value, metrics["auc"], metrics["f1"])
        rows.append((parameter, value, metrics["auc"], metrics["f1"]))
    return rows


def write_sweep_csv(stream, rows):
    """Write sweep rows as CSV, header first, to an open text stream."""
    stream.write("parameter,value,test_auc,test_f1\n")
    for name, value, test_auc, test_f1 in rows:
        stream.write(f"{name},{value},{format_float(test_auc)},{format_float(test_f1)}\n")
