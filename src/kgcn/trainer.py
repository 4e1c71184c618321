"""Minibatch training loop: shuffling, cross-entropy loss with L2, backprop,
Adam updates and validation-based checkpoint selection. Fully deterministic
given the seed.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .evaluate import ctr_eval
from .numerics import AdamState, ParameterStore, adam_step, write_csv

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; every instance is valid, or construction raises ConfigError."""

    eta: float          # learning rate
    lam: float          # L2 regularizer weight
    batch_size: int
    max_epochs: int
    seed: int

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.eta}")
        if not 0 <= self.lam < np.inf:
            raise ConfigError(f"L2 weight must be finite and >= 0, got {self.lam}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max epochs must be >= 0, got {self.max_epochs}")


@dataclass
class TrainReport:
    """Per-epoch training curve; best_epoch is the argmax of validation AUC
    (first occurrence on ties, -1 when no epoch ran)."""

    train_loss: list = field(default_factory=list)
    val_auc: list = field(default_factory=list)      # nan without validation records
    val_f1: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = -1

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            write_csv(f, ("epoch", "train_loss", "val_auc", "val_f1", "seconds"),
                      zip(range(len(self.train_loss)), self.train_loss, self.val_auc,
                          self.val_f1, self.seconds))


def batch_loss(predictions, labels, params, lam):
    """Mean binary cross-entropy plus lam * ||all parameters||^2; the forward
    pass's predictions lie inside (0, 1) by numerics.sigmoid's clamp."""
    bce = -np.mean(labels * np.log(predictions) + (1.0 - labels) * np.log(1.0 - predictions))
    return float(bce + lam * params.squared_norm())


def check_trainable(train_part, config):
    """Refuse, as a ConfigError, to run config's epochs over an empty training part."""
    if config.max_epochs > 0 and len(train_part) == 0:
        raise ConfigError("empty training set")


def train(split, scorer, config):
    """Run the minibatch loop and return (best_params, TrainReport).

    Every epoch shuffles the train records (seeded), walks batches of
    batch_size (final partial batch included), and applies one Adam step per
    batch. Validation AUC/F1 are computed after every epoch (nan when the
    validation split is empty); the returned parameters are a copy from the
    epoch with the highest validation AUC (the last without validation
    records, the initial ones when no epoch runs).
    """
    check_trainable(split.train, config)
    params = scorer.params
    report = TrainReport()
    best_params = params.copy()
    n = len(split.train)
    adam = AdamState.zeros_like(params)
    grads = ParameterStore.zeros_like(params)    # cleared and refilled every batch
    rng = np.random.default_rng(config.seed)
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
            grads.flat.fill(0.0)
            scorer.backward_batch(state, (probs - y) / len(idx), grads)  # d(mean BCE)/dlogit
            adam_step(params, grads, adam, config.eta, config.lam)
        report.train_loss.append(loss_sum / n)
        # nan metrics without validation records, where every epoch is the best so far
        metrics = (ctr_eval(scorer, split.validation) if len(split.validation)
                   else {"auc": np.nan, "f1": np.nan})
        report.val_auc.append(metrics["auc"])
        report.val_f1.append(metrics["f1"])
        if not len(split.validation) or metrics["auc"] > best_auc:
            best_auc = metrics["auc"]
            best_params = params.copy()
            report.best_epoch = epoch
        report.seconds.append(time.perf_counter() - t0)
        log.info(
            "epoch %d: train_loss=%.6f val_auc=%s (%.2fs)",
            epoch, report.train_loss[-1],
            f"{report.val_auc[-1]:.4f}" if np.isfinite(report.val_auc[-1]) else "-",
            report.seconds[-1],
        )
    return best_params, report
