"""Training loop, k-fold cross-validation, and Table 2 metrics.

Matches Section 5.1: Adam with lr=0.001, 80/20 split, 3-fold
cross-validation during training (the fold with the best validation
loss supplies the final weights).  Regression models train on *valid*
designs only (the classifier screens validity first).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..obs import span
from ..nn.data import Batch, DataLoader
from ..nn.loss import binary_accuracy, cross_entropy, f1_score, mse_loss, rmse
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, no_grad

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "evaluate_regression", "evaluate_classification"]


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 40
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0
    folds: int = 1  # 3 reproduces the paper's 3-fold CV
    log_every: int = 0  # 0 = silent
    weight_decay: float = 0.0
    #: Multiplicative per-epoch learning-rate decay (1.0 = constant lr,
    #: the paper's setting).
    lr_decay: float = 1.0
    #: Stop after this many epochs without validation improvement
    #: (0 = disabled; requires val_data).
    early_stop_patience: int = 0


@dataclass
class TrainHistory:
    """Per-epoch training/validation losses."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def final_train_loss(self) -> float:
        return self.train_loss[-1] if self.train_loss else float("nan")


class Trainer:
    """Fits one model on one dataset."""

    def __init__(self, config: Optional[TrainConfig] = None):
        self.config = config or TrainConfig()

    # -- loss -----------------------------------------------------------------

    @staticmethod
    def _batch_loss(model: Module, batch: Batch) -> Tensor:
        pred = model(batch)
        task = model.config.task
        if task == "classification":
            return cross_entropy(pred, batch.labels())
        targets = batch.targets(model.config.objectives)
        return mse_loss(pred, targets)

    def _epoch(self, model: Module, loader: DataLoader, optimizer: Optional[Adam]) -> float:
        total, count = 0.0, 0
        for batch in loader:
            if optimizer is None:
                with no_grad():
                    loss = self._batch_loss(model, batch)
            else:
                optimizer.zero_grad()
                loss = self._batch_loss(model, batch)
                loss.backward()
                optimizer.step()
            total += loss.item() * batch.num_graphs
            count += batch.num_graphs
            # Free this batch's autograd graph (every intermediate array and
            # its gradient) before the next forward builds another one.
            del loss
        return total / max(count, 1)

    # -- public API --------------------------------------------------------------

    def fit(
        self,
        model: Module,
        train_data: Sequence,
        val_data: Optional[Sequence] = None,
        init_model: Optional[Module] = None,
    ) -> TrainHistory:
        """Train ``model`` in place; returns the loss history.

        ``init_model`` warm-starts the fit: its weights are copied into
        ``model`` before the optimizer is created, so ``init_model``
        itself is never mutated.  This is the fine-tuning path the
        active-learning loop uses — a live serving model stays frozen
        while its clone continues training on an augmented dataset.
        """
        if not train_data:
            raise ModelError("empty training set")
        if init_model is not None:
            model.load_state_dict(init_model.state_dict())
        cfg = self.config
        loader = DataLoader(train_data, batch_size=cfg.batch_size, shuffle=True, seed=cfg.seed)
        val_loader = (
            DataLoader(val_data, batch_size=cfg.batch_size, shuffle=False)
            if val_data
            else None
        )
        optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        history = TrainHistory()
        # Monotonic, so ``history.seconds`` survives wall-clock steps
        # (NTP slews, suspend/resume) during multi-hour fits.
        start = time.monotonic()
        best_val = float("inf")
        stale_epochs = 0
        task = getattr(getattr(model, "config", None), "task", None)
        for epoch in range(cfg.epochs):
            with span("train.epoch", epoch=epoch, task=task) as epoch_span:
                model.train()
                train_loss = self._epoch(model, loader, optimizer)
                history.train_loss.append(train_loss)
                if val_loader is not None:
                    model.eval()
                    val_loss = self._epoch(model, val_loader, None)
                    history.val_loss.append(val_loss)
                    if val_loss < best_val - 1e-9:
                        best_val = val_loss
                        stale_epochs = 0
                    else:
                        stale_epochs += 1
                    epoch_span.set(val_loss=val_loss)
                epoch_span.set(train_loss=train_loss)
            if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
                val = history.val_loss[-1] if history.val_loss else float("nan")
                print(
                    f"  epoch {epoch + 1:3d}/{cfg.epochs}: "
                    f"train {train_loss:.4f} val {val:.4f}"
                )
            if cfg.lr_decay != 1.0:
                optimizer.lr *= cfg.lr_decay
            if (
                cfg.early_stop_patience
                and val_loader is not None
                and stale_epochs >= cfg.early_stop_patience
            ):
                break
        history.seconds = time.monotonic() - start
        return history

    def fit_cv(self, model_factory, train_data: Sequence) -> Module:
        """k-fold cross-validation: train one model per fold, keep the best.

        ``model_factory(seed)`` must return a fresh model.  With
        ``folds=1`` this is a plain fit on the whole set.
        """
        cfg = self.config
        if cfg.folds <= 1:
            model = model_factory(cfg.seed)
            self.fit(model, train_data)
            return model
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(train_data))
        folds = np.array_split(order, cfg.folds)
        best_model, best_val = None, float("inf")
        for fold_index, fold in enumerate(folds):
            fold_set = set(fold.tolist())
            train_split = [train_data[i] for i in order if i not in fold_set]
            val_split = [train_data[i] for i in fold]
            model = model_factory(cfg.seed + fold_index)
            history = self.fit(model, train_split, val_split)
            val = history.val_loss[-1] if history.val_loss else history.final_train_loss
            if val < best_val:
                best_model, best_val = model, val
        return best_model


def predict(model: Module, dataset: Sequence, batch_size: int = 128) -> np.ndarray:
    """Stacked raw model outputs over a dataset (no grad)."""
    model.eval()
    outputs = []
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for batch in loader:
            outputs.append(model(batch).data)
    return np.concatenate(outputs, axis=0)


def evaluate_regression(model: Module, dataset: Sequence) -> Dict[str, float]:
    """Per-objective RMSE on (normalised) targets, as in Table 2."""
    objectives = list(model.config.objectives)
    preds = predict(model, dataset)
    targets = np.array(
        [[g.y[name] for name in objectives] for g in dataset], dtype=np.float64
    )
    out = {
        name: rmse(preds[:, j], targets[:, j]) for j, name in enumerate(objectives)
    }
    return out


def evaluate_classification(model: Module, dataset: Sequence) -> Dict[str, float]:
    """Accuracy and F1 of the validity classifier (Table 2)."""
    preds = predict(model, dataset)
    labels = np.array([g.label for g in dataset], dtype=np.int64)
    return {
        "accuracy": binary_accuracy(preds, labels),
        "f1": f1_score(preds, labels),
    }
