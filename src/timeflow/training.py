"""Maximum-likelihood training of flow models with Adam.

The loss is the mean negative log-density of a batch; gradients are exact
reverse-mode derivatives of the discretized computation (solver steps,
conditioner evaluations, base density). The inverse path runs once,
value-only, and keeps one record per layer, with one trajectory slab per
solve: v at every step's start and v(1), from which the adjoint rebuilds
the stage points bit for bit. A layer computes with the parameters it
holds, so `train` writes every Adam update back with
`FlowModel.set_parameters`. `autodiff.backward`
walks the records in reverse through each layer's hand-written `vjp`, whose
solves go through the discrete adjoint (`scalarmap._adjoint`); the adjoints
also return the log-dets, bitwise those `log_density` accumulates.

Memory: a step of n rows keeps each solve's slab, 8 B * (steps+1)*n*k for
width k. Each adjoint allocates one block of seven (4, steps) arrays and one
(4, 1) array and frees both on return, so one block is live at a time and
the widest solve's sets the peak: 8 B * n*((steps+1)*sum k + 28*steps*k_max
+ 4*k_max) for every flow, plus the activations and gradients, which do
not grow with `steps`.

The loop is single-threaded over batches; within a batch all examples
are vector lanes, so gradient accumulation is bitwise deterministic.
Identical seeds give identical histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import backward
from .data import Dataset
from .flow import FlowModel, _base_log_density, _each_layer, _log_density, log_density
from .scalarmap import DivergenceError

__all__ = [
    "TrainConfig",
    "AdamState",
    "EpochRecord",
    "nll_and_grad",
    "adam_step",
    "train",
    "nll",
    "identity_nll",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 0.01
    lr_decay: float = 0.5
    lr_decay_epochs: tuple = ()
    seed: int = 0
    patience: int = 20

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class AdamState:
    """First/second moment estimates matching the parameter layout."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def init(cls, params):
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    val_nll: float


def nll(model: FlowModel, batch) -> float:
    """Mean negative log-density of the batch (nats/example)."""
    batch = np.asarray(batch, dtype=float)
    return float(-np.mean(log_density(model, batch)))


def _nll_or_inf(model, rows):
    # a point outside the model's image has density zero: infinite NLL
    try:
        return nll(model, rows)
    except DivergenceError:
        return float("inf")


def identity_nll(rows) -> float:
    """NLL of the data under the untransformed standard-normal base."""
    return float(-np.mean(_base_log_density(np.asarray(rows, dtype=float))))


def nll_and_grad(model: FlowModel, batch):
    """Loss and exact parameter gradients on a batch.

    Returns ``(loss, grads)`` with grads ordered like
    ``model.parameters()``. Divergence of any batch element aborts the
    whole batch; the error message carries the offending indices.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] != model.dim:
        raise ValueError(f"batch must be a nonempty (n, {model.dim}) matrix,"
                         f" got shape {batch.shape}")
    records, n = [], batch.shape[0]
    try:  # value-only solves: the adjoints return the log-dets
        x, _ = _each_layer(model, batch, "raise", False, inverse=True, refine=None,
                           records=records)
        # loss = -mean(logp), and logp = -|x|^2 / 2 + const + the layers' log-dets
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite log-det raises below
            _, grads, total = backward(records, x * (1.0 / n), np.full(n, -1.0 / n))
        logp = _log_density(x, total, "raise")
    except DivergenceError as err:
        raise DivergenceError(f"batch aborted: {err}", indices=err.indices) from err
    return float(-np.mean(logp)), grads


def adam_step(state: AdamState, params, grads, lr):
    """One bias-corrected Adam update. Returns (new_params, new_state)."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params/grads do not match the optimizer state")
    for p, g in zip(params, grads):
        if np.shape(p) != np.shape(g):
            raise ValueError("gradient shape does not match its parameter")
    t = state.step + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    new_m, new_v, new_params = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t)


def train(model: FlowModel, dataset: Dataset, cfg: TrainConfig):
    """Adam/NLL training with early stopping on validation NLL.

    Batches are drawn by seeded shuffle without replacement each epoch.
    The returned model carries the best-validation parameters seen;
    history holds one `EpochRecord` per completed epoch. Per-batch
    divergence ends the run early with the partial history.
    """
    train_rows = dataset.train
    val_rows = dataset.val if dataset.val.shape[0] > 0 else dataset.train
    if train_rows.shape[0] == 0:
        raise ValueError("training split is empty")

    history = []
    if cfg.epochs == 0:
        return model, history

    rng = np.random.default_rng(cfg.seed)
    params = [p.copy() for p in model.parameters()]
    model.set_parameters(params)
    state = AdamState.init(params)
    lr = cfg.learning_rate

    best_val = np.inf
    best_params = [p.copy() for p in params]
    best_epoch = 0

    n = train_rows.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        if epoch in cfg.lr_decay_epochs:
            lr *= cfg.lr_decay
        order = rng.permutation(n)
        batch_losses = []
        aborted = False
        for start in range(0, n, cfg.batch_size):
            batch = train_rows[order[start:start + cfg.batch_size]]
            try:
                loss, grads = nll_and_grad(model, batch)
            except DivergenceError:
                aborted = True
                break
            params, state = adam_step(state, params, grads, lr)
            model.set_parameters(params)
            batch_losses.append(loss)
        if aborted:
            break
        val_nll_ = _nll_or_inf(model, val_rows)
        history.append(EpochRecord(epoch, float(np.mean(batch_losses)), val_nll_))
        if val_nll_ < best_val:
            best_val = val_nll_
            best_params = [p.copy() for p in params]
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            break

    model.set_parameters(best_params)
    return model, history
