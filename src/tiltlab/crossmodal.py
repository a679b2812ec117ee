"""Downstream tasks on trained encoders: top-k retrieval, zero-shot
classification, head fine-tuning, and recall metrics.

Scores are inner products of stored embeddings; with row-normalized
embeddings (the usual configuration) they are cosine similarities. Ties
always resolve to the smaller row index, so every ranking is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import EncoderParams, EncoderSpec, _unit_rows, encode
from .errors import NonFiniteGradient
from .losses import _axis_lse_softmax
from .training import AdamState, TrainConfig, adam_step, epoch_batches


@dataclass(frozen=True)
class EmbeddingIndex:
    items: np.ndarray
    ids: tuple

    def __post_init__(self):
        items = np.asarray(self.items, dtype=np.float64)
        if items.ndim != 2 or items.shape[0] != len(self.ids):
            raise ValueError("one id per embedding row required")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "ids", tuple(self.ids))


def build_index(items, ids, normalized: bool = True) -> EmbeddingIndex:
    items = np.asarray(items, dtype=np.float64)
    if normalized:
        items = _unit_rows(items)[0]
    return EmbeddingIndex(items=items, ids=tuple(ids))


def retrieve(query_embedding, index: EmbeddingIndex, k: int):
    """ids of the k highest-scoring index rows, best first."""
    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    n = index.items.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    scores = index.items @ q
    order = np.argsort(-scores, kind="stable")[:k]
    return [index.ids[i] for i in order]


def classify(u_embedding, labels, tau: float):
    """Scores against K label embeddings; returns (argmax, softmax(s/tau)).

    Scores are raw inner products, hence cosine similarities whenever both
    sides are unit-normalized (as the normalized-encoder pipeline makes
    them). Ties go to the lower label index.
    """
    q = np.asarray(u_embedding, dtype=np.float64).reshape(-1)
    labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    s = labels @ q
    probs = _axis_lse_softmax(s / tau, None)[1]
    return int(np.argmax(s)), probs


@dataclass(frozen=True)
class ClassifierHead:
    """Label embedding table (columns) plus a log-prior bias, with the
    temperature baked in at evaluation."""

    g_table: np.ndarray
    f_bias: np.ndarray
    tau: float

    def __post_init__(self):
        g = np.asarray(self.g_table, dtype=np.float64)
        f = np.asarray(self.f_bias, dtype=np.float64).reshape(-1)
        if g.ndim != 2 or g.shape[1] != f.size:
            raise ValueError("g_table columns must match f_bias length")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(f))):
            raise ValueError("head must be finite")
        object.__setattr__(self, "g_table", g)
        object.__setattr__(self, "f_bias", f)


def head_logits(head: ClassifierHead, e_u: np.ndarray) -> np.ndarray:
    return e_u @ head.g_table / head.tau + head.f_bias


def classify_finetuned(u, u_spec: EncoderSpec, u_params: EncoderParams, head: ClassifierHead) -> int:
    e = encode(u_spec, u_params, np.atleast_2d(np.asarray(u, dtype=np.float64)))
    return int(np.argmax(head_logits(head, e)[0]))


def fine_tune(
    u_spec: EncoderSpec,
    u_params: EncoderParams,
    n_classes: int,
    data,
    cfg: TrainConfig,
    v_spec: EncoderSpec | None = None,
    v_params: EncoderParams | None = None,
) -> ClassifierHead:
    """Learn a label head (G, F) for a frozen input encoder.

    Minimizes -mean_i <e_{y_i}, logits_i> + mean_i log sum_c pi_c
    exp(logits_ic) over minibatches, where logits = e_u G / tau + F and pi
    is the batch's empirical label marginal. G starts from the pretrained
    label encoder evaluated at the K labels when one is supplied, else
    zeros; F starts at zero. The loss is invariant to F -> F + c.
    """
    if n_classes < 1:
        raise ValueError("need at least one class")
    u_all = np.asarray(data.u, dtype=np.float64)
    y_all = np.asarray(data.v, dtype=np.float64).reshape(-1)
    labels = np.round(y_all).astype(np.int64)
    if not np.all(np.abs(y_all - labels) < 1e-9):
        raise ValueError("labels must be integral")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label outside the {n_classes}-class set")
    if labels.size < n_classes:
        raise ValueError("need at least as many pairs as classes")

    n_e = u_spec.n_e
    if v_spec is not None and v_params is not None:
        g_table = encode(v_spec, v_params, np.arange(n_classes)[:, None]).T
        if g_table.shape != (n_e, n_classes):
            raise ValueError("pretrained label encoder width does not match")
    else:
        g_table = np.zeros((n_e, n_classes))
    f_bias = np.zeros(n_classes)

    theta = np.concatenate([g_table.ravel(), f_bias])
    state = AdamState.zeros(theta.size)
    n = labels.size
    for epoch in range(cfg.epochs):
        for step, idx in enumerate(epoch_batches(n, cfg.batch_size, cfg.seed, epoch)):
            e = encode(u_spec, u_params, u_all[idx])
            y = labels[idx]
            g = theta[: n_e * n_classes].reshape(n_e, n_classes)
            f = theta[n_e * n_classes :]
            logits = e @ g / cfg.tau + f
            log_pi = np.full(n_classes, -np.inf)
            present, counts = np.unique(y, return_counts=True)
            log_pi[present] = np.log(counts / y.size)
            post = _axis_lse_softmax(logits + log_pi, 1)[1]
            b = y.size
            dlogits = post / b
            dlogits[np.arange(b), y] -= 1.0 / b
            grad = np.concatenate([(e.T @ dlogits / cfg.tau).ravel(), dlogits.sum(axis=0)])
            try:
                theta, state = adam_step(theta, grad, state, cfg.learning_rate)
            except NonFiniteGradient as exc:
                raise NonFiniteGradient(f"fine-tune epoch {epoch}, step {step}: {exc}") from exc
    return ClassifierHead(
        g_table=theta[: n_e * n_classes].reshape(n_e, n_classes),
        f_bias=theta[n_e * n_classes :],
        tau=cfg.tau,
    )


def recall_at_k(queries, truth_ids, index: EmbeddingIndex, k: int) -> float:
    """Fraction of queries whose true paired id lands in the top k.

    Index rows are ranked as retrieve ranks them: by score, ties to the
    smaller row index, so row r of a query's scores s ranks at
    #(s > s_r) + #(s == s_r and row < r). A query hits when the best-placed
    row carrying its id ranks below k; an id absent from the index never
    hits. Ids are matched as dict keys, so they must be hashable.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    truth = list(truth_ids)
    if queries.shape[0] != len(truth):
        raise ValueError("one truth id per query required")
    if k < 1:
        raise ValueError("k must be at least 1")
    scores = queries @ index.items.T
    n = scores.shape[1]
    rows_of = {}
    for row, i in enumerate(index.ids):
        rows_of.setdefault(i, []).append(row)
    pairs = [(q, row) for q, i in enumerate(truth) for row in rows_of.get(i, ())]
    if not pairs:
        return 0.0
    q_of, row_of = np.array(pairs).T
    # best-placed true row per query: highest score, then smallest row
    s_pair = scores[q_of, row_of]
    if np.isnan(s_pair).any():
        raise ValueError("NaN retrieval score for a true row")
    s_true = np.full(len(truth), -np.inf)
    np.maximum.at(s_true, q_of, s_pair)
    best = np.full(len(truth), n)
    top = s_pair == s_true[q_of]
    np.minimum.at(best, q_of[top], row_of[top])
    s_true = s_true[:, None]
    ahead = np.count_nonzero(scores > s_true, axis=1) + np.count_nonzero(
        (scores == s_true) & (np.arange(n) < best[:, None]), axis=1
    )
    return np.count_nonzero((best < n) & (ahead < k)) / len(truth)
