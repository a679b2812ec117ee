"""Downstream tasks on trained encoders: embedding indexes, top-k
retrieval, recall metrics and zero-shot classification.

Scores are inner products of stored embeddings; with row-normalized
embeddings (the usual configuration) they are cosine similarities. Ties
always resolve to the smaller row index, so every ranking is deterministic.

Fine-tuning a label head on frozen embeddings e_1..e_n with labels y_i in
K classes is one training.train call under LossKind("cond", 2.0, 0.0):
  u side  linear_spec(K, n_e + 1), the trainable label table W, on one-hot
          label rows
  v side  frozen_table_spec(n, n_e + 1) with rows [e_i, 1], on the column
          of indices i
The logits are [e_i, 1] W / tau, so the ones column carries the per-class
bias, and the (2, 0) conditional loss is their cross-entropy under the
batch label prior pi. Predict argmax_c of [e, 1] W / tau + log pi_c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import _unit_rows
from .losses import _axis_lse_softmax


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
    them). Ties go to the lower label index. tau must be positive, so the
    argmax is also the label of largest probability.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    q = np.asarray(u_embedding, dtype=np.float64).reshape(-1)
    labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    s = labels @ q
    probs = _axis_lse_softmax(s / tau, None)[1]
    return int(np.argmax(s)), probs


def true_ranks(queries, truth_ids, index: EmbeddingIndex) -> np.ndarray:
    """Rank of each query's best-placed true row in the index, 0 the best.

    Index rows are ranked as retrieve ranks them: by score, ties to the
    smaller row index, so row r of a query's scores s ranks at
    #(s > s_r) + #(s == s_r and row < r). A query's true rows are those
    carrying its id; an id absent from the index ranks at the index size.
    Ids are matched as dict keys, so they must be hashable.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    truth = list(truth_ids)
    if queries.shape[0] != len(truth):
        raise ValueError("one truth id per query required")
    scores = queries @ index.items.T
    n = scores.shape[1]
    rows_of = {}
    for row, i in enumerate(index.ids):
        rows_of.setdefault(i, []).append(row)
    pairs = [(q, row) for q, i in enumerate(truth) for row in rows_of.get(i, ())]
    if not pairs:
        return np.full(len(truth), n)
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
    return np.where(best < n, ahead, n)


def recall_at_k(queries, truth_ids, index: EmbeddingIndex, k: int) -> float:
    """Fraction of queries whose true paired id lands in the top k: those
    whose true_ranks lie below min(k, index size), so an id absent from the
    index never hits."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ranks = true_ranks(queries, truth_ids, index)
    if not ranks.size:
        return 0.0
    return np.count_nonzero(ranks < min(k, len(index.ids))) / ranks.size
