"""Retrieval, classification, recall, and label-head fine-tuning through\ntrain on top of stored embeddings."""

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from tiltlab import encoders
from tiltlab.crossmodal import build_index, classify, recall_at_k, retrieve, true_ranks
from tiltlab.datagen import PairedDataset
from tiltlab.errors import ZeroNormRow
from tiltlab.losses import LossKind
from tiltlab.rng import SeededRng
from tiltlab.training import TrainConfig, train


class TestIndex:
    def test_rows_are_normalized(self):
        items = SeededRng(0).standard_normal((5, 3))
        idx = build_index(items, ids=list(range(5)))
        np.testing.assert_allclose(np.linalg.norm(idx.items, axis=1), 1.0, atol=1e-12)

    def test_unnormalized_keeps_rows(self):
        items = SeededRng(1).standard_normal((4, 2))
        idx = build_index(items, ids="abcd", normalized=False)
        np.testing.assert_array_equal(idx.items, items)
        assert idx.ids == ("a", "b", "c", "d")

    def test_zero_row_rejected(self):
        items = np.zeros((2, 3))
        with pytest.raises(ZeroNormRow):
            build_index(items, ids=[0, 1])

    def test_id_count_enforced(self):
        with pytest.raises(ValueError):
            build_index(np.ones((3, 2)), ids=[0, 1])


class TestRetrieve:
    def test_orders_by_score(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        idx = build_index(items, ids=["ex", "ey", "diag"], normalized=False)
        assert retrieve([1.0, 0.1], idx, 3) == ["ex", "diag", "ey"]

    def test_ties_resolve_to_lower_row(self):
        items = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        idx = build_index(items, ids=[10, 11, 12], normalized=False)
        assert retrieve([1.0, 0.0], idx, 2) == [10, 11]

    def test_k_bounds(self):
        idx = build_index(np.eye(3), ids=[0, 1, 2], normalized=False)
        with pytest.raises(ValueError):
            retrieve([1.0, 0.0, 0.0], idx, 0)
        with pytest.raises(ValueError):
            retrieve([1.0, 0.0, 0.0], idx, 4)

    def test_k1_is_argmax_of_softmax_weights(self):
        # the top retrieval is exactly the mode of the softmax-weighted
        # empirical conditional, whatever the temperature
        rng = SeededRng(3)
        items = rng.split(0).standard_normal((20, 4))
        idx = build_index(items, ids=list(range(20)), normalized=False)
        for probe in range(10):
            q = rng.split(1, probe).standard_normal(4)
            scores = items @ q
            for tau in (0.1, 1.0, 10.0):
                weights = softmax(scores / tau)
                assert retrieve(q, idx, 1)[0] == int(np.argmax(weights))


class TestClassify:
    def test_argmax_and_probs(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        pred, probs = classify([0.9, 0.3], labels, tau=0.5)
        assert pred == 0
        want = softmax(labels @ np.array([0.9, 0.3]) / 0.5)
        np.testing.assert_allclose(probs, want, atol=1e-14)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_tie_goes_to_lower_index(self):
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        pred, _ = classify([2.0, 0.0], labels, tau=1.0)
        assert pred == 0

    def test_temperature_does_not_move_argmax(self):
        rng = SeededRng(4)
        labels = rng.split(0).standard_normal((7, 5))
        for probe in range(10):
            q = rng.split(1, probe).standard_normal(5)
            preds = {classify(q, labels, tau)[0] for tau in (0.01, 1.0, 100.0)}
            assert len(preds) == 1

    @pytest.mark.parametrize("tau", [-1.0, -1e-9, 0.0, -0.0, float("nan")])
    def test_rejects_non_positive_tau(self, tau):
        # a negative tau would rank the argmax label last in probs, and a
        # zero tau would make probs nan
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="tau must be positive"):
            classify([0.9, 0.3], labels, tau)


def recall_at_k_loop(queries, truth_ids, index, k):
    """Recall by a stable argsort of each query's scores."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    truth = list(truth_ids)
    k = min(k, index.items.shape[0])
    hits = 0
    scores = queries @ index.items.T
    for row, want in zip(scores, truth):
        order = np.argsort(-row, kind="stable")[:k]
        if any(index.ids[i] == want for i in order):
            hits += 1
    return hits / len(truth) if truth else 0.0


def true_ranks_loop(queries, truth_ids, index):
    """Position of the first true row in a stable argsort of each query's
    scores, the index size when no row carries the id."""
    scores = np.atleast_2d(np.asarray(queries, dtype=np.float64)) @ index.items.T
    ranks = []
    for row, want in zip(scores, truth_ids):
        order = np.argsort(-row, kind="stable")
        ranks.append(next((r for r, i in enumerate(order) if index.ids[i] == want), len(order)))
    return ranks


def tie_case(case):
    """(queries, truth, index): entries on a 0.5 grid in at most 3 dims make
    many scores tie exactly; ids repeat, some truth ids are absent, and every
    fourth case uses string ids."""
    rng = SeededRng(50).split(case)
    n = int(rng.split(0).integers(1, 30))
    n_q = int(rng.split(1).integers(1, 30))
    d = int(rng.split(2).integers(1, 4))
    items = np.round(2.0 * rng.split(3).standard_normal((n, d))) / 2.0
    queries = np.round(2.0 * rng.split(4).standard_normal((n_q, d))) / 2.0
    ids = rng.split(5).integers(0, n // 2 + 1, n).tolist()
    truth = rng.split(6).integers(0, n // 2 + 3, n_q).tolist()
    if case % 4 == 0:
        ids, truth = [f"id{i}" for i in ids], [f"id{i}" for i in truth]
    return queries, truth, build_index(items, ids, normalized=False)


class TestRecall:
    @pytest.mark.parametrize("case", range(40))
    def test_matches_argsort_loop(self, case):
        queries, truth, idx = tie_case(case)
        n = len(idx.ids)
        for k in (1, 5, n, n + 10):
            assert recall_at_k(queries, truth, idx, k) == recall_at_k_loop(queries, truth, idx, k)

    @pytest.mark.parametrize("case", range(40))
    def test_true_ranks_match_argsort_loop_and_threshold_to_recall(self, case):
        queries, truth, idx = tie_case(case)
        ranks = true_ranks(queries, truth, idx)
        assert ranks.tolist() == true_ranks_loop(queries, truth, idx)
        for k in range(1, len(idx.ids) + 1):
            assert recall_at_k(queries, truth, idx, k) == np.mean(ranks < k)

    def test_ties_resolve_to_the_smaller_row(self):
        items = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        idx = build_index(items, ids=["a", "b", "c"], normalized=False)
        q = [[1.0, 0.0]] * 2
        assert recall_at_k(q, ["a", "b"], idx, 1) == 0.5
        assert recall_at_k(q, ["a", "b"], idx, 2) == 1.0
        # a repeated id counts from its best-placed row
        dup = build_index([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], ids=[7, 8, 7], normalized=False)
        assert recall_at_k([[1.0, 0.0]], [7], dup, 1) == 0.0
        assert recall_at_k([[1.0, 0.0]], [7], dup, 2) == 1.0

    def test_absent_truth_never_hits(self):
        idx = build_index(np.eye(3), ids=[0, 1, 2])
        assert recall_at_k(np.eye(3), [5, 6, 7], idx, 3) == 0.0
        assert recall_at_k(np.eye(3), [0, 6, "2"], idx, 3) == pytest.approx(1 / 3)

    def test_nan_true_score_rejected(self):
        idx = build_index(np.eye(2), ids=[0, 1], normalized=False)
        with pytest.raises(ValueError, match="NaN"):
            recall_at_k([[np.nan, 0.0]], [0], idx, 1)

    def test_self_retrieval_is_perfect(self):
        items = SeededRng(5).standard_normal((30, 6))
        idx = build_index(items, ids=list(range(30)))
        queries = idx.items
        assert recall_at_k(queries, list(range(30)), idx, 1) == 1.0

    def test_chance_level_for_random_queries(self):
        # independent queries against n items: P(hit at 1) = 1/n; average
        # over seeds should sit within 3 standard errors of chance
        n = 500
        hits = []
        for seed in range(20):
            rng = SeededRng(seed)
            items = rng.split(0).standard_normal((n, 8))
            queries = rng.split(1).standard_normal((n, 8))
            idx = build_index(items, ids=list(range(n)))
            hits.append(recall_at_k(queries, list(range(n)), idx, 1))
        mean = float(np.mean(hits))
        se = np.sqrt((1 / n) * (1 - 1 / n) / (20 * n))
        assert abs(mean - 1 / n) <= 3 * se

    def test_nested_in_k(self):
        rng = SeededRng(6)
        items = rng.split(0).standard_normal((40, 5))
        queries = items + 0.8 * rng.split(1).standard_normal((40, 5))
        idx = build_index(items, ids=list(range(40)))
        vals = [recall_at_k(queries, list(range(40)), idx, k) for k in (1, 5, 10, 40)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_k_clamped_to_index_size(self):
        items = np.eye(3)
        idx = build_index(items, ids=[0, 1, 2])
        assert recall_at_k(items, [0, 1, 2], idx, 50) == 1.0

    def test_query_truth_length_mismatch(self):
        idx = build_index(np.eye(3), ids=[0, 1, 2])
        with pytest.raises(ValueError):
            recall_at_k(np.eye(3), [0, 1], idx, 1)


class TestFineTune:
    def test_learns_separable_clusters(self):
        # fine-tuning a label head is one train call: a trainable label
        # table on one-hot label rows against the frozen embeddings [e_i, 1],
        # under cond(2, 0); the ones column carries the per-class bias
        rng = SeededRng(7)
        centers = np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]])
        u = np.vstack([centers[c] + 0.25 * rng.split(c).standard_normal((40, 2)) for c in range(3)])
        perm = rng.split(99).permutation(120)
        e1 = np.hstack([u[perm], np.ones((120, 1))])
        y = np.repeat(np.arange(3), 40)[perm]
        data = PairedDataset(u=np.eye(3)[y], v=np.arange(120.0)[:, None])
        spec_u = encoders.linear_spec(3, 3)
        spec_v = encoders.frozen_table_spec(120, 3)
        frozen = encoders.params_from_table(spec_v, e1)

        def head(**overrides):
            base = dict(
                seed=11,
                epochs=60,
                batch_size=32,
                learning_rate=5e-2,
                tau=1.0,
                loss=LossKind("cond", 2.0, 0.0),
                tilting="inner_product",
            )
            cfg = TrainConfig(**{**base, **overrides})
            init = encoders.init_params(spec_u, SeededRng(12))
            table, _, history = train(cfg, data, spec_u, spec_v, init, frozen)
            return init.unflatten()["w0"], table.unflatten()["w0"], history

        _, w, _ = head()
        acc = float(np.mean(np.argmax(e1 @ w, axis=1) == y))
        assert acc >= 0.95

        # one full batch: the loss at the initial table is the cross-entropy
        # of logits [e_i, 1] W / tau under the batch label prior
        w0, _, history = head(epochs=1, batch_size=120, tau=0.5)
        logits = e1 @ w0 / 0.5
        log_pi = np.log(np.bincount(y) / 120)
        ce = -np.mean(logits[np.arange(120), y]) + np.mean(logsumexp(logits + log_pi, axis=1))
        assert abs(history.losses[0] - ce) < 1e-12
