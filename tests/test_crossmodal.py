"""Retrieval, classification, and fine-tuning on top of stored embeddings."""

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from tiltlab import encoders
from tiltlab.crossmodal import (
    ClassifierHead,
    build_index,
    classify,
    classify_finetuned,
    fine_tune,
    head_logits,
    recall_at_k,
    retrieve,
)
from tiltlab.errors import ZeroNormRow
from tiltlab.losses import LossKind
from tiltlab.rng import SeededRng
from tiltlab.training import TrainConfig


def fine_tune_loss(head: ClassifierHead, e_u, labels) -> float:
    """The fine-tuning objective on a full batch of embeddings:
    -mean_i logit_{i, y_i} + mean_i log sum_c pi_c exp(logit_ic), with pi the
    batch's empirical label marginal."""
    e_u = np.atleast_2d(np.asarray(e_u, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    logits = head_logits(head, e_u)
    log_pi = np.full(head.f_bias.size, -np.inf)
    present, counts = np.unique(y, return_counts=True)
    log_pi[present] = np.log(counts / y.size)
    return float(-np.mean(logits[np.arange(y.size), y]) + np.mean(logsumexp(logits + log_pi, axis=1)))


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


class TestRecall:
    @pytest.mark.parametrize("case", range(40))
    def test_matches_argsort_loop(self, case):
        # entries on a 0.5 grid in at most 3 dims make many scores tie
        # exactly; ids repeat, some truth ids are absent, and every fourth
        # case uses string ids
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
        idx = build_index(items, ids, normalized=False)
        for k in (1, 5, n, n + 10):
            assert recall_at_k(queries, truth, idx, k) == recall_at_k_loop(queries, truth, idx, k)

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
    @staticmethod
    def cluster_data(seed, n_per=40, n_classes=3, spread=0.25):
        rng = SeededRng(seed)
        centers = np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]])[:n_classes]
        u = np.vstack(
            [
                centers[c] + spread * rng.split(c).standard_normal((n_per, 2))
                for c in range(n_classes)
            ]
        )
        y = np.repeat(np.arange(n_classes), n_per)

        class Data:
            pass

        d = Data()
        perm = rng.split(99).permutation(n_per * n_classes)
        d.u = u[perm]
        d.v = y[perm].astype(np.float64)[:, None]
        return d

    @staticmethod
    def head_config(**overrides):
        base = dict(
            seed=11,
            epochs=60,
            batch_size=32,
            learning_rate=5e-2,
            tau=1.0,
            loss=LossKind("cond", 2.0, 0.0),
            tilting="inner_product",
        )
        base.update(overrides)
        return TrainConfig(**base)

    def test_learns_separable_clusters(self):
        data = self.cluster_data(7)
        spec = encoders.linear_spec(2, 2)
        params = encoders.EncoderParams(np.eye(2).ravel(), spec.shape_table())
        head = fine_tune(spec, params, 3, data, self.head_config())
        preds = [classify_finetuned(u, spec, params, head) for u in data.u]
        truth = data.v.reshape(-1).astype(int)
        acc = float(np.mean(np.asarray(preds) == truth))
        assert acc >= 0.95

    def test_loss_invariant_to_bias_shift(self):
        data = self.cluster_data(8)
        spec = encoders.linear_spec(2, 2)
        params = encoders.EncoderParams(np.eye(2).ravel(), spec.shape_table())
        head = fine_tune(spec, params, 3, data, self.head_config(epochs=5))
        e = encoders.encode(spec, params, data.u)
        y = data.v.reshape(-1)
        base = fine_tune_loss(head, e, y)
        shifted = ClassifierHead(head.g_table, head.f_bias + 3.21, head.tau)
        assert abs(fine_tune_loss(shifted, e, y) - base) < 1e-12

    def test_pretrained_label_encoder_seeds_g_table(self):
        data = self.cluster_data(9)
        spec_u = encoders.linear_spec(2, 3)
        params_u = encoders.init_params(spec_u, SeededRng(10))
        spec_v = encoders.one_hot_spec(3)
        params_v = encoders.init_params(spec_v, SeededRng(11))
        # epochs=1 with tiny lr keeps the head near its init, which must be
        # the label encoder evaluated at the K labels
        cfg = self.head_config(epochs=1, learning_rate=1e-9)
        head = fine_tune(spec_u, params_u, 3, data, cfg, spec_v, params_v)
        want = encoders.encode(spec_v, params_v, np.arange(3)[:, None]).T
        np.testing.assert_allclose(head.g_table, want, atol=1e-6)

    def test_label_validation(self):
        spec = encoders.linear_spec(2, 2)
        params = encoders.init_params(spec, SeededRng(12))

        class Frac:
            u = np.zeros((4, 2))
            v = np.array([[0.5], [1.0], [0.0], [1.0]])

        with pytest.raises(ValueError):
            fine_tune(spec, params, 2, Frac(), self.head_config(epochs=1))

        class OutOfRange:
            u = np.zeros((4, 2))
            v = np.array([[0.0], [1.0], [2.0], [0.0]])

        with pytest.raises(ValueError):
            fine_tune(spec, params, 2, OutOfRange(), self.head_config(epochs=1))

        class TooFew:
            u = np.zeros((2, 2))
            v = np.array([[0.0], [1.0]])

        with pytest.raises(ValueError):
            fine_tune(spec, params, 3, TooFew(), self.head_config(epochs=1, batch_size=2))

    def test_head_validation(self):
        with pytest.raises(ValueError):
            ClassifierHead(np.zeros((2, 3)), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            ClassifierHead(np.full((2, 2), np.nan), np.zeros(2), 1.0)

    def test_head_logits_shape_and_value(self):
        head = ClassifierHead(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.5, -0.5]), 0.5)
        logits = head_logits(head, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(logits, [[2.5, 3.5]], atol=1e-14)

