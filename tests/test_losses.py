"""Loss oracles: frozen hand values, identities between variants, loop-based
reimplementations of the MMD estimators, and FD checks on every score
gradient."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from tiltlab import losses
from tiltlab.encoders import similarity_matrix, similarity_vjp
from tiltlab.losses import Kernel, LossKind
from tiltlab.rng import SeededRng


def random_scores(seed, n):
    return SeededRng(seed).standard_normal((n, n))


def score_grad(kind, s):
    return losses.loss_value_and_grad(kind, s)[1]


class TestClipAndCond:
    def test_zero_scores_frozen_values(self):
        for n in (2, 3, 10):
            z = np.zeros((n, n))
            assert abs(losses.loss_clip(z) - np.log(n)) < 1e-14
            assert abs(losses.loss_cond(z, 1.0, 1.0)) < 1e-14

    def test_clip_is_cond_plus_log_n(self):
        for n in (2, 8, 64):
            s = random_scores(n, n)
            gap = losses.loss_clip(s) - losses.loss_cond(s, 1.0, 1.0)
            assert abs(gap - np.log(n)) < 1e-12

    def test_cond_is_linear_in_lambdas(self):
        s = random_scores(0, 6)
        one_one = losses.loss_cond(s, 1.0, 1.0)
        half_mix = 0.5 * losses.loss_cond(s, 2.0, 0.0) + 0.5 * losses.loss_cond(s, 0.0, 2.0)
        assert abs(one_one - half_mix) < 1e-13
        lu, lv = 0.3, 1.7
        direct = losses.loss_cond(s, lu, lv)
        built = lu * losses.loss_cond(s, 1.0, 0.0) + lv * losses.loss_cond(s, 0.0, 1.0)
        assert abs(direct - built) < 1e-13

    def test_cond_loop_oracle(self):
        s = random_scores(1, 4)
        n = 4
        term_u = 0.0
        term_v = 0.0
        for i in range(n):
            term_u += s[i, i] - np.log(np.mean([np.exp(s[j, i]) for j in range(n)]))
            term_v += s[i, i] - np.log(np.mean([np.exp(s[i, j]) for j in range(n)]))
        want = -0.5 * 1.2 * term_u / n - 0.5 * 0.4 * term_v / n
        assert abs(losses.loss_cond(s, 1.2, 0.4) - want) < 1e-12

    def test_value_means_have_the_bits_of_np_mean(self):
        # the value formulas take their means without np.mean's dispatch;
        # contiguous, strided and column views of one table, as score_step
        # passes them
        table = SeededRng(3).standard_normal((512, 12)) * 40.0
        for x in (table[:, 0], table[:, 5], table.diagonal(), table.ravel(), table[7]):
            assert losses._mean(x) == float(np.mean(x))

    def test_shift_invariance_of_cond(self):
        # adding a constant to every score leaves the conditional loss alone
        s = random_scores(2, 5)
        assert abs(losses.loss_cond(s + 3.7, 1.0, 1.0) - losses.loss_cond(s, 1.0, 1.0)) < 1e-12

    def test_grad_cond_frozen_at_zero(self):
        g = score_grad(LossKind("cond"), np.zeros((2, 2)))
        np.testing.assert_allclose(g, -0.5 * np.eye(2) + 0.25, atol=1e-15)

    @pytest.mark.parametrize("lams", [(1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (0.7, 1.3)])
    def test_grad_cond_matches_fd(self, lams):
        s = random_scores(3, 5)
        g = score_grad(LossKind("cond", *lams), s)
        rng = SeededRng(4)
        step = 1e-6
        for probe in range(5):
            d = rng.split(probe).standard_normal(s.shape)
            fd = (losses.loss_cond(s + step * d, *lams) - losses.loss_cond(s - step * d, *lams)) / (
                2 * step
            )
            an = float(np.sum(g * d))
            assert abs(fd - an) <= 1e-7 * max(abs(fd), abs(an), 1e-8)

    def test_grad_clip_matches_fd(self):
        # the clip gradient is the (1, 1) cond gradient: the log N offset
        # of loss_clip is constant in s
        s = random_scores(5, 4)
        g = score_grad(LossKind("clip"), s)
        rng = SeededRng(6)
        step = 1e-6
        for probe in range(5):
            d = rng.split(probe).standard_normal(s.shape)
            fd = (losses.loss_clip(s + step * d) - losses.loss_clip(s - step * d)) / (2 * step)
            assert abs(fd - float(np.sum(g * d))) <= 1e-7 * max(abs(fd), 1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            losses.loss_clip(np.zeros((2, 3)))

    def test_rejects_singleton_batch(self):
        with pytest.raises(ValueError):
            losses.loss_cond(np.zeros((1, 1)), 1.0, 1.0)


def joint_value(s):
    return losses.loss_value_and_grad(LossKind("joint"), s)[0]


class TestJoint:
    # positives on the diagonal of s, every entry of s a negative

    def test_hand_value(self):
        # -mean(ln 3, ln 3) + log(sum exp over [[ln 3, 0], [0, ln 3]]) - log 4
        # = -ln 3 + ln 8 - ln 4 = ln(2/3)
        val = joint_value(np.array([[np.log(3.0), 0.0], [0.0, np.log(3.0)]]))
        assert abs(val - np.log(2.0 / 3.0)) < 1e-14

    def test_zero_scores(self):
        assert abs(joint_value(np.zeros((3, 3)))) < 1e-14

    def test_grad_matches_fd(self):
        rng = SeededRng(8)
        s = rng.split(1).standard_normal((4, 4))
        g = score_grad(LossKind("joint"), s)

        def value_at(t):
            return logsumexp(t) - np.log(t.size) - np.mean(np.diag(t))

        step = 1e-6
        for probe in range(4):
            d = rng.split(3, probe).standard_normal(s.shape)
            fd = (value_at(s + step * d) - value_at(s - step * d)) / (2 * step)
            an = float(np.sum(g * d))
            assert abs(fd - an) <= 1e-7 * max(abs(fd), abs(an), 1e-8)

    def test_needs_two_positives(self):
        with pytest.raises(ValueError):
            joint_value(np.zeros((1, 1)))


class TestKernels:
    def test_gaussian_loop_oracle(self):
        rng = SeededRng(9)
        x = rng.split(0).standard_normal((4, 3))
        y = rng.split(1).standard_normal((5, 3))
        k = Kernel("gaussian", bandwidth=1.3)
        gram = losses.kernel_gram(k, x, y)
        for i in range(4):
            for j in range(5):
                want = np.exp(-np.sum((x[i] - y[j]) ** 2) / (2 * 1.3**2))
                assert abs(gram[i, j] - want) < 1e-13

    def test_polynomial_loop_oracle(self):
        rng = SeededRng(10)
        x = rng.split(0).standard_normal((3, 2))
        k = Kernel("polynomial", degree=3, offset=0.5)
        gram = losses.kernel_gram(k, x)
        for i in range(3):
            for j in range(3):
                assert abs(gram[i, j] - (x[i] @ x[j] + 0.5) ** 3) < 1e-12

    def test_one_column_grams_are_bitwise_outer_products(self):
        # one-column products are padded to run in BLAS; the zero column
        # must leave every bit where the plain product puts it
        rng = SeededRng(12)
        x = rng.split(0).standard_normal((300, 1))
        y = rng.split(1).standard_normal((170, 1))
        a, b = x[:, 0], y[:, 0]
        sq = losses._sq_dists(x, y)
        want = np.clip((a**2)[:, None] + (b**2)[None, :] - np.multiply.outer(2.0 * a, b), 0.0, None)
        np.testing.assert_array_equal(sq.view(np.int64), want.view(np.int64))
        gram = losses.kernel_gram(Kernel("polynomial", degree=2, offset=0.5), x, y)
        want = (np.multiply.outer(a, b) + 0.5) ** 2
        np.testing.assert_array_equal(gram.view(np.int64), want.view(np.int64))

    def test_gaussian_diagonal_is_one(self):
        x = SeededRng(11).standard_normal((6, 2))
        gram = losses.kernel_gram(Kernel("gaussian"), x)
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            losses.kernel_gram(Kernel("gaussian"), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("laplace")
        with pytest.raises(ValueError):
            Kernel("gaussian", bandwidth=0.0)
        with pytest.raises(ValueError):
            Kernel("polynomial", degree=0)


class TestMmdUnbiased:
    def test_loop_oracle(self):
        rng = SeededRng(12)
        x = rng.split(0).standard_normal((5, 2))
        y = rng.split(1).standard_normal((5, 2))
        k = Kernel("gaussian", bandwidth=0.9)

        def kval(a, b):
            return np.exp(-np.sum((a - b) ** 2) / (2 * 0.9**2))

        n = 5
        c = 1.0 / (n * (n - 1))
        want = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    want += c * (kval(x[i], x[j]) + kval(y[i], y[j]) - 2 * kval(x[i], y[j]))
        assert abs(losses.mmd_unbiased(x, y, k) - want) < 1e-12

    def test_identical_samples_give_exact_zero(self):
        x = SeededRng(13).standard_normal((30, 3))
        assert losses.mmd_unbiased(x, x.copy(), Kernel("gaussian")) == 0.0

    def test_separated_samples_positive(self):
        rng = SeededRng(14)
        x = rng.split(0).standard_normal((50, 2))
        y = rng.split(1).standard_normal((50, 2)) + 4.0
        assert losses.mmd_unbiased(x, y, Kernel("gaussian")) > 0.1

    def test_requires_equal_sizes(self):
        with pytest.raises(ValueError):
            losses.mmd_unbiased(np.zeros((3, 1)), np.zeros((4, 1)), Kernel("gaussian"))


def cond_mmd_side_loop(k_gram, w):
    """Literal transcription of the one-sided conditional MMD estimator."""
    n = k_gram.shape[0]
    s_term = 0.0
    x_term = 0.0
    for i in range(n):
        for j in range(n):
            for jp in range(n):
                if j != jp:
                    s_term += w[j, i] * w[jp, i] * k_gram[j, jp]
        for j in range(n):
            if j != i:
                x_term += w[j, i] * k_gram[j, i]
    return 0.5 * s_term / (n - 1) - x_term / (n - 1)


class TestCondMmd:
    def test_matches_loop_oracle(self):
        rng = SeededRng(15)
        s = rng.split(0).standard_normal((4, 4))
        x = rng.split(1).standard_normal((4, 2))
        k_u = losses.kernel_gram(Kernel("gaussian"), x)
        w = softmax(s, axis=0)
        want = 1.0 * cond_mmd_side_loop(k_u, w)
        got = losses._cond_mmd(s, k_u, np.eye(4), 1.0, 0.0)[0]
        assert abs(got - want) < 1e-12

    def test_v_side_mirrors_u_side(self):
        rng = SeededRng(16)
        s = rng.split(0).standard_normal((5, 5))
        k = losses.kernel_gram(Kernel("gaussian"), rng.split(1).standard_normal((5, 2)))
        u_side = losses._cond_mmd(s, k, np.eye(5), 1.0, 0.0)[0]
        v_side = losses._cond_mmd(s.T, np.eye(5), k, 0.0, 1.0)[0]
        assert abs(u_side - v_side) < 1e-13

    def test_uniform_weights_reduce_to_unbiased_means(self):
        # at zero scores both sides collapse to -(1/2) x mean off-diagonal
        rng = SeededRng(17)
        k_u = losses.kernel_gram(Kernel("gaussian"), rng.split(0).standard_normal((6, 2)))
        k_v = losses.kernel_gram(Kernel("gaussian"), rng.split(1).standard_normal((6, 2)))

        def offdiag_mean(m):
            n = m.shape[0]
            return (m.sum() - np.trace(m)) / (n * (n - 1))

        got = losses._cond_mmd(np.zeros((6, 6)), k_u, k_v, 1.0, 1.0)[0]
        want = -0.5 * (offdiag_mean(k_u) + offdiag_mean(k_v))
        assert abs(got - want) < 1e-13

    def test_grad_matches_fd(self):
        rng = SeededRng(18)
        s = rng.split(0).standard_normal((4, 4))
        k_u = losses.kernel_gram(Kernel("gaussian"), rng.split(1).standard_normal((4, 3)))
        k_v = losses.kernel_gram(Kernel("gaussian"), rng.split(2).standard_normal((4, 2)))
        g = losses._cond_mmd(s, k_u, k_v, 0.8, 1.4)[1]
        step = 1e-6
        for probe in range(5):
            d = rng.split(3, probe).standard_normal(s.shape)
            fd = (
                losses._cond_mmd(s + step * d, k_u, k_v, 0.8, 1.4)[0]
                - losses._cond_mmd(s - step * d, k_u, k_v, 0.8, 1.4)[0]
            ) / (2 * step)
            an = float(np.sum(g * d))
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-8)


def product_batch(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Paired rows z_i = (u_i, v_i) and all N^2 product pairs zt, ordered
    u-major so zt[i*N + j] = (u_i, v_j) lines up with a flattened score
    matrix."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    if u.shape[0] != v.shape[0]:
        raise ValueError("paired batches must have equal length")
    n = u.shape[0]
    z = np.hstack([u, v])
    zt = np.hstack([np.repeat(u, n, axis=0), np.tile(v, (n, 1))])
    return z, zt


def joint_mmd_product_batch(u, v, scores, kernel):
    """The joint MMD and its score gradient from the explicit product batch
    and its N^2 x N^2 Gram: the direct form of the definition, kept as the
    oracle for the factored library form."""
    z, zt = product_batch(u, v)
    w = softmax(np.ravel(scores))
    cross_means = losses.kernel_gram(kernel, z, zt).mean(axis=0)
    g_tt = losses.kernel_gram(kernel, zt)
    value = float(-2.0 * w @ cross_means + w @ g_tt @ w)
    dw = -2.0 * cross_means + 2.0 * g_tt @ w
    g = w * (dw - float(dw @ w))
    return value, g.reshape(np.shape(scores))


JOINT_KERNELS = [
    Kernel("gaussian", bandwidth=1.3),
    Kernel("polynomial", degree=1, offset=0.7),
    Kernel("polynomial", degree=2, offset=0.7),
    Kernel("polynomial", degree=3, offset=0.7),
]


class TestJointMmd:
    def test_loop_oracle(self):
        rng = SeededRng(20)
        u = rng.split(0).standard_normal((3, 2))
        v = rng.split(1).standard_normal((3, 2))
        scores = rng.split(2).standard_normal((3, 3))
        k = Kernel("gaussian", bandwidth=1.2)
        w = softmax(scores)
        z = np.hstack([u, v])
        pairs = [(i, j) for i in range(3) for j in range(3)]

        def kval(a, b):
            return np.exp(-np.sum((a - b) ** 2) / (2 * 1.2**2))

        want = 0.0
        for i, j in pairs:
            zt = np.concatenate([u[i], v[j]])
            want += -2.0 * w[i, j] * np.mean([kval(z[m], zt) for m in range(3)])
            for ip, jp in pairs:
                want += w[i, j] * w[ip, jp] * kval(zt, np.concatenate([u[ip], v[jp]]))
        got = losses._joint_mmd(u, v, scores, k)[0]
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("kernel", JOINT_KERNELS, ids=lambda k: f"{k.family}-{k.degree}")
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_matches_product_batch_oracle(self, n, kernel, dims):
        rng = SeededRng(24).split(n, *dims)
        u = rng.split(0).standard_normal((n, dims[0]))
        v = rng.split(1).standard_normal((n, dims[1]))
        scores = rng.split(2).standard_normal((n, n))
        value, g = losses._joint_mmd(u, v, scores, kernel)
        want_value, want_g = joint_mmd_product_batch(u, v, scores, kernel)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        np.testing.assert_allclose(g, want_g, rtol=0, atol=1e-12 * np.abs(want_g).max())

    @staticmethod
    def _check_grad_fd(rng, n, dims, kernel):
        u = rng.split(0).standard_normal((n, dims[0]))
        v = rng.split(1).standard_normal((n, dims[1]))
        scores = rng.split(2).standard_normal((n, n))
        _, g = losses._joint_mmd(u, v, scores, kernel)
        step = 1e-6
        for probe in range(5):
            d = rng.split(3, probe).standard_normal((n, n))
            fd = (
                losses._joint_mmd(u, v, scores + step * d, kernel)[0]
                - losses._joint_mmd(u, v, scores - step * d, kernel)[0]
            ) / (2 * step)
            an = float(np.sum(g * d))
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-8)

    def test_grad_matches_fd(self):
        # default Gaussian kernel, bandwidth 1
        self._check_grad_fd(SeededRng(21), 3, (1, 1), Kernel("gaussian"))

    @pytest.mark.parametrize("kernel", JOINT_KERNELS, ids=lambda k: f"{k.family}-{k.degree}")
    def test_grad_matches_fd_per_kernel(self, kernel):
        self._check_grad_fd(SeededRng(21), 5, (2, 3), kernel)

    def test_memory_stays_at_batch_scale(self):
        # N x N Grams only: the product-batch Gram at N = 64 alone is 128 MB
        rng = SeededRng(26)
        u = rng.split(0).standard_normal((64, 1))
        v = rng.split(1).standard_normal((64, 1))
        s = rng.split(2).standard_normal((64, 64))
        kind = LossKind("joint_mmd", kernel=Kernel("gaussian"))
        tracemalloc.start()
        try:
            losses.loss_value_and_grad(kind, s, u, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_weights_reject_all_neginf(self):
        kind = LossKind("joint_mmd", kernel=Kernel("gaussian"))
        u = np.zeros((4, 1))
        with pytest.raises(ValueError, match="all scores are -inf"):
            losses.loss_value_and_grad(kind, np.full((4, 4), -np.inf), u, u)

    def test_score_count_must_match(self):
        with pytest.raises(ValueError, match="one score per pairing"):
            losses._joint_mmd(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((3, 3)), Kernel("gaussian"))


class TestProductBatch:
    def test_ordering_is_u_major(self):
        u = np.array([[1.0], [2.0], [3.0]])
        v = np.array([[10.0], [20.0], [30.0]])
        z, zt = product_batch(u, v)
        np.testing.assert_array_equal(z, [[1, 10], [2, 20], [3, 30]])
        assert zt.shape == (9, 2)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(zt[i * 3 + j], [u[i, 0], v[j, 0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_batch(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="equal length"):
            losses._joint_mmd(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 2)), Kernel("gaussian"))


class TestLossKind:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossKind("nce")
        with pytest.raises(ValueError):
            LossKind("cond", lam_u=-1.0)
        with pytest.raises(ValueError):
            LossKind("cond", lam_u=0.0, lam_v=0.0)
        with pytest.raises(ValueError):
            LossKind("cond_mmd", kernel=None)
        # kernels and lambdas are irrelevant to clip/joint
        LossKind("clip")
        LossKind("joint")
        LossKind("cond_mmd", kernel=Kernel("gaussian"))


class TestDispatch:
    def setup_method(self):
        rng = SeededRng(22)
        self.e_u = rng.split(0).standard_normal((5, 3))
        self.e_v = rng.split(1).standard_normal((5, 3))
        self.u_batch = rng.split(2).standard_normal((5, 2))
        self.v_batch = rng.split(3).standard_normal((5, 4))
        self.s = similarity_matrix(self.e_u, self.e_v, "inner_product", 0.5)

    def value_of(self, kind):
        val, _ = losses.loss_value_and_grad(kind, self.s, self.u_batch, self.v_batch)
        return val

    def test_clip_and_cond_values(self):
        assert self.value_of(LossKind("clip")) == losses.loss_clip(self.s)
        kind = LossKind("cond", 0.5, 1.5)
        assert self.value_of(kind) == losses.loss_cond(self.s, 0.5, 1.5)

    def test_joint_uses_all_pairings_as_negatives(self):
        want = logsumexp(self.s) - np.log(self.s.size) - np.mean(np.diag(self.s))
        assert abs(self.value_of(LossKind("joint")) - want) < 1e-14

    def test_mmd_variants_need_batches(self):
        kind = LossKind("cond_mmd", kernel=Kernel("gaussian"))
        with pytest.raises(ValueError):
            losses.loss_value_and_grad(kind, self.s)

    def test_cond_mmd_value(self):
        k = Kernel("gaussian", bandwidth=0.8)
        kind = LossKind("cond_mmd", 1.0, 1.0, kernel=k)
        want = losses._cond_mmd(
            self.s,
            losses.kernel_gram(k, self.u_batch),
            losses.kernel_gram(k, self.v_batch),
            1.0,
            1.0,
        )[0]
        assert self.value_of(kind) == want

    @pytest.mark.parametrize("lams, sides", [((1.0, 0.0), 1), ((0.0, 2.0), 1), ((1.0, 1.0), 2)])
    def test_cond_mmd_builds_only_the_grams_it_uses(self, monkeypatch, lams, sides):
        calls = []
        gram = losses.kernel_gram

        def counting(k, x, y=None):
            calls.append(x)
            return gram(k, x, y)

        k = Kernel("gaussian", bandwidth=0.8)
        kind = LossKind("cond_mmd", *lams, kernel=k)
        # both Grams given: the unused one changes no bit
        want = losses._cond_mmd(self.s, gram(k, self.u_batch), gram(k, self.v_batch), *lams)
        monkeypatch.setattr(losses, "kernel_gram", counting)
        value, g = losses.loss_value_and_grad(kind, self.s, self.u_batch, self.v_batch)
        assert len(calls) == sides
        assert value == want[0]
        np.testing.assert_array_equal(g, want[1])

    def test_joint_mmd_value(self):
        k = Kernel("gaussian", bandwidth=1.5)
        kind = LossKind("joint_mmd", kernel=k)
        want = losses._joint_mmd(self.u_batch, self.v_batch, self.s, k)[0]
        assert self.value_of(kind) == want

    @pytest.mark.parametrize(
        "kind",
        [
            LossKind("clip"),
            LossKind("cond", 1.3, 0.2),
            LossKind("joint"),
            LossKind("cond_mmd", 1.0, 1.0, kernel=Kernel("gaussian")),
            LossKind("joint_mmd", kernel=Kernel("gaussian")),
        ],
        ids=lambda k: k.variant,
    )
    def test_dispatch_grad_matches_fd(self, kind):
        # the dispatch accepts a bare score matrix, which makes FD easy
        def value_at(s):
            val, _ = losses.loss_value_and_grad(kind, s, self.u_batch, self.v_batch)
            return val

        s0 = self.s
        _, g = losses.loss_value_and_grad(kind, s0, self.u_batch, self.v_batch)
        rng = SeededRng(23)
        step = 1e-6
        for probe in range(4):
            d = rng.split(probe).standard_normal(s0.shape)
            fd = (value_at(s0 + step * d) - value_at(s0 - step * d)) / (2 * step)
            an = float(np.sum(g * d))
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-8)


def generic_chain(kind, e_u, e_v, tilting, tau):
    s = similarity_matrix(e_u, e_v, tilting, tau)
    value, ds = losses.loss_value_and_grad(kind, s)
    cot_u, cot_v = similarity_vjp(e_u, e_v, tilting, tau, ds)
    return value, cot_u, cot_v


def unit_rows(seed, n, n_e):
    e = SeededRng(seed).standard_normal((2, n, n_e))
    return e / np.linalg.norm(e, axis=2, keepdims=True)


def embedding_rows(seed, n, n_e):
    """Unit rows, or raw normal rows at n_e = 1, where unit rows are all +-1."""
    if n_e == 1:
        return SeededRng(seed).standard_normal((2, n, 1))
    return unit_rows(seed, n, n_e)


SOFTMAX_KINDS = [LossKind("clip"), LossKind("cond", 1.3, 0.6), LossKind("joint")]
BLOCK = losses.SCORE_BLOCK


class TestScoreStep:
    """The tiled kernel against the generic chain it replaces in training."""

    # n_e = 1 is the width of every Gaussian experiment, where the score
    # products take the zero-padded BLAS path
    @pytest.mark.parametrize(
        "n, n_e",
        [
            pytest.param(n, n_e, id=str(n) if n_e == 3 else f"{n}-ne1")
            for n_e in (3, 1)
            for n in (2, BLOCK - 1, 2 * BLOCK + 37)
        ],
    )
    @pytest.mark.parametrize("tilting", ["inner_product", "l2_distance"])
    @pytest.mark.parametrize("kind", SOFTMAX_KINDS, ids=lambda k: k.variant)
    @pytest.mark.parametrize("tau", [0.7, 1e-3])
    def test_matches_generic_chain(self, kind, tilting, n, n_e, tau):
        # at tau = 1e-3 the embeddings score up to +-1000 and beyond, which
        # leaves the kernel's range: the step is then the chain's own
        # result, bit for bit. Kernel steps compare relative to the largest
        # entry.
        e_u, e_v = embedding_rows(n, n, n_e)
        value, cot_u, cot_v, shifted = losses.score_step(kind, e_u, e_v, tilting, tau, {})
        want_value, want_u, want_v = generic_chain(kind, e_u, e_v, tilting, tau)
        if shifted:
            assert value == want_value
            np.testing.assert_array_equal(cot_u, want_u)
            np.testing.assert_array_equal(cot_v, want_v)
        scale = max(1.0, abs(want_value), np.abs(want_u).max(), np.abs(want_v).max())
        assert abs(value - want_value) <= 1e-12 * scale
        np.testing.assert_allclose(cot_u, want_u, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(cot_v, want_v, rtol=0, atol=1e-12 * scale)
        scores = similarity_matrix(e_u, e_v, tilting, tau)
        assert shifted == bool(np.abs(scores).max() >= losses.EXP_LIMIT)
        if tau == 1e-3 and n > 2:
            assert shifted

    @pytest.mark.parametrize(
        "tilting, n_e",
        [
            pytest.param(tilting, n_e, id=tilting if n_e == 2 else f"{tilting}-ne1")
            for n_e in (2, 1)
            for tilting in ("inner_product", "l2_distance")
        ],
    )
    @pytest.mark.parametrize(
        "kind", [*SOFTMAX_KINDS, LossKind("cond", 0.0, 2.0), LossKind("cond", 2.0, 0.0)],
        ids=lambda k: f"{k.variant}-{k.lam_u}-{k.lam_v}",
    )
    def test_cotangents_match_central_differences(self, kind, tilting, n_e):
        e_u, e_v = embedding_rows(11, 2 * BLOCK + 5, n_e)
        e_u, e_v = 2.0 * e_u, 2.0 * e_v
        tau, step = 0.7, 1e-5
        _, cot_u, cot_v, _ = losses.score_step(kind, e_u, e_v, tilting, tau, {})
        rng = SeededRng(12)
        for probe in range(4):
            d_u = rng.split(0, probe).standard_normal(e_u.shape)
            d_v = rng.split(1, probe).standard_normal(e_v.shape)
            plus = losses.score_step(kind, e_u + step * d_u, e_v + step * d_v, tilting, tau, {})
            minus = losses.score_step(kind, e_u - step * d_u, e_v - step * d_v, tilting, tau, {})
            fd = (plus[0] - minus[0]) / (2 * step)
            an = float(np.sum(cot_u * d_u) + np.sum(cot_v * d_v))
            # the absolute term covers the rounding of a value near log N^2
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an)) + 1e-9

    def test_workspace_reused_across_calls(self):
        e_u, e_v = unit_rows(13, 40, 2)
        ws = {}
        first = losses.score_step(LossKind("joint"), e_u, e_v, "inner_product", 1.0, ws)
        (key,) = ws
        assert key == (40, 2, "inner_product", False, False)
        table = ws[key].table
        again = losses.score_step(LossKind("joint"), e_u, e_v, "inner_product", 1.0, ws)
        assert list(ws) == [key] and ws[key].table is table
        assert first[0] == again[0]
        np.testing.assert_array_equal(first[1], again[1])

    def test_shared_workspace_matches_fresh_calls(self):
        # one ws across interleaved calls, as in a training run whose full
        # batches and shorter tail share it: every call equals a call with
        # a fresh workspace, bit for bit, and no result aliases a buffer
        # that a later call refills
        kinds = [
            LossKind("clip"),
            LossKind("cond"),
            LossKind("cond", 1.0, 0.0),
            LossKind("cond", 0.0, 1.0),
            LossKind("joint"),
        ]
        cases = [
            (kind, tilting, n, n_e)
            for kind in kinds
            for tilting in ("inner_product", "l2_distance")
            for n in (4 * BLOCK, 32)
            for n_e in (1, 5)
        ]
        order = SeededRng(17).permutation(len(cases))
        ws, kept = {}, []
        for rep in range(2):
            for i in order:
                kind, tilting, n, n_e = cases[i]
                e_u, e_v = embedding_rows(100 * rep + int(i), n, n_e)
                value, cot_u, cot_v, shifted = losses.score_step(kind, e_u, e_v, tilting, 0.7, ws)
                want = losses.score_step(kind, e_u, e_v, tilting, 0.7, {})
                assert value == want[0] and not shifted and not want[3]
                np.testing.assert_array_equal(cot_u, want[1])
                np.testing.assert_array_equal(cot_v, want[2])
                kept.append((cot_u, cot_v, want[1], want[2]))
        # one workspace per (softmax flags, tilting, N, n_e); clip and
        # cond(1, 1) need both softmaxes, so they share theirs
        assert len(ws) == 4 * 2 * 2 * 2
        for got_u, got_v, want_u, want_v in kept:
            np.testing.assert_array_equal(got_u, want_u)
            np.testing.assert_array_equal(got_v, want_v)

    @pytest.mark.parametrize(
        "kind, tilting, n, row, entry, tau",
        [
            (LossKind("cond"), "inner_product", 8, 5, np.nan, 1.0),
            # the first tile's scores are finite but out of range, so the
            # chain meets the overflow of row 2 * BLOCK, without warnings
            (LossKind("cond"), "l2_distance", 2 * BLOCK + 37, 2 * BLOCK, 1e200, 1e-3),
            (LossKind("cond_mmd", kernel=Kernel("gaussian")), "l2_distance", 8, 5, 1e200, 1.0),
        ],
        ids=["nan", "overflow-after-shift", "overflow-mmd"],
    )
    def test_non_finite_scores_raise(self, kind, tilting, n, row, entry, tau):
        e_u, e_v = unit_rows(14, n, 2)
        e_u[row, 0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite similarity scores"):
                losses.score_step(kind, e_u, e_v, tilting, tau, {}, e_u, e_v)

    @pytest.mark.parametrize("tilting", ["inner_product", "l2_distance"])
    @pytest.mark.parametrize(
        "kind",
        [
            LossKind("cond_mmd", 1.0, 0.5, kernel=Kernel("gaussian")),
            LossKind("joint_mmd", kernel=Kernel("polynomial", degree=2)),
        ],
        ids=lambda k: k.variant,
    )
    def test_mmd_variants_take_the_chain(self, kind, tilting):
        e_u, e_v = unit_rows(15, 9, 2)
        batches = SeededRng(16).standard_normal((2, 9, 3))
        value, cot_u, cot_v, shifted = losses.score_step(
            kind, e_u, e_v, tilting, 0.8, {}, *batches
        )
        s = similarity_matrix(e_u, e_v, tilting, 0.8)
        want_value, ds = losses.loss_value_and_grad(kind, s, *batches)
        want_u, want_v = similarity_vjp(e_u, e_v, tilting, 0.8, ds)
        assert value == want_value and not shifted
        np.testing.assert_array_equal(cot_u, want_u)
        np.testing.assert_array_equal(cot_v, want_v)
