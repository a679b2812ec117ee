"""Closed-form Gaussian solutions against hand-derived oracles.

The reference instance throughout is the 2x2 joint covariance
[[1.5, 1], [1, 1.5]] (scalar u and v blocks), for which everything is
computable by hand:

    true conditional gain   1/1.5           = 2/3
    true conditional cov    1.5 - 1/1.5     = 5/6
    cond-loss minimizer     (2/3)/1.5       = 4/9
    quadratic minimizer     a = (6/5)(2/3)  = 4/5,  b = 6/5 - 2/3 = 8/15
    whitened correlation    1/1.5           = 2/3
    shrinkage               h(2/3)          = 1/2
    joint-loss minimizer    (1/2)/1.5       = 1/3
    model-u marginals       cond 2.7, joint 2.0 (true variance 1.5)
"""

from fractions import Fraction

import numpy as np
import pytest

from tiltlab import gaussian, linalg
from tiltlab.errors import DivergentNormalizer, NotPositiveDefinite
from tiltlab.losses import Kernel, LossKind
from tiltlab.rng import SeededRng
from tiltlab.training import ADAM_BETAS, ADAM_EPS


def reference():
    return gaussian.BlockGaussian([[1.5]], [[1.0]], [[1.5]])


def random_blocks(seed, n_x=None, n_y=None):
    rng = SeededRng(seed)
    n_x = n_x or int(rng.split(0).integers(1, 5))
    n_y = n_y or int(rng.split(1).integers(1, 5))
    d = n_x + n_y
    base = rng.split(2).standard_normal((d, d + 3))
    cov = base @ base.T / (d + 3) + 0.3 * np.eye(d)
    return gaussian.BlockGaussian(cov[:n_x, :n_x], cov[:n_x, n_x:], cov[n_x:, n_x:])


def truncated_svd(m, r):
    """Best rank-r approximation of m in Frobenius norm (Eckart-Young)."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r]


def minimizer_arrays(name, g, r=None):
    """The arrays of the cond, joint or quad minimizer at rank budget r."""
    if name == "quad":
        q = gaussian.minimizer_quadratic_onesided(g, r=r)
        return q.a, q.b
    return (getattr(gaussian, f"minimizer_{name}")(g, r=r),)


class TestBlockGaussian:
    def test_joint_assembly(self):
        g = random_blocks(0, 2, 3)
        j = g.joint()
        np.testing.assert_array_equal(j[:2, :2], g.c_uu)
        np.testing.assert_array_equal(j[:2, 2:], g.c_uv)
        np.testing.assert_array_equal(j[2:, 2:], g.c_vv)

    def test_rejects_non_pd_joint(self):
        # off-diagonal too large for the marginals
        with pytest.raises(NotPositiveDefinite):
            gaussian.BlockGaussian([[1.0]], [[1.1]], [[1.0]])

    def test_rejects_asymmetric_marginal(self):
        with pytest.raises(ValueError):
            gaussian.BlockGaussian([[1.0, 0.2], [0.0, 1.0]], np.zeros((2, 1)), [[1.0]])

    def test_swapped(self):
        g = random_blocks(1, 2, 3)
        s = g.swapped()
        np.testing.assert_array_equal(s.c_uu, g.c_vv)
        np.testing.assert_array_equal(s.c_uv, g.c_vu)


class TestTrueConditional:
    def test_reference_values(self):
        cond = gaussian.conditional_u_given_v(reference())
        assert abs(cond.gain[0, 0] - 2.0 / 3.0) < 1e-14
        assert abs(cond.cov[0, 0] - 5.0 / 6.0) < 1e-14

    def test_schur_complement_pd(self):
        for seed in range(8):
            g = random_blocks(seed)
            cond = gaussian.conditional_u_given_v(g)
            linalg.cholesky_pd(cond.cov)  # must not raise

    def test_v_given_u_is_swap(self):
        # the true v-given-u conditional, read off the swapped blocks, is the
        # v-given-u model conditional of the cond minimizer
        g = random_blocks(3, 3, 2)
        a = gaussian.conditional_u_given_v(g.swapped())
        b = gaussian.model_conditional(gaussian.CosineLinear(gaussian.minimizer_cond(g)), "v_given_u", g)
        np.testing.assert_allclose(a.gain, b.gain, atol=1e-12)

    def test_law_of_total_variance(self):
        g = random_blocks(4, 2, 2)
        cond = gaussian.conditional_u_given_v(g)
        total = cond.cov + cond.gain @ g.c_vv @ cond.gain.T
        np.testing.assert_allclose(total, g.c_uu, atol=1e-12)


class TestCondLoss:
    def test_reference_minimum_value(self):
        g = reference()
        a = gaussian.minimizer_cond(g)
        assert abs(a[0, 0] - 4.0 / 9.0) < 1e-14
        assert abs(gaussian.cond_loss_closed(a, g) + 2.0 / 9.0) < 1e-14

    def test_gradient_vanishes_at_minimizer(self):
        g = random_blocks(5, 3, 2)
        a = gaussian.minimizer_cond(g)
        step = 1e-6
        rng = SeededRng(50)
        for probe in range(5):
            d = rng.split(probe).standard_normal(a.shape)
            d /= np.linalg.norm(d)
            fd = (
                gaussian.cond_loss_closed(a + step * d, g)
                - gaussian.cond_loss_closed(a - step * d, g)
            ) / (2 * step)
            assert abs(fd) < 1e-8

    def test_minimizer_beats_perturbations(self):
        g = random_blocks(6, 2, 4)
        a = gaussian.minimizer_cond(g)
        best = gaussian.cond_loss_closed(a, g)
        rng = SeededRng(51)
        for probe in range(20):
            trial = a + 0.1 * rng.split(probe).standard_normal(a.shape)
            assert gaussian.cond_loss_closed(trial, g) >= best - 1e-12

    def test_rank_constrained_on_whitened_svd(self):
        g = random_blocks(7, 4, 4)
        full = gaussian.minimizer_cond(g)
        for r in range(5):
            a_r = gaussian.minimizer_cond(g, r=r)
            assert np.linalg.matrix_rank(a_r, tol=1e-10) <= r
            # best rank-r approximation in the whitened metric
            w = linalg.sym_sqrt(g.c_uu) @ full @ linalg.sym_sqrt(g.c_vv)
            w_r = linalg.sym_sqrt(g.c_uu) @ a_r @ linalg.sym_sqrt(g.c_vv)
            np.testing.assert_allclose(w_r, truncated_svd(w, r), atol=1e-10)

    def test_matches_the_solved_form(self):
        # C_uu^{-1} C_uv C_vv^{-1}, solved here, against the spectral map
        for seed in range(50):
            g = random_blocks(seed + 200)
            want = np.linalg.solve(g.c_uu, np.linalg.solve(g.c_vv, g.c_uv.T).T)
            err = np.max(np.abs(gaussian.minimizer_cond(g) - want))
            assert err <= 1e-13 * np.max(np.abs(want)), seed

    def test_shape_mismatch(self):
        g = random_blocks(9, 2, 3)
        with pytest.raises(ValueError):
            gaussian.cond_loss_closed(np.zeros((3, 2)), g)


class TestJointLoss:
    def test_reference_minimum(self):
        g = reference()
        a = gaussian.minimizer_joint(g)
        assert abs(a[0, 0] - 1.0 / 3.0) < 1e-10
        want = -1.0 / 3.0 - 0.5 * np.log(0.75)
        assert abs(gaussian.joint_loss_closed(a, g) - want) < 1e-12

    def test_agrees_with_direct_determinant(self):
        # same quantity through the unsymmetrized determinant
        for seed in range(6):
            g = random_blocks(seed + 10)
            a = 0.5 * gaussian.minimizer_joint(g)
            direct = -np.trace(a @ g.c_vu) - 0.5 * np.log(
                np.linalg.det(np.eye(g.n_y) - g.c_vv @ a.T @ g.c_uu @ a)
            )
            assert abs(gaussian.joint_loss_closed(a, g) - direct) < 1e-10

    def test_divergent_normalizer(self):
        g = reference()
        # spectral norm of the whitened tilt exceeds 1: not integrable
        with pytest.raises(DivergentNormalizer):
            gaussian.joint_loss_closed(np.array([[0.7]]), g)

    def test_gradient_vanishes_at_minimizer(self):
        g = random_blocks(11, 2, 2)
        a = gaussian.minimizer_joint(g)
        step = 1e-6
        rng = SeededRng(52)
        for probe in range(5):
            d = rng.split(probe).standard_normal(a.shape)
            d /= np.linalg.norm(d)
            fd = (
                gaussian.joint_loss_closed(a + step * d, g)
                - gaussian.joint_loss_closed(a - step * d, g)
            ) / (2 * step)
            assert abs(fd) < 1e-7

    def test_rank_truncation_keeps_leading_directions(self):
        g = random_blocks(12, 4, 4)
        full = gaussian.minimizer_joint(g)
        w_full = linalg.sym_sqrt(g.c_uu) @ full @ linalg.sym_sqrt(g.c_vv)
        for r in range(4):
            a_r = gaussian.minimizer_joint(g, r=r)
            w_r = linalg.sym_sqrt(g.c_uu) @ a_r @ linalg.sym_sqrt(g.c_vv)
            np.testing.assert_allclose(w_r, truncated_svd(w_full, r), atol=1e-9)


class TestShrinkage:
    def test_fixed_values(self):
        assert gaussian.shrinkage_h(0.0) == 0.0
        assert abs(gaussian.shrinkage_h(2.0 / 3.0) - 0.5) < 1e-15
        assert abs(gaussian.shrinkage_h(1.0) - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-15

    def test_defining_equation(self):
        # h solves h^2 s + h - s = 0 on (0, 1]
        for s in np.linspace(1e-3, 1.0, 37):
            h = gaussian.shrinkage_h(s)
            assert abs(h * h * s + h - s) < 1e-13

    def test_monotone_and_contractive(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = gaussian.shrinkage_h(grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals[1:] < grid[1:])

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            gaussian.shrinkage_h(1.5)
        with pytest.raises(ValueError):
            gaussian.shrinkage_h(-0.2)

    def test_array_shape_preserved(self):
        out = gaussian.shrinkage_h(np.array([[0.1, 0.5], [0.9, 0.0]]))
        assert out.shape == (2, 2)


class TestQuadraticMinimizer:
    def test_reference_values(self):
        q = gaussian.minimizer_quadratic_onesided(reference())
        assert abs(q.a[0, 0] - 0.8) < 1e-10
        assert abs(q.b[0, 0] - 8.0 / 15.0) < 1e-10
        assert np.all(q.c == 0.0)

    def test_unconstrained_closed_form_random(self):
        for seed in range(6):
            g = random_blocks(seed + 20)
            q = gaussian.minimizer_quadratic_onesided(g)
            cov_ugv = gaussian.conditional_u_given_v(g).cov
            prec = linalg.inv_pd(cov_ugv)
            a_want = prec @ gaussian.conditional_u_given_v(g).gain
            b_want = prec - linalg.inv_pd(g.c_uu)
            np.testing.assert_allclose(q.a, a_want, atol=1e-7)
            np.testing.assert_allclose(q.b, b_want, atol=1e-7)

    def test_model_reproduces_true_conditional(self):
        g = random_blocks(21, 3, 2)
        q = gaussian.minimizer_quadratic_onesided(g)
        model = gaussian.model_conditional(q, "u_given_v", g)
        true = gaussian.conditional_u_given_v(g)
        np.testing.assert_allclose(model.gain, true.gain, atol=1e-7)
        np.testing.assert_allclose(model.cov, true.cov, atol=1e-7)

    def test_full_rank_budget_matches_unconstrained(self):
        g = random_blocks(22, 3, 3)
        q_full = gaussian.minimizer_quadratic_onesided(g)
        q_r = gaussian.minimizer_quadratic_onesided(g, r=3)
        np.testing.assert_allclose(q_r.a, q_full.a, atol=1e-6)
        np.testing.assert_allclose(q_r.b, q_full.b, atol=1e-6)

    def test_rank_constrained_b_has_low_rank(self):
        g = random_blocks(23, 4, 3)
        q = gaussian.minimizer_quadratic_onesided(g, r=2)
        assert np.linalg.matrix_rank(q.b, tol=1e-8) <= 2
        assert np.linalg.matrix_rank(q.a, tol=1e-8) <= 2
        eig = np.linalg.eigvalsh(q.b)
        assert eig.min() > -1e-9  # PSD

    @staticmethod
    def population_loss(a, b, g):
        """One-sided conditional loss over the quadratic family, derived
        independently from the Gaussian integral of the normalizer:

            L = (1/2) Tr(b C_uu) - Tr(a C_vu) - (1/2) log det(C_uu M)
                + (1/2) Tr(a^T M^{-1} a C_vv),    M = b + C_uu^{-1}.

        At b = 0 this collapses to cond_loss_closed exactly.
        """
        m = b + linalg.inv_pd(g.c_uu)
        m = 0.5 * (m + m.T)
        return (
            0.5 * np.trace(b @ g.c_uu)
            - np.trace(a @ g.c_vu)
            - 0.5 * (linalg.logdet_pd(g.c_uu) + linalg.logdet_pd(m))
            + 0.5 * np.trace(a.T @ linalg.solve_pd(m, a) @ g.c_vv)
        )

    def test_population_loss_extends_cond_loss(self):
        g = random_blocks(24, 3, 2)
        a = 0.3 * SeededRng(24).standard_normal((3, 2))
        zero_b = np.zeros((3, 3))
        assert abs(
            self.population_loss(a, zero_b, g) - gaussian.cond_loss_closed(a, g)
        ) < 1e-12

    def test_unconstrained_minimizer_is_stationary(self):
        g = random_blocks(24, 4, 3)
        q = gaussian.minimizer_quadratic_onesided(g)
        rng = SeededRng(53)
        step = 1e-5
        for probe in range(6):
            da = rng.split(probe, 0).standard_normal(q.a.shape)
            db = rng.split(probe, 1).standard_normal(q.b.shape)
            db = 0.5 * (db + db.T)
            scale = np.sqrt(np.sum(da * da) + np.sum(db * db))
            da, db = da / scale, db / scale
            fd = (
                self.population_loss(q.a + step * da, q.b + step * db, g)
                - self.population_loss(q.a - step * da, q.b - step * db, g)
            ) / (2 * step)
            assert abs(fd) < 1e-7

    def test_rank_solver_is_stationary_on_the_factored_manifold(self):
        # perturb (a, b) through rank-r factors a = l^T m, b = f^T f; the
        # solver's output must be a stationary point of the population loss
        # along every such feasible direction
        g = random_blocks(24, 4, 3)
        r = 2
        q = gaussian.minimizer_quadratic_onesided(g, r=r)
        w_b, q_b = np.linalg.eigh(q.b)
        order = np.argsort(w_b)[::-1][:r]
        f0 = np.sqrt(np.clip(w_b[order], 0.0, None))[:, None] * q_b[:, order].T
        ua, sa, vta = np.linalg.svd(q.a)
        l0 = (ua[:, :r] * np.sqrt(sa[:r])).T
        m0 = np.sqrt(sa[:r])[:, None] * vta[:r, :]
        np.testing.assert_allclose(f0.T @ f0, q.b, atol=1e-9)
        np.testing.assert_allclose(l0.T @ m0, q.a, atol=1e-9)

        rng = SeededRng(54)
        step = 1e-5
        for probe in range(6):
            df = rng.split(probe, 0).standard_normal(f0.shape)
            dl = rng.split(probe, 1).standard_normal(l0.shape)
            dm = rng.split(probe, 2).standard_normal(m0.shape)
            scale = np.sqrt(sum(np.sum(d * d) for d in (df, dl, dm)))
            df, dl, dm = df / scale, dl / scale, dm / scale

            def at(t, df=df, dl=dl, dm=dm):
                f = f0 + t * df
                l = l0 + t * dl
                m = m0 + t * dm
                return self.population_loss(l.T @ m, f.T @ f, g)

            fd = (at(step) - at(-step)) / (2 * step)
            assert abs(fd) < 1e-6

    def test_rank_solver_value_ordering(self):
        g = random_blocks(24, 4, 3)
        best = self.population_loss(
            *(lambda q: (q.a, q.b))(gaussian.minimizer_quadratic_onesided(g)), g
        )
        prev = np.inf
        for r in (1, 2, 3):
            q = gaussian.minimizer_quadratic_onesided(g, r=r)
            val = self.population_loss(q.a, q.b, g)
            assert val >= best - 1e-9
            assert val <= prev + 1e-9
            prev = val
        # full rank budget recovers the unconstrained optimum
        assert abs(prev - best) < 1e-6

    @staticmethod
    def rank_r_gradient(g, r):
        """Gradient, as a function of the r x n_x factor G of b = G^T G, of
        the reduced rank-r objective Tr(M S) - log det(M S) + |(W)_r - W|_F^2
        with M = b + C_uu^{-1}, S = C_{u|v} and W = M^{1/2} C_uv C_vv^{-1/2},
        through the Frechet derivative of the matrix square root."""
        s_cond = gaussian.conditional_u_given_v(g).cov
        c_uu_inv = linalg.inv_pd(g.c_uu)
        p = g.c_uv @ linalg.inv_sym_sqrt(g.c_vv)

        def grad(gm):
            m = gm.T @ gm + c_uu_inv
            lam, q = np.linalg.eigh(0.5 * (m + m.T))
            sq = np.sqrt(lam)
            w = ((q * sq) @ q.T) @ p
            uw, sw, vtw = np.linalg.svd(w, full_matrices=False)
            z = ((uw[:, :r] * sw[:r]) @ vtw[:r, :]) @ p.T
            z = z + z.T
            adj = q @ ((1.0 / (sq[:, None] + sq[None, :])) * (q.T @ z @ q)) @ q.T
            grad_m = s_cond - (q / lam) @ q.T + p @ p.T - adj
            return 2.0 * gm @ (0.5 * (grad_m + grad_m.T))

        return grad

    @staticmethod
    def top_factor(b, r):
        """r x n factor F of the top-r eigenpairs of b, so F^T F = b when b
        is PSD of rank at most r."""
        w_b, q_b = np.linalg.eigh(b)
        order = np.argsort(w_b)[::-1][:r]
        return np.sqrt(np.clip(w_b[order], 0.0, None))[:, None] * q_b[:, order].T

    @classmethod
    def inline_adam_rank_r(cls, g, r):
        """(a, b) of the rank-r one-sided minimizer found iteratively: Adam
        at step 1e-2 on the factor G of b, from the eigen-truncated
        unconstrained b, until the gradient norm is at most 1e-8 or 5000
        steps; then a = M^{1/2} (M^{1/2} C_uv C_vv^{-1/2})_r C_vv^{-1/2}."""
        s_cond = gaussian.conditional_u_given_v(g).cov
        c_uu_inv = linalg.inv_pd(g.c_uu)
        b_star = linalg.solve_pd(s_cond, np.eye(g.n_x)) - c_uu_inv
        theta = cls.top_factor(0.5 * (b_star + b_star.T), r).ravel()
        grad = cls.rank_r_gradient(g, r)
        m1 = np.zeros_like(theta)
        m2 = np.zeros_like(theta)
        b1, b2 = ADAM_BETAS
        for t in range(1, 5001):
            gflat = grad(theta.reshape(r, g.n_x)).ravel()
            if float(np.linalg.norm(gflat)) <= 1e-8:
                break
            m1 = b1 * m1 + (1 - b1) * gflat
            m2 = b2 * m2 + (1 - b2) * gflat**2
            hat1 = m1 / (1 - b1**t)
            hat2 = m2 / (1 - b2**t)
            theta = theta - 1e-2 * hat1 / (np.sqrt(hat2) + ADAM_EPS)
        gm = theta.reshape(r, g.n_x)
        b = 0.5 * (gm.T @ gm + (gm.T @ gm).T)
        m_sqrt = linalg.sym_sqrt(b + c_uu_inv)
        rv = linalg.inv_sym_sqrt(g.c_vv)
        a = m_sqrt @ truncated_svd(m_sqrt @ g.c_uv @ rv, r) @ rv
        return a, b

    @pytest.mark.parametrize("seed, r", [(27, 1), (28, 2)])
    def test_closed_form_matches_the_iterative_solver(self, seed, r):
        g = random_blocks(seed, 4, 3)
        q = gaussian.minimizer_quadratic_onesided(g, r=r)
        a, b = self.inline_adam_rank_r(g, r)
        np.testing.assert_allclose(q.a, a, rtol=0, atol=1e-6)
        np.testing.assert_allclose(q.b, b, rtol=0, atol=1e-6)

    def test_rank_minimizer_is_stationary_where_adam_stalled(self):
        # Adam on the factor of b stalls here at gradient norm 1.4e-4 after
        # 5000 steps, although the singular values are well separated
        g = random_blocks(13, 4, 4)
        r = 3
        q = gaussian.minimizer_quadratic_onesided(g, r=r)
        f = self.top_factor(q.b, r)
        np.testing.assert_allclose(f.T @ f, q.b, atol=1e-12)
        assert np.linalg.norm(self.rank_r_gradient(g, r)(f)) <= 1e-10

    def test_unconstrained_scalar_minimizer_against_exact_arithmetic(self):
        # a* = c_uv / (S c_vv), b* = 1/S - 1/c_uu with S = c_uu - c_uv^2/c_vv,
        # in exact rationals of the stored blocks
        tol = Fraction(1, 10**14)
        for seed in range(100):
            g = random_blocks(seed, 1, 1)
            c_uu, c_uv, c_vv = (Fraction(float(m[0, 0])) for m in (g.c_uu, g.c_uv, g.c_vv))
            schur = c_uu - c_uv * c_uv / c_vv
            a_exact = c_uv / (schur * c_vv)
            b_exact = 1 / schur - 1 / c_uu
            q = gaussian.minimizer_quadratic_onesided(g)
            assert abs(Fraction(float(q.a[0, 0])) - a_exact) <= tol * abs(a_exact), seed
            assert abs(Fraction(float(q.b[0, 0])) - b_exact) <= tol * abs(b_exact), seed

    def test_rank_zero(self):
        g = random_blocks(26, 2, 2)
        q = gaussian.minimizer_quadratic_onesided(g, r=0)
        assert np.all(q.b == 0.0)


class TestRankBudget:
    @pytest.mark.parametrize("name", ["cond", "joint", "quad"])
    def test_rank_cap_is_bitwise_the_unconstrained_minimizer(self, name):
        for seed in range(50):
            g = random_blocks(seed + 100)
            cap = min(g.n_x, g.n_y)
            for capped, free in zip(minimizer_arrays(name, g, cap), minimizer_arrays(name, g)):
                assert np.array_equal(capped, free), seed

    @pytest.mark.parametrize("name", ["cond", "joint", "quad"])
    def test_rank_zero_is_the_zero_matrix(self, name):
        g = random_blocks(150, 3, 2)
        for m in minimizer_arrays(name, g, 0):
            assert np.array_equal(m, np.zeros_like(m))

    @pytest.mark.parametrize("name", ["cond", "joint", "quad"])
    @pytest.mark.parametrize("r", [-1, 3])
    def test_rank_out_of_range_rejected(self, name, r):
        g = random_blocks(151, 2, 3)
        with pytest.raises(ValueError):
            minimizer_arrays(name, g, r)


class TestModelDistributions:
    def test_cosine_model_conditional_shapes(self):
        g = random_blocks(30, 2, 3)
        a = 0.1 * SeededRng(30).standard_normal((2, 3))
        ugv = gaussian.model_conditional(gaussian.CosineLinear(a), "u_given_v", g)
        np.testing.assert_allclose(ugv.gain, g.c_uu @ a, atol=1e-12)
        np.testing.assert_allclose(ugv.cov, g.c_uu, atol=1e-12)
        vgu = gaussian.model_conditional(gaussian.CosineLinear(a), "v_given_u", g)
        np.testing.assert_allclose(vgu.gain, g.c_vv @ a.T, atol=1e-12)
        np.testing.assert_allclose(vgu.cov, g.c_vv, atol=1e-12)

    def test_unknown_side(self):
        g = reference()
        with pytest.raises(ValueError):
            gaussian.model_conditional(gaussian.CosineLinear(np.eye(1)), "sideways", g)

    def test_marginal_reference_values(self):
        g = reference()
        m_cond = gaussian.model_marginal_u(gaussian.minimizer_cond(g), g)
        m_joint = gaussian.model_marginal_u(gaussian.minimizer_joint(g), g)
        assert abs(m_cond[0, 0] - 2.7) < 1e-9
        assert abs(m_joint[0, 0] - 2.0) < 1e-9

    def test_marginal_at_zero_tilt_is_c_uu(self):
        g = random_blocks(31, 3, 2)
        m = gaussian.model_marginal_u(np.zeros((3, 2)), g)
        np.testing.assert_allclose(m, g.c_uu, atol=1e-12)

    def test_marginal_matches_the_woodbury_form(self):
        # C_uu + C_uu a (C_vv^{-1} - a^T C_uu a)^{-1} a^T C_uu, written here
        for seed in range(20):
            g = random_blocks(seed + 40)
            for a in (gaussian.minimizer_cond(g), gaussian.minimizer_joint(g)):
                inner = np.linalg.inv(g.c_vv) - a.T @ g.c_uu @ a
                want = g.c_uu + g.c_uu @ a @ np.linalg.solve(inner, a.T @ g.c_uu)
                err = np.max(np.abs(gaussian.model_marginal_u(a, g) - want))
                assert err <= 1e-12 * np.max(np.abs(want)), seed

    def test_non_normalizable_marginal_raises(self):
        # whitened tilt 1.2 * I: C_vv^{-1} - a^T C_uu a has a negative eigenvalue
        g = random_blocks(32, 2, 3)
        a = linalg.inv_sym_sqrt(g.c_uu) @ (1.2 * np.eye(2, 3)) @ linalg.inv_sym_sqrt(g.c_vv)
        with pytest.raises(DivergentNormalizer):
            gaussian.model_marginal_u(a, g)
        with pytest.raises(DivergentNormalizer):
            gaussian.model_marginal_u(np.array([[0.7]]), reference())

    def test_model_joint_pd(self):
        g = random_blocks(33, 2, 3)
        a = 0.1 * SeededRng(33).standard_normal((2, 3))
        linalg.cholesky_pd(gaussian.model_joint(gaussian.CosineLinear(a), g))

    def test_quadratic_model_joint_at_minimizer_matches_conditional(self):
        # the u|v conditional read off the model joint equals the model's map
        g = random_blocks(34, 2, 2)
        q = gaussian.minimizer_quadratic_onesided(g)
        joint = gaussian.model_joint(q, g)
        gj = gaussian.BlockGaussian(joint[:2, :2], joint[:2, 2:], joint[2:, 2:])
        cond = gaussian.conditional_u_given_v(gj)
        model = gaussian.model_conditional(q, "u_given_v", g)
        np.testing.assert_allclose(cond.gain, model.gain, atol=1e-6)
        np.testing.assert_allclose(cond.cov, model.cov, atol=1e-6)


class TestKlGaussians:
    def test_zero_iff_equal(self):
        m = np.array([0.3, -1.0])
        c = np.array([[1.2, 0.3], [0.3, 0.9]])
        assert abs(gaussian.kl_gaussians(m, c, m, c)) < 1e-14

    def test_hand_computed_1d(self):
        # KL(N(1,2) || N(0,1)) = (2 - 1 + 0 - log 2 + 1) / 2 = 1 - log(2)/2
        val = gaussian.kl_gaussians([1.0], [[2.0]], [0.0], [[1.0]])
        assert abs(val - (1.0 - 0.5 * np.log(2.0))) < 1e-14

    def test_nonnegative(self):
        rng = SeededRng(40)
        for seed in range(10):
            c1 = rng.split(seed, 0).standard_normal((2, 4))
            c2 = rng.split(seed, 1).standard_normal((2, 4))
            m1 = rng.split(seed, 2).standard_normal(2)
            m2 = rng.split(seed, 3).standard_normal(2)
            kl = gaussian.kl_gaussians(
                m1, c1 @ c1.T / 4 + 0.2 * np.eye(2), m2, c2 @ c2.T / 4 + 0.2 * np.eye(2)
            )
            assert kl >= 0.0

    def test_invariant_under_rotation(self):
        rng = SeededRng(41)
        q, _ = np.linalg.qr(rng.split(0).standard_normal((3, 3)))
        m1 = rng.split(1).standard_normal(3)
        m2 = rng.split(2).standard_normal(3)
        b1 = rng.split(3).standard_normal((3, 5))
        b2 = rng.split(4).standard_normal((3, 5))
        c1 = b1 @ b1.T / 5 + 0.3 * np.eye(3)
        c2 = b2 @ b2.T / 5 + 0.3 * np.eye(3)
        a = gaussian.kl_gaussians(m1, c1, m2, c2)
        b = gaussian.kl_gaussians(q @ m1, q @ c1 @ q.T, q @ m2, q @ c2 @ q.T)
        assert abs(a - b) < 1e-10


class TestExpQuadraticExpectation:
    def test_unit_at_zero_tilt(self):
        lam = np.array([[1.3, 0.2], [0.2, 0.8]])
        val = gaussian.exp_quadratic_expectation([0.4, -0.1], lam, np.zeros((2, 2)), np.zeros(2))
        assert abs(val - 1.0) < 1e-13

    def test_linear_tilt_is_mgf(self):
        # with b = 0 the integral is the Gaussian moment generating function
        rng = SeededRng(42)
        lam = np.array([[1.1, -0.3], [-0.3, 0.7]])
        m = np.array([0.5, -0.2])
        for seed in range(5):
            c = rng.split(seed).standard_normal(2)
            val = gaussian.exp_quadratic_expectation(m, lam, np.zeros((2, 2)), c)
            want = np.exp(c @ m + 0.5 * c @ lam @ c)
            assert abs(val - want) < 1e-12 * abs(want)

    def test_1d_pure_quadratic(self):
        # E exp(x^2/4) under N(0,1): 1/sqrt(1 - 1/2) = sqrt(2)
        val = gaussian.exp_quadratic_expectation([0.0], [[1.0]], [[0.5]], [0.0])
        assert abs(val - np.sqrt(2.0)) < 1e-13

    def test_divergent_tilt_rejected(self):
        with pytest.raises(DivergentNormalizer):
            gaussian.exp_quadratic_expectation([0.0], [[1.0]], [[1.5]], [0.0])


class TestRecoverEncoders:
    def test_round_trip(self):
        rng = SeededRng(43)
        base = rng.split(0).standard_normal((3, 6))
        b = base @ base.T / 6 + 0.4 * np.eye(3)
        a = rng.split(1).standard_normal((3, 5))
        q = gaussian.QuadraticTiltingParams(a=a, b=b, c=np.zeros((5, 5)))
        g_mat, h_mat = gaussian.recover_encoders(q)
        np.testing.assert_allclose(g_mat.T @ g_mat, b, atol=1e-10)
        np.testing.assert_allclose(g_mat.T @ h_mat, a, atol=1e-10)

    def test_wide_requirement(self):
        # u dimension may not exceed v dimension for an exact factorization
        b = np.eye(3)
        a = np.ones((3, 2))
        q = gaussian.QuadraticTiltingParams(a=a, b=b, c=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gaussian.recover_encoders(q)


class TestLinearEncoderTilting:
    @pytest.mark.parametrize("tilting", ["inner_product", "l2_distance"])
    def test_tilt_reproduces_the_encoder_score(self, tilting):
        rng = SeededRng(46)
        g_mat = rng.split(0).standard_normal((4, 2))
        h_mat = rng.split(1).standard_normal((4, 3))
        tau = 0.7
        tilt = gaussian.linear_encoder_tilting(g_mat, h_mat, tilting, tau)
        for i in range(5):
            u = rng.split(2, i).standard_normal(2)
            v = rng.split(3, i).standard_normal(3)
            if tilting == "inner_product":
                assert isinstance(tilt, gaussian.CosineLinear)
                got, want = u @ tilt.a @ v, (g_mat @ u) @ (h_mat @ v) / tau
            else:
                got = u @ tilt.a @ v - u @ tilt.b @ u / 2 - v @ tilt.c @ v / 2
                want = -np.sum((g_mat @ u - h_mat @ v) ** 2) / (2 * tau)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_inverts_recover_encoders(self):
        rng = SeededRng(47)
        base = rng.split(0).standard_normal((2, 4))
        q = gaussian.QuadraticTiltingParams(
            a=rng.split(1).standard_normal((2, 3)), b=base @ base.T / 4 + 0.5 * np.eye(2), c=np.zeros((3, 3))
        )
        tilt = gaussian.linear_encoder_tilting(*gaussian.recover_encoders(q), "l2_distance", 1.0)
        np.testing.assert_allclose(tilt.a, q.a, atol=1e-10)
        np.testing.assert_allclose(tilt.b, q.b, atol=1e-10)


class TestTrainedTiltOracle:
    @pytest.mark.parametrize(
        "variant, inner_product",
        [
            ("clip", "minimizer_cond"),
            ("cond", "minimizer_cond"),
            ("joint", "minimizer_joint"),
            ("cond_mmd", None),
            ("joint_mmd", None),
        ],
    )
    @pytest.mark.parametrize("tilting", ["inner_product", "l2_distance"])
    def test_table(self, variant, inner_product, tilting):
        kernel = Kernel("gaussian") if variant.endswith("mmd") else None
        oracle = gaussian.trained_tilt_oracle(LossKind(variant, kernel=kernel), tilting)
        want = inner_product if tilting == "inner_product" else None
        assert (None if oracle is None else oracle.__name__) == want
        if oracle is not None:
            assert oracle is getattr(gaussian, want)


class TestEmpiricalBlocks:
    def test_consistency(self):
        from tiltlab import datagen

        g = random_blocks(44, 2, 2)
        data = datagen.sample_block_gaussian(g, 60_000, SeededRng(44))
        emp = gaussian.empirical_block_gaussian(data)
        np.testing.assert_allclose(emp.c_uu, g.c_uu, rtol=0.05, atol=0.02)
        np.testing.assert_allclose(emp.c_uv, g.c_uv, rtol=0.05, atol=0.02)
        np.testing.assert_allclose(emp.c_vv, g.c_vv, rtol=0.05, atol=0.02)

    def test_tuple_input(self):
        rng = SeededRng(45)
        u = rng.split(0).standard_normal((100, 2))
        v = rng.split(1).standard_normal((100, 3))
        emp = gaussian.empirical_block_gaussian((u, v))
        assert emp.n_x == 2 and emp.n_y == 3

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            gaussian.empirical_block_gaussian(
                (np.zeros((3, 2)), np.zeros((3, 2)))
            )
