import numpy as np
import pytest

from tiltlab import linalg
from tiltlab.errors import NotPositiveDefinite
from tiltlab.rng import SeededRng


def random_pd(n, seed, jitter=0.5):
    rng = SeededRng(seed)
    base = rng.standard_normal((n, n + 2))
    return base @ base.T / (n + 2) + jitter * np.eye(n)


class TestSymmetryChecks:
    def test_accepts_symmetric(self):
        m = random_pd(4, 0)
        out = linalg.check_symmetric(m)
        np.testing.assert_array_equal(out, out.T)

    def test_rejects_asymmetric(self):
        m = random_pd(3, 1)
        m[0, 1] += 1e-6
        with pytest.raises(ValueError):
            linalg.check_symmetric(m)

    def test_roundoff_asymmetry_passes_through(self):
        # within tolerance the input is returned as-is, not symmetrized
        m = random_pd(3, 2)
        m[0, 1] += 1e-15
        out = linalg.check_symmetric(m)
        np.testing.assert_array_equal(out, m)


class TestCholeskyAndSolve:
    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_solve_matches_inv(self):
        m = random_pd(5, 3)
        b = SeededRng(4).standard_normal((5, 2))
        x = linalg.solve_pd(m, b)
        np.testing.assert_allclose(m @ x, b, atol=1e-12)

    def test_inv_pd(self):
        m = random_pd(4, 5)
        np.testing.assert_allclose(linalg.inv_pd(m) @ m, np.eye(4), atol=1e-11)

    def test_logdet_matches_slogdet(self):
        m = random_pd(6, 6)
        sign, ld = np.linalg.slogdet(m)
        assert sign > 0
        assert abs(linalg.logdet_pd(m) - ld) < 1e-11


class TestMatrixSqrt:
    def test_sqrt_squares_back(self):
        for seed in range(5):
            m = random_pd(4, seed)
            s = linalg.sym_sqrt(m)
            np.testing.assert_allclose(s @ s, m, atol=1e-11)
            np.testing.assert_array_equal(s, s.T)

    def test_inv_sqrt(self):
        m = random_pd(4, 7)
        r = linalg.inv_sym_sqrt(m)
        np.testing.assert_allclose(r @ m @ r, np.eye(4), atol=1e-11)

    def test_sqrt_of_identity(self):
        np.testing.assert_allclose(linalg.sym_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


class TestCholSample:
    def test_moments(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        x = linalg.chol_sample(mean, cov, 200_000, SeededRng(14))
        np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(np.cov(x.T, bias=True), cov, atol=0.03)

    def test_deterministic(self):
        a = linalg.chol_sample(np.zeros(2), np.eye(2), 10, SeededRng(15))
        b = linalg.chol_sample(np.zeros(2), np.eye(2), 10, SeededRng(15))
        np.testing.assert_array_equal(a, b)


class TestMatrixJson:
    def test_round_trip_exact(self):
        m = SeededRng(16).standard_normal((3, 7))
        doc = linalg.matrix_to_json(m)
        assert doc["rows"] == 3 and doc["cols"] == 7
        back = linalg.matrix_from_json(doc)
        np.testing.assert_array_equal(back, m)

    def test_row_major_layout(self):
        doc = linalg.matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert doc["data"] == [1.0, 2.0, 3.0, 4.0]

    def test_json_rejects_wrong_data_length(self):
        doc = linalg.matrix_to_json(np.eye(2))
        doc["data"].pop()
        with pytest.raises(ValueError, match="promises 2x2 but carries 3"):
            linalg.matrix_from_json(doc)
