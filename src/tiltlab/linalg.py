"""Dense linear-algebra kernel shared by every other module.

Matrices are plain float64 numpy arrays. Symmetric positive definiteness is
always established by attempting a Cholesky factorization; eigendecompositions
are used only where square roots require them. All computation
is 64-bit and deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite
from .rng import SeededRng

SYM_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite 2-d float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def check_symmetric(m: np.ndarray, rtol: float = SYM_RTOL) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(float(np.max(np.abs(m))), 1.0)
    if float(np.max(np.abs(m - m.T))) > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def cholesky_pd(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NotPositiveDefinite on failure."""
    m = check_symmetric(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc


def solve_pd(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b for symmetric positive definite m via Cholesky."""
    chol = cholesky_pd(m)
    b = np.asarray(b, dtype=np.float64)
    y = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, y)


def inv_pd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    inv = solve_pd(m, np.eye(m.shape[0]))
    return 0.5 * (inv + inv.T)


def sym_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PD square root S with S @ S = m.

    Computed from the eigendecomposition; any eigenvalue <= 0 means the
    input was not positive definite.
    """
    m = check_symmetric(m)
    w, q = np.linalg.eigh(m)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is not positive")
    root = (q * np.sqrt(w)) @ q.T
    return 0.5 * (root + root.T)


def inv_sym_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PD inverse square root, m^{-1/2}."""
    m = check_symmetric(m)
    w, q = np.linalg.eigh(m)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is not positive")
    root = (q / np.sqrt(w)) @ q.T
    return 0.5 * (root + root.T)


def logdet_pd(m: np.ndarray) -> float:
    """Log determinant of a symmetric PD matrix via Cholesky."""
    chol = cholesky_pd(m)
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def chol_sample(mean: np.ndarray, cov: np.ndarray, n: int, rng: SeededRng) -> np.ndarray:
    """n i.i.d. Gaussian draws, rows mean + L xi with L the Cholesky factor."""
    if n < 1:
        raise ValueError("need n >= 1 draws")
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    chol = cholesky_pd(cov)
    if mean.shape[0] != chol.shape[0]:
        raise ValueError("mean length does not match covariance dimension")
    z = rng.standard_normal((int(n), mean.shape[0]))
    return mean[None, :] + rowwise_matmul(z, chol.T)


def rowwise_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y, with a one-row x on the BLAS path of a longer one. numpy sends
    a one-row product down another path, whose bits differ, so a one-row x
    is padded to two rows and row 0 kept. The Gaussian samplers use it so
    that a short draw is the head of a long one."""
    if x.shape[0] == 1:
        return (np.vstack([x, x]) @ y)[:1]
    return x @ y


def matrix_to_json(m: np.ndarray) -> dict:
    """The package's one JSON matrix format, {rows, cols, data row-major},
    used by run reports and verify's round-trip check."""
    m = as_matrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": m.ravel().tolist()}


def matrix_from_json(doc: dict) -> np.ndarray:
    """Inverse of matrix_to_json; rejects data whose length is not rows x cols."""
    rows, cols = int(doc["rows"]), int(doc["cols"])
    data = np.asarray(doc["data"], dtype=np.float64)
    if data.size != rows * cols:
        raise ValueError(f"matrix JSON promises {rows}x{cols} but carries {data.size} entries")
    return as_matrix(data.reshape(rows, cols))
