"""Closed-form Gaussian theory: conditionals, population losses as matrix
functions, and the exact minimizers of the linear and quadratic tilting
families, with optional rank constraints.

Everything here is the analytic oracle layer: trained encoders elsewhere in
the package are checked against these formulas. All Gaussians are centered.

Conventions. For a centered joint Gaussian on R^{n_x} x R^{n_y} with blocks
(C_uu, C_uv, C_vv), the true conditional of u given v is
N(C_uv C_vv^{-1} v, C_uu - C_uv C_vv^{-1} C_vu). The linear ("cosine") tilting
exp(u^T A v) produces model conditionals N(C_uu A v, C_uu); the quadratic
tilting exp(-u^T B u / 2 + u^T A v - v^T C v / 2) produces
N((B + C_uu^{-1})^{-1} A v, (B + C_uu^{-1})^{-1}), and symmetrically for v
given u. The whitened cross-covariance C_uu^{-1/2} C_uv C_vv^{-1/2} and its
SVD govern every minimizer below. All three are spectral maps of the one SVD,
_whitened_svd, with the trailing singular values dropped under a rank
budget: minimizer_cond keeps each singular value s, minimizer_joint shrinks
it to h(s) and minimizer_quadratic_onesided maps it to s / (1 - s^2).

Trained linear encoders meet these formulas through linear_encoder_tilting,
the tilting their weights define, and trained_tilt_oracle, the minimizer
that scores a (loss, tilting) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import TILTING_INNER, TILTING_L2
from .errors import DivergentNormalizer, NotPositiveDefinite
from .linalg import (
    as_matrix,
    check_symmetric,
    cholesky_pd,
    inv_pd,
    inv_sym_sqrt,
    logdet_pd,
    solve_pd,
    sym_sqrt,
)


@dataclass(frozen=True)
class BlockGaussian:
    """Centered joint Gaussian with block covariance (c_uu, c_uv, c_vv).

    The assembled covariance [[c_uu, c_uv], [c_uv^T, c_vv]] must be
    positive definite (checked by Cholesky at construction).
    """

    c_uu: np.ndarray
    c_uv: np.ndarray
    c_vv: np.ndarray

    def __post_init__(self):
        c_uu = check_symmetric(self.c_uu)
        c_vv = check_symmetric(self.c_vv)
        c_uv = as_matrix(self.c_uv)
        if c_uv.shape != (c_uu.shape[0], c_vv.shape[0]):
            raise ValueError(
                f"c_uv shape {c_uv.shape} does not bridge "
                f"{c_uu.shape[0]} x {c_vv.shape[0]}"
            )
        object.__setattr__(self, "c_uu", c_uu)
        object.__setattr__(self, "c_uv", c_uv)
        object.__setattr__(self, "c_vv", c_vv)
        cholesky_pd(self.joint())  # raises NotPositiveDefinite if degenerate

    @property
    def n_x(self) -> int:
        return self.c_uu.shape[0]

    @property
    def n_y(self) -> int:
        return self.c_vv.shape[0]

    @property
    def c_vu(self) -> np.ndarray:
        return self.c_uv.T

    def joint(self) -> np.ndarray:
        return np.block([[self.c_uu, self.c_uv], [self.c_uv.T, self.c_vv]])

    def swapped(self) -> "BlockGaussian":
        """The same joint with the roles of u and v exchanged."""
        return BlockGaussian(self.c_vv, self.c_uv.T, self.c_uu)


@dataclass(frozen=True)
class GaussianConditionalMap:
    """Linear-Gaussian conditional x -> N(gain @ x, cov)."""

    gain: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class CosineLinear:
    """Linear tilting exp(u^T a v); a is n_x x n_y."""

    a: np.ndarray


@dataclass(frozen=True)
class QuadraticTiltingParams:
    """Quadratic tilting parameters (a, b, c) with b, c symmetric PSD.

    b and c arise as Gram products G^T G and H^T H, hence the PSD invariant.
    The one-sided conditional loss never touches c; it is kept for the
    mirrored side and stored as zeros by the one-sided minimizer.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def conditional_u_given_v(g: BlockGaussian) -> GaussianConditionalMap:
    """True conditional of u given v: gain C_uv C_vv^{-1}, Schur-complement cov."""
    gain = solve_pd(g.c_vv, g.c_uv.T).T
    cov = g.c_uu - gain @ g.c_uv.T
    return GaussianConditionalMap(gain=gain, cov=0.5 * (cov + cov.T))


def cond_loss_closed(a: np.ndarray, g: BlockGaussian) -> float:
    """Population conditional loss of the linear tilting, constants dropped.

    Literal value -Tr(a C_vu) + (1/2) Tr(a^T C_uu a C_vv). The quadratic
    trace carries coefficient 1/2; the minimizer is C_uu^{-1} C_uv C_vv^{-1}.
    """
    a = _check_a(a, g)
    lin = float(np.trace(a @ g.c_vu))
    quad = float(np.trace(a.T @ g.c_uu @ a @ g.c_vv))
    return -lin + 0.5 * quad


def joint_loss_closed(a: np.ndarray, g: BlockGaussian) -> float:
    """Population joint loss of the linear tilting, constants dropped.

    -Tr(a C_vu) - (1/2) log det(I - C_vv a^T C_uu a). The determinant is
    evaluated on the congruent symmetric form I - W^T W with
    W = C_uu^{1/2} a C_vv^{1/2}, which is PD exactly when the tilted
    measure is normalizable.
    """
    a = _check_a(a, g)
    w = sym_sqrt(g.c_uu) @ a @ sym_sqrt(g.c_vv)
    inner = np.eye(g.n_y) - w.T @ w
    try:
        val = logdet_pd(0.5 * (inner + inner.T))
    except NotPositiveDefinite as exc:
        raise DivergentNormalizer(
            "joint tilting is not normalizable: I - C_vv a^T C_uu a is not PD"
        ) from exc
    return -float(np.trace(a @ g.c_vu)) - 0.5 * val


def minimizer_cond(g: BlockGaussian, r: int | None = None) -> np.ndarray:
    """Minimizer of the conditional loss for the linear tilting.

    The identity spectral map: unwhiten the whitened cross-covariance
    itself, C_uu^{-1/2} U diag(s) V^T C_vv^{-1/2}. Without a budget this is
    C_uu^{-1} C_uv C_vv^{-1}; a rank budget r keeps the r leading singular
    values, the best rank-r approximation in the whitened metric.
    """
    ru, u, s, vt, rv = _whitened_svd(g, r)
    return ru @ (u * s) @ vt @ rv


def shrinkage_h(sigma):
    """Singular-value shrinkage for the joint-loss minimizer.

    h(s) = (sqrt(1 + 4 s^2) - 1) / (2 s), the positive root of
    h^2 s + h - s = 0, extended continuously by h(0) = 0. Evaluated in the
    cancellation-free form 2 s / (1 + sqrt(1 + 4 s^2)). Accepts scalars or
    arrays with entries in [0, 1]; rejects anything outside beyond float
    round-off.
    """
    arr = np.asarray(sigma, dtype=np.float64)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-9):
        raise ValueError("shrinkage_h is defined on [0, 1]")
    clipped = np.clip(arr, 0.0, 1.0)
    out = 2.0 * clipped / (1.0 + np.sqrt(1.0 + 4.0 * clipped**2))
    return float(out) if arr.ndim == 0 else out


def minimizer_joint(g: BlockGaussian, r: int | None = None) -> np.ndarray:
    """Minimizer of the joint loss for the linear tilting.

    SVD the whitened cross-covariance, shrink each singular value through h,
    unwhiten. A rank budget drops the trailing singular values; h is
    increasing, so the kept components are exactly the leading directions.
    """
    ru, u, s, vt, rv = _whitened_svd(g, r)
    return ru @ (u * shrinkage_h(s)) @ vt @ rv


def trained_tilt_oracle(loss, tilting: str):
    """The minimizer, called as oracle(blocks, r=rank), that scores encoders
    trained with loss (a LossKind) under tilting; None if there is none here.
    Built per call, so the table holds the module's current functions."""
    oracles = {
        ("clip", TILTING_INNER): minimizer_cond,
        ("cond", TILTING_INNER): minimizer_cond,
        ("joint", TILTING_INNER): minimizer_joint,
    }
    return oracles.get((loss.variant, tilting))


def minimizer_quadratic_onesided(g: BlockGaussian, r: int | None = None) -> QuadraticTiltingParams:
    """Minimizer of the one-sided (u given v) conditional loss over the
    quadratic tilting family, with b PSD of rank at most r under a budget.

    With W~ = C_uu^{-1/2} C_uv C_vv^{-1/2} = U diag(s) V^T and every
    singular value past the r-th set to 0:

        a = C_uu^{-1/2} U diag(s / (1 - s^2)) V^T C_vv^{-1/2}
        b = C_uu^{-1/2} U diag(s^2 / (1 - s^2)) U^T C_uu^{-1/2}

    Without a budget, a = C_{u|v}^{-1} C_uv C_vv^{-1} and b = C_{u|v}^{-1}
    - C_uu^{-1}, at which the model conditional is the true one. The c block
    is unused by this loss and returned as zeros.

    Why it is the minimizer. Write X = C_uu^{1/2} b C_uu^{1/2} (PSD, rank
    <= r). Minimizing over a first, the loss is, up to constants,

        [Tr((I + X)(I - W~ W~^T)) - log det(I + X)]
            + sum_{i>r} lambda_i(W~^T (I + X) W~).

    The second term is at least sum_{i>r} s_i^2 for every X >= 0, since
    eigenvalues are monotone, with equality when X lives on span(U_r). The
    first is the Stein loss of a rank-r precision update, minimized by
    X = U_r diag(s^2 / (1 - s^2)) U_r^T, which lives there. At that b the
    optimal a, M^{1/2} (M^{1/2} C_uv C_vv^{-1/2})_r C_vv^{-1/2} with
    M = b + C_uu^{-1}, reduces to the formula above.
    """
    ru, u, s, vt, rv = _whitened_svd(g, r)
    one_minus_s2 = (1.0 - s) * (1.0 + s)  # no cancellation as s nears 1
    a = ru @ (u * (s / one_minus_s2)) @ vt @ rv
    k = ru @ u
    b = (k * (s * s / one_minus_s2)) @ k.T
    return QuadraticTiltingParams(a=a, b=0.5 * (b + b.T), c=np.zeros((g.n_y, g.n_y)))


def model_conditional(tilting, side: str, g: BlockGaussian) -> GaussianConditionalMap:
    """Model conditional induced by a tilting of the product of marginals.

    side is "u_given_v" or "v_given_u". Linear tilting: gain C_uu a (resp.
    C_vv a^T), covariance the corresponding marginal. Quadratic tilting:
    gain (b + C_uu^{-1})^{-1} a with matching covariance (resp. the
    mirrored c-block form).
    """
    if side not in ("u_given_v", "v_given_u"):
        raise ValueError(f"unknown side {side!r}")
    if not isinstance(tilting, (CosineLinear, QuadraticTiltingParams)):
        raise TypeError(f"unsupported tilting {type(tilting).__name__}")
    a = _check_a(tilting.a, g)
    c_own, gain_a = (g.c_uu, a) if side == "u_given_v" else (g.c_vv, a.T)
    if isinstance(tilting, CosineLinear):
        return GaussianConditionalMap(gain=c_own @ gain_a, cov=c_own.copy())
    prec = check_symmetric(tilting.b if side == "u_given_v" else tilting.c) + inv_pd(c_own)
    cov = inv_pd(0.5 * (prec + prec.T))
    return GaussianConditionalMap(gain=cov @ gain_a, cov=cov)


def model_marginal_u(a: np.ndarray, g: BlockGaussian) -> np.ndarray:
    """Marginal covariance of u under the linear-tilting model joint: the u
    block of model_joint, (C_uu^{-1} - a C_vv a^T)^{-1}. Raises
    DivergentNormalizer when C_vv^{-1} - a^T C_uu a, the Schur complement
    of the block precision, is not PD (the joint normalizer's condition).
    """
    return model_joint(CosineLinear(a), g)[: g.n_x, : g.n_x]


def model_joint(tilting, g: BlockGaussian) -> np.ndarray:
    """Covariance of the tilted model joint on R^{n_x + n_y}.

    Inverse of the block precision [[b + C_uu^{-1}, -a], [-a^T, c + C_vv^{-1}]]
    (b = c = 0 for the linear tilting). Raises DivergentNormalizer when the
    precision is not PD, i.e. the tilted measure has no normalizer.
    """
    if isinstance(tilting, CosineLinear):
        a, b, c = tilting.a, np.zeros((g.n_x, g.n_x)), np.zeros((g.n_y, g.n_y))
    elif isinstance(tilting, QuadraticTiltingParams):
        a, b, c = tilting.a, check_symmetric(tilting.b), check_symmetric(tilting.c)
    else:
        raise TypeError(f"unsupported tilting {type(tilting).__name__}")
    a = _check_a(a, g)
    prec = np.block([[b + inv_pd(g.c_uu), -a], [-a.T, c + inv_pd(g.c_vv)]])
    prec = 0.5 * (prec + prec.T)
    try:
        return inv_pd(prec)
    except NotPositiveDefinite as exc:
        raise DivergentNormalizer("tilted joint is not normalizable") from exc


def kl_gaussians(m1, c1, m2, c2) -> float:
    """KL divergence from N(m1, c1) to N(m2, c2)."""
    c1 = check_symmetric(c1)
    c2 = check_symmetric(c2)
    if c1.shape != c2.shape:
        raise ValueError("covariances must share a dimension")
    m1 = np.asarray(m1, dtype=np.float64).reshape(-1)
    m2 = np.asarray(m2, dtype=np.float64).reshape(-1)
    d = c1.shape[0]
    if m1.shape[0] != d or m2.shape[0] != d:
        raise ValueError("mean lengths must match covariance dimension")
    cholesky_pd(c1)
    trace = float(np.trace(solve_pd(c2, c1)))
    diff = m2 - m1
    maha = float(diff @ solve_pd(c2, diff))
    return 0.5 * (trace - d + logdet_pd(c2) - logdet_pd(c1) + maha)


def exp_quadratic_expectation(m, lam, b, c) -> float:
    """E[exp(z^T b z / 2 + c^T z)] for z ~ N(m, lam), in closed form.

    Equals |I - lam b|^{-1/2} exp[(c + lam^{-1} m)^T (lam^{-1} - b)^{-1}
    (c + lam^{-1} m) / 2 - m^T lam^{-1} m / 2], defined whenever
    lam^{-1} - b is PD. Completing the square puts a 1/2 on the final mean
    term; with b = 0 and c = 0 the value is exactly 1 for every mean.
    Serves as the Monte Carlo oracle for tilted-measure normalizers.
    """
    lam = check_symmetric(lam)
    b = check_symmetric(b) if np.ndim(b) == 2 else check_symmetric(np.atleast_2d(b))
    if b.shape != lam.shape:
        raise ValueError("b must match the covariance dimension")
    m = np.asarray(m, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    d = lam.shape[0]
    if m.shape[0] != d or c.shape[0] != d:
        raise ValueError("mean and linear term must match the covariance dimension")
    prec_minus_b = inv_pd(lam) - b
    prec_minus_b = 0.5 * (prec_minus_b + prec_minus_b.T)
    try:
        logdet_inner = logdet_pd(prec_minus_b)
    except NotPositiveDefinite as exc:
        raise DivergentNormalizer("lam^{-1} - b is not PD; expectation diverges") from exc
    # log|I - lam b| = log|lam| + log|lam^{-1} - b|
    log_norm = -0.5 * (logdet_pd(lam) + logdet_inner)
    t = c + solve_pd(lam, m)
    quad = 0.5 * float(t @ solve_pd(prec_minus_b, t))
    mean_term = 0.5 * float(m @ solve_pd(lam, m))
    return float(np.exp(log_norm + quad - mean_term))


def linear_encoder_tilting(g_mat, h_mat, tilting: str, tau: float):
    """The tilting of linear encoders u -> G u, v -> H v at temperature tau,
    the inverse of recover_encoders: (Gu).(Hv)/tau = u^T a v, a = G^T H/tau;
    -|Gu - Hv|^2/2tau = u^T a v - u^T b u/2 - v^T c v/2, b = G^T G/tau, c = H^T H/tau."""
    a = g_mat.T @ h_mat / tau
    if tilting == TILTING_INNER:
        return CosineLinear(a)
    if tilting == TILTING_L2:
        return QuadraticTiltingParams(a=a, b=g_mat.T @ g_mat / tau, c=h_mat.T @ h_mat / tau)
    raise ValueError(f"unknown tilting {tilting!r}")


def recover_encoders(q: QuadraticTiltingParams) -> tuple[np.ndarray, np.ndarray]:
    """Recover encoder matrices (G, H) from quadratic tilting parameters;
    the inverse of linear_encoder_tilting under l2_distance at tau = 1.

    G is the PD square root of b; H solves G^T H = a. Requires b strictly
    PD and n_x <= n_y (square G of full dimension).
    """
    a = as_matrix(q.a)
    if a.shape[0] > a.shape[1]:
        raise ValueError("recovery requires n_x <= n_y")
    g_mat = sym_sqrt(q.b)
    h_mat = np.linalg.solve(g_mat, a)  # G symmetric, so G^T H = G H = a
    return g_mat, h_mat


def empirical_block_gaussian(data) -> BlockGaussian:
    """Plug-in covariance blocks from centered sample second moments.

    Accepts a PairedDataset or any object with u and v sample matrices
    (alternatively a (u, v) tuple). Requires N >= n_x + n_y + 1 so the
    joint plug-in covariance can be nondegenerate; degeneracy surfaces as
    NotPositiveDefinite from the BlockGaussian constructor.
    """
    if hasattr(data, "u") and hasattr(data, "v"):
        u, v = data.u, data.v
    else:
        u, v = data
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape[0] != v.shape[0]:
        raise ValueError("u and v must have the same number of rows")
    n = u.shape[0]
    if n < u.shape[1] + v.shape[1] + 1:
        raise ValueError(
            f"need at least n_x + n_y + 1 = {u.shape[1] + v.shape[1] + 1} samples, got {n}"
        )
    uc = u - u.mean(axis=0, keepdims=True)
    vc = v - v.mean(axis=0, keepdims=True)
    c_uu = uc.T @ uc / n
    c_vv = vc.T @ vc / n
    c_uv = uc.T @ vc / n
    return BlockGaussian(0.5 * (c_uu + c_uu.T), c_uv, 0.5 * (c_vv + c_vv.T))


def _check_a(a, g: BlockGaussian) -> np.ndarray:
    a = as_matrix(a)
    if a.shape != (g.n_x, g.n_y):
        raise ValueError(f"tilting matrix shape {a.shape}, expected {(g.n_x, g.n_y)}")
    return a


def _whitened_svd(g: BlockGaussian, r: int | None):
    """(C_uu^{-1/2}, U, s, V^T, C_vv^{-1/2}), U diag(s) V^T the thin SVD of the
    whitened cross-covariance C_uu^{-1/2} C_uv C_vv^{-1/2} with every singular
    value past the r-th zeroed."""
    ru, rv = inv_sym_sqrt(g.c_uu), inv_sym_sqrt(g.c_vv)
    u, s, vt = np.linalg.svd(ru @ g.c_uv @ rv, full_matrices=False)
    if r is not None:
        s = np.where(np.arange(s.size) < _check_rank(r, g), s, 0.0)
    return ru, u, s, vt, rv


def _check_rank(r: int, g: BlockGaussian) -> int:
    r = int(r)
    cap = min(g.n_x, g.n_y)
    if not 0 <= r <= cap:
        raise ValueError(f"rank {r} out of range [0, {cap}]")
    return r
