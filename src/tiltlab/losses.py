"""Empirical losses over score matrices, with exact score gradients.

Index convention throughout: s[i][j] is the tilting score of (u^i, v^j), so
column i collects every u candidate for the conditioning sample v^i and row
i collects every v candidate for u^i.

score_step is the one loss call of a training step. It takes one of two
paths, and both call the one value formula per loss (_clip_value,
_cond_value, _joint_value):
  the tiled kernel  clip, cond and joint while every score stays in the
                    unshifted exp range, straight from the embeddings by
                    row tiles of the score table, for both tiltings;
  _chain_step       similarity_matrix -> loss_value_and_grad ->
                    similarity_vjp on an explicit score matrix, shifts taken
                    in _axis_lse_softmax: the MMD losses, softmax-family
                    steps out of the kernel's range (reported as shifted),
                    and the oracle the kernel is tested against.

The two MMD losses keep their kernel Gram matrices separate from the score
matrix: the Grams carry no encoder dependence (training computes them on
raw data batches), so the exact parameter gradient flows through the
softmax weights alone. Each MMD loss has one private function that
returns its value and score gradient from one pass (_cond_mmd, _joint_mmd).
The joint MMD compares the paired batch with all N^2 pairings (u_i, v_j)
but never forms them: the kernel on stacked pairs is a sum of Kronecker
products of N x N Grams on u and on v (_joint_kernel_terms), so every term
is an N x N matrix product. The N^2 x N^2 product-batch form survives only
as the test oracle. loss_value_and_grad evaluates any loss on an explicit
score matrix without a training step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoders import TILTING_INNER, TILTINGS, _blas_operands, _score_range
from .encoders import similarity_matrix, similarity_vjp

KERNEL_FAMILIES = ("gaussian", "polynomial")
SOFTMAX_VARIANTS = ("clip", "cond", "joint")
LOSS_VARIANTS = (*SOFTMAX_VARIANTS, "cond_mmd", "joint_mmd")


@dataclass(frozen=True)
class Kernel:
    family: str
    bandwidth: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian" and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if self.family == "polynomial" and self.degree < 1:
            raise ValueError("degree must be at least 1")


@dataclass(frozen=True)
class LossKind:
    """variant in {clip, cond, joint, cond_mmd, joint_mmd}; lam weights apply
    to the cond variants, kernel to the mmd variants."""

    variant: str
    lam_u: float = 1.0
    lam_v: float = 1.0
    kernel: Kernel | None = None

    def __post_init__(self):
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.variant in ("cond", "cond_mmd"):
            if self.lam_u < 0 or self.lam_v < 0 or (self.lam_u == 0 and self.lam_v == 0):
                raise ValueError("lam_u, lam_v must be nonnegative and not both zero")
        if self.variant.endswith("mmd") and self.kernel is None:
            raise ValueError(f"{self.variant} requires a kernel")


def kernel_gram(k: Kernel, x, y=None) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = x if y is None else np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError("kernel inputs must share a dimension")
    if k.family == "polynomial":
        x, y = _blas_operands(x, y)
        return (x @ y.T + k.offset) ** k.degree
    return np.exp(-_sq_dists(x, y) / (2.0 * k.bandwidth**2))


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 as |x_i|^2 + |y_j|^2 - 2 x_i.y_j, clipped at 0."""
    sq = np.sum(x**2, axis=1)[:, None] + np.sum(y**2, axis=1)[None, :]
    x2, y = _blas_operands(2.0 * x, y)
    sq -= x2 @ y.T
    return np.clip(sq, 0.0, None, out=sq)


def _square_scores(s) -> np.ndarray:
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("score matrix must be 2-d")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"score matrix must be square, got {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("need a batch of at least 2")
    return arr


def _axis_lse_softmax(arr: np.ndarray, axis: int | None):
    """Shifted-exp logsumexp and softmax along one axis (or over every entry
    when axis is None) from a single exp pass. The package's one softmax:
    the losses, crossmodal.classify and the MNIST label probabilities use
    it. The softmax takes the same operations as scipy.special.softmax, so
    it gives the same bits."""
    m = np.max(arr, axis=axis, keepdims=True)
    e = np.subtract(arr, m)
    np.exp(e, out=e)
    z = np.sum(e, axis=axis, keepdims=True)
    lse = np.squeeze(m + np.log(z), axis=axis)
    e /= z
    return lse, e


def _mean(x: np.ndarray) -> float:
    # np.mean's one sum and one division, without its dispatch: the same bits
    return float(x.sum()) / x.size


# The value formulas, shared by the score-table functions below and by
# score_step. diag_mean is the mean positive score; lse_col[j] and lse_row[i]
# are the log partition sums of column j and row i, lse_neg that of a whole
# table of n_neg negative scores.


def _clip_value(diag_mean: float, lse_col: np.ndarray, lse_row: np.ndarray) -> float:
    return 0.5 * (_mean(lse_col) + _mean(lse_row)) - diag_mean


def _cond_value(
    diag_mean: float, lse_col: np.ndarray, lse_row: np.ndarray, lam_u: float, lam_v: float
) -> float:
    logn = np.log(lse_col.size)
    term_u = diag_mean - (_mean(lse_col) - logn)
    term_v = diag_mean - (_mean(lse_row) - logn)
    return -0.5 * lam_u * term_u - 0.5 * lam_v * term_v


def _joint_value(pos_mean: float, lse_neg: float, n_neg: int) -> float:
    return float(lse_neg) - np.log(n_neg) - pos_mean


def _softmax_value(kind: LossKind, n: int, diag_mean: float, lse_col, lse_row, lse_all) -> float:
    if kind.variant == "clip":
        return _clip_value(diag_mean, lse_col, lse_row)
    if kind.variant == "cond":
        return _cond_value(diag_mean, lse_col, lse_row, kind.lam_u, kind.lam_v)
    return _joint_value(diag_mean, lse_all, n * n)


def _cond_grad(p_col: np.ndarray, p_row: np.ndarray, lam_u: float, lam_v: float) -> np.ndarray:
    # consumes p_col and p_row as scratch buffers
    n = p_col.shape[0]
    if lam_u != 1.0:
        p_col *= lam_u
    if lam_v != 1.0:
        p_row *= lam_v
    p_col += p_row
    p_col[np.diag_indices(n)] -= lam_u + lam_v
    p_col /= 2.0 * n
    return p_col


def loss_clip(s) -> float:
    """Symmetric cross-entropy: -(1/2N) sum_i [log softmax over column i at
    the diagonal + log softmax over row i at the diagonal]."""
    arr = _square_scores(s)
    lse_col, _ = _axis_lse_softmax(arr, 0)
    lse_row, _ = _axis_lse_softmax(arr, 1)
    return _clip_value(_mean(np.diag(arr)), lse_col, lse_row)


def loss_cond(s, lam_u: float, lam_v: float) -> float:
    """Weighted conditional loss; equals loss_clip - log N at (1, 1)."""
    arr = _square_scores(s)
    lse_col, _ = _axis_lse_softmax(arr, 0)
    lse_row, _ = _axis_lse_softmax(arr, 1)
    return _cond_value(_mean(np.diag(arr)), lse_col, lse_row, lam_u, lam_v)


def mmd_unbiased(x, y, k: Kernel) -> float:
    """Unbiased squared MMD with the i != j exclusion on all three terms
    (cross term included), which requires equally sized samples."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] != y.shape[0]:
        raise ValueError("the estimator requires equally sized samples")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples per set")
    kxx = kernel_gram(k, x)
    kyy = kernel_gram(k, y)
    kxy = kernel_gram(k, x, y)
    c = 1.0 / (n * (n - 1))

    def off_diag_sum(m):
        return float(m.sum() - np.trace(m))

    return c * off_diag_sum(kxx) - 2.0 * c * off_diag_sum(kxy) + c * off_diag_sum(kyy)


def _cond_mmd_side(k_gram: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """One conditional-MMD side from a Gram matrix and column-stochastic
    weights w[j, i] (weight of candidate j for conditioning sample i): its
    value and its gradient with respect to w.

    Self term: (1/(N-1)) [Tr(W^T K W) - sum_{j,i} K_jj W_ji^2]; cross term:
    (1/(N-1)) [Tr(K W) - sum_i K_ii W_ii]. Uniform weights reduce both to
    the plain unbiased kernel means. Value is self/2 - cross.
    """
    n = k_gram.shape[0]
    kw = k_gram @ w
    kdiag = np.diag(k_gram)
    s_term = (np.sum(w * kw) - np.sum(kdiag[:, None] * w**2)) / (n - 1)
    x_term = (np.einsum("ij,ji->", k_gram, w) - np.sum(kdiag * np.diag(w))) / (n - 1)
    d_self = (kw - kdiag[:, None] * w) / (n - 1)
    d_cross = k_gram.T / (n - 1)
    np.fill_diagonal(d_cross, 0.0)
    return 0.5 * float(s_term) - float(x_term), d_self - d_cross


def _softmax_col_vjp(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # per-column softmax Jacobian transpose applied to dw
    return w * (dw - np.sum(dw * w, axis=0, keepdims=True))


def _cond_mmd(s, k_u, k_v, lam_u: float, lam_v: float) -> tuple[float, np.ndarray]:
    """Conditional MMD loss and its score gradient, from one softmax and one
    K @ W per side.

    The u side weights each u candidate by the column softmax of s (given
    v^i); the v side mirrors with the row softmax. The Grams are treated as
    score-independent, so the gradient is exact. A side of weight 0 reads
    no Gram, so its Gram may be None.
    """
    arr = _square_scores(s)
    val = 0.0
    g = np.zeros_like(arr)
    if lam_u:
        w = _axis_lse_softmax(arr, 0)[1]
        side, dw = _cond_mmd_side(k_u, w)
        val += lam_u * side
        g += lam_u * _softmax_col_vjp(w, dw)
    if lam_v:
        w = _axis_lse_softmax(arr.T, 0)[1]
        side, dw = _cond_mmd_side(k_v, w)
        val += lam_v * side
        g += lam_v * _softmax_col_vjp(w, dw).T
    return float(val), g


def _joint_kernel_terms(k: Kernel, u: np.ndarray, v: np.ndarray):
    """The kernel on stacked pairs (u, v) as sum_j c_j A_j (x) B_j with N x N
    Grams A_j on u and B_j on v: one term k(u, u') k(v, v') for the Gaussian,
    and for the polynomial the binomial expansion of (u.u' + (v.v' + c))^d."""
    if k.family == "gaussian":
        return [(1.0, kernel_gram(k, u), kernel_gram(k, v))]
    pu, pv = _blas_operands(u, u)[0], _blas_operands(v, v)[0]
    uu = pu @ pu.T
    vv = pv @ pv.T + k.offset
    return [(math.comb(k.degree, j), uu**j, vv ** (k.degree - j)) for j in range(k.degree + 1)]


def _joint_mmd(u, v, scores, kernel: Kernel) -> tuple[float, np.ndarray]:
    """Joint MMD loss and its score gradient from N x N Grams.

    The loss is the MMD-squared surrogate between the paired batch
    z_k = (u_k, v_k) and all N^2 pairings (u_i, v_j), weighted by
    W = softmax(scores) taken over every entry of the N x N scores, with
    scores[i][j] that of (u_i, v_j):
    -2 sum_ij W_ij mean_k k(z_k, (u_i, v_j))
    + sum_{ij, i'j'} W_ij W_i'j' k((u_i, v_j), (u_i', v_j')).
    The z-z self term is weight-free and dropped. All -inf scores leave W
    undefined and raise ValueError.

    One term c (A (x) B) of the kernel contributes
    c [sum W o (A W B) - 2 sum W o (A^T B) / N] to the value and
    2c (A W B - A^T B / N) to the gradient with respect to W.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    n = u.shape[0]
    if v.shape[0] != n:
        raise ValueError("paired batches must have equal length")
    if n < 2:
        raise ValueError("need a paired batch of at least 2")
    arr = np.asarray(scores, dtype=np.float64)
    if arr.shape != (n, n):
        raise ValueError(f"one score per pairing (u_i, v_j) required, got {arr.shape}")
    if np.all(np.isneginf(arr)):
        raise ValueError("degenerate weights: all scores are -inf")
    w = _axis_lse_softmax(arr, None)[1]
    value = 0.0
    dw = np.zeros((n, n))
    for c, a, b in _joint_kernel_terms(kernel, u, v):
        awb = a @ w @ b
        cross = a.T @ b / n
        value += c * float(np.sum(w * awb) - 2.0 * np.sum(w * cross))
        dw += 2.0 * c * (awb - cross)
    return value, w * (dw - float(np.sum(dw * w)))


def loss_value_and_grad(kind: LossKind, s, u_batch=None, v_batch=None):
    """Dispatch for the training loop: loss value and the exact cotangent on
    the score matrix s.

    The joint variants take the product batch as all N^2 pairings of the
    current batch (diagonal included), so joint's negatives reuse s itself.
    The MMD variants compute kernel Grams on the raw data batches (u_batch,
    v_batch), which keeps those Grams parameter-free; cond_mmd builds a
    side's Gram only when that side's weight is non-zero.
    """
    arr = _square_scores(s)
    n = arr.shape[0]
    if kind.variant in SOFTMAX_VARIANTS:
        diag_mean = _mean(np.diag(arr))
        if kind.variant == "joint":
            lse_all, ds = _axis_lse_softmax(arr, None)
            ds[np.diag_indices(n)] -= 1.0 / n
            return _softmax_value(kind, n, diag_mean, None, None, lse_all), ds
        lse_col, p_col = _axis_lse_softmax(arr, 0)
        lse_row, p_row = _axis_lse_softmax(arr, 1)
        value = _softmax_value(kind, n, diag_mean, lse_col, lse_row, None)
        lam_u, lam_v = (kind.lam_u, kind.lam_v) if kind.variant == "cond" else (1.0, 1.0)
        return value, _cond_grad(p_col, p_row, lam_u, lam_v)
    if u_batch is None or v_batch is None:
        raise ValueError(f"{kind.variant} needs the raw data batches for its kernel")
    if kind.variant == "cond_mmd":
        k_u = kernel_gram(kind.kernel, u_batch) if kind.lam_u else None
        k_v = kernel_gram(kind.kernel, v_batch) if kind.lam_v else None
        return _cond_mmd(arr, k_u, k_v, kind.lam_u, kind.lam_v)
    return _joint_mmd(u_batch, v_batch, arr, kind.kernel)


# Rows per tile of the score table in score_step: a 128 x N tile of exps
# stays in cache while its sums and skinny contractions are taken.
SCORE_BLOCK = 128
# Largest |score| the unshifted exp takes: a whole row of such terms still
# sums without overflow for any batch that fits in memory.
EXP_LIMIT = 680.0


def _chain_step(kind: LossKind, e_u, e_v, tilting: str, tau: float, u_batch=None, v_batch=None):
    """(value, cot_u, cot_v) through the generic chain similarity_matrix ->
    loss_value_and_grad -> similarity_vjp. Overflow shows as the non-finite
    scores or gradient that training rejects, not as numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = similarity_matrix(e_u, e_v, tilting, tau)
        value, ds = loss_value_and_grad(kind, s, u_batch, v_batch)
        return (value, *similarity_vjp(e_u, e_v, tilting, tau, ds))


class _StepWorkspace:
    """The buffers of one score_step shape, refilled in place by each call
    of that shape; no result of a call aliases them. table is the whole
    N x N score table when the column softmax re-reads it, else one
    SCORE_BLOCK x N row tile that every tile of the walk reuses."""

    def __init__(self, n: int, k: int, tilting: str, need_prow: bool, need_pcol: bool):
        w = k + 1
        # [e_u, 1 | [e_u, 1] / z_row], the right-hand side of each tile's
        # column product; its first half is [e_u, 1]
        self.rhs = np.empty((n, 2 * w if need_prow else w))
        self.eu1 = self.rhs[:, :w]
        self.ev1 = np.empty((n, w))
        self.eu1[:, k] = self.ev1[:, k] = 1.0  # the ones columns, which no call writes
        # q_u = ds @ [e_v, 1] and q_v = ds.T @ [e_u, 1]
        self.q_u, self.q_v = np.empty((n, w)), np.empty((n, w))
        # the tau-scaled operands of the score table: [e_u / tau, 0] and
        # [e_v, 0] for one-column inner products (see _blas_operands), and
        # under l2_distance the bias columns [e_u / tau, -|u|^2/2tau, 1]
        # and [e_v, 1, -|v|^2/2tau]
        width = max(k, 2) if tilting == TILTING_INNER else k + 2
        self.xu = np.zeros((n, width))
        self.xv = np.zeros((n, width))
        if tilting != TILTING_INNER:
            # the constant columns, which no call writes
            self.xu[:, k + 1] = 1.0
            self.xv[:, k] = 1.0
        self.diag = np.empty(n)
        self.row_ev = np.empty((n, w))  # E @ [e_v, 1]
        # E.T @ [e_u, 1] and, beside it when needed, P_row.T @ [e_u, 1],
        # summed from each tile's product in col_tile
        self.col_acc = np.empty(self.rhs.shape)
        self.col_tile = np.empty(self.rhs.shape)
        self.scaled = np.empty((n, w))
        self.prod = np.empty((n, w))
        self.table = np.empty((n if need_pcol else min(SCORE_BLOCK, n), n))


def _weighted(x: np.ndarray, lam: float) -> np.ndarray:
    # x * lam in place; a weight of 1 changes no bit, so it takes no pass
    if lam != 1.0:
        x *= lam
    return x


def score_step(
    kind: LossKind, e_u, e_v, tilting: str, tau: float, ws: dict, u_batch=None, v_batch=None
):
    """Value and embedding cotangents of one training step's loss, taken
    straight from the embeddings; returns (value, cot_u, cot_v, shifted).

    The MMD losses go through _chain_step, which computes their kernel
    Grams on the raw data batches u_batch and v_batch; shifted is False.
    For clip, cond and joint a tiled kernel computes the same composition,
    reorganised so that no softmax matrix and no score cotangent is
    formed. The score table s = xu @ xv.T is walked in row
    tiles; each tile is exponentiated once, E = exp(s), and reduced on the
    spot by one product on each side: E @ [e_v, 1] (row sums in the last
    column), then E.T @ [e_u, 1 | [e_u, 1] / z_row], which holds the column
    sums and, for the row softmax of cond, P_row.T @ [e_u, 1] (the second
    half is left out when the row softmax has weight 0). The column softmax
    of cond needs all column sums first, so it takes one more skinny
    product over the kept table at the end. The score cotangent ds,
    contracted with [e_v, 1] and [e_u, 1], is then a combination of these
    sums, and the ones columns carry the row and column sums of ds
    that the l2_distance tilting needs. Under l2_distance the row bias
    -|u_i|^2/2tau and column bias -|v_j|^2/2tau ride in two extra columns
    of xu and xv; under inner_product one-column embeddings are padded
    with a zero column (_blas_operands) so the tiles run in BLAS.

    The exps run unshifted while every score lies in (-EXP_LIMIT,
    EXP_LIMIT). Once a tile leaves that range the step is the result of
    _chain_step, whose softmaxes shift by their maxima, and shifted is
    True. Non-finite scores raise ValueError, as in similarity_matrix,
    without numpy's overflow warnings.

    ws holds the step's buffers between calls, one _StepWorkspace per key
    (N, n_e, tilting, whether the row softmax is needed, whether the column
    softmax is needed); each call refills its operands in place instead of
    stacking new ones. A step with no column softmax (joint, and cond with
    lam_u = 0) walks one SCORE_BLOCK x N tile buffer, which stays in
    cache, instead of the N x N table.
    """
    if kind.variant not in SOFTMAX_VARIANTS:
        return (*_chain_step(kind, e_u, e_v, tilting, tau, u_batch, v_batch), False)
    if tilting not in TILTINGS:
        raise ValueError(f"unknown tilting {tilting!r}")
    e_u = np.asarray(e_u, dtype=np.float64)
    e_v = np.asarray(e_v, dtype=np.float64)
    if e_u.ndim != 2 or e_u.shape != e_v.shape or e_u.shape[0] < 2:
        raise ValueError(f"embedding shapes {e_u.shape} and {e_v.shape} must match, N >= 2")
    n, k = e_u.shape
    joint = kind.variant == "joint"
    lam_u, lam_v = (kind.lam_u, kind.lam_v) if kind.variant == "cond" else (1.0, 1.0)
    need_prow = not joint and lam_v != 0.0
    need_pcol = not joint and lam_u != 0.0
    key = (n, k, tilting, need_prow, need_pcol)
    buf = ws.get(key)
    if buf is None:
        buf = ws[key] = _StepWorkspace(*key)
    eu1, ev1, rhs, xu, xv = buf.eu1, buf.ev1, buf.rhs, buf.xu, buf.xv
    eu1[:, :k] = e_u
    ev1[:, :k] = e_v
    np.divide(e_u, tau, out=xu[:, :k])
    xv[:, :k] = e_v
    diag, row_ev, col_acc, col_tile = buf.diag, buf.row_ev, buf.col_acc, buf.col_tile
    col_acc.fill(0.0)
    col_eu = col_acc[:, : k + 1]
    prow_eu = col_acc[:, k + 1 :]
    # overflow in the squares, the score tiles or their products (and
    # inf - inf under l2_distance) leaves non-finite scores or cotangents,
    # which _score_range and training report; numpy's warnings would only
    # repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        # Cauchy-Schwarz bound on |score|, nan for nan entries; the tiles need
        # no range check below it. Rows of k entries are at most sqrt(k) max|e| long.
        if tilting == TILTING_INNER:
            bound = k * max(e_u.max(), -e_u.min()) * max(e_v.max(), -e_v.min()) / tau
        else:
            sq_u = np.sum(e_u**2, axis=1, keepdims=True)
            sq_v = np.sum(e_v**2, axis=1, keepdims=True)
            np.divide(sq_u, -2.0 * tau, out=xu[:, k : k + 1])
            np.divide(sq_v, -2.0 * tau, out=xv[:, k + 1 :])
            bound = (np.sqrt(np.max(sq_u)) + np.sqrt(np.max(sq_v))) ** 2 / (2.0 * tau)
        check_tiles = not bound < EXP_LIMIT
        for lo in range(0, n, SCORE_BLOCK):
            hi = min(lo + SCORE_BLOCK, n)
            tile = buf.table[lo:hi] if need_pcol else buf.table[: hi - lo]
            np.matmul(xu[lo:hi], xv.T, out=tile)
            if check_tiles:
                low, high = _score_range(tile)
                if not (-EXP_LIMIT < low and high < EXP_LIMIT):
                    return (*_chain_step(kind, e_u, e_v, tilting, tau), True)
            diag[lo:hi] = tile[:, lo:hi].diagonal()
            np.exp(tile, out=tile)
            np.matmul(tile, ev1, out=row_ev[lo:hi])
            if need_prow:
                np.divide(eu1[lo:hi], row_ev[lo:hi, k:], out=rhs[lo:hi, k + 1 :])
            col_acc += np.matmul(tile.T, rhs[lo:hi], out=col_tile)
    z_row = row_ev[:, k]
    z_col = col_eu[:, k]
    q_u, q_v, prod = buf.q_u, buf.q_v, buf.prod
    if joint:
        z_all = float(np.sum(z_row))
        value = _softmax_value(kind, n, _mean(diag), None, None, np.log(z_all))
        # q_u = E @ [e_v, 1] / z_all - [e_v, 1] / N, q_v likewise
        np.divide(ev1, n, out=q_u)
        np.subtract(np.divide(row_ev, z_all, out=row_ev), q_u, out=q_u)
        np.divide(eu1, n, out=q_v)
        np.subtract(np.divide(col_eu, z_all, out=col_eu), q_v, out=q_v)
    else:
        value = _softmax_value(kind, n, _mean(diag), np.log(z_col), np.log(z_row), None)
        # q_u and q_v with ds = (lam_u P_col + lam_v P_row - (lam_u + lam_v) I) / 2N
        np.multiply(ev1, -(lam_u + lam_v), out=q_u)
        if lam_u:
            np.divide(ev1, z_col[:, None], out=buf.scaled)
            q_u += _weighted(np.matmul(buf.table, buf.scaled, out=prod), lam_u)
        if lam_v:
            q_u += _weighted(np.divide(row_ev, z_row[:, None], out=prod), lam_v)
        q_u /= 2.0 * n
        np.multiply(eu1, -(lam_u + lam_v), out=q_v)
        if lam_u:
            q_v += _weighted(np.divide(col_eu, z_col[:, None], out=prod), lam_u)
        if lam_v:
            q_v += _weighted(prow_eu, lam_v)
        q_v /= 2.0 * n
    if tilting == TILTING_INNER:
        return value, q_u[:, :k] / tau, q_v[:, :k] / tau, False
    cot_u = np.multiply(q_u[:, k:], e_u)
    cot_v = np.multiply(q_v[:, k:], e_v)
    np.subtract(q_u[:, :k], cot_u, out=cot_u)
    np.subtract(q_v[:, :k], cot_v, out=cot_v)
    cot_u /= tau
    cot_v /= tau
    return value, cot_u, cot_v, False
