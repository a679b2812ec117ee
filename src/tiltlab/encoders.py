"""Encoder families, tilting similarity matrices, and exact VJPs.

Three families. linear and mlp are one dense chain: layer i maps x to
W_i x + b_i and every layer but the last applies the activation (relu or
tanh); linear is one layer without a bias. frozen_table is an index lookup:
row i of a fixed embedding table, which lives in the parameter vector but is
never updated by training. A label side is the identity table,
params_from_table(frozen_table_spec(K, K), np.eye(K)).

All parameters travel as one flat float64 vector next to a per-layer shape
table, so the optimizer is family-agnostic. One private forward pass checks
the batch and the parameters, runs the layers and normalizes rows through
_unit_rows (the package's one row normalizer). encode_with_vjp returns its
embeddings together with a pullback that reuses it and writes each layer's
gradient into its block of one flat vector: the exact gradient of
<cotangent, e>, including the row-normalization Jacobian when the spec asks
for unit rows. encode and encode_vjp are its two halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroNormRow
from .rng import SeededRng

FAMILIES = ("linear", "mlp", "frozen_table")
ACTIVATIONS = ("relu", "tanh")
TILTING_INNER = "inner_product"
TILTING_L2 = "l2_distance"
TILTINGS = (TILTING_INNER, TILTING_L2)


@dataclass(frozen=True)
class EncoderSpec:
    """Architecture description. dims is family-dependent:

    linear: (n_in, n_e); mlp: full layer size chain (n_in, ..., n_e);
    frozen_table: (n_items, n_e).
    """

    family: str
    dims: tuple[int, ...]
    activation: str | None = None
    normalized: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown encoder family {self.family!r}")
        dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in dims):
            raise ValueError(f"layer sizes must be positive, got {dims}")
        if self.family == "mlp":
            if len(dims) < 2:
                raise ValueError("mlp needs at least input and output sizes")
            if self.activation not in ACTIVATIONS:
                raise ValueError(f"mlp activation must be one of {ACTIVATIONS}")
        else:
            if len(dims) != 2:
                raise ValueError(f"{self.family} takes 2 dims, got {len(dims)}")
            if self.activation is not None:
                raise ValueError(f"{self.family} takes no activation")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_shape_table", self._build_shape_table())

    @property
    def n_in(self) -> int:
        if self.family == "frozen_table":
            return 1  # a single index column
        return self.dims[0]

    @property
    def n_e(self) -> int:
        return self.dims[-1]

    @property
    def trainable(self) -> bool:
        return self.family != "frozen_table"

    def shape_table(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape) of each parameter block, in flat-vector order. The
        dense chain has layer i's weight w{i} of shape (dims[i+1], dims[i]),
        then its bias b{i} unless the family is linear. Built once per spec."""
        return self._shape_table

    def _build_shape_table(self):
        if self.family == "frozen_table":
            return (("table", self.dims),)
        table = []
        for i, (n_in, n_out) in enumerate(zip(self.dims, self.dims[1:])):
            table.append((f"w{i}", (n_out, n_in)))
            if self.family != "linear":
                table.append((f"b{i}", (n_out,)))
        return tuple(table)

    def n_params(self) -> int:
        return sum(math.prod(shape) for _, shape in self.shape_table())


def linear_spec(n_in: int, n_e: int, normalized: bool = False) -> EncoderSpec:
    return EncoderSpec("linear", (n_in, n_e), normalized=normalized)


def mlp_spec(layer_sizes, activation: str = "relu", normalized: bool = False) -> EncoderSpec:
    return EncoderSpec("mlp", tuple(layer_sizes), activation=activation, normalized=normalized)


def frozen_table_spec(n_items: int, n_e: int, normalized: bool = False) -> EncoderSpec:
    return EncoderSpec("frozen_table", (n_items, n_e), normalized=normalized)


@dataclass(frozen=True)
class EncoderParams:
    """Flat parameter vector plus the shape table it factors through."""

    theta: np.ndarray
    shapes: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        total = sum(math.prod(s) for _, s in self.shapes)
        if theta.size != total:
            raise ValueError(f"parameter vector length {theta.size}, shapes need {total}")
        if theta.size and not np.all(np.isfinite(theta)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "shapes", tuple((n, tuple(s)) for n, s in self.shapes))

    @classmethod
    def _view(cls, theta: np.ndarray, shapes) -> "EncoderParams":
        """Wrap a flat float64 vector without the constructor's checks: for
        training, whose Adam update already rejects a non-finite vector and
        whose slices match their spec's shape table by construction."""
        params = object.__new__(cls)
        object.__setattr__(params, "theta", theta)
        object.__setattr__(params, "shapes", shapes)
        return params

    def unflatten(self) -> dict[str, np.ndarray]:
        return _blocks(self.theta, self.shapes)


def _blocks(flat: np.ndarray, shapes) -> dict[str, np.ndarray]:
    """Named views into a flat vector, one per shape-table entry; writing
    to a view writes to the vector."""
    out = {}
    offset = 0
    for name, shape in shapes:
        size = math.prod(shape)
        out[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return out


def init_params(spec: EncoderSpec, rng: SeededRng) -> EncoderParams:
    """Per-layer uniform init: layer i's weight, then its bias, drawn on
    [-1/sqrt(n), 1/sqrt(n)] with n = spec.dims[i], the layer's fan-in.

    frozen_table has no sensible random default (its rows are prescribed
    embeddings); build it with params_from_table instead.
    """
    if spec.family == "frozen_table":
        raise ValueError("frozen_table rows are prescribed; use params_from_table")
    theta = np.empty(spec.n_params())
    blocks = _blocks(theta, spec.shape_table())
    for layer in range(len(spec.dims) - 1):
        bound = 1.0 / np.sqrt(spec.dims[layer])
        for name in (f"w{layer}", f"b{layer}"):
            if name in blocks:
                blocks[name][...] = rng.uniform(-bound, bound, blocks[name].shape)
    return EncoderParams(theta, spec.shape_table())


def params_from_table(spec: EncoderSpec, rows) -> EncoderParams:
    if spec.family != "frozen_table":
        raise ValueError("params_from_table only applies to frozen_table specs")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != spec.dims:
        raise ValueError(f"table shape {rows.shape}, spec wants {spec.dims}")
    return EncoderParams(rows.ravel(), spec.shape_table())


def _indices(batch: np.ndarray, limit: int) -> np.ndarray:
    idx = batch[:, 0]
    rounded = np.round(idx)
    if not np.all(np.abs(idx - rounded) < 1e-9):
        raise ValueError("frozen_table batch entries must be integral indices")
    idx = rounded.astype(np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise ValueError(f"index out of range [0, {limit})")
    return idx


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and their norms; a zero row raises."""
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroNormRow(f"cannot normalize zero embedding at row {zero[0]}")
    return x / norms[:, None], norms


def _forward(spec: EncoderSpec, params: EncoderParams, batch):
    """Check the batch and the parameters, run the layers and normalize rows
    when the spec asks. Returns (embeddings, what the backward pass needs,
    row norms or None)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch[:, None]
    if batch.ndim != 2 or batch.shape[1] != spec.n_in:
        raise ValueError(f"batch shape {batch.shape}, spec wants (N, {spec.n_in})")
    if params.shapes != spec.shape_table():
        raise ValueError("params do not belong to this spec")
    weights = params.unflatten()
    if spec.family == "frozen_table":
        cache = _indices(batch, spec.dims[0])
        out = weights["table"][cache]
    else:
        # the dense chain; cache each layer's input and weight
        out, cache = batch, []
        for i in range(len(spec.dims) - 1):
            if i:
                out = np.maximum(out, 0.0) if spec.activation == "relu" else np.tanh(out)
            cache.append((out, weights[f"w{i}"]))
            out = out @ weights[f"w{i}"].T
            if f"b{i}" in weights:
                out += weights[f"b{i}"]
    norms = None
    if spec.normalized:
        out, norms = _unit_rows(out)
    return out, cache, norms


def encode_with_vjp(spec: EncoderSpec, params: EncoderParams, batch):
    """Embed a batch once; returns (e, vjp) where vjp(cotangent) is the
    gradient of <cotangent, e> with respect to the flat parameter vector.

    The pullback reuses the forward pass and writes the gradient into out
    when given (a float64 vector of the parameter count, which training
    passes as its slice of one gradient buffer), else into a new vector.
    frozen_table gets the true table gradient (scatter-added over rows);
    callers that treat the table as frozen simply never apply it.
    """
    e, cache, norms = _forward(spec, params, batch)

    def vjp(cotangent, out=None) -> np.ndarray:
        cot = np.asarray(cotangent, dtype=np.float64)
        if cot.shape != e.shape:
            raise ValueError(f"cotangent shape {cot.shape}, expected {e.shape}")
        grad = np.empty(params.theta.size) if out is None else out
        if norms is not None:
            cot = (cot - e * np.sum(cot * e, axis=1, keepdims=True)) / norms[:, None]
        if spec.family == "frozen_table":
            grad.fill(0.0)
            np.add.at(grad.reshape(spec.dims), cache, cot)
            return grad
        blocks = _blocks(grad, params.shapes)
        delta = cot
        for i in reversed(range(len(cache))):
            x_in, w = cache[i]
            np.matmul(delta.T, x_in, out=blocks[f"w{i}"])
            if f"b{i}" in blocks:
                delta.sum(axis=0, out=blocks[f"b{i}"])
            if i:
                # x_in is the previous layer's activation output, which
                # gives its derivative: relu' = [x > 0], tanh' = 1 - x^2
                delta = delta @ w
                delta *= (x_in > 0.0) if spec.activation == "relu" else 1.0 - x_in**2
        return grad

    return e, vjp


def encode(spec: EncoderSpec, params: EncoderParams, batch) -> np.ndarray:
    """Embed a batch; rows are g(batch_i). Normalizes rows when asked."""
    return encode_with_vjp(spec, params, batch)[0]


def encode_vjp(spec: EncoderSpec, params: EncoderParams, batch, cotangent) -> np.ndarray:
    """Gradient of <cotangent, encode(spec, params, batch)> wrt the flat params."""
    return encode_with_vjp(spec, params, batch)[1](cotangent)


def similarity_matrix(e_u, e_v, tilting: str, tau: float) -> np.ndarray:
    """Square score matrix s[i][j] = score(u_i, v_j) under a tilting.
    inner_product: <e_u_i, e_v_j>/tau; l2_distance: -|e_u_i - e_v_j|^2 / (2 tau).
    One-column embeddings are padded (_blas_operands) so the product runs in
    BLAS."""
    if tilting not in TILTINGS:
        raise ValueError(f"unknown tilting {tilting!r}")
    if not tau > 0:
        raise ValueError("tau must be positive")
    e_u = np.asarray(e_u, dtype=np.float64)
    e_v = np.asarray(e_v, dtype=np.float64)
    if e_u.ndim != 2 or e_v.ndim != 2 or e_u.shape != e_v.shape:
        raise ValueError(f"embedding shapes {e_u.shape} and {e_v.shape} must match")
    if tilting == TILTING_INNER:
        x, y = _blas_operands(e_u, e_v)
        s = x @ y.T
        if tau != 1.0:
            s /= tau
    else:
        sq_u = np.sum(e_u**2, axis=1)[:, None]
        sq_v = np.sum(e_v**2, axis=1)[None, :]
        x, y = _blas_operands(2.0 * e_u, e_v)
        s = -(sq_u + sq_v - x @ y.T) / (2.0 * tau)
    _score_range(s)
    return s


def _score_range(scores: np.ndarray) -> tuple[float, float]:
    # nan propagates through min/max, so two scalar reductions cover the
    # full finiteness check without materializing a boolean mask
    low, high = float(np.min(scores)), float(np.max(scores))
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("non-finite similarity scores")
    return low, high


def _blas_operands(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operands for x @ y.T that numpy's matmul sends to BLAS. It runs a
    one-column inner dimension in its own loop, several times slower than a
    gemm, so one-column operands each get a zero column appended: every entry
    is still the one rounded product x_i y_j, plus an exact zero. Operands
    with two or more columns come back unchanged."""
    if x.shape[1] != 1:
        return x, y
    return np.hstack([x, np.zeros_like(x)]), np.hstack([y, np.zeros_like(y)])


def similarity_vjp(e_u, e_v, tilting: str, tau: float, ds) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate a score-matrix cotangent ds to embedding cotangents."""
    if tilting not in TILTINGS:
        raise ValueError(f"unknown tilting {tilting!r}")
    e_u = np.asarray(e_u, dtype=np.float64)
    e_v = np.asarray(e_v, dtype=np.float64)
    ds = np.asarray(ds, dtype=np.float64)
    if ds.shape != (e_u.shape[0], e_v.shape[0]):
        raise ValueError("cotangent shape does not match the score matrix")
    if tilting == TILTING_INNER:
        return ds @ e_v / tau, ds.T @ e_u / tau
    row = ds.sum(axis=1)[:, None]
    col = ds.sum(axis=0)[:, None]
    cot_u = -(row * e_u - ds @ e_v) / tau
    cot_v = -(col * e_v - ds.T @ e_u) / tau
    return cot_u, cot_v

