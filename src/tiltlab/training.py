"""Deterministic minibatch Adam training for encoder pairs.

The loop is a pure function of (config, data, initial parameters): epoch
shuffles come from a counter-based stream keyed by (0, epoch) under the
config seed, batches are consecutive slices of the shuffled index list, and
each step backpropagates the chosen loss through the tilting scores into
both encoders. Each side runs its forward pass once per step
(encoders.encode_with_vjp) and its gradient reuses that pass. Specs without
trainable parameters (frozen_table) pass through untouched.

adam_step is the package's one Adam update and train its one loop;
fine-tuning a label head is a train call (see crossmodal). adam_step keeps
its moments in preallocated buffers that it updates in place, walking them
in slices of ADAM_CHUNK entries through chunk-sized scratch, and its betas
and epsilon are the module constants ADAM_BETAS and ADAM_EPS. train keeps
the trainable parameters of both encoders in one flat vector with one
AdamState for the pair: each pullback writes into its slice of one reused
gradient buffer, one adam_step per step updates both sides (Adam is
elementwise, so the bits are those of one update per side), and each
side's EncoderParams is a view into the new vector.

A step makes one loss call, losses.score_step, whatever the variant;
losses alone decides which path computes it. A step whose scores leave the
unshifted exp range of its tiled kernel is counted per epoch in
TrainHistory.shifted_steps. Non-finite scores raise ValueError, and a
non-finite gradient, Adam moment or parameter raises NonFiniteGradient;
either names the epoch and step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .encoders import EncoderParams, EncoderSpec, TILTINGS, encode_with_vjp
from .errors import NonFiniteGradient
from .losses import LossKind, score_step
from .rng import SeededRng

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# entries per slice of adam_step's pass, and the length of its scratch
ADAM_CHUNK = 16384


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    epochs: int
    batch_size: int
    learning_rate: float
    tau: float
    loss: LossKind
    tilting: str

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.tilting not in TILTINGS:
            raise ValueError(f"unknown tilting {self.tilting!r}")


@dataclass
class TrainHistory:
    """Per-epoch mean loss, caller-supplied metrics, wall-clock seconds, and
    the number of steps whose scores left the unshifted exp range of
    losses.score_step's tiled kernel (zero for the MMD losses, which never
    take it)."""

    losses: list[float] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    shifted_steps: list[int] = field(default_factory=list)

    def table(self) -> tuple[list, list]:
        """(header, rows): epoch, loss, then the sorted metric keys, blank
        where an epoch lacks a metric. Wall-clock stays out so identical
        runs emit identical bytes."""
        keys = sorted({k for m in self.metrics for k in m})
        rows = [
            [epoch, float(loss), *(float(met[k]) if k in met else "" for k in keys)]
            for epoch, (loss, met) in enumerate(zip(self.losses, self.metrics))
        ]
        return ["epoch", "loss", *keys], rows


@dataclass
class AdamState:
    """Adam's moments and step count, plus two chunk-sized scratch vectors;
    adam_step updates all of them in place, so a step allocates only the new
    parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.scratch = np.empty((2, min(self.m.size, ADAM_CHUNK)))

    @staticmethod
    def zeros(n: int) -> "AdamState":
        return AdamState(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, learning_rate: float):
    """One bias-corrected Adam update with ADAM_BETAS and ADAM_EPS; returns
    (new parameters, state).

    The moments and step count of state advance in place and params is left
    untouched. Rejects a non-finite gradient, and a finite one whose square
    or update overflows the moments or parameters. The update walks the
    vectors in slices of ADAM_CHUNK entries; every op is elementwise, so
    the result is bitwise that of one whole-vector pass.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains nan or inf")
    b1, b2 = ADAM_BETAS
    state.t += 1
    new_params = np.empty(grad.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, grad.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, grad.size)
            g, m, v = grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
            a, b = state.scratch[:, : hi - lo]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            np.multiply(g, g, out=a)
            v *= b2
            v += np.multiply(a, 1.0 - b2, out=a)
            # params - lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1.0 - b1**state.t, out=a)
            a *= learning_rate
            np.divide(v, 1.0 - b2**state.t, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            np.subtract(params[lo:hi], a, out=new_params[lo:hi])
    # v >= 0, so its maximum is finite exactly when all of v is; with v
    # finite, a non-finite m shows up in the parameters
    if state.v.size and not (np.isfinite(state.v.max()) and np.isfinite(new_params).all()):
        raise NonFiniteGradient("Adam moments or parameters overflowed")
    return new_params, state


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    """Index batches for one epoch: seeded shuffle, consecutive slices, last
    slice dropped when it has fewer than 2 rows."""
    perm = SeededRng(seed).split(0, epoch).permutation(n)
    out = []
    for start in range(0, n, batch_size):
        idx = perm[start : start + batch_size]
        if idx.size >= 2:
            out.append(idx)
    return out


def train(
    cfg: TrainConfig,
    data,
    spec_u: EncoderSpec,
    spec_v: EncoderSpec,
    init_u: EncoderParams,
    init_v: EncoderParams,
    probe=None,
):
    """Run the full loop; returns (params_u, params_v, TrainHistory).

    data supplies u and v sample matrices (a PairedDataset or anything with
    those attributes; a matrix that is not C-contiguous is copied once, as
    each step gathers its rows). probe, when given, is called as probe(epoch,
    params_u, params_v) after each epoch and must return a dict of floats.
    """
    u_all = np.ascontiguousarray(data.u, dtype=np.float64)
    v_all = np.ascontiguousarray(data.v, dtype=np.float64)
    if u_all.shape[0] != v_all.shape[0]:
        raise ValueError("u and v must pair up row for row")
    if u_all.shape[1] != spec_u.n_in or v_all.shape[1] != spec_v.n_in:
        raise ValueError(
            f"dataset widths {(u_all.shape[1], v_all.shape[1])} do not match "
            f"spec inputs {(spec_u.n_in, spec_v.n_in)}"
        )
    n = u_all.shape[0]
    if n < 2:
        raise ValueError("need at least 2 pairs")

    params_u, params_v = init_u, init_v
    # the trainable parameters of both sides in one flat vector, u first:
    # one Adam state, one gradient buffer and one adam_step per step
    n_u = params_u.theta.size if spec_u.trainable else 0
    n_v = params_v.theta.size if spec_v.trainable else 0
    theta = np.concatenate([params_u.theta[:n_u], params_v.theta[:n_v]])
    grad = np.empty(theta.size)
    state = AdamState.zeros(theta.size)
    history = TrainHistory()
    lr = cfg.learning_rate
    ws: dict = {}
    # each step gathers its batch into reused buffers; idx is in range, so
    # "clip" moves no index and skips the bounds pass of the default mode
    u_buf, v_buf = (np.empty((min(cfg.batch_size, n), x.shape[1])) for x in (u_all, v_all))

    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        step_losses = []
        shifted_steps = 0
        for step, idx in enumerate(epoch_batches(n, cfg.batch_size, cfg.seed, epoch)):
            u_batch = u_all.take(idx, 0, u_buf[: idx.size], "clip")
            v_batch = v_all.take(idx, 0, v_buf[: idx.size], "clip")
            e_u, vjp_u = encode_with_vjp(spec_u, params_u, u_batch)
            e_v, vjp_v = encode_with_vjp(spec_v, params_v, v_batch)
            try:
                value, cot_u, cot_v, shifted = score_step(
                    cfg.loss, e_u, e_v, cfg.tilting, cfg.tau, ws, u_batch, v_batch
                )
                shifted_steps += shifted
                step_losses.append(value)
                if theta.size:
                    if n_u:
                        vjp_u(cot_u, out=grad[:n_u])
                    if n_v:
                        vjp_v(cot_v, out=grad[n_u:])
                    theta, state = adam_step(theta, grad, state, lr)
                    if n_u:
                        params_u = EncoderParams._view(theta[:n_u], spec_u.shape_table())
                    if n_v:
                        params_v = EncoderParams._view(theta[n_u:], spec_v.shape_table())
            except (NonFiniteGradient, ValueError) as exc:
                raise type(exc)(f"epoch {epoch}, step {step}: {exc}") from exc
        history.losses.append(float(np.mean(step_losses)))
        history.metrics.append(dict(probe(epoch, params_u, params_v)) if probe else {})
        history.seconds.append(time.perf_counter() - tic)
        history.shifted_steps.append(shifted_steps)
    return params_u, params_v, history
