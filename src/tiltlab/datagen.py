"""Dataset generators: block-Gaussian pairs, the Gaussian-process modality
pair (pointwise field values vs leading KL coefficients), the
Eulerian/Lagrangian flow pair with a smooth feature chart for its
trajectories, and MNIST IDX ingestion.

Every generator is a pure function of (config, rng). lagrangian_dataset
draws sample i from the split stream rng.split(i), so each row is bit-identical
to generating that sample alone from its own stream. The Gaussian samplers
(sample_block_gaussian, gp_modality_pair) read one stream in row order, so a
draw of n rows is bit-identical to the first n rows of any longer draw.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, CountMismatch, TruncatedFile
from .gaussian import BlockGaussian
from .linalg import chol_sample, cholesky_pd, rowwise_matmul
from .rng import SeededRng

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PairedDataset:
    """Paired sample rows, stored C-contiguous for training's row gathers."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(np.atleast_2d(self.u), dtype=np.float64)
        v = np.ascontiguousarray(np.atleast_2d(self.v), dtype=np.float64)
        if u.shape[0] != v.shape[0]:
            raise ValueError("u and v must pair up row for row")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def sample_block_gaussian(g: BlockGaussian, n: int, rng: SeededRng) -> PairedDataset:
    if n < 1:
        raise ValueError("need at least one sample")
    draws = chol_sample(np.zeros(g.n_x + g.n_y), g.joint(), n, rng)
    return PairedDataset(u=draws[:, : g.n_x], v=draws[:, g.n_x :])


@dataclass(frozen=True)
class GpConfig:
    """Karhunen-Loeve field on (0,1): eigenvalues (j^2 pi^2 + tau^2)^{-alpha}
    against the cosine basis, observed at grid_points uniform interior
    points with iid observation noise; the second modality keeps the first
    n_coeffs KL coefficients raw (the basis-normalization constant is left
    in the eigenfunctions, and the empirical-covariance pathway downstream
    is insensitive to that convention). gp_modality_pair draws each pair
    from n_coeffs + grid_points normals, never the n_modes coefficients."""

    tau_inv_length: float = 3.0
    alpha: float = 2.0
    n_modes: int = 1000
    grid_points: int = 12
    noise_sigma: float = 0.05
    n_coeffs: int = 5

    def __post_init__(self):
        if min(self.tau_inv_length, self.alpha, self.noise_sigma) <= 0:
            raise ValueError("tau_inv_length, alpha, noise_sigma must be positive")
        if self.grid_points < 1 or self.n_coeffs < 1:
            raise ValueError("grid_points and n_coeffs must be positive")
        if self.n_modes < self.n_coeffs:
            raise ValueError("n_modes must cover n_coeffs")


def gp_grid(cfg: GpConfig) -> np.ndarray:
    n = cfg.grid_points
    return np.arange(1, n + 1) / (n + 1)


def gp_eigenvalues(cfg: GpConfig) -> np.ndarray:
    j = np.arange(1, cfg.n_modes + 1)
    return (j**2 * np.pi**2 + cfg.tau_inv_length**2) ** (-cfg.alpha)


def gp_design_matrix(cfg: GpConfig) -> np.ndarray:
    """phi[i, j] = sqrt(lambda_j) cos(j pi x_i): maps KL coefficients to
    noiseless field values at the grid."""
    x = gp_grid(cfg)
    j = np.arange(1, cfg.n_modes + 1)
    return np.sqrt(gp_eigenvalues(cfg))[None, :] * np.cos(np.outer(x, j) * np.pi)


def gp_analytic_blocks(cfg: GpConfig) -> BlockGaussian:
    """Exact joint covariance of (u, v): C_uu = Phi Phi^T + sigma^2 I,
    C_uv = Phi[:, :n_coeffs], C_vv = I."""
    phi = gp_design_matrix(cfg)
    c_uu = phi @ phi.T + cfg.noise_sigma**2 * np.eye(cfg.grid_points)
    return BlockGaussian(
        0.5 * (c_uu + c_uu.T), phi[:, : cfg.n_coeffs].copy(), np.eye(cfg.n_coeffs)
    )


def gp_modality_pair(cfg: GpConfig, n: int, rng: SeededRng) -> PairedDataset:
    """n pairs drawn from the exact law of (field values + noise, leading KL
    coefficients) under the n_modes truncation, from one (n, n_coeffs +
    grid_points) standard-normal draw xi: v = xi[:, :n_coeffs] and
    u = xi @ [phi[:, :n_coeffs], L].T, where L is the Cholesky factor of
    phi_tail phi_tail^T + noise_sigma^2 I, the covariance of the trailing
    modes plus the noise, which is independent of v. One product writes u,
    so the draw holds no n x grid_points temporary.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    phi = gp_design_matrix(cfg)
    head, tail = phi[:, : cfg.n_coeffs], phi[:, cfg.n_coeffs :]
    chol = cholesky_pd(tail @ tail.T + cfg.noise_sigma**2 * np.eye(cfg.grid_points))
    xi = rng.standard_normal((n, cfg.n_coeffs + cfg.grid_points))
    u = rowwise_matmul(xi, np.hstack([head, chol]).T)
    return PairedDataset(u=u, v=xi[:, : cfg.n_coeffs])


@dataclass(frozen=True)
class FlowConfig:
    """Streamfunction flow on the torus: modes k in {-m..m}^2 (row-major
    lexicographic), per-mode temporal frequencies omega, integrated from x0
    by classical RK4 with step dt up to t_final, positions recorded every
    record_stride steps."""

    m: int
    omega: tuple
    x0: tuple = (0.5, 0.5)
    dt: float = 1e-3
    t_final: float = 1.0
    record_stride: int = 10

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        omega = tuple(float(w) for w in self.omega)
        if len(omega) != self.k_count:
            raise ValueError(f"omega must have one entry per mode ({self.k_count})")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ValueError("t_final must be a positive integer multiple of dt")
        if self.record_stride < 1 or self.record_stride > round(steps):
            raise ValueError("record_stride must be in [1, steps]")
        x0 = tuple(float(c) for c in self.x0)
        if len(x0) != 2 or not all(0.0 <= c < 1.0 for c in x0):
            raise ValueError("x0 must lie in [0,1)^2")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "x0", x0)

    @property
    def k_count(self) -> int:
        return (2 * self.m + 1) ** 2

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def n_records(self) -> int:
        return self.steps // self.record_stride


def mode_set(m: int) -> np.ndarray:
    """Wavevectors (k1, k2), k1 outer and k2 inner from -m to m. The
    ordering is negation-reversing: mode -k sits at the mirrored index,
    which makes conjugate symmetrization a flip."""
    span = np.arange(-m, m + 1)
    k1, k2 = np.meshgrid(span, span, indexing="ij")
    return np.column_stack([k1.ravel(), k2.ravel()])


def draw_flow_config(
    m: int,
    rng: SeededRng,
    x0=(0.5, 0.5),
    dt: float = 1e-3,
    t_final: float = 1.0,
    record_stride: int = 10,
) -> FlowConfig:
    """Temporal frequencies drawn once, uniform on [0, 10 * 2 pi / t_final]."""
    k = (2 * m + 1) ** 2
    omega = rng.uniform(0.0, 10.0 * TWO_PI / t_final, (k,))
    return FlowConfig(
        m=m, omega=tuple(omega), x0=x0, dt=dt, t_final=t_final, record_stride=record_stride
    )


def draw_flow_coeffs(cfg: FlowConfig, rng: SeededRng) -> np.ndarray:
    """iid standard complex normal coefficients, conjugate-symmetrized so
    the streamfunction is real (the zero mode comes out purely real under
    the index-reversal symmetry)."""
    z = rng.standard_normal((cfg.k_count, 2))
    psi = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    return 0.5 * (psi + np.conj(psi[::-1]))


def coeffs_to_real(psi: np.ndarray) -> np.ndarray:
    """Interleave complex coefficients as [Re, Im, Re, Im, ...]."""
    return np.column_stack([psi.real, psi.imag]).ravel()


def real_to_coeffs(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.size % 2:
        raise ValueError("coefficient vector must interleave Re/Im pairs")
    return vec[0::2] + 1j * vec[1::2]


def _mode_grid(psi: np.ndarray, cfg: FlowConfig):
    """psi (B x K) and omega as (B x n x n) and (n x n) grids, n = 2m + 1:
    axis 1 runs over k1 and axis 2 over k2, both from -m to m (the
    mode_set order)."""
    n = 2 * cfg.m + 1
    return psi.reshape(psi.shape[0], n, n), np.asarray(cfg.omega).reshape(n, n)


def _powers(z: np.ndarray, m: int) -> list:
    """[z^-m, ..., z^m] for unit-modulus z: positive powers by repeated
    multiplication, negative ones as their conjugates."""
    up = [np.ones_like(z), z]
    for _ in range(2, m + 1):
        up.append(up[-1] * z)
    up = up[: m + 1]
    return [np.conj(p) for p in up[:0:-1]] + up


def _velocity(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Skew-gradient w = (-d2 psi, d1 psi) of the streamfunction
    Re sum_k psi_k e^{i phi_k}, phi_k = omega_k t + 2 pi k.x, at positions x
    (B x 2), for the phased mode grid a = psi e^{i omega t} (see
    _mode_grid).

    The phase factorises as e^{i phi_k} = e^{i omega_k t} z1^k1 z2^k2 with
    z = e^{2 pi i x}, so exp is taken for the K mode phases and the 2B
    particle phases only, never for all B x K entries. The powers z^j come
    from _powers, and the sum runs over k2 and then over k1 as elementwise
    adds of (B x n) slices: no reduction over a mode axis, so a batch of one
    reproduces every float op of a larger batch's row. Against the direct
    sum of per-mode exps only rounding moves (about 1e-14 relative).
    """
    m = a.shape[1] // 2
    # z = e^{2 pi i x} from cos and sin: the complex exp's bits, in less time
    theta = TWO_PI * x
    z = np.empty(x.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    z1 = _powers(z[:, 0], m)
    z2 = _powers(z[:, 1], m)
    # c[b, k1] = sum_k2 a z2^k2 and c2[b, k1] = sum_k2 k2 a z2^k2
    c = a[:, :, m].copy()
    c2 = np.zeros_like(c)
    for j in range(1, m + 1):
        hi = a[:, :, m + j] * z2[m + j][:, None]
        lo = a[:, :, m - j] * z2[m - j][:, None]
        c += hi + lo
        c2 += j * (hi - lo)
    # s1 = Im sum_k1 k1 z1^k1 c and s2 = Im sum_k1 z1^k1 c2
    s1 = np.zeros(a.shape[0])
    s2 = c2[:, m].imag.copy()
    for j in range(1, m + 1):
        s1 += j * (z1[m + j] * c[:, m + j] - z1[m - j] * c[:, m - j]).imag
        s2 += (z1[m + j] * c2[:, m + j] + z1[m - j] * c2[:, m - j]).imag
    return np.stack([TWO_PI * s2, -TWO_PI * s1], axis=1)


def velocity_eval(coeffs, cfg: FlowConfig, t: float, x) -> np.ndarray:
    """Velocity of the mode-sum streamfunction at one point; divergence-free
    by construction (w = (-d2 psi, d1 psi))."""
    x = np.asarray(x, dtype=np.float64).reshape(1, 2)
    psi = real_to_coeffs(coeffs).reshape(1, -1)
    if psi.shape[1] != cfg.k_count:
        raise ValueError(f"expected {cfg.k_count} complex coefficients")
    grid, omega = _mode_grid(psi, cfg)
    return _velocity(grid * np.exp(1j * float(t) * omega), x)[0]


def _integrate(psi: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    """Classical RK4 for a batch of particles, modulo-1 wrap each step;
    returns recorded positions (B x n_records x 2)."""
    b = psi.shape[0]
    grid, omega = _mode_grid(psi, cfg)
    x = np.tile(np.asarray(cfg.x0), (b, 1))
    dt = cfg.dt
    records = np.empty((b, cfg.n_records, 2))
    rec = 0
    for step in range(1, cfg.steps + 1):
        t0 = (step - 1) * dt
        half = grid * np.exp(1j * (t0 + 0.5 * dt) * omega)
        ka = _velocity(grid * np.exp(1j * t0 * omega), x)
        kb = _velocity(half, x + 0.5 * dt * ka)
        kc = _velocity(half, x + 0.5 * dt * kb)
        kd = _velocity(grid * np.exp(1j * (t0 + dt) * omega), x + dt * kc)
        x = x + (dt / 6.0) * (ka + 2.0 * kb + 2.0 * kc + kd)
        # x - floor(x) has the bits of x % 1.0 for every finite x, in a
        # tenth of the time
        x -= np.floor(x)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"non-finite trajectory state at step {step}")
        if step % cfg.record_stride == 0:
            records[:, rec, :] = x
            rec += 1
    return records


def lagrangian_pair(cfg: FlowConfig, rng: SeededRng):
    """One draw: (interleaved coefficient vector of length 2K, trajectory
    matrix n_records x 2)."""
    psi = draw_flow_coeffs(cfg, rng)
    traj = _integrate(psi[None, :], cfg)[0]
    return coeffs_to_real(psi), traj


def lagrangian_dataset(cfg: FlowConfig, n: int, rng: SeededRng) -> PairedDataset:
    """n independent flows: u rows are coefficient vectors, v rows are
    trajectories flattened t-major. Sample i draws from rng.split(i), so
    each row reproduces lagrangian_pair on that stream bit for bit."""
    if n < 1:
        raise ValueError("need at least one sample")
    psi = np.stack([draw_flow_coeffs(cfg, rng.split(i)) for i in range(n)])
    traj = _integrate(psi, cfg)
    u = np.stack([coeffs_to_real(p) for p in psi])
    v = traj.reshape(n, -1)
    return PairedDataset(u=u, v=v)


def torus_trajectory_features(v: np.ndarray) -> np.ndarray:
    """Smooth chart for torus-valued trajectories: cos/sin of the angle per
    recorded coordinate plus wrapped step displacements. Raw [0, 1) positions
    have mod-1 cliffs that a dense encoder cannot interpolate across."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    pos = v.reshape(v.shape[0], -1, 2)
    ang = 2.0 * np.pi * pos
    disp = ((np.diff(pos, axis=1) + 0.5) % 1.0) - 0.5
    return np.concatenate(
        [
            np.cos(ang).reshape(v.shape[0], -1),
            np.sin(ang).reshape(v.shape[0], -1),
            disp.reshape(v.shape[0], -1),
        ],
        axis=1,
    )


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(2)
    opener = gzip.open if head == b"\x1f\x8b" else open
    with opener(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise TruncatedFile(f"{path}: missing magic")
    magic = int.from_bytes(raw[:4], "big")
    if magic != expected_magic:
        raise BadMagic(f"{path}: magic {magic:#010x}, expected {expected_magic:#010x}")
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise TruncatedFile(f"{path}: truncated dimension header")
    dims = [int.from_bytes(raw[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    count = int(np.prod(dims)) if dims else 0
    if len(raw) < header_end + count:
        raise TruncatedFile(f"{path}: payload holds {len(raw) - header_end} bytes, dims imply {count}")
    return np.frombuffer(raw[header_end : header_end + count], dtype=np.uint8).reshape(dims)


def mnist_load(images_path, labels_path):
    """Parse the IDX pair: images scaled to [0,1] and flattened to rows,
    labels as a matching integer vector."""
    images = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, _IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return flat, labels.astype(np.int64)

