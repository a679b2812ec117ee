"""Data generators: block-Gaussian sampling, the KL-expansion modality pair,
torus flows with an independent finite-difference oracle, and IDX parsing."""

import gzip
import tracemalloc

import numpy as np
import pytest

from tiltlab import datagen, gaussian
from tiltlab.datagen import (
    FlowConfig,
    GpConfig,
    PairedDataset,
    coeffs_to_real,
    draw_flow_coeffs,
    draw_flow_config,
    gp_analytic_blocks,
    gp_design_matrix,
    gp_eigenvalues,
    gp_grid,
    gp_modality_pair,
    lagrangian_dataset,
    lagrangian_pair,
    mnist_load,
    mode_set,
    real_to_coeffs,
    sample_block_gaussian,
    velocity_eval,
)
from tiltlab.errors import BadMagic, CountMismatch, TruncatedFile
from tiltlab.rng import SeededRng

TWO_PI = 2.0 * np.pi


class TestPairedDataset:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            PairedDataset(u=np.zeros((3, 1)), v=np.zeros((4, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PairedDataset(u=np.array([[np.inf]]), v=np.array([[1.0]]))

    def test_1d_promoted(self):
        ds = PairedDataset(u=np.array([1.0, 2.0]), v=np.array([3.0, 4.0]))
        assert ds.u.shape == (1, 2)
        assert ds.n == 1

    def test_column_views_stored_contiguous(self):
        # training gathers batch rows with take, which would copy a strided
        # source whole on every call
        draws = np.arange(12.0).reshape(6, 2)
        ds = PairedDataset(u=draws[:, :1], v=draws[:, 1:])
        assert ds.u.flags.c_contiguous and ds.v.flags.c_contiguous
        np.testing.assert_array_equal(np.hstack([ds.u, ds.v]), draws)


class TestBlockGaussianSampling:
    def test_moments(self):
        g = gaussian.BlockGaussian([[1.5]], [[1.0]], [[1.5]])
        ds = sample_block_gaussian(g, 200_000, SeededRng(0))
        joint = np.hstack([ds.u, ds.v])
        cov = joint.T @ joint / ds.n
        np.testing.assert_allclose(cov, g.joint(), atol=0.03)
        assert np.abs(joint.mean(axis=0)).max() < 0.02

    def test_deterministic(self):
        g = gaussian.BlockGaussian(np.eye(2), np.zeros((2, 2)), np.eye(2))
        a = sample_block_gaussian(g, 50, SeededRng(1))
        b = sample_block_gaussian(g, 50, SeededRng(1))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)


@pytest.mark.parametrize("n", [1, 2, 3, 549])
@pytest.mark.parametrize(
    "sample",
    [
        lambda n, rng: gp_modality_pair(GpConfig(), n, rng),
        lambda n, rng: sample_block_gaussian(
            gaussian.BlockGaussian(
                [[2.0, 0.3], [0.3, 1.0]],
                [[0.5, 0.2, 0.1], [0.1, -0.4, 0.2]],
                [[1.0, 0.0, 0.2], [0.0, 1.5, 0.1], [0.2, 0.1, 1.2]],
            ),
            n,
            rng,
        ),
    ],
    ids=["gp_modality_pair", "sample_block_gaussian"],
)
def test_short_draw_is_the_head_of_a_long_one(sample, n):
    # both samplers read one stream in row order; a one-row draw once took
    # numpy's one-row BLAS path and differed in the last bits
    long = sample(4000, SeededRng(3))
    short = sample(n, SeededRng(3))
    np.testing.assert_array_equal(short.u, long.u[:n])
    np.testing.assert_array_equal(short.v, long.v[:n])


class TestGpModality:
    def test_grid_is_uniform_interior(self):
        cfg = GpConfig()
        x = gp_grid(cfg)
        np.testing.assert_allclose(x, np.arange(1, 13) / 13.0, atol=1e-15)

    def test_eigenvalue_formula(self):
        cfg = GpConfig()
        lam = gp_eigenvalues(cfg)
        assert lam.shape == (1000,)
        assert abs(lam[0] - (np.pi**2 + 9.0) ** (-2.0)) < 1e-18
        assert abs(lam[4] - (25.0 * np.pi**2 + 9.0) ** (-2.0)) < 1e-20
        assert np.all(np.diff(lam) < 0)

    def test_design_matrix_entries(self):
        cfg = GpConfig(n_modes=7, grid_points=3)
        phi = gp_design_matrix(cfg)
        x = gp_grid(cfg)
        lam = gp_eigenvalues(cfg)
        for i in range(3):
            for j in range(7):
                want = np.sqrt(lam[j]) * np.cos((j + 1) * np.pi * x[i])
                assert abs(phi[i, j] - want) < 1e-15

    def test_analytic_blocks_structure(self):
        cfg = GpConfig(n_modes=50, grid_points=4, n_coeffs=3, noise_sigma=0.1)
        blocks = gp_analytic_blocks(cfg)
        phi = gp_design_matrix(cfg)
        np.testing.assert_allclose(blocks.c_uu, phi @ phi.T + 0.01 * np.eye(4), atol=1e-14)
        np.testing.assert_allclose(blocks.c_uv, phi[:, :3], atol=1e-15)
        np.testing.assert_array_equal(blocks.c_vv, np.eye(3))

    def test_samples_match_analytic_blocks(self):
        cfg = GpConfig(n_modes=30, grid_points=4, n_coeffs=3, noise_sigma=0.1)
        ds = gp_modality_pair(cfg, 40_000, SeededRng(3))
        blocks = gp_analytic_blocks(cfg)
        emp = gaussian.empirical_block_gaussian(ds)
        np.testing.assert_allclose(emp.c_uu, blocks.c_uu, atol=0.01)
        np.testing.assert_allclose(emp.c_uv, blocks.c_uv, atol=0.01)
        np.testing.assert_allclose(emp.c_vv, blocks.c_vv, atol=0.02)

    def test_v_is_leading_coefficients(self):
        # u and v are driven by the same KL draw: regressing u on v must
        # recover the first columns of the design matrix
        cfg = GpConfig(n_modes=10, grid_points=3, n_coeffs=2, noise_sigma=0.05)
        ds = gp_modality_pair(cfg, 50_000, SeededRng(4))
        phi = gp_design_matrix(cfg)
        coef = np.linalg.lstsq(ds.v, ds.u, rcond=None)[0]
        np.testing.assert_allclose(coef.T, phi[:, :2], atol=0.02)

    @pytest.mark.parametrize("n", [1, 549])
    def test_draw_matches_stream_order_reference(self, n):
        # the reference draws the (n + 1, n_coeffs + grid_points) block and
        # maps it through [phi_head, L] in plain numpy; one row more keeps
        # its product off numpy's one-row BLAS path, whose bits differ
        cfg = GpConfig()
        xi = SeededRng(5).standard_normal((n + 1, cfg.n_coeffs + cfg.grid_points))
        phi = gp_design_matrix(cfg)
        tail = phi[:, cfg.n_coeffs :]
        chol = np.linalg.cholesky(tail @ tail.T + cfg.noise_sigma**2 * np.eye(cfg.grid_points))
        ds = gp_modality_pair(cfg, n, SeededRng(5))
        np.testing.assert_array_equal(ds.v, xi[:n, : cfg.n_coeffs])
        u = xi @ np.hstack([phi[:, : cfg.n_coeffs], chol]).T
        np.testing.assert_array_equal(ds.u, u[:n])

    def test_draw_never_holds_all_coefficients(self):
        # the whole 20000 x 1000 draw alone would take 160 MB
        tracemalloc.start()
        try:
            gp_modality_pair(GpConfig(), 20_000, SeededRng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_draw_holds_no_product_temporary(self):
        # the draw, u and v take about 5.4 MB; a sum of two products into
        # a new u would hold two more n x grid_points arrays
        tracemalloc.start()
        try:
            gp_modality_pair(GpConfig(), 20_000, SeededRng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GpConfig(noise_sigma=0.0)
        with pytest.raises(ValueError):
            GpConfig(n_modes=3, n_coeffs=5)
        with pytest.raises(ValueError):
            GpConfig(grid_points=0)


class TestModeSet:
    def test_frozen_order_m1(self):
        want = [
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]
        np.testing.assert_array_equal(mode_set(1), want)

    def test_negation_reversal(self):
        for m in (1, 2, 3):
            k = mode_set(m)
            np.testing.assert_array_equal(k, -k[::-1])

    def test_m0(self):
        np.testing.assert_array_equal(mode_set(0), [[0, 0]])


class TestFlowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(m=-1, omega=())
        with pytest.raises(ValueError):
            FlowConfig(m=1, omega=(0.0,) * 8)  # needs 9
        with pytest.raises(ValueError):
            FlowConfig(m=0, omega=(0.0,), dt=0.0)
        with pytest.raises(ValueError):
            FlowConfig(m=0, omega=(0.0,), dt=1e-3, t_final=0.0015)
        with pytest.raises(ValueError):
            FlowConfig(m=0, omega=(0.0,), record_stride=2000)
        with pytest.raises(ValueError):
            FlowConfig(m=0, omega=(0.0,), x0=(1.0, 0.5))

    def test_derived_counts(self):
        cfg = FlowConfig(m=1, omega=(0.0,) * 9, dt=1e-3, t_final=1.0, record_stride=10)
        assert cfg.k_count == 9
        assert cfg.steps == 1000
        assert cfg.n_records == 100

    def test_draw_flow_config(self):
        cfg = draw_flow_config(1, SeededRng(5))
        assert len(cfg.omega) == 9
        assert all(0.0 <= w <= 10.0 * TWO_PI for w in cfg.omega)
        cfg2 = draw_flow_config(1, SeededRng(5))
        assert cfg.omega == cfg2.omega


class TestFlowCoefficients:
    def test_conjugate_symmetry(self):
        cfg = FlowConfig(m=2, omega=(0.0,) * 25)
        psi = draw_flow_coeffs(cfg, SeededRng(6))
        np.testing.assert_allclose(psi, np.conj(psi[::-1]), atol=1e-15)
        # zero mode (center index) is real under the symmetry
        assert abs(psi[12].imag) < 1e-15

    def test_real_streamfunction(self):
        # conjugate symmetry makes the mode sum real at any point
        cfg = FlowConfig(m=1, omega=(0.0,) * 9)
        psi = draw_flow_coeffs(cfg, SeededRng(7))
        k = mode_set(1)
        rng = SeededRng(8)
        for probe in range(5):
            x = rng.split(probe).uniform(0.0, 1.0, 2)
            val = np.sum(psi * np.exp(1j * TWO_PI * (k @ x)))
            assert abs(val.imag) < 1e-12

    def test_interleave_round_trip(self):
        psi = np.array([1.0 + 2.0j, -0.5j, 3.0])
        vec = coeffs_to_real(psi)
        np.testing.assert_array_equal(vec, [1.0, 2.0, 0.0, -0.5, 3.0, 0.0])
        np.testing.assert_array_equal(real_to_coeffs(vec), psi)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            real_to_coeffs([1.0, 2.0, 3.0])


def velocity_fd_oracle(coeffs, cfg, t, x, h=1e-6):
    """Velocity as the skew-gradient of the independently summed real
    streamfunction, by central differences."""
    k = mode_set(cfg.m)
    psi = real_to_coeffs(coeffs)
    omega = np.asarray(cfg.omega)

    def stream(pt):
        theta = omega * t + TWO_PI * (k[:, 0] * pt[0] + k[:, 1] * pt[1])
        return float(np.sum((psi * np.exp(1j * theta)).real))

    d1 = (stream([x[0] + h, x[1]]) - stream([x[0] - h, x[1]])) / (2 * h)
    d2 = (stream([x[0], x[1] + h]) - stream([x[0], x[1] - h])) / (2 * h)
    return np.array([-d2, d1])


def velocity_oracle(psi, cfg, t, x):
    """The direct mode sum: one complex exp per (particle, mode) entry of
    the phase omega_k t + 2 pi k.x, for psi (B x K) and x (B x 2)."""
    k = mode_set(cfg.m).astype(np.float64)
    k1 = k[:, 0]
    k2 = k[:, 1]
    phase = np.asarray(cfg.omega) * t + TWO_PI * (x[:, :1] * k1 + x[:, 1:] * k2)
    im = (psi * np.exp(1j * phase)).imag
    return np.stack([TWO_PI * np.sum(k2 * im, axis=1), -TWO_PI * np.sum(k1 * im, axis=1)], axis=1)


def integrate_oracle(psi, cfg):
    """RK4 with a modulo-1 wrap per step over velocity_oracle; recorded
    positions (B x n_records x 2)."""
    x = np.tile(np.asarray(cfg.x0), (psi.shape[0], 1))
    dt = cfg.dt
    records = []
    for step in range(1, cfg.steps + 1):
        t0 = (step - 1) * dt
        ka = velocity_oracle(psi, cfg, t0, x)
        kb = velocity_oracle(psi, cfg, t0 + 0.5 * dt, x + 0.5 * dt * ka)
        kc = velocity_oracle(psi, cfg, t0 + 0.5 * dt, x + 0.5 * dt * kb)
        kd = velocity_oracle(psi, cfg, t0 + dt, x + dt * kc)
        x = (x + (dt / 6.0) * (ka + 2.0 * kb + 2.0 * kc + kd)) % 1.0
        if step % cfg.record_stride == 0:
            records.append(x)
    return np.stack(records, axis=1)


class TestVelocity:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("b", [1, 7, 300])
    def test_factorised_sum_matches_direct_mode_sum(self, m, b):
        # general complex coefficients (not conjugate-symmetric), so every
        # mode's term counts on its own
        rng = SeededRng(40 + 10 * m).split(b)
        cfg = draw_flow_config(m, rng.split(0))
        z = rng.split(1).standard_normal((b, cfg.k_count, 2))
        psi = z[..., 0] + 1j * z[..., 1]
        x = rng.split(2).uniform(0.0, 1.0, (b, 2))
        t = float(rng.split(3).uniform(0.0, 1.0))
        want = velocity_oracle(psi, cfg, t, x)
        grid, omega = datagen._mode_grid(psi, cfg)
        got = datagen._velocity(grid * np.exp(1j * t * omega), x)
        assert got.shape == (b, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_powers_of_the_particle_phase(self, m):
        x = SeededRng(45).uniform(0.0, 1.0, 6)
        got = datagen._powers(np.exp(1j * TWO_PI * x), m)
        assert len(got) == 2 * m + 1
        for j, p in zip(range(-m, m + 1), got):
            np.testing.assert_allclose(p, np.exp(1j * TWO_PI * j * x), rtol=0, atol=1e-14)

    def test_matches_fd_streamfunction(self):
        cfg = draw_flow_config(1, SeededRng(9))
        psi = draw_flow_coeffs(cfg, SeededRng(10))
        coeffs = coeffs_to_real(psi)
        rng = SeededRng(11)
        for probe in range(6):
            x = rng.split(probe, 0).uniform(0.0, 1.0, 2)
            t = float(rng.split(probe, 1).uniform(0.0, 1.0))
            got = velocity_eval(coeffs, cfg, t, x)
            want = velocity_fd_oracle(coeffs, cfg, t, x)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_single_cosine_mode(self):
        # streamfunction cos(2 pi x1): velocity (0, -2 pi sin(2 pi x1))
        cfg = FlowConfig(m=1, omega=(0.0,) * 9)
        psi = np.zeros(9, dtype=np.complex128)
        psi[7] = 0.5  # mode (1, 0)
        psi[1] = 0.5  # mode (-1, 0)
        coeffs = coeffs_to_real(psi)
        for x1 in (0.0, 0.2, 0.25, 0.7):
            w = velocity_eval(coeffs, cfg, 0.0, (x1, 0.3))
            assert w[0] == 0.0
            assert abs(w[1] + TWO_PI * np.sin(TWO_PI * x1)) < 1e-12

    def test_divergence_free(self):
        cfg = draw_flow_config(2, SeededRng(12))
        coeffs = coeffs_to_real(draw_flow_coeffs(cfg, SeededRng(13)))
        h = 1e-6
        rng = SeededRng(14)
        for probe in range(5):
            x = rng.split(probe).uniform(0.0, 1.0, 2)
            d1 = (
                velocity_eval(coeffs, cfg, 0.3, (x[0] + h, x[1]))[0]
                - velocity_eval(coeffs, cfg, 0.3, (x[0] - h, x[1]))[0]
            ) / (2 * h)
            d2 = (
                velocity_eval(coeffs, cfg, 0.3, (x[0], x[1] + h))[1]
                - velocity_eval(coeffs, cfg, 0.3, (x[0], x[1] - h))[1]
            ) / (2 * h)
            assert abs(d1 + d2) < 1e-5

    def test_coefficient_count_enforced(self):
        cfg = FlowConfig(m=1, omega=(0.0,) * 9)
        with pytest.raises(ValueError):
            velocity_eval(np.zeros(4), cfg, 0.0, (0.5, 0.5))


class TestTrajectories:
    def test_steady_shear_is_integrated_exactly(self):
        # frozen cosine streamfunction: x1 never moves and x2 advances at the
        # constant rate -2 pi sin(2 pi x1); RK4 reproduces the line exactly
        cfg = FlowConfig(
            m=1, omega=(0.0,) * 9, x0=(0.25, 0.5), dt=1e-3, t_final=0.1, record_stride=10
        )
        psi = np.zeros(9, dtype=np.complex128)
        psi[7] = 0.5
        psi[1] = 0.5
        _, traj = lagrangian_pair_from(psi, cfg)
        times = cfg.dt * cfg.record_stride * np.arange(1, cfg.n_records + 1)
        np.testing.assert_array_equal(traj[:, 0], np.full(cfg.n_records, 0.25))
        want = (0.5 - TWO_PI * np.sin(TWO_PI * 0.25) * times) % 1.0
        np.testing.assert_allclose(traj[:, 1], want, atol=1e-9)

    def test_batch_matches_single_bitwise(self):
        # m = 2 also takes the powers z^2 by repeated multiplication; in a
        # batch of 300, rows 0, 171 and 299 sit at its start, past the row
        # counts near 172 where BLAS kernels switch, and at its end
        for m, n, rows in ((1, 4, range(4)), (2, 4, range(4)), (1, 300, (0, 171, 299))):
            cfg = draw_flow_config(m, SeededRng(15), dt=1e-2, t_final=0.1, record_stride=2)
            root = SeededRng(16)
            ds = lagrangian_dataset(cfg, n, root)
            for i in rows:
                u_i, traj_i = lagrangian_pair(cfg, root.split(i))
                np.testing.assert_array_equal(ds.u[i], u_i)
                np.testing.assert_array_equal(ds.v[i], traj_i.reshape(-1))

    def test_integrator_matches_direct_mode_sum_oracle(self):
        # 500 RK4 steps of 20 m = 1 flows (the benchmark's shape): rounding
        # differences in the velocity must not grow into a visible drift of
        # the recorded positions. (At m = 2 some of these flows amplify the
        # same 1e-15 differences to about 1e-3 over this span.)
        cfg = draw_flow_config(1, SeededRng(19), dt=1e-3, t_final=0.5, record_stride=25)
        root = SeededRng(20)
        psi = np.stack([draw_flow_coeffs(cfg, root.split(i)) for i in range(20)])
        got = datagen._integrate(psi, cfg)
        want = integrate_oracle(psi, cfg)
        assert got.shape == want.shape == (20, 20, 2)
        wrapped = ((got - want + 0.5) % 1.0) - 0.5
        assert np.max(np.abs(wrapped)) < 1e-6

    def test_trajectory_stays_on_torus(self):
        cfg = draw_flow_config(1, SeededRng(17), dt=1e-2, t_final=0.2, record_stride=4)
        _, traj = lagrangian_pair(cfg, SeededRng(18))
        assert traj.shape == (5, 2)
        assert np.all(traj >= 0.0) and np.all(traj < 1.0)


def lagrangian_pair_from(psi, cfg):
    """Integrate explicit coefficients (bypassing the random draw)."""
    traj = datagen._integrate(psi[None, :], cfg)[0]
    return coeffs_to_real(psi), traj


def idx_images_bytes(arr: np.ndarray) -> bytes:
    head = (0x00000803).to_bytes(4, "big")
    for d in arr.shape:
        head += int(d).to_bytes(4, "big")
    return head + arr.astype(np.uint8).tobytes()


def idx_labels_bytes(labels) -> bytes:
    arr = np.asarray(labels, dtype=np.uint8)
    return (0x00000801).to_bytes(4, "big") + len(arr).to_bytes(4, "big") + arr.tobytes()


class TestIdx:
    def test_parse_pair(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes([7, 2]))
        flat, labels = mnist_load(ip, lp)
        assert flat.shape == (2, 12)
        np.testing.assert_allclose(flat[0], np.arange(12) / 255.0, atol=1e-15)
        np.testing.assert_array_equal(labels, [7, 2])
        assert labels.dtype == np.int64

    def test_gzip_transparent(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        ip = tmp_path / "img.idx.gz"
        lp = tmp_path / "lab.idx.gz"
        ip.write_bytes(gzip.compress(idx_images_bytes(images)))
        lp.write_bytes(gzip.compress(idx_labels_bytes([1, 0])))
        flat, labels = mnist_load(ip, lp)
        assert flat.shape == (2, 12)
        np.testing.assert_array_equal(labels, [1, 0])

    def test_bad_magic(self, tmp_path):
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        # swapped files: labels magic where images are expected
        ip.write_bytes(idx_labels_bytes([1]))
        lp.write_bytes(idx_labels_bytes([1]))
        with pytest.raises(BadMagic):
            mnist_load(ip, lp)

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((2, 3, 4), dtype=np.uint8)
        raw = idx_images_bytes(images)
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(raw[:-5])
        lp.write_bytes(idx_labels_bytes([0, 1]))
        with pytest.raises(TruncatedFile):
            mnist_load(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip = tmp_path / "img.idx"
        ip.write_bytes((0x00000803).to_bytes(4, "big") + b"\x00\x00")
        with pytest.raises(TruncatedFile):
            mnist_load(ip, tmp_path / "missing.idx")

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 3, 4), dtype=np.uint8)
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes([0, 1, 2]))
        with pytest.raises(CountMismatch):
            mnist_load(ip, lp)
