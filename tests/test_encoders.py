"""Encoder families: spec validation, forward oracles, and exact VJPs.

Every family's forward pass is checked against a hand-rolled loop, and every
VJP against central finite differences of <cotangent, encode(batch)>.
"""

import numpy as np
import pytest

from tiltlab import encoders
from tiltlab.encoders import (
    EncoderParams,
    EncoderSpec,
    encode,
    encode_vjp,
    frozen_table_spec,
    init_params,
    linear_spec,
    mlp_spec,
    params_from_table,
    similarity_matrix,
    similarity_vjp,
)
from tiltlab.errors import ZeroNormRow
from tiltlab.rng import SeededRng


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            EncoderSpec("conv", (3, 2))

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            linear_spec(0, 2)
        with pytest.raises(ValueError):
            mlp_spec([4, -1, 2], "relu")

    def test_mlp_needs_activation(self):
        with pytest.raises(ValueError):
            EncoderSpec("mlp", (4, 3, 2))
        with pytest.raises(ValueError):
            mlp_spec([4, 3, 2], "softplus")

    def test_non_mlp_rejects_activation(self):
        with pytest.raises(ValueError):
            EncoderSpec("linear", (3, 2), activation="relu")

    def test_dims_arity(self):
        with pytest.raises(ValueError):
            EncoderSpec("linear", (3,))
        with pytest.raises(ValueError):
            EncoderSpec("frozen_table", (3,))
        with pytest.raises(ValueError):
            EncoderSpec("mlp", (3,), activation="relu")
        # one_hot is the identity frozen_table and affine the one-layer mlp
        for family in ("one_hot", "affine"):
            with pytest.raises(ValueError, match="unknown encoder family"):
                EncoderSpec(family, (3, 2))

    def test_inout_sizes(self):
        assert linear_spec(7, 3).n_in == 7
        assert linear_spec(7, 3).n_e == 3
        assert mlp_spec([5, 8, 2], "tanh").n_e == 2
        assert frozen_table_spec(50, 4).n_in == 1
        assert frozen_table_spec(50, 4).n_e == 4

    def test_trainable_flags(self):
        assert linear_spec(2, 2).trainable
        assert mlp_spec([2, 2], "relu").trainable
        assert not frozen_table_spec(4, 2).trainable

    def test_param_counts(self):
        assert linear_spec(3, 2).n_params() == 6
        assert mlp_spec([3, 2], "relu").n_params() == 8
        assert mlp_spec([3, 5, 2], "relu").n_params() == (15 + 5) + (10 + 2)
        assert frozen_table_spec(6, 4).n_params() == 24


class TestParams:
    def test_flat_length_enforced(self):
        spec = linear_spec(3, 2)
        with pytest.raises(ValueError):
            EncoderParams(np.zeros(5), spec.shape_table())

    def test_nonfinite_rejected(self):
        spec = linear_spec(2, 1)
        with pytest.raises(ValueError):
            EncoderParams(np.array([1.0, np.nan]), spec.shape_table())

    def test_unflatten_layout(self):
        spec = mlp_spec([2, 2], "relu")
        theta = np.arange(6.0)
        weights = EncoderParams(theta, spec.shape_table()).unflatten()
        np.testing.assert_array_equal(weights["w0"], [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(weights["b0"], [4.0, 5.0])

    def test_init_bounds_per_layer(self):
        spec = mlp_spec([9, 4, 2], "relu")
        params = init_params(spec, SeededRng(0))
        weights = params.unflatten()
        assert np.max(np.abs(weights["w0"])) <= 1.0 / 3.0
        assert np.max(np.abs(weights["b0"])) <= 1.0 / 3.0
        assert np.max(np.abs(weights["w1"])) <= 0.5
        assert np.max(np.abs(weights["b1"])) <= 0.5

    def test_init_deterministic(self):
        spec = mlp_spec([5, 3], "relu")
        a = init_params(spec, SeededRng(7))
        b = init_params(spec, SeededRng(7))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_frozen_table_init_refused(self):
        with pytest.raises(ValueError):
            init_params(frozen_table_spec(4, 2), SeededRng(2))

    def test_params_from_table(self):
        spec = frozen_table_spec(3, 2)
        rows = np.arange(6.0).reshape(3, 2)
        params = params_from_table(spec, rows)
        np.testing.assert_array_equal(params.unflatten()["table"], rows)
        with pytest.raises(ValueError):
            params_from_table(spec, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            params_from_table(linear_spec(3, 2), rows)


class TestForward:
    def test_linear_oracle(self):
        spec = linear_spec(3, 2)
        params = init_params(spec, SeededRng(10))
        batch = SeededRng(11).standard_normal((7, 3))
        want = batch @ params.unflatten()["w0"].T
        np.testing.assert_allclose(encode(spec, params, batch), want, atol=1e-14)

    def test_one_layer_mlp_oracle(self):
        spec = mlp_spec([4, 3], "relu")
        params = init_params(spec, SeededRng(12))
        batch = SeededRng(13).standard_normal((5, 4))
        w = params.unflatten()
        want = batch @ w["w0"].T + w["b0"]
        np.testing.assert_allclose(encode(spec, params, batch), want, atol=1e-14)

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_mlp_oracle(self, act):
        spec = mlp_spec([3, 6, 4, 2], act)
        params = init_params(spec, SeededRng(14))
        batch = SeededRng(15).standard_normal((8, 3))
        w = params.unflatten()
        x = batch
        for i in range(3):
            z = x @ w[f"w{i}"].T + w[f"b{i}"]
            if i < 2:
                x = np.maximum(z, 0.0) if act == "relu" else np.tanh(z)
            else:
                x = z
        np.testing.assert_allclose(encode(spec, params, batch), x, atol=1e-13)

    def test_identity_table_is_one_hot(self):
        spec = frozen_table_spec(4, 4)
        params = params_from_table(spec, np.eye(4))
        out = encode(spec, params, np.array([2, 0, 3], dtype=np.float64))
        want = np.zeros((3, 4))
        want[0, 2] = want[1, 0] = want[2, 3] = 1.0
        np.testing.assert_array_equal(out, want)

    def test_frozen_table_fractional_index(self):
        spec = frozen_table_spec(4, 4)
        params = params_from_table(spec, np.eye(4))
        with pytest.raises(ValueError, match="integral indices"):
            encode(spec, params, np.array([1.5]))

    def test_frozen_table_out_of_range(self):
        spec = frozen_table_spec(4, 4)
        params = params_from_table(spec, np.eye(4))
        with pytest.raises(ValueError, match="out of range"):
            encode(spec, params, np.array([4.0]))
        with pytest.raises(ValueError, match="out of range"):
            encode(spec, params, np.array([-1.0]))

    def test_frozen_table_lookup(self):
        spec = frozen_table_spec(5, 3)
        rows = SeededRng(19).standard_normal((5, 3))
        params = params_from_table(spec, rows)
        out = encode(spec, params, np.array([4.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out, rows[[4, 1, 1]])

    def test_1d_batch_promoted_to_column(self):
        spec = linear_spec(1, 2)
        params = init_params(spec, SeededRng(20))
        a = encode(spec, params, np.array([1.0, 2.0]))
        b = encode(spec, params, np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(a, b)

    def test_normalized_rows_are_unit(self):
        spec = mlp_spec([3, 5, 4], "tanh", normalized=True)
        params = init_params(spec, SeededRng(21))
        out = encode(spec, params, SeededRng(22).standard_normal((6, 3)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_normalization_raises(self):
        spec = linear_spec(2, 3, normalized=True)
        params = EncoderParams(np.zeros(6), spec.shape_table())
        with pytest.raises(ZeroNormRow):
            encode(spec, params, np.ones((2, 2)))

    def test_params_spec_mismatch(self):
        spec = linear_spec(3, 2)
        other = init_params(mlp_spec([3, 2], "relu"), SeededRng(23))
        with pytest.raises(ValueError):
            encode(spec, other, np.zeros((1, 3)))

    def test_wrong_batch_width(self):
        spec = linear_spec(3, 2)
        params = init_params(spec, SeededRng(24))
        with pytest.raises(ValueError):
            encode(spec, params, np.zeros((4, 2)))


def fd_vjp_check(spec, params, batch, seed, step=1e-6, tol=1e-6):
    """Compare encode_vjp against central differences along random directions."""
    rng = SeededRng(seed)
    cot = rng.split(0).standard_normal((np.atleast_2d(batch).shape[0]
                                        if np.ndim(batch) > 1 else len(batch), spec.n_e))
    grad = encode_vjp(spec, params, batch, cot)
    assert grad.shape == (params.theta.size,)
    if params.theta.size == 0:
        return
    for probe in range(5):
        d = rng.split(1 + probe).standard_normal(params.theta.size)
        d /= np.linalg.norm(d)

        def val(t):
            shifted = EncoderParams(params.theta + t * d, spec.shape_table())
            return float(np.sum(cot * encode(spec, shifted, batch)))

        fd = (val(step) - val(-step)) / (2 * step)
        an = float(grad @ d)
        assert abs(fd - an) <= tol * max(abs(fd), abs(an), 1e-8)


class TestVjp:
    @pytest.mark.parametrize("normalized", [False, True])
    def test_linear(self, normalized):
        spec = linear_spec(3, 4, normalized=normalized)
        params = init_params(spec, SeededRng(30))
        batch = SeededRng(31).standard_normal((6, 3))
        fd_vjp_check(spec, params, batch, seed=32)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_one_layer_mlp(self, normalized):
        spec = mlp_spec([2, 3], "relu", normalized=normalized)
        params = init_params(spec, SeededRng(33))
        batch = SeededRng(34).standard_normal((5, 2))
        fd_vjp_check(spec, params, batch, seed=35)

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_mlp(self, act, normalized):
        spec = mlp_spec([3, 7, 5, 2], act, normalized=normalized)
        params = init_params(spec, SeededRng(36))
        batch = SeededRng(37).standard_normal((6, 3))
        fd_vjp_check(spec, params, batch, seed=38)

    def test_frozen_table_scatter(self):
        # repeated indices must accumulate, matching the FD gradient
        spec = frozen_table_spec(4, 3)
        rows = SeededRng(40).standard_normal((4, 3))
        params = params_from_table(spec, rows)
        batch = np.array([2.0, 2.0, 0.0])
        fd_vjp_check(spec, params, batch, seed=41)
        cot = np.ones((3, 3))
        grad = encode_vjp(spec, params, batch, cot).reshape(4, 3)
        np.testing.assert_array_equal(grad[2], 2.0 * np.ones(3))
        np.testing.assert_array_equal(grad[1], np.zeros(3))

    def test_normalized_gradient_orthogonal_to_output(self):
        # row normalization makes the embedding scale-free: moving theta along
        # a direction that only rescales a row must produce zero value change
        spec = linear_spec(2, 3, normalized=True)
        params = init_params(spec, SeededRng(42))
        batch = SeededRng(43).standard_normal((1, 2))
        e = encode(spec, params, batch)
        # cotangent parallel to the output row: directional derivative is 0
        grad = encode_vjp(spec, params, batch, e.copy())
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-12)

    def test_cotangent_shape_enforced(self):
        spec = linear_spec(2, 3)
        params = init_params(spec, SeededRng(44))
        with pytest.raises(ValueError):
            encode_vjp(spec, params, np.zeros((4, 2)), np.zeros((4, 2)))


def one_layer_reference(spec, params, batch, cot):
    """The one-layer forward and pullback (linear, and the one-layer mlp with
    its bias) as separate branches, written out as they stood before the
    dense chain took them over."""
    w = params.unflatten()
    out = batch @ w["w0"].T
    if "b0" in w:
        out = out + w["b0"]
    if spec.normalized:
        norms = np.linalg.norm(out, axis=1)
        out = out / norms[:, None]
        cot = (cot - out * np.sum(cot * out, axis=1, keepdims=True)) / norms[:, None]
    grads = {"w0": cot.T @ batch}
    if "b0" in w:
        grads["b0"] = cot.sum(axis=0)
    return out, np.concatenate([grads[name].ravel() for name, _ in spec.shape_table()])


class TestDenseChain:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n_in, n_e, rows", [(3, 2, 6), (1, 4, 9), (18, 5, 64)])
    def test_linear_and_one_layer_mlp_match_their_own_branches_bitwise(
        self, family, normalized, n_in, n_e, rows
    ):
        if family == "linear":
            spec = linear_spec(n_in, n_e, normalized=normalized)
        else:
            spec = mlp_spec([n_in, n_e], "relu", normalized=normalized)
        params = init_params(spec, SeededRng(60).split(n_in))
        batch = SeededRng(61).split(n_in).standard_normal((rows, n_in))
        cot = SeededRng(62).split(n_in).standard_normal((rows, n_e))
        e, vjp = encoders.encode_with_vjp(spec, params, batch)
        want_e, want_grad = one_layer_reference(spec, params, batch, cot)
        assert np.array_equal(e, want_e)
        assert np.array_equal(vjp(cot), want_grad)

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_mlp_pullback_fills_a_fresh_vector_in_spec_layout(self, act):
        spec = mlp_spec([3, 5, 4, 2], act)
        params = init_params(spec, SeededRng(63))
        batch = SeededRng(64).standard_normal((7, 3))
        cot = SeededRng(65).standard_normal((7, 2))
        _, vjp = encoders.encode_with_vjp(spec, params, batch)
        grad, again = vjp(cot), vjp(cot)
        assert grad.shape == (spec.n_params(),)
        assert not np.shares_memory(grad, again)
        assert not np.shares_memory(grad, params.theta)
        assert np.array_equal(grad, again)
        blocks = EncoderParams(grad, spec.shape_table()).unflatten()
        assert [(name, b.shape) for name, b in blocks.items()] == list(spec.shape_table())
        # each block against a hand-written backward pass
        w = params.unflatten()
        act_fn = (lambda z: np.maximum(z, 0.0)) if act == "relu" else np.tanh
        z0 = batch @ w["w0"].T + w["b0"]
        h0 = act_fn(z0)
        z1 = h0 @ w["w1"].T + w["b1"]
        h1 = act_fn(z1)
        d_act = (lambda z: (z > 0.0) * 1.0) if act == "relu" else (lambda z: 1.0 - np.tanh(z) ** 2)
        d2 = cot
        d1 = (d2 @ w["w2"]) * d_act(z1)
        d0 = (d1 @ w["w1"]) * d_act(z0)
        want = {
            "w2": d2.T @ h1, "b2": d2.sum(axis=0),
            "w1": d1.T @ h0, "b1": d1.sum(axis=0),
            "w0": d0.T @ batch, "b0": d0.sum(axis=0),
        }
        for name, block in blocks.items():
            np.testing.assert_allclose(block, want[name], rtol=1e-12, atol=1e-14)


class TestSimilarity:
    def test_inner_product_oracle(self):
        rng = SeededRng(50)
        e_u = rng.split(0).standard_normal((4, 3))
        e_v = rng.split(1).standard_normal((4, 3))
        s = similarity_matrix(e_u, e_v, "inner_product", 0.5)
        for i in range(4):
            for j in range(4):
                assert abs(s[i, j] - e_u[i] @ e_v[j] / 0.5) < 1e-12

    def test_l2_oracle(self):
        rng = SeededRng(51)
        e_u = rng.split(0).standard_normal((3, 2))
        e_v = rng.split(1).standard_normal((3, 2))
        s = similarity_matrix(e_u, e_v, "l2_distance", 2.0)
        for i in range(3):
            for j in range(3):
                want = -np.sum((e_u[i] - e_v[j]) ** 2) / 4.0
                assert abs(s[i, j] - want) < 1e-12

    def test_tiltings_agree_on_unit_sphere_up_to_shift(self):
        # on normalized embeddings the two scores differ by a constant only
        rng = SeededRng(52)
        e_u = rng.split(0).standard_normal((5, 4))
        e_v = rng.split(1).standard_normal((5, 4))
        e_u /= np.linalg.norm(e_u, axis=1, keepdims=True)
        e_v /= np.linalg.norm(e_v, axis=1, keepdims=True)
        inner = similarity_matrix(e_u, e_v, "inner_product", 1.0)
        l2 = similarity_matrix(e_u, e_v, "l2_distance", 1.0)
        np.testing.assert_allclose(l2, inner - 1.0, atol=1e-12)

    def test_one_column_scores_are_bitwise_outer_products(self):
        # one-column products are padded to run in BLAS; the zero column
        # must leave every bit of the score where the plain product puts it
        rng = SeededRng(54)
        e_u = rng.split(0).standard_normal((300, 1))
        e_v = rng.split(1).standard_normal((300, 1))
        u, v = e_u[:, 0], e_v[:, 0]
        inner = similarity_matrix(e_u, e_v, "inner_product", 0.7)
        want = np.multiply.outer(u, v) / 0.7
        np.testing.assert_array_equal(inner.view(np.int64), want.view(np.int64))
        l2 = similarity_matrix(e_u, e_v, "l2_distance", 0.7)
        want = -((u**2)[:, None] + (v**2)[None, :] - np.multiply.outer(2.0 * u, v)) / 1.4
        np.testing.assert_array_equal(l2.view(np.int64), want.view(np.int64))

    def test_blas_operands_pads_one_column_only(self):
        x, y = np.arange(6.0).reshape(3, 2), np.ones((4, 2))
        px, py = encoders._blas_operands(x, y)
        assert px is x and py is y
        px, py = encoders._blas_operands(x[:, :1], y[:, :1])
        np.testing.assert_array_equal(px, np.hstack([x[:, :1], np.zeros((3, 1))]))
        np.testing.assert_array_equal(py, np.hstack([y[:, :1], np.zeros((4, 1))]))

    def test_validation(self):
        ones = np.ones((2, 2))
        with pytest.raises(ValueError):
            similarity_matrix(ones, ones, "cosine", 1.0)
        with pytest.raises(ValueError):
            similarity_matrix(ones, ones, "inner_product", 0.0)
        with pytest.raises(ValueError):
            similarity_matrix(ones, np.ones((3, 2)), "inner_product", 1.0)

    @pytest.mark.parametrize("tilting", ["inner_product", "l2_distance"])
    def test_vjp_matches_fd(self, tilting):
        rng = SeededRng(53)
        e_u = rng.split(0).standard_normal((4, 3))
        e_v = rng.split(1).standard_normal((4, 3))
        ds = rng.split(2).standard_normal((4, 4))
        cot_u, cot_v = similarity_vjp(e_u, e_v, tilting, 0.7, ds)
        step = 1e-6
        for probe in range(4):
            du = rng.split(3, probe).standard_normal(e_u.shape)
            dv = rng.split(4, probe).standard_normal(e_v.shape)

            def val(t):
                s = similarity_matrix(e_u + t * du, e_v + t * dv, tilting, 0.7)
                return float(np.sum(ds * s))

            fd = (val(step) - val(-step)) / (2 * step)
            an = float(np.sum(cot_u * du) + np.sum(cot_v * dv))
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-8)

    def test_vjp_cotangent_shape(self):
        ones = np.ones((2, 2))
        with pytest.raises(ValueError):
            similarity_vjp(ones, ones, "inner_product", 1.0, np.ones((3, 2)))
