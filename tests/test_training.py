"""Training loop mechanics: batching, Adam reference math, determinism,
frozen specs, probes, and the history table a run writes as CSV."""

from types import SimpleNamespace

import numpy as np
import pytest

from tiltlab import cli, datagen, encoders, gaussian, losses, training
from tiltlab.errors import NonFiniteGradient
from tiltlab.losses import LossKind
from tiltlab.rng import SeededRng
from tiltlab.training import (
    ADAM_BETAS,
    ADAM_CHUNK,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    TrainHistory,
    adam_step,
    epoch_batches,
    train,
)


def small_config(**overrides):
    base = dict(
        seed=7,
        epochs=3,
        batch_size=8,
        learning_rate=1e-2,
        tau=1.0,
        loss=LossKind("cond", 1.0, 1.0),
        tilting="inner_product",
    )
    base.update(overrides)
    return TrainConfig(**base)


def toy_data(seed=0, n=64):
    g = gaussian.BlockGaussian([[1.5]], [[1.0]], [[1.5]])
    return datagen.sample_block_gaussian(g, n, SeededRng(seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(batch_size=1)
        with pytest.raises(ValueError):
            small_config(learning_rate=0.0)
        with pytest.raises(ValueError):
            small_config(tau=-1.0)
        with pytest.raises(ValueError):
            small_config(epochs=0)
        with pytest.raises(ValueError):
            small_config(tilting="cosine")


class TestEpochBatches:
    def test_covers_every_index_once(self):
        batches = epoch_batches(20, 6, seed=1, epoch=0)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(20))

    def test_batch_sizes(self):
        batches = epoch_batches(20, 6, seed=1, epoch=0)
        assert [b.size for b in batches] == [6, 6, 6, 2]

    def test_singleton_tail_dropped(self):
        batches = epoch_batches(13, 4, seed=2, epoch=0)
        assert [b.size for b in batches] == [4, 4, 4]
        assert np.concatenate(batches).size == 12

    def test_different_epochs_shuffle_differently(self):
        a = np.concatenate(epoch_batches(32, 8, seed=3, epoch=0))
        b = np.concatenate(epoch_batches(32, 8, seed=3, epoch=1))
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = epoch_batches(17, 5, seed=4, epoch=2)
        b = epoch_batches(17, 5, seed=4, epoch=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestAdam:
    def test_reference_first_step(self):
        # with t=1 the bias correction makes the update lr * g/(|g| + eps)
        params = np.array([1.0, -2.0])
        grad = np.array([0.5, -4.0])
        new, state = adam_step(params, grad, AdamState.zeros(2), 0.1)
        want = params - 0.1 * np.sign(grad) * (np.abs(grad) / (np.abs(grad) + ADAM_EPS))
        np.testing.assert_allclose(new, want, atol=1e-12)
        assert state.t == 1

    def test_two_steps_match_hand_rollout(self):
        b1, b2 = ADAM_BETAS
        params = np.array([0.3])
        g1, g2 = np.array([1.2]), np.array([-0.7])
        p, st = adam_step(params, g1, AdamState.zeros(1), 0.05)
        p, st = adam_step(p, g2, st, 0.05)

        m = (1 - b1) * g1
        v = (1 - b2) * g1**2
        p_ref = params - 0.05 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + ADAM_EPS)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2**2
        p_ref = p_ref - 0.05 * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + ADAM_EPS)
        np.testing.assert_allclose(p, p_ref, atol=1e-14)
        assert st.t == 2

    def test_params_left_unchanged_and_state_updated_in_place(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.zeros(3)
        m, v = state.m, state.v
        for grad in (np.array([0.5, -4.0, 1.0]), np.array([-0.25, 2.0, 3.0])):
            before = params.copy()
            new, out = adam_step(params, grad, state, 0.1)
            np.testing.assert_array_equal(params, before)
            assert new is not params
            assert out is state and out.m is m and out.v is v
            params = new
        assert state.t == 2

    def test_rejects_nan_gradient(self):
        with pytest.raises(NonFiniteGradient):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), AdamState.zeros(2), 1e-2)

    def test_rejects_second_moment_overflow(self):
        # the gradient is finite but its square is not
        with np.errstate(over="raise"), pytest.raises(NonFiniteGradient, match="overflowed"):
            adam_step(np.zeros(2), np.array([1e200, 1.0]), AdamState.zeros(2), 1e-2)


def whole_vector_adam(params, grad, m, v, t, learning_rate):
    """One Adam update over whole vectors, in adam_step's op order; m and v
    advance in place."""
    b1, b2 = ADAM_BETAS
    m *= b1
    m += grad * (1.0 - b1)
    a = grad * grad
    v *= b2
    v += a * (1.0 - b2)
    a = m / (1.0 - b1**t)
    a *= learning_rate
    b = np.sqrt(v / (1.0 - b2**t))
    b += ADAM_EPS
    a /= b
    return params - a


class TestChunkedAdam:
    @pytest.mark.parametrize(
        "n", [1, ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 5]
    )
    def test_matches_the_whole_vector_update_bitwise(self, n):
        rng = SeededRng(21).split(n)
        params = rng.split(0).standard_normal(n)
        ref_params, ref_m, ref_v = params.copy(), np.zeros(n), np.zeros(n)
        state = AdamState.zeros(n)
        for t in range(1, 4):
            grad = rng.split(1, t).standard_normal(n)
            params, state = adam_step(params, grad, state, 3e-3)
            ref_params = whole_vector_adam(ref_params, grad, ref_m, ref_v, t, 3e-3)
            assert np.array_equal(params, ref_params)
            assert np.array_equal(state.m, ref_m)
            assert np.array_equal(state.v, ref_v)
        assert state.t == 3

    def test_scratch_is_chunk_sized(self):
        # the flow MLP's parameter count
        assert AdamState.zeros(223_762).scratch.nbytes <= 2 * 8 * ADAM_CHUNK

    def test_nan_in_last_chunk_leaves_state_untouched(self):
        n = 2 * ADAM_CHUNK + 3
        state = AdamState.zeros(n)
        adam_step(np.zeros(n), np.ones(n), state, 1e-2)
        m, v = state.m.copy(), state.v.copy()
        grad = np.ones(n)
        grad[-1] = np.nan
        with pytest.raises(NonFiniteGradient, match="gradient contains nan or inf"):
            adam_step(np.zeros(n), grad, state, 1e-2)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.t == 1

    def test_overflow_in_last_chunk_is_caught(self):
        n = 2 * ADAM_CHUNK + 3
        grad = np.ones(n)
        grad[-1] = 1e200
        with np.errstate(over="raise"), pytest.raises(
            NonFiniteGradient, match="^Adam moments or parameters overflowed$"
        ):
            adam_step(np.zeros(n), grad, AdamState.zeros(n), 1e-2)


def two_adam_reference(cfg, data, spec_u, spec_v, init_u, init_v):
    """train's loop with one AdamState and one adam_step per trainable side;
    returns (theta_u, theta_v, epoch losses)."""
    specs, params = (spec_u, spec_v), [init_u, init_v]
    batches = [np.asarray(x, dtype=np.float64) for x in (data.u, data.v)]
    states = [AdamState.zeros(p.theta.size) for p in params]
    ws, epoch_losses = {}, []
    for epoch in range(cfg.epochs):
        step_losses = []
        for idx in epoch_batches(batches[0].shape[0], cfg.batch_size, cfg.seed, epoch):
            (e_u, vjp_u), (e_v, vjp_v) = (
                encoders.encode_with_vjp(spec, p, x[idx])
                for spec, p, x in zip(specs, params, batches)
            )
            value, cot_u, cot_v, _ = losses.score_step(
                cfg.loss, e_u, e_v, cfg.tilting, cfg.tau, ws, batches[0][idx], batches[1][idx]
            )
            step_losses.append(value)
            for side, (vjp, cot) in enumerate(((vjp_u, cot_u), (vjp_v, cot_v))):
                if specs[side].trainable:
                    theta, states[side] = adam_step(
                        params[side].theta, vjp(cot), states[side], cfg.learning_rate
                    )
                    params[side] = encoders.EncoderParams(theta, specs[side].shape_table())
        epoch_losses.append(float(np.mean(step_losses)))
    return params[0].theta, params[1].theta, epoch_losses


def encoder_pair(name):
    """(data, spec_u, spec_v, init_u, init_v, loss) for a named pair; 100
    rows, so batches of 16 leave a 4-row tail."""
    rng = SeededRng(31)
    if name == "linear-linear":
        u = rng.split(0).standard_normal((100, 3))
        v = u[:, :2] + 0.5 * rng.split(1).standard_normal((100, 2))
        specs = encoders.linear_spec(3, 2), encoders.linear_spec(2, 2)
        inits = [encoders.init_params(spec, rng.split(2, i)) for i, spec in enumerate(specs)]
        return SimpleNamespace(u=u, v=v), *specs, *inits, LossKind("cond", 1.3, 0.6)
    if name == "frozen_table-mlp":
        u = np.arange(100.0)[:, None] % 12
        v = rng.split(0).standard_normal((100, 4)) + u / 6.0
        spec_u = encoders.frozen_table_spec(12, 3, normalized=True)
        spec_v = encoders.mlp_spec([4, 8, 3], activation="tanh", normalized=True)
        init_u = encoders.params_from_table(spec_u, rng.split(1).standard_normal((12, 3)))
        init_v = encoders.init_params(spec_v, rng.split(2))
        return SimpleNamespace(u=u, v=v), spec_u, spec_v, init_u, init_v, LossKind("joint")
    # the label-head fine-tune of crossmodal: a linear label table on one-hot
    # label rows against frozen rows [e_i, 1]
    labels = np.arange(100) % 4
    rows = np.hstack([rng.split(0).standard_normal((100, 2)), np.ones((100, 1))])
    spec_u = encoders.linear_spec(4, 3)
    spec_v = encoders.frozen_table_spec(100, 3)
    init_u = encoders.init_params(spec_u, rng.split(1))
    init_v = encoders.params_from_table(spec_v, rows)
    data = SimpleNamespace(u=np.eye(4)[labels], v=np.arange(100.0)[:, None])
    return data, spec_u, spec_v, init_u, init_v, LossKind("cond", 2.0, 0.0)


ENCODER_PAIRS = ["linear-linear", "frozen_table-mlp", "label_table-frozen_table"]


class TestOneAdamForThePair:
    """train keeps both sides' trainable parameters in one vector with one
    AdamState; Adam is elementwise, so that is bitwise two updates."""

    @pytest.mark.parametrize("tilting", encoders.TILTINGS)
    @pytest.mark.parametrize("pair", ENCODER_PAIRS)
    def test_matches_one_adam_state_per_side_bitwise(self, pair, tilting):
        data, spec_u, spec_v, init_u, init_v, loss = encoder_pair(pair)
        cfg = small_config(epochs=3, batch_size=16, tau=0.5, loss=loss, tilting=tilting)
        out_u, out_v, hist = train(cfg, data, spec_u, spec_v, init_u, init_v)
        want_u, want_v, want_losses = two_adam_reference(cfg, data, spec_u, spec_v, init_u, init_v)
        assert np.array_equal(out_u.theta, want_u)
        assert np.array_equal(out_v.theta, want_v)
        assert hist.losses == want_losses
        for spec, init, out in ((spec_u, init_u, out_u), (spec_v, init_v, out_v)):
            assert spec.trainable != np.array_equal(out.theta, init.theta)

    @pytest.mark.parametrize(
        "pair, side",
        [
            pytest.param(pair, side, id=f"{pair}-{'uv'[side]}")
            for pair, side in (
                ("linear-linear", 0),
                ("linear-linear", 1),
                ("frozen_table-mlp", 1),
                ("label_table-frozen_table", 0),
            )
        ],
    )
    def test_nan_gradient_on_either_side_names_epoch_and_step(self, monkeypatch, pair, side):
        data, spec_u, spec_v, init_u, init_v, loss = encoder_pair(pair)
        cfg = small_config(epochs=2, batch_size=16, loss=loss)
        steps = len(epoch_batches(100, 16, cfg.seed, 0))
        poisoned_call = 2 * (steps + 2) + side  # epoch 1, step 2
        calls = iter(range(10**6))
        encode_with_vjp = training.encode_with_vjp

        def poisoning(spec, params, batch):
            e, vjp = encode_with_vjp(spec, params, batch)
            if next(calls) != poisoned_call:
                return e, vjp

            def nan_vjp(cotangent, out=None):
                grad = vjp(cotangent, out=out)
                grad[-1] = np.nan
                return grad

            return e, nan_vjp

        monkeypatch.setattr(training, "encode_with_vjp", poisoning)
        with pytest.raises(
            NonFiniteGradient, match="^epoch 1, step 2: gradient contains nan or inf$"
        ):
            train(cfg, data, spec_u, spec_v, init_u, init_v)


class TestTrainLoop:
    def test_loss_decreases_on_easy_problem(self):
        data = toy_data(0, 256)
        spec = encoders.linear_spec(1, 2)
        pu = encoders.init_params(spec, SeededRng(1).split(0))
        pv = encoders.init_params(spec, SeededRng(1).split(1))
        cfg = small_config(epochs=20, batch_size=64, learning_rate=1e-2)
        _, _, hist = train(cfg, data, spec, spec, pu, pv)
        assert hist.losses[-1] < hist.losses[0]
        assert len(hist.losses) == 20

    def test_fused_inner_path_matches_generic_chain(self):
        # the inner-product clip/cond step takes a matrix-free shortcut;
        # replicate one epoch through the public pieces and compare
        for variant, lam in (("cond", (1.3, 0.6)), ("clip", (1.0, 1.0)), ("cond", (1.0, 1.0))):
            cfg = small_config(
                epochs=1, batch_size=16, tau=0.7, loss=LossKind(variant, *lam)
            )
            data = toy_data(5, 48)
            spec = encoders.linear_spec(1, 2)
            pu0 = encoders.init_params(spec, SeededRng(6).split(0))
            pv0 = encoders.init_params(spec, SeededRng(6).split(1))
            pu, pv, hist = train(cfg, data, spec, spec, pu0, pv0)

            params_u, params_v = pu0, pv0
            su = AdamState.zeros(pu0.theta.size)
            sv = AdamState.zeros(pv0.theta.size)
            losses_ref = []
            for idx in epoch_batches(48, 16, cfg.seed, 0):
                u_b, v_b = data.u[idx], data.v[idx]
                e_u = encoders.encode(spec, params_u, u_b)
                e_v = encoders.encode(spec, params_v, v_b)
                sb = encoders.similarity_matrix(e_u, e_v, cfg.tilting, cfg.tau)
                value, ds = losses.loss_value_and_grad(cfg.loss, sb)
                losses_ref.append(value)
                cot_u, cot_v = encoders.similarity_vjp(e_u, e_v, cfg.tilting, cfg.tau, ds)
                g_u = encoders.encode_vjp(spec, params_u, u_b, cot_u)
                g_v = encoders.encode_vjp(spec, params_v, v_b, cot_v)
                tu, su = adam_step(params_u.theta, g_u, su, cfg.learning_rate)
                tv, sv = adam_step(params_v.theta, g_v, sv, cfg.learning_rate)
                params_u = encoders.EncoderParams(tu, spec.shape_table())
                params_v = encoders.EncoderParams(tv, spec.shape_table())
            np.testing.assert_allclose(pu.theta, params_u.theta, atol=1e-12)
            np.testing.assert_allclose(pv.theta, params_v.theta, atol=1e-12)
            assert hist.losses[0] == pytest.approx(np.mean(losses_ref), abs=1e-12)

    def test_one_forward_per_side_per_step(self, monkeypatch):
        # the gradient reuses the step's forward pass instead of running it again
        calls = []
        forward = encoders._forward

        def counting(spec, params, batch):
            calls.append(spec.family)
            return forward(spec, params, batch)

        monkeypatch.setattr(encoders, "_forward", counting)
        data = toy_data(9, 40)
        spec_u = encoders.mlp_spec([1, 5, 2], activation="tanh")
        spec_v = encoders.linear_spec(1, 2)
        pu = encoders.init_params(spec_u, SeededRng(11).split(0))
        pv = encoders.init_params(spec_v, SeededRng(11).split(1))
        cfg = small_config(epochs=1, batch_size=16)
        train(cfg, data, spec_u, spec_v, pu, pv)
        steps = len(epoch_batches(40, 16, cfg.seed, 0))
        assert calls == ["mlp", "linear"] * steps

    @pytest.mark.parametrize("variant", ["clip", "cond", "joint"])
    def test_shifted_steps_counted_per_epoch(self, variant):
        # with a 1-d input the unit-norm embeddings are +-g/|g| and +-h/|h|,
        # so every score is +-cos(g, h)/tau: far outside the unshifted exp
        # range at tau = 1e-4 unless g and h are nearly orthogonal, and
        # inside it at tau = 1
        data = toy_data(3, 48)
        spec = encoders.linear_spec(1, 2, normalized=True)
        pu = encoders.init_params(spec, SeededRng(4).split(0))
        pv = encoders.init_params(spec, SeededRng(4).split(1))
        for tau, want in ((1e-4, [3, 3]), (1.0, [0, 0])):
            cfg = small_config(epochs=2, batch_size=16, tau=tau, loss=LossKind(variant))
            _, _, hist = train(cfg, data, spec, spec, pu, pv)
            assert hist.shifted_steps == want
            assert all(np.isfinite(hist.losses))

    def test_joint_mmd_trains_at_batch_512(self):
        # the joint MMD needs only N x N Grams, so a full-size batch is cheap
        data = toy_data(4, 2048)
        spec = encoders.linear_spec(1, 2)
        pu = encoders.init_params(spec, SeededRng(5).split(0))
        pv = encoders.init_params(spec, SeededRng(5).split(1))
        loss = LossKind("joint_mmd", kernel=losses.Kernel("gaussian"))
        cfg = small_config(epochs=2, batch_size=512, loss=loss)
        out_u, out_v, hist = train(cfg, data, spec, spec, pu, pv)
        assert len(hist.losses) == 2
        assert all(np.isfinite(hist.losses))
        assert not np.array_equal(out_u.theta, pu.theta)
        assert not np.array_equal(out_v.theta, pv.theta)

    def test_deterministic_rerun(self):
        data = toy_data(2, 64)
        spec = encoders.linear_spec(1, 2)
        pu = encoders.init_params(spec, SeededRng(3).split(0))
        pv = encoders.init_params(spec, SeededRng(3).split(1))
        cfg = small_config(epochs=4)
        out1 = train(cfg, data, spec, spec, pu, pv)
        out2 = train(cfg, data, spec, spec, pu, pv)
        np.testing.assert_array_equal(out1[0].theta, out2[0].theta)
        np.testing.assert_array_equal(out1[1].theta, out2[1].theta)
        assert out1[2].losses == out2[2].losses

    def test_frozen_table_untouched(self):
        # identity-table u side and frozen_table v side: training must be a
        # no-op on both parameter vectors while still computing losses
        rows = SeededRng(4).standard_normal((16, 3))
        spec_u = encoders.frozen_table_spec(3, 3)
        spec_v = encoders.frozen_table_spec(16, 3)
        pu = encoders.params_from_table(spec_u, np.eye(3))
        pv = encoders.params_from_table(spec_v, rows)

        class Data:
            u = np.arange(16.0)[:, None] % 3
            v = np.arange(16.0)[:, None]

        cfg = small_config(epochs=2, batch_size=8)
        out_u, out_v, hist = train(cfg, Data(), spec_u, spec_v, pu, pv)
        np.testing.assert_array_equal(out_u.theta, pu.theta)
        np.testing.assert_array_equal(out_v.theta, pv.theta)
        assert len(hist.losses) == 2

    def test_probe_called_each_epoch(self):
        data = toy_data(6, 32)
        spec = encoders.linear_spec(1, 2)
        pu = encoders.init_params(spec, SeededRng(7).split(0))
        pv = encoders.init_params(spec, SeededRng(7).split(1))
        seen = []

        def probe(epoch, params_u, params_v):
            seen.append(epoch)
            return {"theta_norm": float(np.linalg.norm(params_u.theta))}

        cfg = small_config(epochs=3, batch_size=16)
        _, _, hist = train(cfg, data, spec, spec, pu, pv, probe=probe)
        assert seen == [0, 1, 2]
        assert all("theta_norm" in m for m in hist.metrics)

    def test_width_mismatch_rejected(self):
        data = toy_data(8, 16)
        spec_wide = encoders.linear_spec(3, 2)
        p = encoders.init_params(spec_wide, SeededRng(9))
        with pytest.raises(ValueError):
            train(small_config(), data, spec_wide, spec_wide, p, p)

    def test_length_mismatch_rejected(self):
        spec = encoders.linear_spec(1, 2)
        p = encoders.init_params(spec, SeededRng(10))

        class Bad:
            u = np.zeros((4, 1))
            v = np.zeros((5, 1))

        with pytest.raises(ValueError):
            train(small_config(), Bad(), spec, spec, p, p)

    def test_nonfinite_gradient_context(self):
        # a polynomial kernel on unscaled data overflows its Gram matrix to
        # inf while the similarity scores stay finite; the resulting nan
        # gradient is reported with its epoch and step
        from tiltlab.losses import Kernel

        spec = encoders.linear_spec(1, 1)
        p = encoders.EncoderParams(np.array([1.0]), spec.shape_table())

        class Data:
            u = np.array([[1e80], [-1e80], [2e80], [-2e80]])
            v = np.array([[1e80], [-1e80], [2e80], [-2e80]])

        cfg = small_config(
            epochs=1,
            batch_size=4,
            loss=LossKind("joint_mmd", kernel=Kernel("polynomial", degree=3)),
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteGradient, match="epoch 0, step 0"):
            train(cfg, Data(), spec, spec, p, p)

    @pytest.mark.parametrize("tilting", encoders.TILTINGS)
    @pytest.mark.parametrize("variant", losses.LOSS_VARIANTS)
    def test_divergent_scores_name_epoch_and_step(self, variant, tilting):
        # a learning rate of 1e300 throws the parameters to about 1e300
        # after one step, so the next step's scores overflow; the error
        # keeps its type and names where the run diverged
        data = toy_data(12, 64)
        spec = encoders.linear_spec(1, 2)
        pu = encoders.init_params(spec, SeededRng(13).split(0))
        pv = encoders.init_params(spec, SeededRng(13).split(1))
        kernel = losses.Kernel("gaussian") if variant.endswith("mmd") else None
        loss = LossKind(variant, kernel=kernel)
        cfg = small_config(epochs=1, batch_size=16, learning_rate=1e300, tilting=tilting, loss=loss)
        want = "^epoch 0, step 1: non-finite similarity scores$"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
            train(cfg, data, spec, spec, pu, pv)


class TestHistoryCsv:
    @staticmethod
    def written(tmp_path, hist) -> bytes:
        """The bytes a run writes for hist: its table through the one CSV writer."""
        plan = SimpleNamespace(output_dir=str(tmp_path), experiment="gaussian2d", echo={})
        return (tmp_path / cli._write_csv(plan, "hist", *hist.table())).read_bytes()

    def test_exact_bytes(self, tmp_path):
        hist = TrainHistory(
            losses=[0.5, 0.25],
            metrics=[{"acc": 0.125}, {"acc": 0.5}],
            seconds=[1.0, 2.0],
        )
        want = b"epoch,loss,acc\r\n0,0.5,0.125\r\n1,0.25,0.5\r\n"
        assert self.written(tmp_path, hist) == want

    def test_wall_clock_stays_out(self):
        a = TrainHistory(losses=[1.0], metrics=[{}], seconds=[0.1])
        b = TrainHistory(losses=[1.0], metrics=[{}], seconds=[99.9])
        assert a.table() == b.table() == (["epoch", "loss"], [[0, 1.0]])

    def test_ragged_metrics_leave_blanks(self, tmp_path):
        hist = TrainHistory(losses=[1.0, 2.0], metrics=[{"a": 1.0}, {"b": 2.0}], seconds=[0, 0])
        lines = self.written(tmp_path, hist).decode("utf-8").splitlines()
        assert lines[0] == "epoch,loss,a,b"
        assert lines[1] == "0,1,1,"
        assert lines[2] == "1,2,,2"
