"""Acceptance sweep: fourteen end-to-end checks, one test each.

Every test prints a single "criterion N: PASS/FAIL (...)" line before its
assertions, so a plain ``pytest -s tests/test_acceptance.py`` doubles as a
readable report. Each check also carries a wall-clock budget; the slowest
(the two linear-encoder recovery sweeps) runs in a couple of minutes on a
laptop-class machine.

The checks that train encoders freeze their full sampling and init plan
(seeds, split tags, stage schedules), so reruns are bit-reproducible and
the asserted margins are not statistical accidents.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist
from scipy.special import logsumexp, softmax

from tiltlab import cli, crossmodal, datagen, encoders, gaussian, losses, training
from tiltlab.datagen import GpConfig, sample_block_gaussian
from tiltlab.encoders import (
    EncoderParams,
    encode,
    encode_vjp,
    init_params,
    similarity_matrix,
    similarity_vjp,
)
from tiltlab.gaussian import BlockGaussian
from tiltlab.linalg import sym_sqrt
from tiltlab.losses import Kernel, LossKind, loss_value_and_grad
from tiltlab.rng import SeededRng
from tiltlab.training import TrainConfig, train


def reference():
    return BlockGaussian(np.array([[1.5]]), np.array([[1.0]]), np.array([[1.5]]))


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _train_linear_pair(data, n_e, tag, stages, root):
    """Two linear encoders under the conditional loss, staged learning rates.

    Init streams hang off the shared root at (10, tag, side) so every
    configuration in a sweep gets its own reproducible draw.
    """
    spec_u = encoders.linear_spec(data.u.shape[1], n_e)
    spec_v = encoders.linear_spec(data.v.shape[1], n_e)
    params_u = init_params(spec_u, root.split(10, tag, 0))
    params_v = init_params(spec_v, root.split(10, tag, 1))
    for epochs, lr in stages:
        cfg = TrainConfig(
            seed=606,
            epochs=epochs,
            batch_size=512,
            learning_rate=lr,
            tau=1.0,
            loss=LossKind("cond", 1.0, 1.0),
            tilting="inner_product",
        )
        params_u, params_v, _ = train(cfg, data, spec_u, spec_v, params_u, params_v)
    return params_u.unflatten()["w0"].T @ params_v.unflatten()["w0"]


def test_criterion_01_clip_cond_identity():
    # the symmetric contrastive loss is the (1,1) conditional loss plus log N
    t0 = time.perf_counter()
    rng = SeededRng(101)
    worst = 0.0
    for n in (2, 8, 64):
        for draw in range(4):
            s = rng.split(n, draw).standard_normal((n, n)) * (0.5 + draw)
            gap = abs(losses.loss_clip(s) - losses.loss_cond(s, 1.0, 1.0) - np.log(n))
            worst = max(worst, gap)
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    assert _report(1, ok, f"max identity gap {worst:.2e} over N in 2/8/64; {dt:.2f} s"), worst


def test_criterion_02_trained_linear_recovery():
    # one-dimensional reference problem: 50k pairs, 200 epochs, the learned
    # tilt matrix must land within 0.05 of the closed-form 4/9
    t0 = time.perf_counter()
    g = reference()
    root = SeededRng(42)
    data = sample_block_gaussian(g, 50_000, root.split(1))
    spec = encoders.linear_spec(1, 1)
    params_u = init_params(spec, root.split(10, 0))
    params_v = init_params(spec, root.split(10, 1))
    cfg = TrainConfig(
        seed=42,
        epochs=200,
        batch_size=512,
        learning_rate=1e-3,
        tau=1.0,
        loss=LossKind("cond", 1.0, 1.0),
        tilting="inner_product",
    )
    params_u, params_v, _ = train(cfg, data, spec, spec, params_u, params_v)
    a_hat = float((params_u.unflatten()["w0"].T @ params_v.unflatten()["w0"])[0, 0])
    err = abs(a_hat - 4.0 / 9.0)
    dt = time.perf_counter() - t0
    ok = err < 0.05 and dt < 60.0
    assert _report(2, ok, f"a_hat {a_hat:.4f}, |a_hat - 4/9| = {err:.4f} < 0.05; {dt:.1f} s < 60 s")


def test_criterion_03_quadratic_minimizer_matches_conditional():
    # the unconstrained quadratic tilting reproduces the true u given v law
    t0 = time.perf_counter()
    g = reference()
    q = gaussian.minimizer_quadratic_onesided(g)
    model = gaussian.model_conditional(q, "u_given_v", g)
    gain_err = abs(float(model.gain[0, 0]) - 2.0 / 3.0)
    cov_err = abs(float(model.cov[0, 0]) - 5.0 / 6.0)
    dt = time.perf_counter() - t0
    ok = gain_err < 1e-10 and cov_err < 1e-10 and dt < 1.0
    assert _report(
        3, ok, f"model gain err {gain_err:.1e}, cov err {cov_err:.1e} (targets 2/3, 5/6); {dt:.2f} s"
    )


def test_criterion_04_joint_minimizer_and_marginal_ordering():
    t0 = time.perf_counter()
    g = reference()
    h_err = abs(gaussian.shrinkage_h(2.0 / 3.0) - 0.5)
    h1_err = abs(gaussian.shrinkage_h(1.0) - (np.sqrt(5.0) - 1.0) / 2.0)
    a_joint = gaussian.minimizer_joint(g)
    a_err = abs(float(a_joint[0, 0]) - 1.0 / 3.0)
    # the joint-loss model inflates the u marginal, the conditional-loss
    # model inflates it further: 1.5 < 2.0 < 2.7
    true_var = float(g.c_uu[0, 0])
    var_joint = float(gaussian.model_marginal_u(a_joint, g)[0, 0])
    var_cond = float(gaussian.model_marginal_u(gaussian.minimizer_cond(g), g)[0, 0])
    dt = time.perf_counter() - t0
    ok = (
        h_err < 1e-10
        and h1_err < 1e-10
        and a_err < 1e-10
        and abs(true_var - 1.5) < 1e-12
        and abs(var_joint - 2.0) < 1e-9
        and abs(var_cond - 2.7) < 1e-9
        and true_var < var_joint < var_cond
        and dt < 1.0
    )
    assert _report(
        4,
        ok,
        f"h(2/3) err {h_err:.1e}, A*_joint err {a_err:.1e}, "
        f"marginals {true_var:.3f} < {var_joint:.10f} < {var_cond:.10f}; {dt:.2f} s",
    )


def test_criterion_05_conditional_dominated_by_joint():
    # closed-form population losses: the conditional one never exceeds the
    # joint one, checked over 1000 random tiltings on random block Gaussians
    t0 = time.perf_counter()
    rng = SeededRng(505)
    worst = -np.inf
    for trial in range(1000):
        r = rng.split(trial)
        n_x = int(r.integers(1, 5, ()))
        n_y = int(r.integers(1, 5, ()))
        d = n_x + n_y
        w = r.standard_normal((d, d + 2))
        c = w @ w.T / (d + 2) + 0.3 * np.eye(d)
        g = BlockGaussian(c[:n_x, :n_x], c[:n_x, n_x:], c[n_x:, n_x:])
        a = r.standard_normal((n_x, n_y))
        # scale so the whitened tilt has spectral norm below 1, which keeps
        # the joint normalizer finite
        whitened = sym_sqrt(g.c_uu) @ a @ sym_sqrt(g.c_vv)
        a *= float(r.uniform(0.05, 0.95, ())) / np.linalg.norm(whitened, 2)
        worst = max(worst, gaussian.cond_loss_closed(a, g) - gaussian.joint_loss_closed(a, g))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    assert _report(5, ok, f"max (cond - joint) = {worst:.2e} over 1000 trials; {dt:.1f} s")


def test_criterion_06_gp_embedding_dim_sweep():
    # function-coefficient pairs from the smooth random-field generator:
    # conditional-mean error must drop from 1 to 5 embedding dimensions and
    # plateau from 5 to 8
    t0 = time.perf_counter()
    gp = GpConfig()
    blocks = datagen.gp_analytic_blocks(gp)
    true_gain = gaussian.conditional_u_given_v(blocks).gain
    root = SeededRng(606)
    data = datagen.gp_modality_pair(gp, 10_000, root.split(1))
    v_draws = root.split(4).standard_normal((1000, gp.n_coeffs))
    mses = {}
    for i, n_e in enumerate((1, 5, 8)):
        a_hat = _train_linear_pair(data, n_e, i, ((200, 1e-2), (100, 1e-3)), root)
        err = (blocks.c_uu @ a_hat - true_gain) @ v_draws.T
        mses[n_e] = float(np.mean(np.sum(err**2, axis=0)))
    delta = abs(mses[8] - mses[5]) / mses[5]
    dt = time.perf_counter() - t0
    ok = mses[5] < mses[1] and delta < 0.10 and dt < 600.0
    assert _report(
        6,
        ok,
        f"mse(n_e=1) {mses[1]:.2e} > mse(n_e=5) {mses[5]:.2e}, "
        f"plateau delta {delta:.3f} < 0.10; {dt:.0f} s",
    )


def test_criterion_07_trained_encoders_match_rank_optimum():
    # at rank r the trained tilt matrix must sit within 5% (Frobenius,
    # relative) of the closed-form minimizer for the empirical covariance
    t0 = time.perf_counter()
    gp = GpConfig()
    root = SeededRng(606)
    data = datagen.gp_modality_pair(gp, 40_000, root.split(2))
    emp = gaussian.empirical_block_gaussian(data)
    rels = {}
    for j, r in enumerate((1, 3, 5)):
        a_hat = _train_linear_pair(data, r, 20 + j, ((120, 1e-2), (60, 1e-3)), root)
        opt = gaussian.minimizer_cond(emp, r)
        rels[r] = float(np.linalg.norm(a_hat - opt) / np.linalg.norm(opt))
    dt = time.perf_counter() - t0
    ok = all(v < 0.05 for v in rels.values()) and dt < 600.0
    detail = ", ".join(f"r={r}: {v:.4f}" for r, v in rels.items())
    assert _report(7, ok, f"rel Frobenius {detail}, all < 0.05; {dt:.0f} s")


def _gradient_check_case(family, rng):
    """Encoder pair, params, and data batches for one family.

    The parametric side under test is paired with a small partner so the
    probe direction sweeps both parameter vectors at once. The mlp uses
    tanh here: central differences sit too close to the relu kink to be
    trustworthy at step 1e-5, and the relu backward pass has its own unit
    tests.
    """
    n = 6
    if family == "linear":
        spec_u, spec_v = encoders.linear_spec(3, 2), encoders.linear_spec(4, 2)
        bu = rng.split(0).standard_normal((n, 3))
        bv = rng.split(1).standard_normal((n, 4))
        pu, pv = init_params(spec_u, rng.split(2)), init_params(spec_v, rng.split(3))
    elif family == "mlp":
        spec_u = encoders.mlp_spec([3, 5, 2], activation="tanh")
        spec_v = encoders.mlp_spec([4, 5, 2], activation="tanh")
        bu = rng.split(0).standard_normal((n, 3))
        bv = rng.split(1).standard_normal((n, 4))
        pu, pv = init_params(spec_u, rng.split(2)), init_params(spec_v, rng.split(3))
    else:
        spec_u, spec_v = encoders.frozen_table_spec(8, 2), encoders.linear_spec(3, 2)
        bu = rng.split(0).integers(0, 8, (n, 1)).astype(np.float64)
        bv = rng.split(1).standard_normal((n, 3))
        pu = encoders.params_from_table(spec_u, rng.split(2).standard_normal((8, 2)))
        pv = init_params(spec_v, rng.split(3))
    return spec_u, pu, spec_v, pv, bu, bv


def test_criterion_08_chain_gradients_match_finite_differences():
    # full-chain analytic gradients (encode -> similarity -> loss) against
    # central differences, for every encoder family, tilting, and loss kind
    t0 = time.perf_counter()
    kernel = Kernel("gaussian", bandwidth=1.0)
    kinds = (
        LossKind("clip"),
        LossKind("cond", 1.3, 0.6),
        LossKind("joint"),
        LossKind("cond_mmd", 0.8, 1.2, kernel=kernel),
        LossKind("joint_mmd", kernel=kernel),
    )
    tau, step = 0.7, 1e-5
    worst, worst_at = 0.0, ""
    # each family keeps the stream it had when the grid also held affine
    # (index 1) and one_hot (index 3), so no case's draws moved
    streams = {"linear": 0, "mlp": 2, "frozen_table": 4}
    for family in encoders.FAMILIES:
        rng = SeededRng(808).split(streams[family])
        spec_u, pu, spec_v, pv, bu, bv = _gradient_check_case(family, rng)
        k_u = pu.theta.size
        theta0 = np.concatenate([pu.theta, pv.theta])

        def chain(theta):
            part_u = EncoderParams(theta[:k_u], spec_u.shape_table())
            part_v = EncoderParams(theta[k_u:], spec_v.shape_table())
            e_u = encode(spec_u, part_u, bu)
            e_v = encode(spec_v, part_v, bv)
            sb = similarity_matrix(e_u, e_v, tilting, tau)
            return loss_value_and_grad(kind, sb, bu, bv)

        for tilting in encoders.TILTINGS:
            for kind in kinds:
                e_u = encode(spec_u, pu, bu)
                e_v = encode(spec_v, pv, bv)
                sb = similarity_matrix(e_u, e_v, tilting, tau)
                _, ds = loss_value_and_grad(kind, sb, bu, bv)
                cot_u, cot_v = similarity_vjp(e_u, e_v, tilting, tau, ds)
                grad = np.concatenate(
                    [encode_vjp(spec_u, pu, bu, cot_u), encode_vjp(spec_v, pv, bv, cot_v)]
                )
                for probe in range(20):
                    d = rng.split(4, probe).standard_normal(theta0.shape)
                    d /= np.linalg.norm(d)
                    fd = (chain(theta0 + step * d)[0] - chain(theta0 - step * d)[0]) / (2 * step)
                    an = float(grad @ d)
                    rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                    if rel > worst:
                        worst, worst_at = rel, f"{family}/{tilting}/{kind.variant}"
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 30.0
    assert _report(
        8, ok, f"worst rel err {worst:.2e} at {worst_at} (3x2x5 grid, 20 probes each); {dt:.1f} s"
    )


def test_criterion_09_retrieval_is_softmax_argmax():
    # top-1 retrieval must agree with the mode of the softmax-weighted
    # empirical conditional over the indexed items, instance by instance
    t0 = time.perf_counter()
    rng = SeededRng(909)
    hits = 0
    for trial in range(100):
        r = rng.split(trial)
        m = int(r.integers(5, 51, ()))
        dim = int(r.integers(2, 9, ()))
        items = r.standard_normal((m, dim))
        ids = [int(i) + 100 for i in r.permutation(m)]
        tau = (0.07, 0.5, 1.0)[trial % 3]
        index = crossmodal.build_index(items, ids, normalized=bool(trial % 2))
        q = r.standard_normal(dim)
        got = crossmodal.retrieve(q, index, 1)[0]
        weights = softmax(index.items @ q / tau)
        want = index.ids[int(np.argmax(weights))]
        hits += got == want
    dt = time.perf_counter() - t0
    ok = hits == 100 and dt < 1.0
    assert _report(9, ok, f"{hits}/100 instances agree exactly; {dt:.2f} s")


def _mnist_dir():
    return os.environ.get(
        "TILTLAB_MNIST_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data", "mnist"),
    )


def test_criterion_10_classification_is_cross_entropy(tmp_path):
    # the (2, 0) conditional loss with one-hot labels (the identity table)
    # on one side is plain multiclass cross-entropy with the batch label
    # prior baked in
    t0 = time.perf_counter()
    rng = SeededRng(1010)
    spec_u = encoders.frozen_table_spec(10, 10)
    spec_v = encoders.mlp_spec([5, 8, 10], activation="relu")
    pu = encoders.params_from_table(spec_u, np.eye(10))
    worst = 0.0
    for batch in range(20):
        r = rng.split(1, batch)
        pv = init_params(spec_v, r.split(0))
        x = r.split(1).standard_normal((32, 5))
        y = r.split(2).integers(0, 10, (32,))
        e_u = encode(spec_u, pu, y[:, None].astype(np.float64))
        logits = encode(spec_v, pv, x)
        s = similarity_matrix(e_u, logits, "inner_product", 1.0)
        value = losses.loss_cond(s, 2.0, 0.0)
        counts = np.bincount(y, minlength=10)
        with np.errstate(divide="ignore"):
            log_pi = np.log(counts / 32.0)
        ce = float(-np.mean(logits[np.arange(32), y]) + np.mean(logsumexp(logits + log_pi, axis=1)))
        worst = max(worst, abs(value - ce))
    identity_ok = worst < 1e-10
    detail = f"max |loss - CE| {worst:.2e} over 20 batches"

    mnist_ok = True
    names = {
        "images": "train-images-idx3-ubyte",
        "labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    paths = {key: os.path.join(_mnist_dir(), name) for key, name in names.items()}
    if os.path.exists(paths["images"]) and os.path.exists(paths["labels"]):
        if not (os.path.exists(paths["test_images"]) and os.path.exists(paths["test_labels"])):
            # the runner holds out the last sixth of the training files
            del paths["test_images"], paths["test_labels"]
        doc = {
            "experiment": "mnist",
            "seed": 1234,
            "output_dir": str(tmp_path / "mnist"),
            "mnist": paths,
            "hidden": 128,
            "train": {
                "epochs": 10,
                "batch_size": 128,
                "learning_rate": 1e-3,
                "tau": 1.0,
                "loss": {"variant": "cond", "lam_u": 2.0, "lam_v": 0.0},
            },
        }
        cfg_path = tmp_path / "mnist.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(cfg_path)]) == 0
        with open(tmp_path / "mnist" / "report.json", encoding="utf-8") as fh:
            acc = json.load(fh)["results"]["final_heldout_accuracy"]
        mnist_ok = acc >= 0.90
        detail += f"; mnist heldout accuracy {acc:.4f} >= 0.90"
    else:
        detail += f"; mnist part skipped, no IDX files under {_mnist_dir()}"

    dt = time.perf_counter() - t0
    ok = identity_ok and mnist_ok and dt < 600.0
    assert _report(10, ok, f"{detail}; {dt:.1f} s")


def test_criterion_11_trajectory_retrieval_beats_chance(tmp_path):
    # 9-mode incompressible flow, 2000 training pairs: a trajectory encoder
    # trained against frozen coefficient embeddings must retrieve held-out
    # partners well above the 1/500 chance rate, and improve as it trains
    t0 = time.perf_counter()
    doc = {
        "experiment": "lagrangian",
        "seed": 20,
        "output_dir": str(tmp_path / "out"),
        "sweep": {"sample_sizes": [2000]},
        "heldout": 500,
        "hidden": 256,
        "flow": {"m": 1, "dt": 1e-3, "t_final": 1.0, "record_stride": 10},
        "train": {
            "epochs": 20,
            "batch_size": 64,
            "learning_rate": 1e-3,
            "tau": 0.07,
            "loss": {"variant": "cond"},
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", str(cfg_path)]) == 0
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    first, final = results["first"], results["final"]
    dt = time.perf_counter() - t0
    ok = (
        final["r1_traj_to_coeff"] >= 0.02
        and final["r1_coeff_to_traj"] >= 0.02
        and final["r5_traj_to_coeff"] >= final["r1_traj_to_coeff"]
        and final["r5_coeff_to_traj"] >= final["r1_coeff_to_traj"]
        and final["r5_traj_to_coeff"] >= first["r5_traj_to_coeff"]
        and final["r5_coeff_to_traj"] >= first["r5_coeff_to_traj"]
        and dt < 900.0
    )
    assert _report(
        11,
        ok,
        f"final R@1 {final['r1_traj_to_coeff']:.3f}/{final['r1_coeff_to_traj']:.3f} >= 0.02, "
        f"R@5 {final['r5_traj_to_coeff']:.3f}/{final['r5_coeff_to_traj']:.3f} "
        f"(first epoch {first['r5_traj_to_coeff']:.3f}/{first['r5_coeff_to_traj']:.3f}); {dt:.0f} s",
    )


def test_criterion_12_exp_quadratic_against_monte_carlo():
    # closed-form tilted normalizer against a one-million-sample average
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(6):
        d = case // 2 + 1
        r = SeededRng(1212).split(case)
        w = r.split(0).standard_normal((d, d + 1))
        lam = w @ w.T / (d + 1) + 0.4 * np.eye(d)
        raw = r.split(1).standard_normal((d, d))
        b = 0.5 * (raw + raw.T)
        # cap the top eigenvalue of the whitened quadratic term at 0.4 so
        # both the expectation and the estimator variance stay finite
        root_lam = sym_sqrt(lam)
        top = float(np.max(np.linalg.eigvalsh(root_lam @ b @ root_lam)))
        if top > 0.0:
            b *= 0.4 / top
        m = 0.4 * r.split(2).standard_normal(d)
        c = 0.4 * r.split(3).standard_normal(d)
        closed = gaussian.exp_quadratic_expectation(m, lam, b, c)
        z = m + r.split(4).standard_normal((1_000_000, d)) @ np.linalg.cholesky(lam).T
        mc = float(np.mean(np.exp(0.5 * np.einsum("ij,jk,ik->i", z, b, z) + z @ c)))
        worst = max(worst, abs(mc - closed) / closed)
    dt = time.perf_counter() - t0
    ok = worst < 0.01 and dt < 30.0
    assert _report(12, ok, f"max MC rel err {worst:.2e} over dims 1-3; {dt:.1f} s")


def test_criterion_13_mmd_zero_and_separation():
    t0 = time.perf_counter()
    kernel = Kernel("gaussian", bandwidth=0.7)
    rng = SeededRng(1313)
    zero_worst = 0.0
    for shape in ((8, 2), (30, 1)):
        x = rng.split(shape[0]).standard_normal(shape)
        zero_worst = max(zero_worst, abs(losses.mmd_unbiased(x, x.copy(), kernel)))
    dup = np.vstack([rng.split(99).standard_normal((5, 2))] * 2)  # repeated rows
    zero_worst = max(zero_worst, abs(losses.mmd_unbiased(dup, dup.copy(), kernel)))

    separated = 0
    for seed in range(20):
        r = SeededRng(1400 + seed)
        x = r.split(0).standard_normal((500, 1))
        far = r.split(1).standard_normal((500, 1)) + 5.0
        near = r.split(2).standard_normal((500, 1))
        # median heuristic: the median pairwise distance of the pooled sample
        k_far = Kernel("gaussian", bandwidth=np.median(pdist(np.vstack([x, far]))))
        k_near = Kernel("gaussian", bandwidth=np.median(pdist(np.vstack([x, near]))))
        d_far = losses.mmd_unbiased(x, far, k_far)
        d_near = losses.mmd_unbiased(x, near, k_near)
        separated += d_far > d_near
    dt = time.perf_counter() - t0
    ok = zero_worst < 1e-12 and separated == 20 and dt < 30.0
    assert _report(
        13,
        ok,
        f"identical-multiset mmd {zero_worst:.1e}, separation {separated}/20 seeds; {dt:.1f} s",
    )


def test_criterion_14_cli_reproducibility_and_self_checks(tmp_path):
    # same config and seed twice: every artifact byte-identical; then the
    # built-in self-check suite must come back clean inside its budget
    t0 = time.perf_counter()
    outs = []
    for run in range(2):
        outdir = tmp_path / f"run{run}"
        doc = {
            "experiment": "gaussian2d",
            "seed": 5,
            "output_dir": str(outdir),
            "sweep": {"sample_sizes": [500]},
            "train": {
                "epochs": 8,
                "batch_size": 64,
                "learning_rate": 0.02,
                "loss": {"variant": "cond"},
            },
        }
        cfg_path = tmp_path / f"config{run}.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(cfg_path)]) == 0
        outs.append(outdir)
    names = sorted(os.listdir(outs[0]))
    identical = names == sorted(os.listdir(outs[1])) and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )

    t_verify = time.perf_counter()
    verify_rc = cli.main(["verify"])
    verify_dt = time.perf_counter() - t_verify
    dt = time.perf_counter() - t0
    ok = identical and verify_rc == 0 and verify_dt < 60.0
    assert _report(
        14,
        ok,
        f"{len(names)} artifacts byte-identical across reruns, "
        f"verify rc {verify_rc} in {verify_dt:.1f} s < 60 s; {dt:.1f} s total",
    )
