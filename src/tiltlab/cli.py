"""Config-driven experiment runner and analytic self-check suite.

Commands: `tiltlab run <config.json> [--seed N] [--output-dir D]` and
`tiltlab verify`. All outputs are plot-ready CSV/JSON; a fixed config and
seed reproduce them byte for byte on the same machine at the same BLAS
thread count (nothing time- or locale-dependent is written). Config
problems exit with status 2 before anything is written; runtime failures
exit 1.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import crossmodal, datagen, encoders, gaussian, linalg, losses, training
from .errors import ConfigError, TiltlabError
from .rng import SeededRng

EXPERIMENTS = ("closed-form", "gaussian2d", "gaussian-gp", "mnist", "lagrangian")


# ---------------------------------------------------------------------------
# config loading


REQUIRED = object()  # the default of a field that must be given


@dataclasses.dataclass(frozen=True)
class Field:
    path: str
    kind: str  # a key of KINDS
    bound: object = None
    default: object = None
    read_by: tuple | None = None  # experiments that read a top-level field; None: all


# Every field `tiltlab run` reads, its check, default and bound written once.
# bound is the least value of an int, the admissible values of a str, or the
# constructor that builds an object from its fields and checks them
# together. An absent field without a default is left out, so the object
# built from its block keeps its own.
FIELDS = (
    Field("experiment", "str", EXPERIMENTS, REQUIRED),
    Field("seed", "int", 0, REQUIRED),
    Field("output_dir", "path"),
    Field("sweep", "object", default={}),
    Field("sweep.embedding_dims", "ints", 1, [1]),
    Field("sweep.batch_sizes", "ints", 2, [64]),
    Field("sweep.sample_sizes", "ints", 1, [2000]),
    Field("gaussian", "object", gaussian.BlockGaussian, {}),
    Field("gaussian.c_uu", "matrix", default=[[1.5]]),
    Field("gaussian.c_uv", "matrix", default=[[1.0]]),
    Field("gaussian.c_vv", "matrix", default=[[1.5]]),
    Field("train", "object", default=REQUIRED, read_by=EXPERIMENTS[1:]),
    Field("train.epochs", "int", 1, REQUIRED),
    Field("train.batch_size", "int", default=REQUIRED),
    Field("train.learning_rate", "number", default=REQUIRED),
    Field("train.tau", "number", default=1.0),
    Field("train.tilting", "str", default=encoders.TILTING_INNER),
    Field("train.loss", "object", losses.LossKind, REQUIRED),
    Field("train.loss.variant", "str", default=REQUIRED),
    Field("train.loss.lam_u", "number"),
    Field("train.loss.lam_v", "number"),
    Field("train.loss.kernel", "object", losses.Kernel),
    Field("train.loss.kernel.family", "str", default=REQUIRED),
    Field("train.loss.kernel.bandwidth", "number"),
    Field("train.loss.kernel.degree", "int"),
    Field("train.loss.kernel.offset", "number"),
    Field("gp", "object", datagen.GpConfig, {}, ("gaussian-gp",)),
    Field("gp.tau_inv_length", "number"),
    Field("gp.alpha", "number"),
    Field("gp.n_modes", "int"),
    Field("gp.grid_points", "int"),
    Field("gp.noise_sigma", "number"),
    Field("gp.n_coeffs", "int"),
    Field("flow", "object", default={}, read_by=("lagrangian",)),
    Field("flow.m", "int", 0, 1),
    Field("flow.dt", "number", default=1e-3),
    Field("flow.t_final", "number", default=0.5),
    Field("flow.record_stride", "int", default=10),
    Field("flow.x0", "pair", default=[0.5, 0.5]),
    Field("heldout", "int", 1, 500, ("lagrangian",)),
    Field("hidden", "int", 1, 256, ("lagrangian",)),
    Field("hidden", "int", 1, 128, ("mnist",)),
    Field("mnist", "object", default={}, read_by=("mnist",)),
    Field("mnist.images", "path", default=REQUIRED),
    Field("mnist.labels", "path", default=REQUIRED),
    Field("mnist.test_images", "path"),
    Field("mnist.test_labels", "path"),
)

# JSON kind: (the Python types of its values, what a message calls it)
KINDS = {
    "int": (int, "an integer"),
    "number": ((int, float), "a number"),
    "str": (str, "a string"),
    "path": (str, "a path"),
    "object": (dict, "an object"),
    "ints": (list, "a nonempty list"),
    "pair": (list, "a pair of numbers"),
    "matrix": (list, "a list of rows"),
    "row": (list, "a list of numbers"),
}
ITEMS = {"ints": "int", "pair": "number", "matrix": "row", "row": "number"}


def _checked(kind: str, bound, value, where: str):
    """value as a JSON value of kind within bound; numbers must be finite
    and come back as floats, lists are checked item by item."""
    types, noun = KINDS[kind]
    if (
        isinstance(value, bool)
        or not isinstance(value, types)
        or (kind in ("ints", "path") and not value)
        or (kind == "pair" and len(value) != 2)
    ):
        raise ConfigError(f"{where}: expected {noun}, got {value!r}")
    if kind in ITEMS:
        return [_checked(ITEMS[kind], bound, x, f"{where}[{i}]") for i, x in enumerate(value)]
    if kind == "number":
        if not abs(value) <= sys.float_info.max:  # NaN, infinite, or no float holds it
            raise ConfigError(f"{where}: must be finite, got {value!r}")
        return float(value)
    if kind == "int" and bound is not None and value < bound:
        raise ConfigError(f"{where}: must be >= {bound}")
    if kind == "str" and bound is not None and value not in bound:
        raise ConfigError(f"{where}: unknown {where.rpartition('.')[2]} {value!r}")
    return value


def _built(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), its complaint about a value a config error at where."""
    try:
        return make(*args, **kwargs)
    except (ValueError, ArithmeticError, TiltlabError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(block: dict, path: str, experiment) -> dict:
    """The fields of block, the JSON object at path ("" for the top level),
    checked against FIELDS; blocks with a constructor come back built."""
    prefix = f"{path}." if path else ""
    rows = [f for f in FIELDS if f.path.rpartition(".")[0] == path]
    for key in block:
        if not any(f.path == prefix + key for f in rows):
            raise ConfigError(f"config.{prefix}{key}: unknown field")
    out = {}
    for f in rows:
        key, where = f.path[len(prefix) :], f"config.{f.path}"
        if f.read_by and experiment not in f.read_by:
            continue
        if key not in block and f.default is REQUIRED:
            raise ConfigError(f"{where}: missing required field")
        if key not in block and f.default is None:
            continue
        value = _checked(f.kind, f.bound, block.get(key, f.default), where)
        if f.kind == "object":
            value = _read(value, f.path, experiment)
            value = _built(where, f.bound, **value) if f.bound else value
        out[key] = value
    return out


class RunPlan:
    """A checked config and the objects built from it, ready to execute."""

    def __init__(self, doc: dict, seed_override, outdir_override):
        if not isinstance(doc, dict):
            raise ConfigError("top level: expected a JSON object")
        doc = dict(doc)
        if seed_override is not None:
            doc["seed"] = seed_override
        if outdir_override:
            doc["output_dir"] = outdir_override
        cfg = _read(doc, "", doc.get("experiment"))
        if "output_dir" not in cfg:
            raise ConfigError("config.output_dir: missing (or pass --output-dir)")
        self.experiment, self.seed = cfg["experiment"], cfg["seed"]
        self.output_dir, self.sweep, self.blocks = cfg["output_dir"], cfg["sweep"], cfg["gaussian"]
        root = _built("config.seed", SeededRng, self.seed)
        sizes = self.sweep["sample_sizes"]
        if self.experiment in ("gaussian2d", "lagrangian") and len(sizes) > 1:
            raise ConfigError(
                f"config.sweep.sample_sizes: {self.experiment} runs one sample size, got {len(sizes)}"
            )
        if self.experiment == "gaussian2d" and (self.blocks.n_x, self.blocks.n_y) != (1, 1):
            raise ConfigError("config.gaussian: gaussian2d expects 1-d u and v blocks")
        self.train = self.flow = None
        if "train" in cfg:
            self.train = _built("config.train", training.TrainConfig, seed=self.seed, **cfg["train"])
        if "flow" in cfg:
            self.flow = _built("config.flow", datagen.draw_flow_config, rng=root.split(2), **cfg["flow"])
        self.gp, self.heldout, self.hidden = cfg.get("gp"), cfg.get("heldout"), cfg.get("hidden")
        self.mnist_paths = paths = cfg.get("mnist", {})
        for have, need in (("test_images", "test_labels"), ("test_labels", "test_images")):
            if have in paths and need not in paths:
                raise ConfigError(f"config.mnist.{need}: required when {have} is given")
        self.echo = {k: v for k, v in doc.items() if k != "output_dir"}


def load_plan(config_path, seed_override=None, outdir_override=None) -> RunPlan:
    try:
        with open(config_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or an integer too long to parse
        raise ConfigError(f"{config_path}: {exc}") from exc
    return RunPlan(doc, seed_override, outdir_override)


# ---------------------------------------------------------------------------
# output helpers


def _config_hash(echo: dict) -> str:
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_csv(plan: RunPlan, name: str, header: list, rows: list):
    """The one CSV writer: name.csv, floats at 17 significant digits, and its
    name.meta.json sidecar; returns the artifact name for the report."""
    path = os.path.join(plan.output_dir, name + ".csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{x:.17g}" if isinstance(x, float) else x for x in row]
            )
    meta_path = os.path.join(plan.output_dir, name + ".meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"experiment": plan.experiment, "config_hash": _config_hash(plan.echo), "columns": header},
            fh,
            sort_keys=True,
        )
    return name + ".csv"


def _write_report(plan: RunPlan, results: dict, artifacts: list):
    path = os.path.join(plan.output_dir, "report.json")
    doc = {
        "experiment": plan.experiment,
        "config": plan.echo,
        "config_hash": _config_hash(plan.echo),
        "results": results,
        "artifacts": artifacts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def _matrix_rows(name: str, m: np.ndarray):
    m = np.atleast_2d(m)
    return [
        (name, i, j, float(m[i, j]))
        for i in range(m.shape[0])
        for j in range(m.shape[1])
    ]


# ---------------------------------------------------------------------------
# experiments


def _fit_linear_tilt(plan: RunPlan, data, n_e: int, tag: int, batch_size: int):
    """Train linear encoders u -> G u, v -> H v on data from the init streams
    (10, tag, side) of the seed; returns the tilting they define and the
    training history."""
    root = SeededRng(plan.seed)
    specs = [encoders.linear_spec(x.shape[1], n_e) for x in (data.u, data.v)]
    inits = [encoders.init_params(spec, root.split(10, tag, side)) for side, spec in enumerate(specs)]
    cfg = dataclasses.replace(plan.train, batch_size=batch_size)
    params_u, params_v, history = training.train(cfg, data, *specs, *inits)
    g_mat, h_mat = (p.unflatten()["w0"] for p in (params_u, params_v))
    return gaussian.linear_encoder_tilting(g_mat, h_mat, cfg.tilting, cfg.tau), history


def _closed_tilts(g: gaussian.BlockGaussian) -> dict:
    """The cond, joint and one-sided quadratic minimizers of g, as tiltings."""
    return {
        "cond": gaussian.CosineLinear(gaussian.minimizer_cond(g)),
        "joint": gaussian.CosineLinear(gaussian.minimizer_joint(g)),
        "quad": gaussian.minimizer_quadratic_onesided(g),
    }


def _run_closed_form(plan: RunPlan):
    g = plan.blocks
    cond = gaussian.conditional_u_given_v(g)
    closed = _closed_tilts(g)
    a_cond, a_joint, quad = closed["cond"].a, closed["joint"].a, closed["quad"]
    quad_cond = gaussian.model_conditional(quad, "u_given_v", g)
    sing = gaussian._whitened_svd(g, None)[2]
    tables = {
        "true_gain": cond.gain,
        "true_cov": cond.cov,
        "a_cond": a_cond,
        "a_quad": quad.a,
        "b_quad": quad.b,
        "a_joint": a_joint,
    }
    results = {
        **{name: linalg.matrix_to_json(m) for name, m in tables.items()},
        "quad_model_gain": linalg.matrix_to_json(quad_cond.gain),
        "quad_model_cov": linalg.matrix_to_json(quad_cond.cov),
        "whitened_singular_values": sing.tolist(),
        "shrunk_singular_values": np.atleast_1d(gaussian.shrinkage_h(sing)).tolist(),
        "cond_loss_at_min": gaussian.cond_loss_closed(a_cond, g),
        "joint_loss_at_min": gaussian.joint_loss_closed(a_joint, g),
        "marginal_model_cond": linalg.matrix_to_json(gaussian.model_marginal_u(a_cond, g)),
        "marginal_model_joint": linalg.matrix_to_json(gaussian.model_marginal_u(a_joint, g)),
    }
    rows = [row for name, m in tables.items() for row in _matrix_rows(name, m)]
    artifacts = [_write_csv(plan, "closed_form", ["quantity", "row", "col", "value"], rows)]
    _write_report(plan, results, artifacts)


def _gaussian_density(cov: np.ndarray, pts: np.ndarray) -> np.ndarray:
    prec = linalg.inv_pd(cov)
    quad = np.einsum("ni,ij,nj->n", pts, prec, pts)
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
    return norm * np.exp(-0.5 * quad)


def _run_gaussian2d(plan: RunPlan):
    g = plan.blocks
    closed = _closed_tilts(g)
    rows = []
    for name, tilt in closed.items():
        cm = gaussian.model_conditional(tilt, "u_given_v", g)
        rows.extend(_matrix_rows(f"{name}_gain", cm.gain))
        rows.extend(_matrix_rows(f"{name}_cov", cm.cov))
    artifacts = [_write_csv(plan, "conditionals", ["quantity", "row", "col", "value"], rows)]

    # joint density grids: true vs the three tilted models
    grid = np.linspace(-4.0, 4.0, 81)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    covs = [g.joint()] + [gaussian.model_joint(tilt, g) for tilt in closed.values()]
    densities = [_gaussian_density(cov, pts) for cov in covs]
    header = ["u", "v", "density_true", *[f"density_{name}_model" for name in closed]]
    artifacts.append(
        _write_csv(plan, "densities", header, np.column_stack([pts, *densities]).tolist())
    )

    # one training run against the closed form of the configured loss
    n = plan.sweep["sample_sizes"][0]
    data = datagen.sample_block_gaussian(g, n, SeededRng(plan.seed).split(1))
    tilt, history = _fit_linear_tilt(plan, data, 1, 0, plan.train.batch_size)
    artifacts.append(_write_csv(plan, "training", *history.table()))
    a_trained = float(tilt.a[0, 0])
    oracle = gaussian.trained_tilt_oracle(plan.train.loss, plan.train.tilting)
    results = {
        "a_cond": float(closed["cond"].a[0, 0]),
        "a_joint": float(closed["joint"].a[0, 0]),
        "a_quad": float(closed["quad"].a[0, 0]),
        "b_quad": float(closed["quad"].b[0, 0]),
        "a_trained": a_trained,
        "final_epoch_loss": history.losses[-1],
        "trained_target": None if oracle is None else oracle.__name__,
        "trained_abs_err": None if oracle is None else abs(a_trained - float(oracle(g)[0, 0])),
    }
    _write_report(plan, results, artifacts)


def _run_gaussian_gp(plan: RunPlan):
    blocks = datagen.gp_analytic_blocks(plan.gp)
    true_gain = gaussian.conditional_u_given_v(blocks).gain
    root = SeededRng(plan.seed)
    v_eval = root.split(4).standard_normal((1000, plan.gp.n_coeffs))
    oracle = gaussian.trained_tilt_oracle(plan.train.loss, plan.train.tilting)
    target = None if oracle is None else oracle.__name__
    sweep = plan.sweep
    grid = itertools.product(sweep["sample_sizes"], sweep["batch_sizes"], sweep["embedding_dims"])
    rows, results = [], []
    for idx, (n, batch, n_e) in enumerate(grid):
        data = datagen.gp_modality_pair(plan.gp, n, root.split(1, idx))
        tilt, _ = _fit_linear_tilt(plan, data, n_e, idx, batch)
        model_gain = gaussian.model_conditional(tilt, "u_given_v", blocks).gain
        err = (model_gain - true_gain) @ v_eval.T
        mse = float(np.mean(np.sum(err**2, axis=0)))
        frob = None
        if oracle is not None:
            emp = gaussian.empirical_block_gaussian(data)
            a_closed = oracle(emp, r=min(n_e, emp.n_x, emp.n_y))
            denom = float(np.linalg.norm(a_closed))
            frob = float(np.linalg.norm(tilt.a - a_closed)) / denom if denom else float("nan")
        rows.append((n, batch, n_e, mse, frob))
        results.append(
            {"n": n, "batch": batch, "n_e": n_e, "mse": mse, "frob_rel_err": frob, "trained_target": target}
        )
    artifacts = [
        _write_csv(
            plan,
            "gp_sweep",
            ["n_samples", "batch_size", "n_e", "cond_mean_mse", "frob_rel_err_vs_rank_opt"],
            rows,
        )
    ]
    _write_report(plan, {"sweep": results}, artifacts)


def _run_mnist(plan: RunPlan):
    paths = plan.mnist_paths
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        # dataset files are inputs, not part of the build; note and bow out
        _write_report(plan, {"skipped": f"missing MNIST files: {missing}"}, [])
        print(f"mnist: skipped (missing files: {missing})")
        return
    images, labels = datagen.mnist_load(paths["images"], paths["labels"])
    if "test_images" in paths:
        test_images, test_labels = datagen.mnist_load(paths["test_images"], paths["test_labels"])
    else:
        split = max(1, images.shape[0] // 6)
        test_images, test_labels = images[-split:], labels[-split:]
        images, labels = images[:-split], labels[:-split]

    # labels ride in the u slot (the frozen identity table, one-hot rows) so
    # the u-given-v side of the conditional loss is exactly label
    # cross-entropy given the image
    data = datagen.PairedDataset(u=labels[:, None].astype(np.float64), v=images)
    spec_u = encoders.frozen_table_spec(10, 10)
    spec_v = encoders.mlp_spec([images.shape[1], plan.hidden, 10], activation="relu")
    init_u = encoders.params_from_table(spec_u, np.eye(10))
    init_v = encoders.init_params(spec_v, SeededRng(plan.seed).split(10, 0))
    # label scores are logits / tau + log pi, pi the training label counts
    # (the batch prior the (2, 0) loss trains the logits against); accuracy
    # takes their argmax and label_probs their softmax
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.bincount(labels, minlength=10) / labels.size)

    def label_scores(params_v, chunk):
        return encoders.encode(spec_v, params_v, chunk) / plan.train.tau + log_pi

    def accuracy(params_v) -> float:
        correct = 0
        for start in range(0, test_images.shape[0], 1024):
            scores = label_scores(params_v, test_images[start : start + 1024])
            correct += int(np.sum(np.argmax(scores, axis=1) == test_labels[start : start + 1024]))
        return correct / test_images.shape[0]

    def probe(epoch, pu, pv):
        return {"heldout_accuracy": accuracy(pv)}

    params_u, params_v, history = training.train(
        plan.train, data, spec_u, spec_v, init_u, init_v, probe=probe
    )
    artifacts = [_write_csv(plan, "accuracy", *history.table())]

    probs = losses._axis_lse_softmax(label_scores(params_v, test_images[:20]), 1)[1]
    prob_rows = [
        (i, int(test_labels[i]), *[float(p) for p in probs[i]]) for i in range(probs.shape[0])
    ]
    artifacts.append(
        _write_csv(
            plan,
            "label_probs",
            ["image_index", "true_label", *[f"p{g}" for g in range(10)]],
            prob_rows,
        )
    )

    # highest-weight training images per label: softmax over images of the
    # class logit (the empirical conditional of images given the label)
    train_logits = np.vstack(
        [
            encoders.encode(spec_v, params_v, images[s : s + 1024])
            for s in range(0, images.shape[0], 1024)
        ]
    ) / plan.train.tau
    top_rows = []
    for label in range(10):
        order = np.argsort(-train_logits[:, label], kind="stable")[:5]
        for rank, i in enumerate(order, start=1):
            top_rows.append((label, rank, int(i), float(train_logits[i, label])))
    artifacts.append(
        _write_csv(plan, "top5_per_label", ["label", "rank", "image_index", "score"], top_rows)
    )
    _write_report(
        plan,
        {
            "final_heldout_accuracy": history.metrics[-1]["heldout_accuracy"],
            "final_epoch_loss": history.losses[-1],
            "n_train": int(images.shape[0]),
            "n_test": int(test_images.shape[0]),
        },
        artifacts,
    )


def _run_lagrangian(plan: RunPlan):
    root = SeededRng(plan.seed)
    n_train = plan.sweep["sample_sizes"][0]
    n_total = n_train + plan.heldout
    data = datagen.lagrangian_dataset(plan.flow, n_total, root.split(3))
    feats = datagen.torus_trajectory_features(data.v)
    coeffs = data.u
    del data  # the raw trajectories are read only by the features
    coeff_dim = coeffs.shape[1]

    # cosine embeddings on both sides: the coefficient table is frozen
    # (identity up to normalization), only the trajectory encoder learns
    spec_u = encoders.frozen_table_spec(n_total, coeff_dim, normalized=True)
    params_u = encoders.params_from_table(spec_u, coeffs)
    spec_v = encoders.mlp_spec(
        [feats.shape[1], plan.hidden, plan.hidden, coeff_dim],
        activation="relu",
        normalized=True,
    )
    init_v = encoders.init_params(spec_v, root.split(10, 0))
    train_view = datagen.PairedDataset(u=np.arange(n_train, dtype=np.float64)[:, None], v=feats[:n_train])
    test_ids = np.arange(n_train, n_total)
    # the frozen coefficient side embeds the same way every epoch
    e_u = encoders.encode(spec_u, params_u, test_ids[:, None].astype(np.float64))
    idx_u = crossmodal.build_index(e_u, test_ids.tolist(), normalized=True)

    def recalls(params_v) -> dict:
        e_v = encoders.encode(spec_v, params_v, feats[n_train:])
        idx_v = crossmodal.build_index(e_v, test_ids.tolist(), normalized=True)
        ranks = {
            "traj_to_coeff": crossmodal.true_ranks(e_v, test_ids.tolist(), idx_u),
            "coeff_to_traj": crossmodal.true_ranks(e_u, test_ids.tolist(), idx_v),
        }
        # recall_at_k's threshold, on ranks taken once per direction
        return {
            f"r{k}_{name}": np.count_nonzero(r < min(k, r.size)) / r.size
            for name, r in ranks.items()
            for k in (1, 5)
        }

    def probe(epoch, pu, pv):
        return recalls(pv)

    params_u, params_v, history = training.train(
        plan.train, train_view, spec_u, spec_v, params_u, init_v, probe=probe
    )
    artifacts = [_write_csv(plan, "recall", *history.table())]
    final = history.metrics[-1]
    _write_report(
        plan,
        {
            "final": final,
            "first": history.metrics[0],
            "n_train": n_train,
            "n_heldout": plan.heldout,
            "coeff_dim": coeff_dim,
            "feature_dim": int(feats.shape[1]),
        },
        artifacts,
    )


RUNNERS = {
    "closed-form": _run_closed_form,
    "gaussian2d": _run_gaussian2d,
    "gaussian-gp": _run_gaussian_gp,
    "mnist": _run_mnist,
    "lagrangian": _run_lagrangian,
}


# ---------------------------------------------------------------------------
# verify


def _check_theorem_identity():
    rng = SeededRng(11)
    for n in (2, 8, 64):
        s = rng.split(n).standard_normal((n, n))
        gap = losses.loss_clip(s) - losses.loss_cond(s, 1.0, 1.0) - np.log(n)
        assert abs(gap) < 1e-12, f"identity gap {gap:.2e} at N={n}"
        half = 0.5 * losses.loss_cond(s, 2.0, 0.0) + 0.5 * losses.loss_cond(s, 0.0, 2.0)
        assert abs(losses.loss_cond(s, 1.0, 1.0) - half) < 1e-12, "lambda linearity"


def _reference_blocks() -> gaussian.BlockGaussian:
    return gaussian.BlockGaussian([[1.5]], [[1.0]], [[1.5]])


def _check_conditionals():
    cond = gaussian.conditional_u_given_v(_reference_blocks())
    assert abs(cond.gain[0, 0] - 2.0 / 3.0) < 1e-12, "gain"
    assert abs(cond.cov[0, 0] - 5.0 / 6.0) < 1e-12, "cov"


def _check_minimizers():
    g = _reference_blocks()
    assert abs(gaussian.minimizer_cond(g)[0, 0] - 4.0 / 9.0) < 1e-12, "cond minimizer"
    quad = gaussian.minimizer_quadratic_onesided(g)
    assert abs(quad.a[0, 0] - 0.8) < 1e-10, "quad a"
    assert abs(quad.b[0, 0] - 8.0 / 15.0) < 1e-10, "quad b"
    assert abs(gaussian.minimizer_joint(g)[0, 0] - 1.0 / 3.0) < 1e-10, "joint minimizer"


def _check_shrinkage():
    h = gaussian.shrinkage_h
    assert abs(h(2.0 / 3.0) - 0.5) < 1e-12, f"h(2/3) = {h(2.0 / 3.0)}"
    assert abs(h(1.0) - 0.5 * (np.sqrt(5.0) - 1.0)) < 1e-12, "h(1)"
    assert h(0.0) == 0.0, "h(0)"
    assert abs(h(1e-4) / 1e-4 - 1.0) < 1e-6, "small-sigma limit"


def _check_marginal_ordering():
    g = _reference_blocks()
    m_cond = gaussian.model_marginal_u(gaussian.minimizer_cond(g), g)[0, 0]
    m_joint = gaussian.model_marginal_u(gaussian.minimizer_joint(g), g)[0, 0]
    assert abs(m_cond - 2.7) < 1e-9, "cond-model marginal"
    assert abs(m_joint - 2.0) < 1e-9, "joint-model marginal"
    assert 1.5 < m_joint < m_cond, "ordering"


def _check_loss_inequality():
    rng = SeededRng(12)
    for i in range(50):
        n_x = int(rng.split(i, 0).integers(1, 4))
        n_y = int(rng.split(i, 1).integers(1, 4))
        base = rng.split(i, 2).standard_normal((n_x + n_y, n_x + n_y + 2))
        cov = base @ base.T / (n_x + n_y + 2) + 0.1 * np.eye(n_x + n_y)
        g = gaussian.BlockGaussian(cov[:n_x, :n_x], cov[:n_x, n_x:], cov[n_x:, n_x:])
        a = rng.split(i, 3).standard_normal((n_x, n_y))
        w = linalg.sym_sqrt(g.c_uu) @ a @ linalg.sym_sqrt(g.c_vv)
        top = np.linalg.svd(w, compute_uv=False)[0]
        a = a * (0.9 / top) if top > 0.9 else a
        assert gaussian.cond_loss_closed(a, g) <= gaussian.joint_loss_closed(a, g) + 1e-9


def _check_gradients():
    rng = SeededRng(13)
    spec = encoders.mlp_spec([3, 4, 2], activation="tanh", normalized=True)
    params = encoders.init_params(spec, rng.split(0))
    batch = rng.split(1).standard_normal((5, 3))
    cot = rng.split(2).standard_normal((5, 2))
    g = encoders.encode_vjp(spec, params, batch, cot)
    theta = params.theta
    step = 1e-6
    for probe in range(5):
        direction = rng.split(3, probe).standard_normal(theta.shape)
        direction /= np.linalg.norm(direction)
        plus = encoders.EncoderParams(theta + step * direction, spec.shape_table())
        minus = encoders.EncoderParams(theta - step * direction, spec.shape_table())
        fd = (
            float(np.sum(cot * encoders.encode(spec, plus, batch)))
            - float(np.sum(cot * encoders.encode(spec, minus, batch)))
        ) / (2 * step)
        an = float(g @ direction)
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an)), f"probe {probe}: {fd} vs {an}"


def _check_loss_grads():
    rng = SeededRng(14)
    s = rng.split(0).standard_normal((6, 6))
    for kind in (losses.LossKind("clip"), losses.LossKind("cond", 2.0, 0.5)):
        value, grad = losses.loss_value_and_grad(kind, s)
        step = 1e-6
        d = rng.split(1).standard_normal((6, 6))
        d /= np.linalg.norm(d)
        if kind.variant == "clip":
            fd = (losses.loss_clip(s + step * d) - losses.loss_clip(s - step * d)) / (2 * step)
        else:
            fd = (
                losses.loss_cond(s + step * d, 2.0, 0.5) - losses.loss_cond(s - step * d, 2.0, 0.5)
            ) / (2 * step)
        assert abs(float(np.sum(grad * d)) - fd) < 1e-7, kind.variant


def _check_mmd():
    rng = SeededRng(15)
    x = rng.split(0).standard_normal((40, 2))
    k = losses.Kernel("gaussian", bandwidth=1.0)
    assert abs(losses.mmd_unbiased(x, x.copy(), k)) < 1e-12, "identical sets"
    y = rng.split(1).standard_normal((40, 2)) + 5.0
    assert losses.mmd_unbiased(x, y, k) > 0.5, "separated sets"


def _check_exp_quadratic():
    val = gaussian.exp_quadratic_expectation([0.3, -0.2], np.eye(2), np.zeros((2, 2)), np.zeros(2))
    assert abs(val - 1.0) < 1e-12, "b=0, c=0 must give 1"
    val = gaussian.exp_quadratic_expectation([0.0], [[1.0]], [[0.5]], [0.0])
    assert abs(val - np.sqrt(2.0)) < 1e-12, "1d half-tilt"


def _check_recovery():
    rng = SeededRng(16)
    base = rng.split(0).standard_normal((3, 5))
    b = base @ base.T / 5 + 0.5 * np.eye(3)
    a = rng.split(1).standard_normal((3, 4))
    q = gaussian.QuadraticTiltingParams(a=a, b=b, c=np.zeros((4, 4)))
    g_mat, h_mat = gaussian.recover_encoders(q)
    assert np.max(np.abs(g_mat.T @ h_mat - a)) < 1e-10, "a round trip"
    assert np.max(np.abs(g_mat.T @ g_mat - b)) < 1e-10, "b round trip"


def _check_flow():
    cfg = datagen.FlowConfig(m=1, omega=tuple(np.zeros(9)), x0=(0.25, 0.5), dt=1e-3, t_final=0.01)
    psi = np.zeros(9, dtype=np.complex128)
    psi[datagen.mode_set(1).tolist().index([1, 0])] = 0.5
    psi[datagen.mode_set(1).tolist().index([-1, 0])] = 0.5
    vel = datagen.velocity_eval(datagen.coeffs_to_real(psi), cfg, 0.0, (0.25, 0.5))
    want = np.array([0.0, -2.0 * np.pi * np.sin(2.0 * np.pi * 0.25)])
    assert np.max(np.abs(vel - want)) < 1e-12, f"velocity {vel} vs {want}"
    coeffs, traj = datagen.lagrangian_pair(cfg, SeededRng(17))
    assert np.all((traj >= 0.0) & (traj < 1.0)), "wrap"


def _check_retrieval():
    index = crossmodal.build_index(np.eye(3), [0, 1, 2], normalized=False)
    assert crossmodal.retrieve([0.1, 0.9, 0.5], index, 2) == [1, 2], "ranking"
    tie = crossmodal.build_index([[1.0, 0.0], [1.0, 0.0]], [7, 8], normalized=False)
    assert crossmodal.retrieve([1.0, 0.0], tie, 1) == [7], "tie break"


def _check_serialization():
    rng = SeededRng(18)
    m = rng.split(0).standard_normal((3, 2))
    back = linalg.matrix_from_json(linalg.matrix_to_json(m))
    assert np.array_equal(m, back), "matrix json round trip"


def _check_ce_equivalence():
    rng = SeededRng(19)
    n, k = 32, 7
    logits = rng.split(0).standard_normal((n, k))
    y = rng.split(1).integers(0, k, (n,))
    s = logits[:, y].T / 1.0  # s[j, i] = logit of class y_j for input i
    value = losses.loss_cond(s, 2.0, 0.0)
    counts = np.bincount(y, minlength=k)
    with np.errstate(divide="ignore"):
        log_pi = np.where(counts > 0, np.log(np.maximum(counts, 1) / n), -np.inf)
    from scipy.special import logsumexp as lse

    ce = float(-np.mean(logits[np.arange(n), y]) + np.mean(lse(logits + log_pi, axis=1)))
    assert abs(value - ce) < 1e-10, f"{value} vs {ce}"


VERIFY_CHECKS = [
    ("theorem_identity", _check_theorem_identity),
    ("conditional_5_4", _check_conditionals),
    ("minimizers_5_4", _check_minimizers),
    ("shrinkage_h", _check_shrinkage),
    ("marginal_ordering", _check_marginal_ordering),
    ("cond_joint_inequality", _check_loss_inequality),
    ("encoder_gradients", _check_gradients),
    ("loss_gradients", _check_loss_grads),
    ("mmd_sanity", _check_mmd),
    ("exp_quadratic", _check_exp_quadratic),
    ("encoder_recovery", _check_recovery),
    ("flow_velocity", _check_flow),
    ("retrieval", _check_retrieval),
    ("serialization", _check_serialization),
    ("cross_entropy_equivalence", _check_ce_equivalence),
]


def verify() -> int:
    """Run the analytic self-check suite; one line per check."""
    failed = []
    for name, fn in VERIFY_CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 -- report, don't crash
            print(f"FAIL {name}: {exc}")
            failed.append(name)
        else:
            print(f"PASS {name}")
    if failed:
        print(f"verify failed: first failing check is {failed[0]}")
        return 1
    print(f"verify ok: {len(VERIFY_CHECKS)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tiltlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--output-dir", default=None, help="override the config output_dir")
    sub.add_parser("verify", help="run the analytic self-check suite")
    args = parser.parse_args(argv)

    if args.command == "verify":
        return verify()

    try:
        plan = load_plan(args.config, args.seed, args.output_dir)
        os.makedirs(plan.output_dir, exist_ok=True)
        if not os.access(plan.output_dir, os.W_OK):
            raise ConfigError(f"config.output_dir: {plan.output_dir} is not writable")
    except (ConfigError, OSError) as exc:  # OSError: output_dir cannot be made
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        RUNNERS[plan.experiment](plan)
    except (TiltlabError, ValueError, OSError) as exc:
        print(f"runtime error in {plan.experiment}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
