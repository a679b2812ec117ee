"""End-to-end tests for the command line runner.

These exercise the plumbing: config validation and error reporting,
artifact layout, byte-level reproducibility, and the self-check suite.
Numerical correctness of what gets written lives in the module tests;
here we only spot-check a few closed-form values that the runner is
supposed to pass through unchanged.
"""

import copy
import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import cli, datagen, gaussian
from tiltlab.rng import SeededRng


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def closed_form_doc(outdir, seed=3):
    return {
        "experiment": "closed-form",
        "seed": seed,
        "output_dir": str(outdir),
    }


def expected_hash(doc, seed):
    echo = {k: v for k, v in doc.items() if k != "output_dir"}
    echo["seed"] = seed
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def train_block(**extra):
    return {
        "epochs": 1,
        "batch_size": 4,
        "learning_rate": 1e-3,
        "loss": {"variant": "cond"},
        **extra,
    }


def read_report(outdir):
    with open(os.path.join(str(outdir), "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_idx_pair(tmp_path):
    """A 12-image IDX pair of 2x2 images, labels 0..9 then 0, 1."""
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"

    def header(*words):
        return b"".join(w.to_bytes(4, "big") for w in words)

    images.write_bytes(header(0x803, 12, 2, 2) + bytes(48))
    labels.write_bytes(header(0x801, 12) + bytes(i % 10 for i in range(12)))
    return str(images), str(labels)


class TestConfigErrors:
    """Bad configs exit 2 with a pointed message and write nothing."""

    def run_expecting_config_error(self, argv, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error: ")
        return captured.err

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        err = self.run_expecting_config_error(["run", path], capsys)
        assert path in err

    def test_invalid_json_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": }', encoding="utf-8")
        err = self.run_expecting_config_error(["run", str(path)], capsys)
        assert f"{path}:1:16:" in err

    def test_unknown_experiment(self, tmp_path, capsys):
        outdir = tmp_path / "never"
        doc = {"experiment": "warp-drive", "seed": 0, "output_dir": str(outdir)}
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.experiment: unknown experiment 'warp-drive'" in err
        assert not outdir.exists()

    def test_negative_seed(self, tmp_path, capsys):
        doc = closed_form_doc(tmp_path / "never", seed=-1)
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.seed: must be >= 0" in err
        assert not (tmp_path / "never").exists()

    def test_missing_output_dir(self, tmp_path, capsys):
        doc = {"experiment": "closed-form", "seed": 0}
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.output_dir: missing (or pass --output-dir)" in err

    def test_train_block_required_outside_closed_form(self, tmp_path, capsys):
        doc = {"experiment": "gaussian2d", "seed": 0, "output_dir": str(tmp_path / "o")}
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.train: missing required field" in err

    def test_dotted_path_in_nested_error(self, tmp_path, capsys):
        doc = {
            "experiment": "gaussian2d",
            "seed": 0,
            "output_dir": str(tmp_path / "o"),
            "train": {
                "epochs": 0,
                "batch_size": 64,
                "learning_rate": 1e-3,
                "loss": {"variant": "cond"},
            },
        }
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.train.epochs: must be >= 1" in err

    def test_unknown_loss_variant(self, tmp_path, capsys):
        doc = {
            "experiment": "gaussian2d",
            "seed": 0,
            "output_dir": str(tmp_path / "o"),
            "train": {
                "epochs": 1,
                "batch_size": 64,
                "learning_rate": 1e-3,
                "loss": {"variant": "nope"},
            },
        }
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.train.loss" in err

    def test_sweep_entry_not_a_list(self, tmp_path, capsys):
        doc = closed_form_doc(tmp_path / "o")
        doc["sweep"] = {"sample_sizes": 5}
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.sweep.sample_sizes: expected a nonempty list" in err

    def test_sweep_not_an_object(self, tmp_path, capsys):
        doc = closed_form_doc(tmp_path / "o")
        doc["sweep"] = [1]
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.sweep: expected an object" in err

    def test_loss_kernel_not_an_object(self, tmp_path, capsys):
        doc = {
            "experiment": "gaussian2d",
            "seed": 0,
            "output_dir": str(tmp_path / "o"),
            "train": {
                "epochs": 1,
                "batch_size": 64,
                "learning_rate": 1e-3,
                "loss": {"variant": "cond_mmd", "kernel": 5},
            },
        }
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.train.loss.kernel: expected an object" in err

    @pytest.mark.parametrize(
        "experiment, key, value, message",
        [
            ("closed-form", "gaussian", 5, "config.gaussian: expected an object"),
            ("lagrangian", "flow", [1], "config.flow: expected an object"),
            ("gaussian-gp", "gp", 3, "config.gp: expected an object"),
            ("mnist", "mnist", 5, "config.mnist: expected an object"),
            ("lagrangian", "flow", {"x0": 0.5}, "config.flow.x0: expected a pair of numbers"),
            ("lagrangian", "flow", {"x0": [0.5, "a"]}, "config.flow.x0[1]: expected a number"),
            ("mnist", "mnist", {"images": 3}, "config.mnist.images: expected a path"),
            (
                "mnist",
                "mnist",
                lambda idx: {"images": idx[0], "labels": idx[1], "test_images": idx[0]},
                "config.mnist.test_labels: required when test_images is given",
            ),
            ("gaussian2d", "train", train_block(tau=math.inf), "config.train.tau: must be finite"),
            (
                "gaussian2d",
                "train",
                train_block(loss={"variant": "cond", "lam_u": math.nan}),
                "config.train.loss.lam_u: must be finite",
            ),
            ("gaussian2d", "train", train_block(tua=0.5), "config.train.tua: unknown field"),
            (
                "closed-form",
                "gaussian",
                {"c_uu": [["a"]], "c_uv": [[1.0]], "c_vv": [[1.5]]},
                "config error: config.gaussian.c_uu[0][0]: expected a number",
            ),
            (
                "mnist",
                "mnist",
                lambda idx: {"images": idx[0], "labels": idx[1], "test_labels": idx[1]},
                "config.mnist.test_images: required when test_labels is given",
            ),
            (
                "gaussian2d",
                "sweep",
                {"sample_sizes": [300, 5000]},
                "config.sweep.sample_sizes: gaussian2d runs one sample size, got 2",
            ),
            (
                "lagrangian",
                "sweep",
                {"sample_sizes": [300, 5000]},
                "config.sweep.sample_sizes: lagrangian runs one sample size, got 2",
            ),
        ],
    )
    def test_malformed_block(self, tmp_path, capsys, experiment, key, value, message):
        # a real IDX pair, so the mnist case gets past the missing-file skip
        idx = write_idx_pair(tmp_path)
        outdir = tmp_path / "o"
        doc = {
            "experiment": experiment,
            "seed": 0,
            "output_dir": str(outdir),
            "train": {
                "epochs": 1,
                "batch_size": 4,
                "learning_rate": 1e-3,
                "loss": {"variant": "cond"},
            },
            key: value(idx) if callable(value) else value,
        }
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert message in err
        assert not outdir.exists()

    def test_gaussian2d_needs_1d_blocks(self, tmp_path, capsys):
        outdir = tmp_path / "o"
        doc = {
            "experiment": "gaussian2d",
            "seed": 0,
            "output_dir": str(outdir),
            "gaussian": {"c_uu": [[1.0, 0.0], [0.0, 1.0]], "c_uv": [[0.0], [0.0]]},
            "train": train_block(),
        }
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config error: config.gaussian: gaussian2d expects 1-d u and v blocks" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("in_config", [True, False])
    def test_seed_beyond_64_bits(self, tmp_path, capsys, in_config):
        outdir = tmp_path / "o"
        doc = closed_form_doc(outdir, seed=2**70 if in_config else 0)
        argv = ["run", write_config(tmp_path, doc)] + ([] if in_config else ["--seed", str(2**64)])
        err = self.run_expecting_config_error(argv, capsys)
        assert err.startswith("config error: config.seed: ")
        assert not outdir.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        err = self.run_expecting_config_error(["run", str(path)], capsys)
        assert f"{path}: " in err

    def test_output_dir_cannot_be_made(self, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        doc = closed_form_doc(tmp_path / "file" / "out")
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert str(tmp_path / "file" / "out") in err

    def test_gaussian_block_not_positive_definite(self, tmp_path, capsys):
        doc = closed_form_doc(tmp_path / "o")
        doc["gaussian"] = {"c_uu": [[1.0]], "c_uv": [[2.0]], "c_vv": [[1.0]]}
        err = self.run_expecting_config_error(["run", write_config(tmp_path, doc)], capsys)
        assert "config.gaussian:" in err


def matrix_value(results, name):
    doc = results[name]
    return np.asarray(doc["data"], dtype=np.float64).reshape(doc["rows"], doc["cols"])


class TestClosedForm:
    def run(self, tmp_path, doc=None):
        outdir = tmp_path / "out"
        doc = doc or closed_form_doc(outdir)
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 0
        return outdir, doc

    def test_report_carries_reference_values(self, tmp_path):
        outdir, _ = self.run(tmp_path)
        report = read_report(outdir)
        assert report["experiment"] == "closed-form"
        assert report["artifacts"] == ["closed_form.csv"]
        res = report["results"]
        assert matrix_value(res, "true_gain")[0, 0] == pytest.approx(2 / 3, abs=1e-12)
        assert matrix_value(res, "true_cov")[0, 0] == pytest.approx(5 / 6, abs=1e-12)
        assert matrix_value(res, "a_cond")[0, 0] == pytest.approx(4 / 9, abs=1e-12)
        assert matrix_value(res, "a_quad")[0, 0] == pytest.approx(0.8, abs=1e-10)
        assert matrix_value(res, "b_quad")[0, 0] == pytest.approx(8 / 15, abs=1e-10)
        assert matrix_value(res, "a_joint")[0, 0] == pytest.approx(1 / 3, abs=1e-10)
        assert res["cond_loss_at_min"] == pytest.approx(-2 / 9, abs=1e-12)
        assert res["joint_loss_at_min"] == pytest.approx(
            -1 / 3 - 0.5 * math.log(0.75), abs=1e-10
        )
        # quadratic model reproduces the exact conditional
        assert matrix_value(res, "quad_model_gain")[0, 0] == pytest.approx(2 / 3, abs=1e-9)
        assert matrix_value(res, "quad_model_cov")[0, 0] == pytest.approx(5 / 6, abs=1e-9)
        # marginal variances: truth 1.5 < joint model 2.0 < cond model 2.7
        assert matrix_value(res, "marginal_model_joint")[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert matrix_value(res, "marginal_model_cond")[0, 0] == pytest.approx(2.7, abs=1e-9)
        assert res["whitened_singular_values"] == pytest.approx([2 / 3], abs=1e-12)
        assert res["shrunk_singular_values"] == pytest.approx([0.5], abs=1e-12)

    def test_report_on_2x3_blocks_matches_numpy_forms(self, tmp_path):
        c_uu = np.array([[2.0, 0.3], [0.3, 1.0]])
        c_uv = np.array([[0.5, 0.2, 0.1], [0.1, -0.4, 0.2]])
        c_vv = np.array([[1.0, 0.0, 0.2], [0.0, 1.5, 0.1], [0.2, 0.1, 1.2]])
        doc = closed_form_doc(tmp_path / "out")
        doc["gaussian"] = {"c_uu": c_uu.tolist(), "c_uv": c_uv.tolist(), "c_vv": c_vv.tolist()}
        outdir, _ = self.run(tmp_path, doc)
        res = read_report(outdir)["results"]

        def inv_sqrt(c):
            w, q = np.linalg.eigh(c)
            return (q / np.sqrt(w)) @ q.T

        def woodbury_marginal(a):
            inner = np.linalg.inv(c_vv) - a.T @ c_uu @ a
            return c_uu + c_uu @ a @ np.linalg.solve(inner, a.T @ c_uu)

        ru, rv = inv_sqrt(c_uu), inv_sqrt(c_vv)
        u, s, vt = np.linalg.svd(ru @ c_uv @ rv, full_matrices=False)
        h = (np.sqrt(1.0 + 4.0 * s**2) - 1.0) / (2.0 * s)
        c_vv_inv_vu = np.linalg.solve(c_vv, c_uv.T)
        schur = c_uu - c_uv @ c_vv_inv_vu
        a_cond = np.linalg.solve(c_uu, c_vv_inv_vu.T)
        a_joint = ru @ (u * h) @ vt @ rv
        want = {
            "a_cond": a_cond,
            "a_joint": a_joint,
            "a_quad": np.linalg.solve(schur, c_vv_inv_vu.T),
            "b_quad": np.linalg.inv(schur) - np.linalg.inv(c_uu),
            "marginal_model_cond": woodbury_marginal(a_cond),
            "marginal_model_joint": woodbury_marginal(a_joint),
        }
        for name, m in want.items():
            got = matrix_value(res, name)
            assert got.shape == m.shape, name
            assert np.max(np.abs(got - m)) <= 1e-13 * np.max(np.abs(m)), name
        assert res["whitened_singular_values"] == pytest.approx(s.tolist(), rel=1e-13)

    def test_config_hash_matches_echo(self, tmp_path):
        outdir, doc = self.run(tmp_path)
        report = read_report(outdir)
        assert report["config_hash"] == expected_hash(doc, doc["seed"])
        assert report["config"]["seed"] == doc["seed"]
        assert "output_dir" not in report["config"]
        with open(outdir / "closed_form.meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta == {
            "experiment": "closed-form",
            "config_hash": report["config_hash"],
            "columns": ["quantity", "row", "col", "value"],
        }

    def test_csv_layout(self, tmp_path):
        outdir, _ = self.run(tmp_path)
        lines = (outdir / "closed_form.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "quantity,row,col,value"
        prefix, printed = lines[1].rsplit(",", 1)
        assert prefix == "true_gain,0,0"
        assert float(printed) == pytest.approx(2 / 3, abs=1e-12)
        # floats are written with %.17g so they round-trip exactly
        assert printed == f"{float(printed):.17g}"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"true_gain", "true_cov", "a_cond", "a_quad", "b_quad", "a_joint"}

    def test_seed_flag_overrides_config(self, tmp_path):
        outdir = tmp_path / "out"
        doc = closed_form_doc(outdir, seed=3)
        rc = cli.main(["run", write_config(tmp_path, doc), "--seed", "7"])
        assert rc == 0
        report = read_report(outdir)
        assert report["config"]["seed"] == 7
        assert report["config_hash"] == expected_hash(doc, 7)

    def test_output_dir_flag_stands_in_for_config_key(self, tmp_path):
        doc = {"experiment": "closed-form", "seed": 0}
        outdir = tmp_path / "flagged"
        rc = cli.main(["run", write_config(tmp_path, doc), "--output-dir", str(outdir)])
        assert rc == 0
        assert (outdir / "report.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        doc = {"experiment": "closed-form", "seed": 11}
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli.main(["run", write_config(tmp_path, doc), "--output-dir", str(out1)]) == 0
        assert cli.main(["run", write_config(tmp_path, doc), "--output-dir", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert names == ["closed_form.csv", "closed_form.meta.json", "report.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestGaussian2d:
    def run(self, tmp_path, **train):
        outdir = tmp_path / "out"
        doc = {
            "experiment": "gaussian2d",
            "seed": 5,
            "output_dir": str(outdir),
            "sweep": {"sample_sizes": [2000]},
            "train": {
                "epochs": 30,
                "batch_size": 64,
                "learning_rate": 0.02,
                "loss": {"variant": "cond"},
                **train,
            },
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 0
        return outdir

    def test_artifacts_and_report(self, tmp_path):
        outdir = self.run(tmp_path)
        report = read_report(outdir)
        assert report["artifacts"] == ["conditionals.csv", "densities.csv", "training.csv"]
        res = report["results"]
        assert res["a_cond"] == pytest.approx(4 / 9, abs=1e-12)
        assert res["a_joint"] == pytest.approx(1 / 3, abs=1e-10)
        assert res["a_quad"] == pytest.approx(0.8, abs=1e-9)
        assert res["b_quad"] == pytest.approx(8 / 15, abs=1e-9)
        assert res["trained_abs_err"] == pytest.approx(
            abs(res["a_trained"] - res["a_cond"]), abs=1e-15
        )
        # a short run should still land in the right neighborhood
        assert res["trained_abs_err"] < 0.2
        assert np.isfinite(res["final_epoch_loss"])

        with open(outdir / "conditionals.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        values = {(r["quantity"], r["row"], r["col"]): float(r["value"]) for r in rows}
        # the linear-tilt minimizer matches the true conditional mean but a
        # tilt linear in u cannot move the conditional covariance off c_uu;
        # only the quadratic model recovers the true 5/6
        assert values[("cond_gain", "0", "0")] == pytest.approx(2 / 3, abs=1e-9)
        assert values[("cond_cov", "0", "0")] == pytest.approx(1.5, abs=1e-9)
        assert values[("quad_gain", "0", "0")] == pytest.approx(2 / 3, abs=1e-9)
        assert values[("quad_cov", "0", "0")] == pytest.approx(5 / 6, abs=1e-9)
        # joint-loss model understates the gain
        assert values[("joint_gain", "0", "0")] == pytest.approx(0.5, abs=1e-9)

        lines = (outdir / "training.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 31

    def test_joint_loss_is_measured_against_a_joint(self, tmp_path):
        res = read_report(self.run(tmp_path, epochs=10, loss={"variant": "joint"}))["results"]
        assert res["trained_target"] == "minimizer_joint"
        assert res["trained_abs_err"] == abs(res["a_trained"] - res["a_joint"])
        # closer to the joint optimum 1/3 than to the conditional one 4/9
        assert res["trained_abs_err"] < abs(res["a_trained"] - res["a_cond"])

    def test_l2_distance_has_no_closed_form_target(self, tmp_path):
        res = read_report(self.run(tmp_path, epochs=2, tilting="l2_distance"))["results"]
        assert res["trained_target"] is None
        assert res["trained_abs_err"] is None
        assert np.isfinite(res["a_trained"])

    def test_density_grid(self, tmp_path):
        outdir = self.run(tmp_path)
        with open(outdir / "densities.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81 * 81
        center = [r for r in rows if float(r["u"]) == 0.0 and float(r["v"]) == 0.0]
        assert len(center) == 1
        det = 1.5 * 1.5 - 1.0
        assert float(center[0]["density_true"]) == pytest.approx(
            1.0 / (2 * np.pi * np.sqrt(det)), abs=1e-12
        )
        for key in ("density_cond_model", "density_joint_model", "density_quad_model"):
            assert float(center[0][key]) > 0


class TestDivergence:
    @pytest.mark.parametrize("variant", ["joint", "cond"])
    def test_adam_overflow_exits_1_with_epoch_and_step(self, tmp_path, capsys, variant):
        # tau = 1e-300 gives finite gradients near 1e300 whose squares
        # overflow Adam's second moment; no report may be written
        outdir = tmp_path / "out"
        doc = {
            "experiment": "gaussian2d",
            "seed": 1,
            "output_dir": str(outdir),
            "sweep": {"sample_sizes": [256]},
            "train": {
                "epochs": 1,
                "batch_size": 64,
                "learning_rate": 0.01,
                "tau": 1e-300,
                "loss": {"variant": variant},
            },
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "runtime error in gaussian2d: epoch 0, step 0:" in err
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("tilting", ["inner_product", "l2_distance"])
    def test_overflowing_scores_exit_1_without_numpy_warnings(self, tmp_path, capsys, tilting):
        # learning rate 1e300 puts weights near 1e300 after step 0, so step
        # 1's squared embeddings and scores overflow; the non-finite score
        # check names the step, and numpy's warnings would only repeat it
        doc = {
            "experiment": "gaussian2d",
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
            "sweep": {"sample_sizes": [256]},
            "train": {
                "epochs": 1,
                "batch_size": 64,
                "learning_rate": 1e300,
                "tilting": tilting,
                "loss": {"variant": "cond"},
            },
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["run", write_config(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "runtime error in gaussian2d: epoch 0, step 1: non-finite similarity scores" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []


class TestGaussianGp:
    def test_sweep_rows(self, tmp_path):
        outdir = tmp_path / "out"
        doc = {
            "experiment": "gaussian-gp",
            "seed": 2,
            "output_dir": str(outdir),
            "sweep": {"sample_sizes": [600], "batch_sizes": [64], "embedding_dims": [1, 2]},
            "train": {
                "epochs": 3,
                "batch_size": 64,
                "learning_rate": 0.01,
                "loss": {"variant": "cond"},
            },
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 0
        with open(outdir / "gp_sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n_e"] for r in rows] == ["1", "2"]
        assert all(r["n_samples"] == "600" for r in rows)
        for r in rows:
            assert float(r["cond_mean_mse"]) > 0
            assert np.isfinite(float(r["frob_rel_err_vs_rank_opt"]))
        report = read_report(outdir)
        sweep = report["results"]["sweep"]
        assert [entry["n_e"] for entry in sweep] == [1, 2]
        assert sweep[0]["mse"] == pytest.approx(float(rows[0]["cond_mean_mse"]))

    @staticmethod
    def run(tmp_path, **train):
        outdir = tmp_path / "out"
        doc = {
            "experiment": "gaussian-gp",
            "seed": 3,
            "output_dir": str(outdir),
            "gp": {"n_modes": 20, "grid_points": 4, "n_coeffs": 3},
            "sweep": {"sample_sizes": [400], "batch_sizes": [64], "embedding_dims": [1, 2]},
            "train": {"epochs": 2, "batch_size": 64, "learning_rate": 0.01, "tau": 0.5, **train},
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 0
        with open(outdir / "gp_sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return rows, read_report(outdir)["results"]["sweep"]

    @pytest.mark.parametrize(
        "variant, target",
        [("clip", "minimizer_cond"), ("cond", "minimizer_cond"), ("joint", "minimizer_joint")],
    )
    def test_error_is_measured_against_the_minimizer_of_the_loss(
        self, tmp_path, monkeypatch, variant, target
    ):
        # record every trained tilt and closed form the runner computes, then
        # recompute each row's relative Frobenius error from them
        tilts, closed = [], []
        real_tilt = gaussian.linear_encoder_tilting
        real_min = getattr(gaussian, target)

        def tilt(g_mat, h_mat, *args):
            tilts.append(g_mat.T @ h_mat)
            return real_tilt(g_mat, h_mat, *args)

        @functools.wraps(real_min)
        def minimizer(emp, r):
            assert r == min(len(tilts), emp.n_x, emp.n_y)  # n_e is 1, then 2
            closed.append(real_min(emp, r=r))
            return closed[-1]

        monkeypatch.setattr(gaussian, "linear_encoder_tilting", tilt)
        monkeypatch.setattr(gaussian, target, minimizer)
        rows, sweep = self.run(tmp_path, loss={"variant": variant})
        assert len(closed) == len(sweep) == 2
        for entry, row, a_hat, a_closed in zip(sweep, rows, tilts, closed):
            want = np.linalg.norm(a_hat / 0.5 - a_closed) / np.linalg.norm(a_closed)
            assert entry["trained_target"] == target
            assert entry["frob_rel_err"] == pytest.approx(want, rel=1e-12)
            assert float(row["frob_rel_err_vs_rank_opt"]) == entry["frob_rel_err"]

    def test_l2_mse_uses_the_quadratic_tilt_of_the_trained_encoders(self, tmp_path, monkeypatch):
        # under l2_distance the encoders define the quadratic tilt
        # (G^T H, G^T G, H^T H) / tau, whose model gain is
        # (G^T G / tau + C_uu^{-1})^{-1} G^T H / tau
        weights = []
        real_tilt = gaussian.linear_encoder_tilting

        def tilt(g_mat, h_mat, *args):
            weights.append((g_mat, h_mat))
            return real_tilt(g_mat, h_mat, *args)

        monkeypatch.setattr(gaussian, "linear_encoder_tilting", tilt)
        rows, sweep = self.run(tmp_path, tilting="l2_distance", loss={"variant": "cond"})
        blocks = datagen.gp_analytic_blocks(datagen.GpConfig(n_modes=20, grid_points=4, n_coeffs=3))
        true_gain = np.linalg.solve(blocks.c_vv, blocks.c_uv.T).T
        v_eval = SeededRng(3).split(4).standard_normal((1000, 3))  # the runner's evaluation draws
        assert len(weights) == len(sweep) == 2
        for entry, row, (g_mat, h_mat) in zip(sweep, rows, weights):
            prec = g_mat.T @ g_mat / 0.5 + np.linalg.inv(blocks.c_uu)
            gain = np.linalg.solve(prec, g_mat.T @ h_mat / 0.5)
            want = np.mean(np.sum(((gain - true_gain) @ v_eval.T) ** 2, axis=0))
            assert entry["mse"] == pytest.approx(want, rel=1e-12)
            assert float(row["cond_mean_mse"]) == entry["mse"]

    @pytest.mark.parametrize(
        "train",
        [
            {"tilting": "l2_distance", "loss": {"variant": "cond"}},
            {"loss": {"variant": "cond_mmd", "kernel": {"family": "gaussian"}}},
        ],
    )
    def test_no_closed_form_target_leaves_the_error_blank(self, tmp_path, train):
        rows, sweep = self.run(tmp_path, **train)
        for entry, row in zip(sweep, rows):
            assert entry["trained_target"] is None
            assert entry["frob_rel_err"] is None
            assert row["frob_rel_err_vs_rank_opt"] == ""
            assert float(row["cond_mean_mse"]) > 0


class TestLagrangian:
    def test_small_run(self, tmp_path):
        outdir = tmp_path / "out"
        doc = {
            "experiment": "lagrangian",
            "seed": 9,
            "output_dir": str(outdir),
            "sweep": {"sample_sizes": [64]},
            "heldout": 32,
            "hidden": 16,
            "flow": {"m": 1, "dt": 1e-3, "t_final": 0.1, "record_stride": 10},
            "train": {
                "epochs": 2,
                "batch_size": 16,
                "learning_rate": 1e-3,
                "tau": 0.07,
                "loss": {"variant": "cond"},
            },
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 0
        report = read_report(outdir)
        res = report["results"]
        assert res["n_train"] == 64
        assert res["n_heldout"] == 32
        assert res["coeff_dim"] > 0
        assert res["feature_dim"] > 0
        for key in (
            "r1_traj_to_coeff",
            "r5_traj_to_coeff",
            "r1_coeff_to_traj",
            "r5_coeff_to_traj",
        ):
            assert 0.0 <= res["final"][key] <= 1.0
            assert res["final"][key] >= res["final"][key.replace("r5", "r1")]
        lines = (outdir / "recall.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "epoch,loss,r1_coeff_to_traj,r1_traj_to_coeff,r5_coeff_to_traj,r5_traj_to_coeff"
        )
        assert len(lines) == 3

    def test_flow_validation_routed_to_config_error(self, tmp_path, capsys):
        doc = {
            "experiment": "lagrangian",
            "seed": 0,
            "output_dir": str(tmp_path / "o"),
            "flow": {"dt": -1.0},
            "train": {
                "epochs": 1,
                "batch_size": 16,
                "learning_rate": 1e-3,
                "loss": {"variant": "cond"},
            },
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config error: config.flow:" in captured.err


class TestMnist:
    def base_doc(self, outdir):
        return {
            "experiment": "mnist",
            "seed": 0,
            "output_dir": str(outdir),
            "train": {
                "epochs": 1,
                "batch_size": 64,
                "learning_rate": 1e-3,
                "loss": {"variant": "cond", "lam_u": 2.0, "lam_v": 0.0},
            },
        }

    def test_missing_files_skip_gracefully(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        doc = self.base_doc(outdir)
        doc["mnist"] = {
            "images": str(tmp_path / "absent-imagesidx"),
            "labels": str(tmp_path / "absent-labelsidx"),
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "mnist: skipped" in captured.out
        report = read_report(outdir)
        assert report["results"]["skipped"].startswith("missing MNIST files")
        assert report["artifacts"] == []

    def test_paths_are_required(self, tmp_path, capsys):
        doc = self.base_doc(tmp_path / "out")
        rc = cli.main(["run", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config error: config.mnist" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("absent", ["test_images", "test_labels"])
    def test_missing_test_file_skips(self, tmp_path, capsys, absent):
        # one IDX pair as train and test set
        images, labels = write_idx_pair(tmp_path)
        outdir = tmp_path / "out"
        doc = self.base_doc(outdir)
        doc["mnist"] = {
            "images": images,
            "labels": labels,
            "test_images": images,
            "test_labels": labels,
            absent: str(tmp_path / "absent.idx"),
        }
        rc = cli.main(["run", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"mnist: skipped (missing files: ['{tmp_path / 'absent.idx'}'])" in captured.out
        assert read_report(outdir)["results"]["skipped"].startswith("missing MNIST files")

    def test_heldout_accuracy_takes_the_label_prior(self, tmp_path):
        # 8x8 images, one noisy template per label, labels drawn from a
        # skewed prior: argmax of the logits alone scores 0.31-0.39 at
        # seeds 1-3, and with log pi added, as label_probs has it, 0.57,
        # the held-out share of label 0 (three epochs leave the prior
        # to decide)
        rng = np.random.default_rng(0)
        pi = [0.55, 0.2, 0.1, 0.05, 0.04, 0.02, 0.01, 0.01, 0.01, 0.01]
        templates = rng.integers(90, 166, (10, 8, 8))
        paths = {}
        for prefix, n in (("", 600), ("test_", 200)):
            labels = rng.choice(10, n, p=pi).astype(np.uint8)
            noise = rng.integers(-200, 200, (n, 8, 8))
            images = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
            for kind, magic, arr in (("images", 0x803, images), ("labels", 0x801, labels)):
                path = tmp_path / f"{prefix}{kind}.idx"
                header = b"".join(d.to_bytes(4, "big") for d in (magic, *arr.shape))
                path.write_bytes(header + arr.tobytes())
                paths[prefix + kind] = str(path)
        doc = self.base_doc(tmp_path / "out")
        doc["train"]["epochs"] = 3
        doc["mnist"] = paths
        for seed in (1, 2, 3):
            out = tmp_path / f"out-{seed}"
            argv = ["run", write_config(tmp_path, doc), "--seed", str(seed), "--output-dir", str(out)]
            assert cli.main(argv) == 0
            assert read_report(out)["results"]["final_heldout_accuracy"] >= 0.5


SMALL_RUNS = {
    "closed-form": {},
    "gaussian2d": {"sweep": {"sample_sizes": [256]}},
    "gaussian-gp": {
        "gp": {"n_modes": 20, "grid_points": 4},
        "sweep": {"sample_sizes": [64], "batch_sizes": [16]},
    },
    "lagrangian": {
        "flow": {"m": 1, "dt": 0.01, "t_final": 0.1},
        "sweep": {"sample_sizes": [16]},
        "heldout": 8,
        "hidden": 8,
    },
    "mnist": {"hidden": 4},
}


@pytest.mark.parametrize("experiment", list(SMALL_RUNS))
def test_every_csv_has_a_sidecar_naming_its_columns(tmp_path, experiment):
    outdir = tmp_path / "out"
    doc = {
        "experiment": experiment,
        "seed": 1,
        "output_dir": str(outdir),
        "train": train_block(),
        **SMALL_RUNS[experiment],
    }
    if experiment == "mnist":
        images, labels = write_idx_pair(tmp_path)
        doc["mnist"] = {"images": images, "labels": labels}
    assert cli.main(["run", write_config(tmp_path, doc)]) == 0
    artifacts = read_report(outdir)["artifacts"]
    assert sorted(artifacts) == sorted(p.name for p in outdir.glob("*.csv"))
    assert artifacts
    for name in artifacts:
        with open(outdir / name, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
        sidecar = json.loads((outdir / name.replace(".csv", ".meta.json")).read_text(encoding="utf-8"))
        assert sidecar["columns"] == header
        assert sidecar["experiment"] == experiment


def valid_configs():
    """One small config per experiment that RunPlan accepts."""
    train = train_block(loss={"variant": "cond_mmd", "kernel": {"family": "gaussian"}})
    base = {"seed": 3, "output_dir": "o", "sweep": {"sample_sizes": [8]}, "train": train}
    return [
        {**base, "experiment": "closed-form", "gaussian": {"c_uu": [[2.0]], "c_uv": [[0.5]]}},
        {**base, "experiment": "gaussian2d", "train": train_block(tau=0.5, tilting="l2_distance")},
        {**base, "experiment": "gaussian-gp", "gp": {"n_modes": 20, "grid_points": 4}},
        {**base, "experiment": "mnist", "hidden": 4, "mnist": {"images": "i", "labels": "l"}},
        {
            **base,
            "experiment": "lagrangian",
            "heldout": 4,
            "flow": {"m": 1, "dt": 0.01, "t_final": 0.1, "x0": [0.25, 0.5]},
        },
    ]


# integers stay small (flow.m sizes an allocation) apart from a few past
# the 64-bit and float ranges
EDGE_VALUES = [
    *(None, True, 0, -1, 3, 2**64, -(2**70), 10**400),
    *(0.0, 5e-324, 1e308, -1.5, math.nan, math.inf),
    *("", "cond", [], [1], [[1.0]], {}),
]
JSON_VALUES = st.recursive(
    st.sampled_from(EDGE_VALUES) | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
DELETE = object()


def json_paths(doc, at=()):
    """Every path into doc below its root, as tuples of keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from json_paths(value, at + (key,))


def mutated(base, path, value):
    """A copy of base with the entry at path set to value, or deleted."""
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_configs(draw):
    base = draw(st.sampled_from(valid_configs()))
    path = draw(st.sampled_from(list(json_paths(base))))
    return mutated(base, path, draw(st.just(DELETE) | JSON_VALUES))


def build_or_config_error(doc):
    try:
        cli.RunPlan(doc, None, None)
    except cli.ConfigError:
        pass


class TestConfigSchema:
    """RunPlan either builds a plan or raises ConfigError, whatever the JSON."""

    def test_valid_configs_build(self):
        for doc in valid_configs():
            assert cli.RunPlan(doc, None, None).experiment == doc["experiment"]

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(JSON_VALUES | mutated_configs())
    def test_any_json_or_mutated_config(self, doc):
        build_or_config_error(doc)

    def test_every_entry_deleted_or_at_edge_values(self):
        for base in valid_configs():
            for path in json_paths(base):
                for value in [DELETE, *EDGE_VALUES]:
                    build_or_config_error(mutated(base, path, value))

    def test_readme_cli_example_builds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## CLI", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        doc = json.loads(example)
        plan = cli.RunPlan(doc, None, None)
        assert (plan.experiment, plan.train.epochs) == (doc["experiment"], doc["train"]["epochs"])


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc = cli.main(["verify"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        pass_lines = [l for l in lines if l.startswith("PASS ")]
        assert len(pass_lines) == len(cli.VERIFY_CHECKS)
        assert lines[-1] == f"verify ok: {len(cli.VERIFY_CHECKS)} checks passed"

    def test_perturbation_is_caught(self, capsys, monkeypatch):
        original = gaussian.shrinkage_h
        monkeypatch.setattr(gaussian, "shrinkage_h", lambda sigma: original(sigma) * 1.001)
        rc = cli.main(["verify"])
        captured = capsys.readouterr()
        assert rc == 1
        assert any(l.startswith("FAIL ") for l in captured.out.splitlines())
        assert "verify failed: first failing check is" in captured.out


def test_loading_the_cli_leaves_scipy_unimported():
    # scipy is only the independent reference of verify's cross-entropy
    # check, imported when that check runs; `tiltlab run` never pays for it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tiltlab.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"
