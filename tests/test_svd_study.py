"""Byte oracle of ``vflkit svd``: both report files and
``singular_values.csv`` must equal those the study wrote when it ran
through a ``PerturbationStudy`` record, with ``singular_spectrum``,
``random_unit_columns`` and a ``reconstruct_and_rate`` that built a new
evaluator and a full SVD for every ``k``. Test-local copies of those and of
the ``build_perturbation_matrix`` that filled the record run here on the
same inputs, in the same process, so the bytes must match on any BLAS
kernel."""
import argparse
import json
from dataclasses import dataclass

import numpy as np
import pytest

from vflkit import assessment, cli
from vflkit.model import as_matrix, as_vector
from vflkit.synthesis import JointEvaluator, _as_benign_views, adi_generate

DIGITS = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "digits", "n": 400,
                "test_fraction": 0.2, "split_seed": 1,
                "tiny_size": 6, "tiny_seed": 5},
    "partition": {"kind": "image_columns", "counts": [14, 14],
                  "image_side": 28},
    "protocol": "splitnn",
    "model": {"local_hidden": [32, 16], "top_hidden": [16]},
    "train": {"epochs": 5, "lr": 0.1, "batch": 32},
    "synthesis": {"max_rounds": 10, "inner_steps": 3, "inner_lr": 5.0,
                  "bound_multiplier": 4.0},
    "svd": {"h": 10, "ks": [1, 3, 10]},
}


@dataclass
class _Study:
    matrix: np.ndarray
    mean_perturbation: np.ndarray
    base: np.ndarray
    target: int
    dropped: int = 0


def _build_perturbation_matrix(system, benign_rows, x_adv_star, cfg,
                               l_target):
    benign_views = _as_benign_views(system, benign_rows)
    h = benign_views[0].shape[0]
    if h < 2:
        raise ValueError("need at least two benign rows")
    base = as_vector(x_adv_star)
    cols = []
    raw = []
    dropped = 0
    for i in range(h):
        rows = [view[i:i + 1] for view in benign_views]
        cand = adi_generate(base, system, l_target, cfg, rows)
        norm = np.linalg.norm(cand.perturbation)
        if norm == 0.0:
            dropped += 1
            continue
        cols.append(cand.perturbation / norm)
        raw.append(cand.perturbation)
    if not cols:
        raise ValueError("every synthesis pass returned a zero perturbation")
    matrix = np.stack(cols, axis=1)
    mean_v = np.mean(raw, axis=0)
    return _Study(matrix, mean_v, base, int(l_target), dropped)


def _singular_spectrum(matrix):
    return np.linalg.svd(as_matrix(matrix), compute_uv=False)


def _random_unit_columns(d, h, seed=0):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, h))
    return cols / np.linalg.norm(cols, axis=0, keepdims=True)


def _reconstruct_and_rate(study, k, system, test_benign_views):
    u, _, _ = np.linalg.svd(study.matrix, full_matrices=False)
    if not 1 <= k <= u.shape[1]:
        raise ValueError(f"k must lie in [1, {u.shape[1]}]")
    basis = u[:, :k]
    projected = basis @ (basis.T @ study.mean_perturbation)
    evaluator = JointEvaluator(system, test_benign_views)
    return evaluator.attack_accuracy(study.base + projected, study.target)


def _oracle(cfg, checkpoint, out):
    """The study as ``cmd_svd`` ran it through the four copies above; its
    report rows and the number of dropped columns."""
    args = argparse.Namespace(checkpoint=str(checkpoint))
    svd = cfg["svd"]
    train_views, adv_test, benign, system, rng = cli._attack_setup(cfg, args)
    scfg = cli._synthesis_config(cfg, args, train_views[0])
    rows = cli._sample_rows(rng, np.concatenate(benign, axis=1), svd["h"])
    x_star = adv_test[int(rng.integers(adv_test.shape[0]))]
    majority, _ = JointEvaluator(system, benign).majority_label(x_star)
    target = (majority + svd["target_offset"]) % system.n_classes
    study = _build_perturbation_matrix(system, rows, x_star, scfg, target)
    spectrum = _singular_spectrum(study.matrix)
    baseline = _singular_spectrum(
        _random_unit_columns(*study.matrix.shape, seed=cfg["seed"]))
    report = assessment.ExperimentReport(
        "svd", {"h": svd["h"], "ks": svd["ks"], "target": int(target)},
        ["k", "reconstruction_rate"], seed=cfg["seed"])
    for k in svd["ks"]:
        k = min(k, study.matrix.shape[1])
        rate = _reconstruct_and_rate(study, k, system, benign)
        report.rows.append({"k": k, "reconstruction_rate": rate})
    out.mkdir()
    cli._write_report(out, "svd", report)
    np.savetxt(out / "singular_values.csv",
               np.stack([spectrum, baseline[:len(spectrum)]], axis=1),
               delimiter=",", header="perturbations,random_baseline",
               comments="")
    return report.rows, study.dropped


def _files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("svd-study")
    path = tmp / "train.json"
    path.write_text(json.dumps(DIGITS), encoding="utf-8")
    assert cli.main(["train", str(path), "--output-dir", str(tmp)]) == 0
    return tmp / "checkpoint.json"


# (mode, strategy, svd.target_offset) and what each case needs to show: a
# zero mutation to drop, or rates that differ across the ks (so a wrong
# mean or basis shows in them).
_CASES = {
    "whitebox": ("whitebox", "random", 2, "dropped"),
    "blackbox": ("blackbox", "random", 2, "dropped"),
    "bounded-whitebox": ("whitebox", "bounded", 3, "rates"),
    "bounded-blackbox": ("blackbox", "bounded", 3, "rates"),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_same_bytes_as_the_study_record(tmp_path, checkpoint, case):
    mode, strategy, offset, shows = _CASES[case]
    doc = {**DIGITS, "synthesis": {**DIGITS["synthesis"], "mode": mode,
                                   "strategy": strategy},
           "svd": {**DIGITS["svd"], "target_offset": offset}}
    path = tmp_path / "svd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["svd", str(path), "--output-dir", str(tmp_path / "cli"),
                     "--checkpoint", str(checkpoint)]) == 0
    rows, dropped = _oracle(cli.load_config(path), checkpoint,
                            tmp_path / "oracle")
    if shows == "dropped":
        assert dropped > 0
    else:
        assert len({row["reconstruction_rate"] for row in rows}) > 1, rows
    got = _files(tmp_path / "cli")
    assert len(got) == 3
    assert got == _files(tmp_path / "oracle")
