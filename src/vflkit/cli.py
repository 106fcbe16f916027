"""Command-line entry point: wires JSON run configs to training, dominance
baselines, synthesis, fuzzing, variance analysis, the SVD study, and sweeps.
A sweep runs the ``train``, ``dominance`` and ``synthesize`` pipeline once
per partition cell, on one split of the dataset.

``_CONFIG`` lists every config key, by section, with its default.
Precedence: command-line flag > config key > built-in default. The
VFLKIT_SEED environment variable overrides the config seed. Exit codes:
0 success, 1 configuration error, 2 data error.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assessment, synth_data
from .data import (Dataset, PartitionSpec, RowBlocks, _test_mask,
                   idx_rows, image_column_partition, load_csv, load_idx,
                   mnist_column_split, normalize, ratio_split, sample_tiny,
                   split_views)
from .fuzzer import CampaignConfig, calibrate_saliency, fuzz_campaign
from .model import _is_finite_real, _is_integer, _split_widths
from .protocol import (evaluate, load_system, save_system,
                       splitnn_architecture, train_heterolr,
                       train_linear_joint, train_splitnn)
from .synthesis import (JointEvaluator, SynthesisConfig, default_bound,
                        write_candidates)
from .variance import (ScalarMixture, fit_gmm_em, heterolr_variance,
                       project_mixture, splitnn_unit_variance,
                       variance_monte_carlo)


class ConfigError(ValueError):
    pass


class DataError(RuntimeError):
    pass


# Every config key and its default: top-level values, then each section's
# keys. A key whose default is None stays absent when the config omits it:
# the dataclass or trainer it is passed to applies its own default, the
# code reading it derives one, or the kind that needs it requires it.
_CONFIG = {
    "seed": 0,
    "output_dir": "out",
    "checkpoint": None,
    "protocol": "heterolr",
    # n: the synthetic dataset's full size; normalize: on, except for idx
    # images and synthetic digits.
    "dataset": {"kind": None, "path": None, "label_column": "label",
                "images": None, "labels": None, "name": None, "n": None,
                "normalize": None, "test_fraction": 0.2, "split_seed": 1,
                "tiny_size": 20, "tiny_seed": 5},
    "partition": {"kind": None, "counts": None, "ratio": None,
                  "participants": 2, "image_side": 28},
    "model": {"local_hidden": [128, 64], "top_hidden": [64]},
    # epochs: the protocol trainer's.
    "train": {"epochs": None, "lr": 0.05, "batch": 64, "momentum": 0.9},
    # SynthesisConfig fields, then the bound's multiplier and sample size.
    "synthesis": {**dict.fromkeys(
        ("strategy", "mode", "alpha", "beta", "gamma", "momentum",
         "max_rounds", "threshold", "inner_steps", "inner_lr", "fdm_step")),
        "bound_multiplier": 1.0, "n_inputs": 50},
    # CampaignConfig fields, then the run's budget, corpus and bound.
    "fuzz": {**dict.fromkeys(("max_iter", "energy", "mask_weight",
                              "stable_fraction", "noise_std_factor")),
             "budget_mins": None, "corpus": "sample:100",
             "bound_multiplier": 1.0},
    "dominance": {"n_rows": 300, "thresholds": [0.95, 0.99]},
    "svd": {"h": 200, "ks": [1, 5, 10], "target_offset": 3},
    "sweep": {"kind": "ratio", "ratios": [0.40, 0.65, 1.00, 1.33, 1.80, 2.11],
              "counts": [2, 3, 5], "n_dominance": 300, "n_synth": 40,
              "synthesis": {}},
    "variance": {"k": 1, "n_mc": 1_000_000, "fixture": None, "em_seed": 0},
}


class _Section(dict):
    """A config section with the table's defaults filled in. Reading an
    absent key that has no default is a configuration error naming it."""

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name

    def __missing__(self, key):
        raise ConfigError(f"config needs {self.name}.{key}")


def _read(cfg: dict, name: str, within: str = ""):
    """Config entry ``name``: a top-level value, or a ``_Section``. A
    section nested in another is read from that one, with ``within``
    prefixing its name (``"sweep."``)."""
    default = _CONFIG[name]
    if not isinstance(default, dict):
        return cfg.get(name, default)
    given = cfg.get(name, {})
    name = within + name
    if not isinstance(given, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    for key in given:
        if key not in default:
            raise ConfigError(f"unknown config key {name}.{key}")
    filled = {k: v for k, v in default.items() if v is not None}
    return _Section(name, {**copy.deepcopy(filled), **given})


def validate_config(doc: dict):
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        _read(doc, key)
    return doc


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from None
    doc = validate_config(doc)
    if "VFLKIT_SEED" in os.environ:
        try:
            doc["seed"] = int(os.environ["VFLKIT_SEED"])
        except ValueError:
            raise ConfigError("VFLKIT_SEED must be an integer") from None
    doc["seed"] = _read(doc, "seed")
    return doc


def _out_dir(cfg: dict) -> Path:
    """The output directory, created. Each command asks for it once the
    settings it checks before any data loads have passed, and before the
    load: a bad setting leaves no directory behind, and a directory that
    cannot be created stops the command before its work."""
    out = Path(_read(cfg, "output_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(cfg: dict) -> Dataset | RowBlocks:
    """The configured data set. Unnormalized image sources, IDX files and
    synthetic digits, come as ``RowBlocks``, whose rows ``split_views``
    copies straight into the party views; any other source is a
    ``Dataset``."""
    spec = _read(cfg, "dataset")
    kind = spec["kind"]
    normalized = spec.get("normalize",
                          kind != "idx" and spec.get("name") != "digits")
    try:
        if kind == "csv":
            ds = load_csv(spec["path"], spec["label_column"])
        elif kind == "idx":
            ds = (load_idx if normalized else idx_rows)(spec["images"],
                                                        spec["labels"])
        elif kind == "synthetic":
            name = spec["name"]
            make = {"credit": synth_data.make_credit_like,
                    "vehicle": synth_data.make_vehicle_like,
                    "digits": synth_data.make_digits_like if normalized
                    else synth_data.digit_rows,
                    "multimodal": synth_data.make_multimodal_like}.get(name)
            if make is None:
                raise ConfigError(f"unknown synthetic dataset {name!r}")
            full = {"credit": synth_data.CREDIT_N,
                    "vehicle": synth_data.VEHICLE_N}.get(name, 20000)
            ds = make(spec.get("n", full))
        else:
            raise ConfigError(f"unknown dataset kind {kind!r}")
    except ConfigError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(str(exc)) from None
    return normalize(ds) if normalized else ds


def _partition_settings(cfg: dict) -> _Section:
    """The partition section, with the settings its kind reads checked; no
    data is needed for that."""
    part = _read(cfg, "partition")
    kind = part["kind"]
    if kind not in ("counts", "ratio", "image_columns"):
        raise ConfigError(f"unknown partition kind {kind!r}")
    if kind == "ratio":
        _setting(part, "ratio", lambda v: _is_finite_real(v) and v > 0,
                 "a finite number > 0", (int, float))
    elif kind == "counts" or "counts" in part:
        counts = _setting(part, "counts", lambda v: v and all(map(
            _is_integer, v)), "a nonempty list of integers", list)
        if min(counts) < 1:
            raise ConfigError(f"partition counts must be positive, got {counts}")
    else:
        _count(part, "participants")
    if kind == "image_columns":
        # An image split needs its side alone, so it is built to be checked.
        _partition(part, _count(part, "image_side") ** 2)
    return part


def _partition(part: _Section, d: int,
               key: str = "partition") -> PartitionSpec:
    """The split that the checked partition section ``part`` gives ``d``
    columns. A split the data module refuses (a ratio that leaves a party
    no column, image columns that do not fill the side) is a configuration
    error naming ``key``, the setting that gave it."""
    kind = part["kind"]
    if kind == "counts":
        counts = part["counts"]
        if sum(counts) != d:
            raise ConfigError(f"partition counts sum to {sum(counts)}, "
                              f"dataset has {d}")
        return PartitionSpec([cols.tolist() for cols
                              in _split_widths(np.arange(d), counts)])
    try:
        if kind == "ratio":
            return ratio_split(d, part["ratio"])
        if "counts" in part:
            return image_column_partition(part["counts"], part["image_side"])
        return mnist_column_split(part["participants"], part["image_side"])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _split_settings(cfg: dict):
    """The test fraction and split seed, checked with ``dataset.n``; no
    data is needed for that."""
    dspec = _read(cfg, "dataset")
    fraction = _setting(dspec, "test_fraction", lambda v: 0 < v < 1,
                        "a number in (0, 1)", (int, float))
    seed = _setting(dspec, "split_seed", lambda v: v >= 0,
                    "a non-negative integer")
    if "n" in dspec:
        _count(dspec, "n")
    return fraction, seed


def _split(cfg: dict):
    """The dataset and the mask of its stratified test rows. The split
    settings are checked before any data is loaded."""
    fraction, seed = _split_settings(cfg)
    ds = _load_dataset(cfg)
    return ds, _test_mask(ds.labels, fraction, seed)


def _prepared(cfg: dict):
    """Dataset -> (train views, test views, train labels, test labels, spec,
    (mean, std) of the normalization or None).

    ``split_views`` fills each view in place from the data set's row
    blocks. Unnormalized digits and IDX images are streamed, so their full
    feature matrix never exists; any other data set is freed on return, as
    nothing returned refers to it.
    """
    part = _partition_settings(cfg)
    ds, test_mask = _split(cfg)
    spec = _partition(part, ds.d)
    return (*split_views(ds, spec, test_mask), spec, ds.norm_stats)


def _train_system(cfg: dict, train_views, labels, seed: int):
    protocol_name = _read(cfg, "protocol")
    tr = _read(cfg, "train")
    n_classes = int(np.max(labels)) + 1
    if protocol_name == "heterolr":
        return train_heterolr(train_views, labels, seed=seed, **tr)
    if protocol_name == "linear_softmax":
        return train_linear_joint(train_views, labels, n_classes, seed=seed,
                                  **tr)
    if protocol_name == "splitnn":
        model = _read(cfg, "model")
        dims, top = splitnn_architecture(
            train_views, model["local_hidden"], model["top_hidden"], n_classes)
        return train_splitnn(train_views, labels, dims, top, seed=seed, **tr)
    raise ConfigError(f"unknown protocol {protocol_name!r}")


def _checkpoint_path(cfg: dict, args) -> str:
    path = getattr(args, "checkpoint", None) or _read(cfg, "checkpoint")
    if not path:
        raise ConfigError("a checkpoint path is required (flag or config)")
    return path


def _data_out_dir(cfg: dict, args=None) -> Path:
    """``_out_dir`` for a command that loads the data set. The partition
    and split settings, and with ``args`` an attack's checkpoint path, are
    checked first, and again, at no cost, where they are used."""
    _partition_settings(cfg)
    _split_settings(cfg)
    if args is not None:
        _checkpoint_path(cfg, args)
    return _out_dir(cfg)


def _attack_setup(cfg: dict, args):
    """What an attack on the checkpoint starts from: the train views, the
    adversary's test view, the benign test views, the trained system and
    the run's seeded rng."""
    train_views, test_views, _, _, _, _ = _prepared(cfg)
    path = _checkpoint_path(cfg, args)
    try:
        system = load_system(path)
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None
    return (train_views, test_views[0], test_views[1:], system,
            np.random.default_rng(cfg["seed"]))


def _multiplier(section: _Section) -> float:
    """``section``'s bound multiplier, which must be finite and > 0."""
    return _setting(section, "bound_multiplier",
                    lambda v: _is_finite_real(v) and v > 0,
                    "a finite number > 0", (int, float))


def _synthesis_settings(synth: _Section, args):
    """A synthesis section's ``SynthesisConfig`` and bound multiplier,
    checked before any data loads. A bounded strategy holds a stand-in
    bound until ``_bound`` sets its own."""
    mult = _multiplier(synth)
    sc = {k: v for k, v in synth.items()
          if k not in ("n_inputs", "bound_multiplier")}
    if getattr(args, "mode", None):
        sc["mode"] = args.mode
    if getattr(args, "mutation", None):
        sc["strategy"] = args.mutation
    sc["bound"] = 1.0 if sc.get("strategy") == "bounded" else None
    try:
        return SynthesisConfig(**sc), mult
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{synth.name}: {exc}") from None


def _bound(attack_cfg, mult: float, train_view_adv):
    """``attack_cfg`` with its stand-in bound, if it holds one, set to the
    feature variance of ``train_view_adv`` times ``mult``."""
    if attack_cfg.bound is None:
        return attack_cfg
    return replace(attack_cfg, bound=default_bound(train_view_adv, mult))


def _synthesis_config(cfg: dict, args, train_view_adv) -> SynthesisConfig:
    """The run's synthesis settings; a bounded strategy is bounded by the
    feature variance of ``train_view_adv`` times ``bound_multiplier``."""
    return _bound(*_synthesis_settings(_read(cfg, "synthesis"), args),
                  train_view_adv)


def _setting(section: _Section, key: str, ok, what: str, types=int):
    """``section[key]``, which must be a non-bool instance of ``types`` for
    which ``ok`` holds; otherwise a configuration error saying ``what`` it
    must be."""
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, types) \
            or not ok(value):
        raise ConfigError(f"{section.name}: {key} must be {what}, "
                          f"got {value!r}")
    return value


def _count(section: _Section, key: str) -> int:
    """``section[key]``, which must be a positive integer."""
    return _setting(section, key, lambda v: v >= 1, "a positive integer")


def _sample_rows(rng: np.random.Generator, view: np.ndarray,
                 n: int) -> np.ndarray:
    return view[rng.choice(view.shape[0], size=min(n, view.shape[0]),
                           replace=False)]


def _tiny_sample(cfg: dict, benign):
    """The adversary's sample of joint benign test rows."""
    dspec = _read(cfg, "dataset")
    rows = np.concatenate(benign, axis=1)
    return sample_tiny(rows, min(dspec["tiny_size"], rows.shape[0]),
                       seed=dspec["tiny_seed"])


def _write_report(out: Path, name: str, report, with_csv: bool = True):
    report.write_json(out / assessment.report_filename(name, report))
    if with_csv:
        report.write_csv(out / assessment.report_filename(name, report, "csv"))


def cmd_train(cfg: dict, args) -> int:
    out = _data_out_dir(cfg)
    train_views, test_views, ytr, yte, spec, _ = _prepared(cfg)
    system, history = _train_system(cfg, train_views, ytr, cfg["seed"])
    metrics = evaluate(system, test_views, yte)
    metrics["final_loss"] = history[-1] if history else None
    save_system(system, out / "checkpoint.json")
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True)
    line = " ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items())
                    if isinstance(v, float))
    print(f"train: {line}")
    return 0


def cmd_dominance(cfg: dict, args) -> int:
    dom = _read(cfg, "dominance")
    n_rows = _count(dom, "n_rows")
    thresholds = _setting(dom, "thresholds", lambda v: v and all(
        _is_finite_real(t) and 0 < t <= 1 for t in v),
        "a nonempty list of numbers in (0, 1]", list)
    out = _data_out_dir(cfg, args)
    _, adv_test, benign, system, _ = _attack_setup(cfg, args)
    report = assessment.ExperimentReport(
        "dominance", dict(dom), ["threshold", "dominating_rate"],
        seed=cfg["seed"])
    for thr in thresholds:
        rate = assessment.dominating_rate(system, adv_test[:n_rows], benign,
                                          thr)
        report.rows.append({"threshold": thr, "dominating_rate": rate})
    _write_report(out, "dominance", report)
    print("dominance: " + " ".join(
        f"rate@{int(r['threshold']*100)}={r['dominating_rate']:.4f}"
        for r in report.rows))
    return 0


def cmd_synthesize(cfg: dict, args) -> int:
    synth = _read(cfg, "synthesis")
    n_inputs = _count(synth, "n_inputs")
    scfg, mult = _synthesis_settings(synth, args)
    out = _data_out_dir(cfg, args)
    train_views, adv_test, benign, system, rng = _attack_setup(cfg, args)
    scfg = _bound(scfg, mult, train_views[0])
    rows = _sample_rows(rng, adv_test, n_inputs)
    tiny = _tiny_sample(cfg, benign)
    rate, candidates = assessment.success_rate(system, rows, scfg, tiny,
                                               benign, scfg.threshold)
    write_candidates(candidates, out / "candidates.jsonl")
    report = assessment.ExperimentReport(
        "synthesis", {"strategy": scfg.strategy, "mode": scfg.mode,
                      "n_inputs": int(rows.shape[0]),
                      "threshold": scfg.threshold},
        ["success_rate"], seed=cfg["seed"])
    report.rows.append({"success_rate": rate})
    _write_report(out, "synthesis", report, with_csv=False)
    print(f"synthesize: success_rate={rate:.4f} ({scfg.strategy}/{scfg.mode})")
    return 0


def _corpus_size(spec) -> int | None:
    """N of a ``fuzz.corpus`` of ``sample:N``; None for an array of rows."""
    if isinstance(spec, list):
        return None
    size = spec[len("sample:"):] if isinstance(spec, str) \
        and spec.startswith("sample:") else ""
    if not (size.isdecimal() and int(size) >= 1):
        raise ConfigError("fuzz: corpus must be 'sample:N' with N >= 1 or an "
                          f"array of rows, got {spec!r}")
    return int(size)


def cmd_fuzz(cfg: dict, args) -> int:
    section = _read(cfg, "fuzz")
    mult = _multiplier(section)
    # What is left after the run's own keys are CampaignConfig fields.
    fz = dict(section)
    corpus_spec = fz.pop("corpus")
    del fz["bound_multiplier"]
    budget_mins = fz.pop("budget_mins", None)
    if getattr(args, "budget_mins", None) is not None:
        budget_mins = args.budget_mins
    if budget_mins is not None and not (_is_finite_real(budget_mins)
                                        and budget_mins > 0):
        raise ConfigError("fuzz: budget_mins must be finite and > 0, "
                          f"got {budget_mins!r}")
    n_corpus = _corpus_size(corpus_spec)
    try:
        camp = CampaignConfig(   # its bound is a stand-in until _bound
            **fz, bound=1.0,
            budget_secs=None if budget_mins is None else 60.0 * budget_mins,
            seed=cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fuzz: {exc}") from None
    out = _data_out_dir(cfg, args)
    train_views, adv_test, benign, system, rng = _attack_setup(cfg, args)
    camp = _bound(camp, mult, train_views[0])
    corpus = np.asarray(corpus_spec, dtype=np.float64) if n_corpus is None \
        else _sample_rows(rng, adv_test, n_corpus)
    tiny = _tiny_sample(cfg, benign)
    calib = calibrate_saliency(system, train_views)
    result = fuzz_campaign(corpus, system, tiny, camp, benign, calib)
    write_candidates(result.adis, out / "adis.jsonl")
    with open(out / "campaign_log.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    n99 = sum(1 for c in result.adis if c.accuracy >= 0.99)
    # Raw hits count every emitted candidate. The paper's success rates
    # count adversary rows, so also count the distinct corpus rows (each
    # candidate's base) holding an ADI at each threshold.
    rows95, rows99 = (len({c.base.tobytes() for c in result.adis
                           if c.accuracy >= thr}) for thr in (0.95, 0.99))
    print(f"fuzz: adis_found={len(result.adis)} adis_at_99={n99} "
          f"distinct_rows_at_95={rows95} distinct_rows_at_99={rows99} "
          f"iterations={result.n_iterations} mutations={result.n_mutations}")
    return 0


def cmd_variance(cfg: dict, args) -> int:
    var_cfg = _read(cfg, "variance")
    n_mc = _setting(var_cfg, "n_mc", lambda v: v >= 2, "an integer >= 2")
    k = _count(var_cfg, "k")
    em_seed = _setting(var_cfg, "em_seed", lambda v: v >= 0,
                       "a non-negative integer")
    seed = cfg["seed"]
    if "fixture" in var_cfg:
        fx = var_cfg["fixture"]
        sm = ScalarMixture(fx["weights"], fx["mus"], fx["sigmas"])
        out = _out_dir(cfg)
    else:
        out = _data_out_dir(cfg, args)
        _, adv_test, benign, system, _ = _attack_setup(cfg, args)
        if system.protocol != "heterolr" or system.output_dim != 1:
            raise ConfigError(
                "data-driven variance analysis needs a binary heterolr "
                "checkpoint; use variance.fixture otherwise")
        # The benign parties' scores sum to one linear functional of their
        # joined views.
        gmm, _ = fit_gmm_em(np.concatenate(benign, axis=1), k, seed=em_seed)
        theta_b = np.concatenate([p.model.layers[0].weights[0]
                                  for p in system.participants[1:]])
        theta_a = system.participants[0].model.layers[0].weights[0]
        offset = float(theta_a @ adv_test[0] + system.coordinator.bias[0])
        sm = project_mixture(gmm, theta_b, offset)
    analytic = heterolr_variance(sm)
    mc = variance_monte_carlo(lambda s: 1.0 / (1.0 + np.exp(-s)), sm, n_mc,
                              seed=seed)
    relu_an = splitnn_unit_variance(sm)
    relu_mc = variance_monte_carlo(lambda s: np.maximum(s, 0.0), sm, n_mc,
                                   seed=seed + 1)
    report = assessment.ExperimentReport(
        "variance", {"n_mc": n_mc},
        ["quantity", "analytic", "monte_carlo", "gap"], seed=seed)
    report.rows.append({"quantity": "sigmoid_output_variance",
                        "analytic": analytic, "monte_carlo": mc,
                        "gap": abs(analytic - mc)})
    report.rows.append({"quantity": "relu_output_variance",
                        "analytic": relu_an, "monte_carlo": relu_mc,
                        "gap": abs(relu_an - relu_mc)})
    _write_report(out, "variance", report)
    print(f"variance: sigmoid analytic={analytic:.6f} mc={mc:.6f} "
          f"gap={abs(analytic-mc):.6f}; relu analytic={relu_an:.6f} "
          f"mc={relu_mc:.6f} gap={abs(relu_an-relu_mc):.6f}")
    return 0


def cmd_svd(cfg: dict, args) -> int:
    svd_cfg = _read(cfg, "svd")
    h = _setting(svd_cfg, "h", lambda v: v >= 2, "an integer >= 2")
    ks = _setting(svd_cfg, "ks", lambda v: v and all(
        _is_integer(k) and k >= 1 for k in v),
        "a nonempty list of positive integers", list)
    offset = _setting(svd_cfg, "target_offset", lambda v: True, "an integer")
    scfg, mult = _synthesis_settings(_read(cfg, "synthesis"), args)
    out = _data_out_dir(cfg, args)
    train_views, adv_test, benign, system, rng = _attack_setup(cfg, args)
    scfg = _bound(scfg, mult, train_views[0])
    rows = _sample_rows(rng, np.concatenate(benign, axis=1), h)
    x_star = adv_test[int(rng.integers(adv_test.shape[0]))]
    ev = JointEvaluator(system, benign)
    majority, _ = ev.majority_label(x_star)
    target = (majority + offset) % system.n_classes
    matrix, mean = assessment.build_perturbation_matrix(system, rows, x_star,
                                                        scfg, target)
    # The baseline's columns are uniform on the unit sphere. Each spectrum
    # is taken on its own: the full SVD's values can differ in the last bits.
    spectrum = np.linalg.svd(matrix, compute_uv=False)
    noise = np.random.default_rng(cfg["seed"]).standard_normal(matrix.shape)
    noise /= np.linalg.norm(noise, axis=0, keepdims=True)
    baseline = np.linalg.svd(noise, compute_uv=False)
    u = np.linalg.svd(matrix, full_matrices=False)[0]
    report = assessment.ExperimentReport(
        "svd", {"h": h, "ks": ks, "target": int(target)},
        ["k", "reconstruction_rate"], seed=cfg["seed"])
    # Each rate is that of the mean mutation projected onto the top-k left
    # singular directions.
    for k in ks:
        k = min(k, matrix.shape[1])
        basis = u[:, :k]
        rate = ev.attack_accuracy(x_star + basis @ (basis.T @ mean), target)
        report.rows.append({"k": k, "reconstruction_rate": rate})
    _write_report(out, "svd", report)
    np.savetxt(out / "singular_values.csv",
               np.stack([spectrum, baseline[:len(spectrum)]], axis=1),
               delimiter=",", header="perturbations,random_baseline",
               comments="")
    idx = min(9, len(spectrum) - 1)
    print(f"svd: s10_over_s1={spectrum[idx]/spectrum[0]:.4f} "
          f"baseline={baseline[idx]/baseline[0]:.4f} "
          f"rate_k{report.rows[-1]['k']}={report.rows[-1]['reconstruction_rate']:.4f}")
    return 0


def cmd_sweep(cfg: dict, args) -> int:
    """Run ``train``, ``dominance`` and ``synthesize`` once per cell, on one
    split of the dataset. A cell is the config with the cell's partition,
    trained at the config seed; both rates use the ``sweep.synthesis``
    settings and threshold."""
    t0 = time.time()
    sweep = _read(cfg, "sweep")
    kind = sweep["kind"]
    part = _read(cfg, "partition")
    side = _count(part, "image_side")
    if kind == "ratio":
        listed, columns = "ratios", ["ratio", "accuracy", "dominating_rate_adv",
                                     "dominating_rate_benign",
                                     "synthesis_success"]
        ratios = _setting(sweep, listed, lambda v: all(
            _is_finite_real(r) and r > 0 for r in v), "a list of numbers > 0",
            list)
        cells = [(float(r), {"kind": "ratio", "ratio": r}) for r in ratios]
        if part["kind"] == "image_columns":
            cells = [(r, {"kind": "image_columns", "image_side": side,
                          "counts": [len(c) for c in _partition(
                              cell, side, "sweep.ratios").columns]})
                     for r, cell in cells]
    elif kind == "participants":
        listed, columns = "counts", ["participants", "accuracy",
                                     "dominating_rate", "success_random"]
        counts = _setting(sweep, listed, lambda v: all(map(_is_integer, v)),
                          "a list of integers", list)
        cells = [(m, {"kind": "image_columns", "image_side": side,
                      "participants": m}) for m in counts]
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    n_dom, n_synth = _count(sweep, "n_dominance"), _count(sweep, "n_synth")
    synth, mult = _synthesis_settings(_read(sweep, "synthesis", "sweep."),
                                      args)
    # Only SplitNN cells have the layers of the model section.
    model = _read(cfg, "model") if _read(cfg, "protocol") == "splitnn" else {}
    report = assessment.ExperimentReport(
        "partition-ratio-sweep" if kind == "ratio" else "participants-sweep",
        {listed: list(sweep[listed]), "n_dominance": n_dom, "n_synth": n_synth,
         "train": {**model, **_read(cfg, "train")}},
        columns, seed=cfg["seed"])
    # Each cell's partition is checked before the data set loads.
    try:
        parts = [_partition_settings({**cfg, "partition": partition})
                 for _, partition in cells]
    except ConfigError as exc:
        raise ConfigError(f"sweep.{listed}: {exc}") from None
    _split_settings(cfg)
    out = _out_dir(cfg)
    ds, test_mask = _split(cfg)
    if isinstance(ds, RowBlocks):           # every cell splits it anew
        ds = ds.dataset()
    # Every cell is split before the first one trains.
    specs = [_partition(part, ds.d, f"sweep.{listed}") for part in parts]
    for (value, partition), spec in zip(cells, specs):
        cell = {**cfg, "partition": partition}
        train_views, test_views, ytr, yte = split_views(ds, spec, test_mask)
        scfg = _bound(synth, mult, train_views[0])
        system, _ = _train_system(cell, train_views, ytr, cfg["seed"])
        adv, benign = test_views[0], test_views[1:]
        rates = [assessment.dominating_rate(system, adv[:n_dom], benign,
                                            scfg.threshold)]
        if kind == "ratio":
            rates.append(assessment.dominating_rate(
                system, benign[0][:n_dom], [adv], scfg.threshold, adv_index=1))
            report.config["synth"] = {"strategy": scfg.strategy,
                                      "mode": scfg.mode}
        rows = _sample_rows(np.random.default_rng(cfg["seed"]), adv, n_synth)
        success, _ = assessment.success_rate(
            system, rows, scfg, _tiny_sample(cfg, benign), benign,
            scfg.threshold)
        accuracy = evaluate(system, test_views, yte)["accuracy"]
        report.rows.append(dict(zip(columns,
                                    [value, accuracy, *rates, success])))
    report.wallclock_secs = time.time() - t0
    _write_report(out, f"sweep-{kind}", report)
    print(f"sweep-{kind}: success_by_{columns[0]} " + " ".join(
        f"{r[columns[0]]}:{r[columns[-1]]:.2f}" for r in report.rows))
    return 0


_COMMANDS = {
    "train": cmd_train,
    "dominance": cmd_dominance,
    "synthesize": cmd_synthesize,
    "fuzz": cmd_fuzz,
    "variance": cmd_variance,
    "svd": cmd_svd,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vflkit",
        description="Security assessment toolkit for vertical federated "
                    "learning systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the run-config JSON")
        p.add_argument("--checkpoint", help="trained system checkpoint")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--output-dir", help="override the output directory")
        if name == "synthesize":
            p.add_argument("--mode", choices=["whitebox", "blackbox"])
            p.add_argument("--mutation", choices=["random", "bounded"])
        if name == "fuzz":
            p.add_argument("--budget-mins", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if not (_is_integer(cfg["seed"]) and cfg["seed"] >= 0):
            raise ConfigError("seed must be a non-negative integer, "
                              f"got {cfg['seed']!r}")
        if args.output_dir:
            cfg["output_dir"] = args.output_dir
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError, KeyError) as exc:
        # A config value of a wrong type or range that no key check caught.
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
