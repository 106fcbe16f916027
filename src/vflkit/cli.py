"""Command-line entry point: wires JSON run configs to training, dominance
baselines, synthesis, fuzzing, variance analysis, the SVD study, and sweeps.

Precedence: command-line flag > config key > built-in default. The
VFLKIT_SEED environment variable overrides the config seed. Exit codes:
0 success, 1 configuration error, 2 data error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import assessment, synth_data
from .data import (Dataset, PartitionSpec, image_column_partition, load_csv,
                   load_idx, mnist_column_split, normalize, partition_vertical,
                   ratio_split, sample_tiny, train_test_split)
from .fuzzer import CampaignConfig, calibrate_saliency, fuzz_campaign
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


_SYNTH_KEYS = {"strategy", "mode", "alpha", "beta", "gamma", "momentum",
               "max_rounds", "threshold", "inner_steps", "inner_lr",
               "fdm_step", "bound_multiplier", "n_inputs"}

_SCHEMA = {
    "seed": None,
    "output_dir": None,
    "checkpoint": None,
    "dataset": {"kind", "path", "label_column", "images", "labels", "name",
                "n", "n_test", "normalize", "test_fraction", "split_seed",
                "tiny_size", "tiny_seed"},
    "partition": {"kind", "counts", "ratio", "participants", "image_side"},
    "protocol": None,
    "model": {"local_hidden", "top_hidden"},
    "train": {"epochs", "lr", "batch", "momentum"},
    "synthesis": _SYNTH_KEYS,
    "fuzz": {"max_iter", "energy", "mask_weight", "stable_fraction",
             "budget_mins", "corpus", "noise_std_factor", "bound_multiplier"},
    "dominance": {"n_rows", "thresholds"},
    "svd": {"h", "ks", "target_offset", "synthesis"},
    "sweep": {"kind", "ratios", "counts", "n_dominance", "n_synth",
              "synthesis"},
    "variance": {"k", "n_mc", "fixture", "em_seed"},
}


def validate_config(doc: dict):
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in doc.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key!r} must be an object")
        for sub in value:
            if sub not in allowed:
                raise ConfigError(f"unknown config key {key}.{sub}")
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
    doc.setdefault("seed", 0)
    return doc


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(cfg: dict) -> Dataset:
    spec = cfg.get("dataset")
    if not spec:
        raise ConfigError("config needs a dataset section")
    kind = spec.get("kind")
    try:
        if kind == "csv":
            ds = load_csv(spec["path"], spec.get("label_column", "label"))
        elif kind == "idx":
            ds = load_idx(spec["images"], spec["labels"])
        elif kind == "synthetic":
            name = spec.get("name")
            n = spec.get("n")
            if name == "credit":
                ds = synth_data.make_credit_like(n or synth_data.CREDIT_N)
            elif name == "vehicle":
                ds = synth_data.make_vehicle_like(n or synth_data.VEHICLE_N)
            elif name == "digits":
                ds = synth_data.make_digits_like(n or 20000, seed=13)
            elif name == "multimodal":
                ds = synth_data.make_multimodal_like(n or 20000)
            else:
                raise ConfigError(f"unknown synthetic dataset {name!r}")
        else:
            raise ConfigError(f"unknown dataset kind {kind!r}")
    except ConfigError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(str(exc)) from None
    if spec.get("normalize", kind != "idx" and spec.get("name") != "digits"):
        ds = normalize(ds)
    return ds


def _partition(cfg: dict, d: int) -> PartitionSpec:
    part = cfg.get("partition")
    if not part:
        raise ConfigError("config needs a partition section")
    kind = part.get("kind")
    if kind == "counts":
        counts = part["counts"]
        cols = []
        start = 0
        for c in counts:
            cols.append(list(range(start, start + int(c))))
            start += int(c)
        if start != d:
            raise ConfigError(f"partition counts sum to {start}, dataset has {d}")
        return PartitionSpec(cols)
    if kind == "ratio":
        return ratio_split(d, float(part["ratio"]))
    if kind == "image_columns":
        side = int(part.get("image_side", 28))
        if "counts" in part:
            return image_column_partition([int(c) for c in part["counts"]], side)
        return mnist_column_split(int(part.get("participants", 2)), side)
    raise ConfigError(f"unknown partition kind {kind!r}")


def _prepared(cfg: dict):
    """Dataset -> (train views, test views, train labels, test labels, spec)."""
    ds = _load_dataset(cfg)
    dspec = cfg.get("dataset", {})
    train, test = train_test_split(ds, dspec.get("test_fraction", 0.2),
                                   seed=dspec.get("split_seed", 1))
    spec = _partition(cfg, ds.d)
    return (partition_vertical(train, spec), partition_vertical(test, spec),
            train.labels, test.labels, spec, ds)


def _train_system(cfg: dict, train_views, labels, seed: int):
    protocol_name = cfg.get("protocol", "heterolr")
    tr = cfg.get("train", {})
    epochs = tr.get("epochs", 30 if protocol_name != "splitnn" else 10)
    lr = tr.get("lr", 0.05)
    batch = tr.get("batch", 64)
    momentum = tr.get("momentum", 0.9)
    n_classes = int(np.max(labels)) + 1
    if protocol_name == "heterolr":
        return train_heterolr(train_views, labels, epochs, lr, batch, seed,
                              momentum)
    if protocol_name == "linear_softmax":
        return train_linear_joint(train_views, labels, n_classes, epochs, lr,
                                  batch, seed, momentum)
    if protocol_name == "splitnn":
        model = cfg.get("model", {})
        dims, top = splitnn_architecture(
            train_views, model.get("local_hidden", [128, 64]),
            model.get("top_hidden", [64]), n_classes)
        return train_splitnn(train_views, labels, dims, top, epochs, lr,
                             batch, seed, momentum)
    raise ConfigError(f"unknown protocol {protocol_name!r}")


def _require_checkpoint(cfg: dict, args):
    path = getattr(args, "checkpoint", None) or cfg.get("checkpoint")
    if not path:
        raise ConfigError("a checkpoint path is required (flag or config)")
    try:
        return load_system(path)
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from None


def _synthesis_config(cfg: dict, args, train_view_adv) -> SynthesisConfig:
    """The run's synthesis settings; a bounded strategy is bounded by the
    feature variance of ``train_view_adv`` times ``bound_multiplier``."""
    sc = dict(cfg.get("synthesis", {}))
    unknown = sorted(set(sc) - _SYNTH_KEYS)
    if unknown:
        raise ConfigError(f"unknown synthesis key {unknown[0]!r}")
    sc.pop("n_inputs", None)
    mult = sc.pop("bound_multiplier", 1.0)
    if getattr(args, "mode", None):
        sc["mode"] = args.mode
    if getattr(args, "mutation", None):
        sc["strategy"] = args.mutation
    try:
        if sc.get("strategy") == "bounded":
            sc["bound"] = default_bound(train_view_adv, mult)
        return SynthesisConfig(**sc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synthesis: {exc}") from None


def _sample_rows(rng: np.random.Generator, view: np.ndarray,
                 n: int) -> np.ndarray:
    return view[rng.choice(view.shape[0], size=min(n, view.shape[0]),
                           replace=False)]


def _tiny_sample(cfg: dict, benign):
    """The adversary's sample of joint benign test rows."""
    dspec = cfg.get("dataset", {})
    rows = np.concatenate(benign, axis=1)
    return sample_tiny(rows, min(dspec.get("tiny_size", 20), rows.shape[0]),
                       seed=dspec.get("tiny_seed", 5))


def _write_report(out: Path, name: str, report, with_csv: bool = True):
    stem = assessment.report_filename(name, report.seed, "")[:-1]
    report.write_json(out / f"{stem}.json")
    if with_csv:
        report.write_csv(out / f"{stem}.csv")


def cmd_train(cfg: dict, args) -> int:
    out = _out_dir(cfg)
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
    out = _out_dir(cfg)
    _, test_views, _, _, _, _ = _prepared(cfg)
    system = _require_checkpoint(cfg, args)
    dom_cfg = cfg.get("dominance", {})
    n_rows = dom_cfg.get("n_rows", 300)
    thresholds = dom_cfg.get("thresholds", [0.95, 0.99])
    if not all(0 < t <= 1 for t in thresholds):
        raise ConfigError("dominance.thresholds must lie in (0, 1]")
    report = assessment.ExperimentReport(
        "dominance", {"n_rows": n_rows, "thresholds": thresholds},
        ["threshold", "dominating_rate"], seed=cfg["seed"])
    benign = test_views[1:]
    for thr in thresholds:
        rate = assessment.dominating_rate(system, test_views[0][:n_rows],
                                          benign, thr)
        report.rows.append({"threshold": thr, "dominating_rate": rate})
    _write_report(out, "dominance", report)
    print("dominance: " + " ".join(
        f"rate@{int(r['threshold']*100)}={r['dominating_rate']:.4f}"
        for r in report.rows))
    return 0


def cmd_synthesize(cfg: dict, args) -> int:
    n_inputs = cfg.get("synthesis", {}).get("n_inputs", 50)
    if isinstance(n_inputs, bool) or not isinstance(n_inputs, int) \
            or n_inputs < 1:
        raise ConfigError(
            f"synthesis: n_inputs must be a positive integer, got {n_inputs!r}")
    out = _out_dir(cfg)
    train_views, test_views, _, _, _, _ = _prepared(cfg)
    system = _require_checkpoint(cfg, args)
    scfg = _synthesis_config(cfg, args, train_views[0])
    rng = np.random.default_rng(cfg["seed"])
    rows = _sample_rows(rng, test_views[0], n_inputs)
    benign = test_views[1:]
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


def cmd_fuzz(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    train_views, test_views, _, _, _, _ = _prepared(cfg)
    system = _require_checkpoint(cfg, args)
    fz = cfg.get("fuzz", {})
    budget_mins = args.budget_mins if getattr(args, "budget_mins", None) \
        else fz.get("budget_mins")
    corpus_spec = fz.get("corpus", "sample:100")
    rng = np.random.default_rng(cfg["seed"])
    if isinstance(corpus_spec, str) and corpus_spec.startswith("sample:"):
        corpus = _sample_rows(rng, test_views[0],
                              int(corpus_spec.split(":", 1)[1]))
    elif isinstance(corpus_spec, list):
        corpus = np.asarray(corpus_spec, dtype=np.float64)
    else:
        raise ConfigError("fuzz.corpus must be 'sample:N' or an array")
    benign = test_views[1:]
    tiny = _tiny_sample(cfg, benign)
    try:
        bound = default_bound(train_views[0], fz.get("bound_multiplier", 1.0))
        camp = CampaignConfig(
            max_iter=fz.get("max_iter", 5000), energy=fz.get("energy", 20),
            mask_weight=fz.get("mask_weight", 0.2),
            stable_fraction=fz.get("stable_fraction", 1.0),
            bound=bound, noise_std_factor=fz.get("noise_std_factor", 0.1),
            budget_secs=None if budget_mins is None
            else 60.0 * float(budget_mins),
            seed=cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fuzz: {exc}") from None
    calib = calibrate_saliency(system, train_views)
    result = fuzz_campaign(corpus, system, [tiny.rows], camp, benign, calib)
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
    out = _out_dir(cfg)
    var_cfg = cfg.get("variance", {})
    n_mc = var_cfg.get("n_mc", 1_000_000)
    seed = cfg["seed"]
    if "fixture" in var_cfg:
        fx = var_cfg["fixture"]
        sm = ScalarMixture(fx["weights"], fx["mus"], fx["sigmas"])
    else:
        _, test_views, _, _, _, _ = _prepared(cfg)
        system = _require_checkpoint(cfg, args)
        if system.protocol != "heterolr" or system.output_dim != 1:
            raise ConfigError(
                "data-driven variance analysis needs a binary heterolr "
                "checkpoint; use variance.fixture otherwise")
        k = var_cfg.get("k", 1)
        gmm, _ = fit_gmm_em(test_views[1], k, seed=var_cfg.get("em_seed", 0))
        theta_b = system.participants[1].model.layers[0].weights[0]
        theta_a = system.participants[0].model.layers[0].weights[0]
        offset = float(theta_a @ test_views[0][0]
                       + system.coordinator.bias[0])
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
    out = _out_dir(cfg)
    train_views, test_views, _, _, _, _ = _prepared(cfg)
    system = _require_checkpoint(cfg, args)
    svd_cfg = cfg.get("svd", {})
    h = svd_cfg.get("h", 200)
    ks = svd_cfg.get("ks", [1, 5, 10])
    scfg = _synthesis_config(cfg, args, train_views[0])
    rng = np.random.default_rng(cfg["seed"])
    benign = test_views[1:]
    rows = _sample_rows(rng, np.concatenate(benign, axis=1), h)
    x_star = test_views[0][int(rng.integers(test_views[0].shape[0]))]
    ev = JointEvaluator(system, benign)
    majority, _ = ev.majority_label(x_star)
    target = (majority + svd_cfg.get("target_offset", 3)) % system.n_classes
    study = assessment.build_perturbation_matrix(system, rows, x_star, scfg,
                                                 l_target=target)
    spectrum = assessment.singular_spectrum(study.matrix)
    baseline = assessment.singular_spectrum(
        assessment.random_unit_columns(*study.matrix.shape, seed=cfg["seed"]))
    report = assessment.ExperimentReport(
        "svd", {"h": h, "ks": ks, "target": int(target)},
        ["k", "reconstruction_rate"], seed=cfg["seed"])
    for k in ks:
        k = min(int(k), study.matrix.shape[1])
        rate = assessment.reconstruct_and_rate(study, k, system, benign)
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
    out = _out_dir(cfg)
    ds = _load_dataset(cfg)
    sweep = cfg.get("sweep", {})
    kind = sweep.get("kind", "ratio")
    # The sweeps bound each split by its own adversary view; until then the
    # whole feature matrix stands in for it.
    synth = sweep.get("synthesis", {})
    scfg = _synthesis_config({"synthesis": synth}, args, ds.features)
    mult = synth.get("bound_multiplier", 1.0)
    # The train section overrides these defaults; momentum defaults to 0.9
    # in the sweep and is reported only where the config sets it.
    train_cfg = {
        "local_hidden": cfg.get("model", {}).get("local_hidden", [128, 64]),
        "top_hidden": cfg.get("model", {}).get("top_hidden", [64]),
        "epochs": 10, "lr": 0.05, "batch": 64, **cfg.get("train", {}),
    }
    if kind == "ratio":
        ratios = sweep.get("ratios", [0.40, 0.65, 1.00, 1.33, 1.80, 2.11])
        report = assessment.partition_ratio_sweep(
            ds.features, ds.labels, ratios,
            cfg.get("partition", {}).get("image_side", 28), train_cfg, scfg,
            n_dominance=sweep.get("n_dominance", 300),
            n_synth=sweep.get("n_synth", 40), seed=cfg["seed"],
            bound_multiplier=mult)
    elif kind == "participants":
        counts = sweep.get("counts", [2, 3, 5])
        report = assessment.participants_sweep(
            ds.features, ds.labels, counts, train_cfg, scfg,
            n_dominance=sweep.get("n_dominance", 300),
            n_synth=sweep.get("n_synth", 40), seed=cfg["seed"],
            bound_multiplier=mult)
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    _write_report(out, f"sweep-{kind}", report)
    key = "ratio" if kind == "ratio" else "participants"
    cells = " ".join(f"{r[key]}:{r.get('synthesis_success', r.get('success_random', 0)):.2f}"
                     for r in report.rows)
    print(f"sweep-{kind}: success_by_{key} {cells}")
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
