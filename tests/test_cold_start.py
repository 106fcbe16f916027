"""The cold-start kernels give the bytes of the forms they replaced.

``protocol._average_ranks`` stands in for ``scipy.stats.rankdata`` so that
importing the package does not load ``scipy.stats``; ``_segment_intensity``
renders digits on separate x and y planes instead of an (n, m, 2) stack; the
checkpoint writer encodes the whole document at once. Each is compared with
its old form through ``tobytes()`` or the written text, never with a stored
hash: the rendered bytes depend on the ``exp`` kernel numpy dispatches to.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

import vflkit
from vflkit import synth_data
from vflkit.protocol import (auc_roc, load_system, save_system,
                             system_to_dict, _average_ranks)


def _old_segment_intensity(points, p1, p2, width):
    """The (n, m, 2) formula the digit renderer used before."""
    seg = p2 - p1                                    # (n, 2)
    length2 = np.maximum((seg ** 2).sum(axis=1, keepdims=True), 1e-9)
    diff = points[None, :, :] - p1[:, None, :]       # (n, m, 2)
    t = (diff * seg[:, None, :]).sum(axis=2) / length2
    t = np.clip(t, 0.0, 1.0)
    proj = p1[:, None, :] + t[:, :, None] * seg[:, None, :]
    d2 = ((points[None, :, :] - proj) ** 2).sum(axis=2)
    return np.exp(-d2 / (width ** 2))


# Few distinct values, both zeros among them, so ties are common.
_tied = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300])
_any = st.floats(allow_nan=False, allow_infinity=False)


class TestAverageRanks:
    @given(hnp.arrays(np.float64, st.integers(1, 60),
                      elements=st.one_of(_tied, _any)))
    @example(np.array([7.0]))
    @example(np.full(9, 4.25))
    @example(np.array([0.0, -0.0, 0.0, -0.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_rankdata(self, x):
        assert _average_ranks(x).tobytes() == rankdata(x).tobytes()

    @given(hnp.arrays(np.int64, st.integers(1, 40),
                      elements=st.integers(-3, 3)))
    @settings(max_examples=100, deadline=None)
    def test_integer_scores(self, x):
        assert _average_ranks(x).tobytes() == rankdata(x).tobytes()


class TestAucRocInputs:
    def test_matches_rankdata_formula(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 5, 200).astype(float)
        labels = rng.integers(0, 2, 200)
        pos = labels == 1
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        want = ((rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2)
                / (n_pos * n_neg))
        assert auc_roc(scores, labels) == float(want)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            auc_roc(np.array([0.1, 0.2, 0.3]), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auc_roc(np.array([0.1, bad, 0.3, 0.4]), np.array([0, 1, 0, 1]))


def _pixel_points():
    ys, xs = np.mgrid[0:synth_data.DIGITS_SIDE, 0:synth_data.DIGITS_SIDE]
    return np.stack([xs.ravel() + 0.5, ys.ravel() + 0.5], axis=1)


class TestSegmentIntensity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_stacked_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        p1 = rng.uniform(-2.0, 30.0, size=(n, 2))
        p2 = rng.uniform(-2.0, 30.0, size=(n, 2))
        p2[:5] = p1[:5]                          # zero-length segments
        p2[5:8, 0] = p1[5:8, 0]                  # vertical
        p2[8:11, 1] = p1[8:11, 1]                # horizontal
        p1[11:13] = [[3.5, 7.5], [0.5, 0.5]]     # on a pixel centre
        p2[11:13] = p1[11:13]
        width = rng.uniform(0.8, 1.4, size=(n, 1))
        points = _pixel_points()
        got = synth_data._segment_intensity(points, p1, p2, width)
        want = _old_segment_intensity(points, p1, p2, width)
        assert got.shape == want.shape == (n, points.shape[0])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, seed", [(300, 13), (150, 3), (150, 99)])
    def test_make_digits_like_equals_oracle_renderer(self, monkeypatch,
                                                     n, seed):
        got = synth_data.make_digits_like(n, seed)
        monkeypatch.setattr(synth_data, "_segment_intensity",
                            _old_segment_intensity)
        want = synth_data.make_digits_like(n, seed)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.features.tobytes() == want.features.tobytes()


def test_import_does_not_load_scipy_stats():
    # A fresh interpreter: other tests import scipy.stats in this one.
    src = str(Path(vflkit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, vflkit, vflkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_does_not_load_scipy():
    # The package needs numpy alone; scipy is a test dependency only.
    src = str(Path(vflkit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, vflkit, vflkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestCheckpointText:
    def test_system_file_is_sorted_dumps(self, toy_logistic_system,
                                         digits_setup, tmp_path):
        for system in (toy_logistic_system, digits_setup["system"]):
            path = tmp_path / "system.json"
            save_system(system, path)
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(system_to_dict(system), sort_keys=True)
            assert system_to_dict(load_system(path)) == system_to_dict(system)
