import json

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vflkit.model import (GradCheckReport, LayerSpec, LocalModel, SgdMomentum,
                          as_matrix, backward, forward, grad_check,
                          identity_model, init_model, model_from_dict,
                          model_to_dict, _sigmoid)
from vflkit.protocol import (Coordinator, Participant, VFLSystem, load_system,
                             save_system)


def linear_model(weights, bias=None):
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    return LocalModel([LayerSpec("linear", w.shape[1], w.shape[0], w, bias)])


class TestMatrixGuards:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.inf, 0.0]])

    def test_column_check(self):
        with pytest.raises(ValueError, match="columns"):
            as_matrix([[1.0, 2.0]], cols=3)


class TestLayerValidation:
    def test_linear_shape_enforced(self):
        with pytest.raises(ValueError, match="weights"):
            LayerSpec("linear", 3, 2, np.ones((3, 2)))

    def test_activation_dims_must_match(self):
        with pytest.raises(ValueError, match="preserve"):
            LayerSpec("relu", 3, 2)

    def test_activation_takes_no_params(self):
        with pytest.raises(ValueError, match="parameters"):
            LayerSpec("sigmoid", 2, 2, weights=np.eye(2))

    def test_chaining_checked(self):
        with pytest.raises(ValueError, match="chain"):
            LocalModel([LayerSpec("linear", 2, 3, np.ones((3, 2))),
                        LayerSpec("linear", 2, 1, np.ones((1, 2)))])


class TestForward:
    def test_identity_linear(self):
        model = identity_model(4)
        x = np.array([[0.4, -1.2, 3.0, 0.0]])
        out, _ = forward(model, x)
        np.testing.assert_array_equal(out, x)

    def test_sigmoid_of_zero_is_half(self):
        model = LocalModel([LayerSpec("sigmoid", 3, 3)])
        out, _ = forward(model, np.zeros((2, 3)))
        np.testing.assert_array_equal(out, np.full((2, 3), 0.5))

    def test_hand_linear(self):
        # [1, -1] . [2, 3] = -1
        out, _ = forward(linear_model([[1.0, -1.0]]), [[2.0, 3.0]])
        assert out[0, 0] == -1.0

    def test_pure_function_bit_identical(self):
        model = init_model([5, 7, 3], "relu", head="softmax", seed=3)
        x = np.random.default_rng(0).standard_normal((4, 5))
        a, _ = forward(model, x)
        b, _ = forward(model, x)
        assert a.tobytes() == b.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward(identity_model(3), np.zeros((1, 4)))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            forward(identity_model(2), [[np.nan, 0.0]])

    @given(st.integers(0, 2 ** 31 - 1))
    @example(11306)  # a top-two logit gap above ~37: saturates to 1.0 in float64
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model([4, 6, 5], "relu", head="softmax",
                           seed=seed % 1000)
        out, trace = forward(model, rng.standard_normal((3, 4)) * 10)
        np.testing.assert_allclose(
            out, scipy.special.softmax(trace.inputs[-1], axis=1),
            rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def masked_sigmoid(x):
    """The sigmoid as two boolean-masked halves: the earlier formula, kept
    as the oracle for the one-pass rewrite."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 709.0,
                  -709.0, 710.0, -710.0, 745.5, -745.5, 1e308, -1e308,
                  36.7, -36.7, 1.0, -1.0])


class TestSigmoid:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                   max_side=5),
                      elements=st.floats(allow_nan=False,
                                         allow_infinity=False)))
    @example(EDGES)
    @example(EDGES.reshape(3, 2, 3))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_masked_halves(self, x):
        got = _sigmoid(x)
        assert got.shape == x.shape
        assert got.tobytes() == masked_sigmoid(x).tobytes()


class TestBackward:
    def test_linear_input_grad_is_wt_g(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        model = linear_model(w)
        out, trace = forward(model, [[1.0, 1.0]])
        g = np.array([[2.0, -1.0]])
        _, input_grad = backward(model, trace, g)
        np.testing.assert_allclose(input_grad, g @ w)

    def test_relu_blocks_negative_preactivation(self):
        model = LocalModel([LayerSpec("relu", 2, 2)])
        out, trace = forward(model, [[-1.0, 2.0]])
        _, input_grad = backward(model, trace, [[1.0, 1.0]])
        np.testing.assert_array_equal(input_grad, [[0.0, 1.0]])

    def test_two_layer_matches_finite_differences(self):
        # Central-difference oracle on a random smooth two-layer net.
        model = init_model([4, 6, 2], "sigmoid", seed=9)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4))
        out, trace = forward(model, x)
        g = rng.standard_normal(out.shape)
        _, input_grad = backward(model, trace, g)
        eps = 1e-6
        for j in range(4):
            xp = x.copy(); xp[0, j] += eps
            xm = x.copy(); xm[0, j] -= eps
            fd = ((forward(model, xp)[0] * g).sum()
                  - (forward(model, xm)[0] * g).sum()) / (2 * eps)
            assert abs(fd - input_grad[0, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_shape_mismatch(self):
        model = identity_model(2)
        _, trace = forward(model, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            backward(model, trace, [[1.0, 2.0, 3.0]])

    def test_without_params_same_input_grad(self):
        model = init_model([5, 7, 3], "relu", head="softmax", seed=4)
        rng = np.random.default_rng(2)
        out, trace = forward(model, rng.standard_normal((3, 5)))
        g = rng.standard_normal(out.shape)
        for skip in (0, 1):
            with_pg, ig = backward(model, trace, g, n_skip_top=skip)
            no_pg, ig_no = backward(model, trace, g, n_skip_top=skip,
                                    with_params=False)
            assert ig_no.tobytes() == ig.tobytes()
            assert no_pg == [None] * len(model.layers)
            assert with_pg[0] is not None


class TestGradCheck:
    def test_linear_model_exact(self):
        report = grad_check(linear_model([[1.0, -1.0], [2.0, 0.5]]),
                            [[0.3, -0.7]], step=1e-4)
        assert report.passed
        assert report.max_rel_err_input < 1e-9

    def test_sigmoid_mlp_within_tolerance(self):
        model = init_model([3, 5, 1], "sigmoid", seed=4)
        report = grad_check(model, [[0.1, -0.2, 0.5]], step=1e-4, tol=1e-3)
        assert report.passed
        assert report.max_rel_err_input < 1e-3

    def test_relu_kink_flagged_indeterminate(self):
        # Pre-activation exactly zero: the +/- step crosses the kink.
        model = LocalModel([LayerSpec("linear", 1, 1, [[1.0]], [0.0]),
                            LayerSpec("relu", 1, 1)])
        report = grad_check(model, [[0.0]], step=1e-4)
        assert report.n_indeterminate >= 1
        assert report.passed  # kink coordinates excluded from failures

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            grad_check(identity_model(1), [[1.0]], step=0.0)


class TestSgd:
    def test_zero_gradient_keeps_parameters(self):
        model = linear_model([[1.0, 2.0]], [0.5])
        before = model.layers[0].weights.copy()
        opt = SgdMomentum(lr=0.1, momentum=0.9)
        opt.step(model, [(np.zeros((1, 2)), np.zeros(1))])
        np.testing.assert_array_equal(model.layers[0].weights, before)

    def test_plain_step_is_lr_times_grad(self):
        model = linear_model([[1.0, 2.0]])
        grad = np.array([[0.5, -1.0]])
        SgdMomentum(lr=0.1, momentum=0.0).step(model, [(grad, np.zeros(1))])
        np.testing.assert_allclose(model.layers[0].weights,
                                   [[1.0, 2.0]] - 0.1 * grad)

    def test_momentum_velocity_recursion(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g; second update is lr * 1.9 * g.
        model = linear_model([[1.0]])
        grad = np.array([[2.0]])
        opt = SgdMomentum(lr=0.1, momentum=0.9)
        opt.step(model, [(grad, np.zeros(1))])
        after_first = model.layers[0].weights.copy()
        opt.step(model, [(grad, np.zeros(1))])
        second_update = after_first - model.layers[0].weights
        np.testing.assert_allclose(second_update, 0.1 * 1.9 * grad)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SgdMomentum(lr=0.0)
        with pytest.raises(ValueError):
            SgdMomentum(lr=0.1, momentum=1.0)


def checkpoint_round_trip(model, path):
    """``model`` as the one party of a SplitNN system, written and read back
    through the CLI's checkpoint."""
    part = Participant("A", list(range(model.input_dim)), model)
    top = identity_model(model.output_dim)
    save_system(VFLSystem([part], Coordinator("splitnn", top_model=top), 2),
                path)
    return load_system(path).participants[0].model


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model([3, 4, 2], "relu", head="softmax", seed=11)
        loaded = checkpoint_round_trip(model, tmp_path / "system.json")
        for a, b in zip(model.layers, loaded.layers):
            assert a.kind == b.kind
            if a.kind == "linear":
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()

    def test_versioned_document(self):
        doc = model_to_dict(identity_model(2), protocol="heterolr")
        assert doc["version"] == 1
        assert doc["protocol"] == "heterolr"
        with pytest.raises(ValueError, match="version"):
            model_from_dict({**doc, "version": 99})

    def test_serialized_floats_survive_json(self, tmp_path):
        # Awkward values: many significant digits.
        w = np.array([[np.pi, 1.0 / 3.0], [1e-17, 123456789.123456789]])
        model = linear_model(w)
        loaded = checkpoint_round_trip(model, tmp_path / "system.json")
        assert loaded.layers[0].weights.tobytes() == w.tobytes()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_random_models_round_trip(self, seed):
        model = init_model([2, 3, 2], "relu", seed=seed)
        doc = json.loads(json.dumps(model_to_dict(model)))
        loaded = model_from_dict(doc)
        for a, b in zip(model.layers, loaded.layers):
            if a.kind == "linear":
                assert a.weights.tobytes() == b.weights.tobytes()


class TestSmoothGradProperty:
    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=10, deadline=None)
    def test_relu_free_models_pass_grad_check(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 5)), int(rng.integers(2, 6)),
                int(rng.integers(1, 4))]
        model = init_model(dims, "sigmoid", seed=seed % 997)
        x = rng.standard_normal((1, dims[0]))
        report = grad_check(model, x, step=1e-5, tol=1e-3)
        assert report.passed
