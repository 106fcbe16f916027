import json

import numpy as np
import pytest

from vflkit.model import LayerSpec, LocalModel
from vflkit.protocol import (Coordinator, Participant, VFLSystem, auc_roc,
                             coordinator_backward, evaluate, joint_backward,
                             joint_forward, joint_inference,
                             party_input_grads, predicted_labels, save_system,
                             load_system, system_from_dict, system_to_dict,
                             train_heterolr, train_linear_joint,
                             train_splitnn)


def make_logistic(theta_a, theta_b, bias=0.0):
    theta_a = np.atleast_2d(theta_a)
    theta_b = np.atleast_2d(theta_b)
    m_a = LocalModel([LayerSpec("linear", theta_a.shape[1], 1, theta_a)])
    m_b = LocalModel([LayerSpec("linear", theta_b.shape[1], 1, theta_b)])
    cols_a = list(range(theta_a.shape[1]))
    cols_b = list(range(theta_a.shape[1], theta_a.shape[1] + theta_b.shape[1]))
    return VFLSystem([Participant("A", cols_a, m_a),
                      Participant("B1", cols_b, m_b)],
                     Coordinator("heterolr", bias=np.array([bias])), 2)


def separable_views(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return [x[:, :1], x[:, 1:]], y


class TestSystemValidation:
    def test_participant_column_mismatch(self):
        with pytest.raises(ValueError, match="column count"):
            Participant("A", [0, 1], LocalModel(
                [LayerSpec("linear", 1, 1, [[1.0]])]))

    def test_columns_must_form_partition(self):
        m = LocalModel([LayerSpec("linear", 1, 1, [[1.0]])])
        with pytest.raises(ValueError):
            VFLSystem([Participant("A", [0], m), Participant("B1", [0], m)],
                      Coordinator("heterolr", bias=np.zeros(1)), 2)

    def test_top_model_width_checked(self):
        m = LocalModel([LayerSpec("linear", 1, 2, np.ones((2, 1)))])
        top = LocalModel([LayerSpec("linear", 3, 2, np.ones((2, 3))),
                          LayerSpec("softmax", 2, 2)])
        with pytest.raises(ValueError, match="top model"):
            VFLSystem([Participant("A", [0], m), Participant("B1", [1], m)],
                      Coordinator("splitnn", top_model=top), 2)


class TestHeteroLrTraining:
    def test_linearly_separable(self):
        views, y = separable_views()
        system, _ = train_heterolr(views, y, epochs=25, lr=0.5, batch=32,
                                   seed=1)
        metrics = evaluate(system, views, y)
        assert metrics["accuracy"] >= 0.99

    def test_zero_lr_keeps_parameters(self):
        views, y = separable_views()
        system, _ = train_heterolr(views, y, epochs=3, lr=0.0, batch=32,
                                   seed=1)
        reference, _ = train_heterolr(views, y, epochs=0, lr=0.5, batch=32,
                                      seed=1)
        for p, q in zip(system.participants, reference.participants):
            assert p.model.layers[0].weights.tobytes() == \
                q.model.layers[0].weights.tobytes()

    def test_rejects_multiclass_labels(self):
        views, _ = separable_views()
        with pytest.raises(ValueError, match="binary"):
            train_heterolr(views, np.array([0, 1, 2] * 133 + [0]), epochs=1)

    def test_loss_history_trends_down(self, credit_setup):
        history = credit_setup["history"]
        # Non-increasing on average over the last five epochs.
        tail = history[-5:]
        assert np.mean(np.diff(tail)) <= 1e-6

    def test_seed_determinism(self):
        views, y = separable_views()
        a, _ = train_heterolr(views, y, epochs=5, lr=0.3, batch=32, seed=7)
        b, _ = train_heterolr(views, y, epochs=5, lr=0.3, batch=32, seed=7)
        for p, q in zip(a.participants, b.participants):
            assert p.model.layers[0].weights.tobytes() == \
                q.model.layers[0].weights.tobytes()
        assert a.coordinator.bias.tobytes() == b.coordinator.bias.tobytes()


class TestJointInference:
    def test_all_zero_parameters_give_half(self):
        system = make_logistic([[0.0]], [[0.0]])
        probs = joint_inference(system, [np.ones((3, 1)), np.ones((3, 1))])
        np.testing.assert_array_equal(probs, np.full((3, 1), 0.5))

    def test_equals_centralized_logistic_regression(self):
        # Exact-equality oracle: sigma(theta . x) on concatenated features.
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(5)
        bias = 0.37
        system = make_logistic(theta[None, :2], theta[None, 2:], bias)
        x = rng.standard_normal((20, 5))
        joint = joint_inference(system, [x[:, :2], x[:, 2:]])
        centralized = 1.0 / (1.0 + np.exp(-(x @ theta + bias)))
        np.testing.assert_allclose(joint[:, 0], centralized, atol=1e-12)

    def test_identity_locals_linear_top_collapse(self):
        # Split system with identity locals and a linear top equals one
        # centralized linear map.
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 6))
        m_a = LocalModel([LayerSpec("linear", 2, 2, np.eye(2))])
        m_b = LocalModel([LayerSpec("linear", 4, 4, np.eye(4))])
        top = LocalModel([LayerSpec("linear", 6, 3, w),
                          LayerSpec("softmax", 3, 3)])
        system = VFLSystem([Participant("A", [0, 1], m_a),
                            Participant("B1", [2, 3, 4, 5], m_b)],
                           Coordinator("splitnn", top_model=top), 3)
        x = rng.standard_normal((10, 6))
        joint = joint_inference(system, [x[:, :2], x[:, 2:]])
        logits = x @ w.T
        ref = np.exp(logits - logits.max(axis=1, keepdims=True))
        ref /= ref.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(joint, ref, atol=1e-12)

    def test_sample_permutation_equivariance(self, digits_setup):
        system = digits_setup["system"]
        views = [v[:40] for v in digits_setup["test_views"]]
        perm = np.random.default_rng(0).permutation(40)
        probs = joint_inference(system, views)
        probs_perm = joint_inference(system, [v[perm] for v in views])
        np.testing.assert_array_equal(probs[perm], probs_perm)


class TestSplitNnTraining:
    def test_xor_task(self):
        # Brute-force-verifiable toy: XOR needs the nonlinear top stage.
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(600, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        views = [x[:, :1], x[:, 1:]]
        system, _ = train_splitnn(views, y, [[1, 16, 8], [1, 16, 8]],
                                  [16, 16, 2], epochs=200, lr=0.05, batch=32,
                                  seed=3)
        assert evaluate(system, views, y)["accuracy"] >= 0.95

    def test_zero_epochs_is_chance_level(self, digits_setup):
        views = digits_setup["train_views"]
        labels = digits_setup["train_labels"]
        dims = [[v.shape[1], 32, 16] for v in views]
        system, _ = train_splitnn(views, labels, dims, [32, 10], epochs=0,
                                  lr=0.05, seed=0)
        acc = evaluate(system, views, labels)["accuracy"]
        sigma = np.sqrt(0.1 * 0.9 / labels.size)
        assert acc < 0.1 + 6 * sigma + 0.05

    def test_architecture_mismatch(self):
        views, y = separable_views()
        with pytest.raises(ValueError, match="top model input"):
            train_splitnn(views, y, [[1, 4], [1, 4]], [9, 2], epochs=1)

    def test_seed_determinism(self, digits_setup):
        views = [v[:500] for v in digits_setup["train_views"]]
        labels = digits_setup["train_labels"][:500]
        dims = [[v.shape[1], 16, 8] for v in views]
        a, ha = train_splitnn(views, labels, dims, [16, 10], epochs=2, seed=5)
        b, hb = train_splitnn(views, labels, dims, [16, 10], epochs=2, seed=5)
        assert ha == hb
        assert a.coordinator.top_model.layers[0].weights.tobytes() == \
            b.coordinator.top_model.layers[0].weights.tobytes()


class TestMulticlassLinear:
    def test_vehicle_style_accuracy(self):
        from vflkit import data, synth_data
        ds = data.normalize(synth_data.make_vehicle_like(seed=11))
        train, test = data.train_test_split(ds, 0.2, seed=1)
        spec = data.PartitionSpec([list(range(9)), list(range(9, 18))])
        tv = data.partition_vertical(train, spec)
        sv = data.partition_vertical(test, spec)
        system, _ = train_linear_joint(tv, train.labels, 4, epochs=60,
                                       lr=0.05, batch=32, seed=2)
        assert evaluate(system, sv, test.labels)["accuracy"] >= 0.78

    def test_binary_redirected(self):
        views, y = separable_views()
        with pytest.raises(ValueError, match="binary"):
            train_linear_joint(views, y, 2, epochs=1)


class TestEvaluate:
    def test_perfect_predictor(self):
        system = make_logistic([[10.0]], [[0.0]])
        x_a = np.array([[-1.0], [1.0], [1.0]])
        x_b = np.zeros((3, 1))
        labels = np.array([0, 1, 1])
        m = evaluate(system, [x_a, x_b], labels)
        assert m["accuracy"] == 1.0 and m["auc_roc"] == 1.0

    def test_constant_predictor_auc_half(self):
        scores = np.full(100, 0.5)
        labels = np.array([0, 1] * 50)
        assert auc_roc(scores, labels) == 0.5

    def test_empty_test_set_rejected(self, toy_logistic_system):
        with pytest.raises(ValueError, match="empty"):
            evaluate(toy_logistic_system, [np.zeros((0, 1)), np.zeros((0, 1))],
                     np.zeros(0))

    def test_predicted_labels_conventions(self):
        assert predicted_labels(np.array([[0.6], [0.4]])).tolist() == [1, 0]
        assert predicted_labels(np.array([[0.1, 0.7, 0.2]])).tolist() == [1]


class TestSystemCheckpoint:
    def test_round_trip_bit_exact(self, credit_setup, tmp_path):
        path = tmp_path / "ckpt.json"
        save_system(credit_setup["system"], path)
        loaded = load_system(path)
        for p, q in zip(credit_setup["system"].participants,
                        loaded.participants):
            assert p.id == q.id and p.columns == q.columns
            assert p.model.layers[0].weights.tobytes() == \
                q.model.layers[0].weights.tobytes()
        assert loaded.coordinator.bias.tobytes() == \
            credit_setup["system"].coordinator.bias.tobytes()

    def test_checkpoint_carries_protocol_fields(self, digits_setup):
        doc = system_to_dict(digits_setup["system"])
        assert doc["protocol"] == "splitnn"
        assert doc["classes"] == 10
        assert doc["partition"] == [list(p.columns) for p in
                                    digits_setup["system"].participants]
        rebuilt = system_from_dict(json.loads(json.dumps(doc)))
        assert rebuilt.protocol == "splitnn"

    def test_version_guard(self, credit_setup):
        doc = system_to_dict(credit_setup["system"])
        doc["version"] = 123
        with pytest.raises(ValueError, match="version"):
            system_from_dict(doc)


class TestBackwardWithoutParams:
    """Input gradients do not depend on whether parameter gradients are
    asked for, and one party's gradient equals joint_backward's entry."""

    @pytest.mark.parametrize("setup", ["credit_setup", "digits_setup"])
    def test_same_input_grads(self, setup, request):
        s = request.getfixturevalue(setup)
        system = s["system"]
        jt = joint_forward(system, [v[:4] for v in s["test_views"]])
        g = np.random.default_rng(3).standard_normal(jt.probs.shape)
        for from_logits in (False, True):
            full, pgs, coord = joint_backward(system, jt, g, with_params=True,
                                              from_logits=from_logits)
            bare, none_pgs, none_coord = joint_backward(
                system, jt, g, from_logits=from_logits)
            assert [a.tobytes() for a in bare] == [a.tobytes() for a in full]
            assert none_pgs == [None, None] and none_coord is None
            assert all(pg is not None for pg in pgs) and coord is not None
            assert coordinator_backward(system, jt, g, from_logits)[1] is None
            for i in range(2):
                one = party_input_grads(system, jt, g, [i], from_logits)[0]
                assert one.tobytes() == full[i].tobytes()
