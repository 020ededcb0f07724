import copy
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import TOTALITY
from lidkit import net
from lidkit.errors import CorruptModel, DimMismatch, NonFiniteLoss, TooFewFrames


def tiny_net(num_classes=3, seed=1):
    return net.init_network(
        num_classes, seed=seed, feat_dim=4, frame_dim=8, stats_dim=12, embed_dim=8
    )


def random_features(rng, t=24, dim=4):
    return rng.standard_normal((t, dim))


class TestInit:
    def test_same_seed_identical(self):
        a = net.init_network(5, seed=42, feat_dim=4, frame_dim=8, stats_dim=12, embed_dim=8)
        b = net.init_network(5, seed=42, feat_dim=4, frame_dim=8, stats_dim=12, embed_dim=8)
        for name in a.weights:
            assert np.array_equal(a.weights[name], b.weights[name])
            assert np.array_equal(a.biases[name], b.biases[name])

    def test_softmax_shape_matches_classes(self):
        params = net.init_network(10, seed=0)
        assert params.weights["softmax"].shape == (10, 512)

    def test_default_parameter_budget(self):
        params = net.init_network(10, seed=0)
        assert net.param_count(params) == 4_245_468
        # hand-summed from the layer table: (in*out + out) per kept layer
        expected = (
            (200 * 512 + 512)
            + (1536 * 512 + 512)
            + (1536 * 512 + 512)
            + (512 * 512 + 512)
            + (512 * 1500 + 1500)
            + (3000 * 512 + 512)
        )
        assert net.param_count(params) == expected

    def test_biases_zero_weights_scaled(self):
        params = tiny_net()
        assert np.all(params.biases["frame1"] == 0.0)
        spread = params.weights["frame1"].std()
        assert 0.5 / np.sqrt(20) < spread < 2.0 / np.sqrt(20)


class TestContextArithmetic:
    def test_receptive_field_is_15(self):
        assert net.min_input_frames(tiny_net()) == 15
        assert net.min_input_frames(net.init_network(10, seed=0)) == 15

    def test_minimum_input_yields_single_pooled_frame(self):
        params = tiny_net()
        cache = net.forward(params, np.zeros((15, 4)))
        assert cache.pooled_input.shape[0] == 1

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames):
            net.forward(tiny_net(), np.zeros((14, 4)))

    def test_feature_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            net.forward(tiny_net(), np.zeros((20, 5)))


class TestForward:
    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = tiny_net()
        for _ in range(5):
            cache = net.forward(params, random_features(rng, t=int(rng.integers(15, 60))))
            post = np.exp(cache.log_posteriors)
            assert abs(post.sum() - 1.0) <= 1e-9
            assert np.all(post >= 0.0)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(4)
        params = tiny_net(seed=7)
        for _ in range(5):
            feats = random_features(rng, t=int(rng.integers(15, 40)))
            post = np.exp(net.forward(params, feats).log_posteriors)
            np.testing.assert_allclose(post, oracles.naive_forward(params, feats), atol=1e-10)

    def test_constant_input_pools_to_zero_std(self):
        params = tiny_net()
        feats = np.tile(np.array([0.3, -1.7, 2.2, 0.9]), (20, 1))
        cache = net.forward(params, feats)
        np.testing.assert_allclose(np.sqrt(cache.var), 0.0, atol=1e-12)
        np.testing.assert_allclose(cache.mean, cache.pooled_input[0], atol=1e-12)


class TestPooling:
    def test_matches_two_pass_direct_computation(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = rng.standard_normal((int(rng.integers(1, 50)), int(rng.integers(1, 20))))
            mean, std, _ = net.pool_stats(h)
            ref_mean, ref_std = oracles.two_pass_pool(h)
            np.testing.assert_allclose(mean, ref_mean, atol=1e-10)
            np.testing.assert_allclose(std, ref_std, atol=1e-10)

    def test_constant_input_exact_zero_std(self):
        # constants whose time-sum is exact in float64 give std exactly 0
        h = np.tile(np.array([0.5, -2.0, 42.0, 0.0]), (33, 1))
        mean, std, var = net.pool_stats(h)
        assert np.array_equal(std, np.zeros(4))
        assert np.array_equal(var, np.zeros(4))
        assert np.array_equal(mean, h[0])

    def test_duplicating_the_frame_sequence_preserves_stats(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((13, 6))
        mean_a, std_a, _ = net.pool_stats(h)
        mean_b, std_b, _ = net.pool_stats(np.vstack([h, h]))
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-12)
        np.testing.assert_allclose(std_a, std_b, atol=1e-12)


class TestXVector:
    def test_zero_segment6_gives_zero_xvector(self):
        params = tiny_net()
        params.weights["segment6"][:] = 0.0
        params.biases["segment6"][:] = 0.0
        xvec = net.extract_xvector(params, np.random.default_rng(1).standard_normal((20, 4)))
        assert np.array_equal(xvec.values, np.zeros(8))

    def test_deterministic_per_utterance(self):
        rng = np.random.default_rng(2)
        params = tiny_net()
        feats = random_features(rng)
        a = net.extract_xvector(params, feats)
        b = net.extract_xvector(params, feats)
        assert np.array_equal(a.values, b.values)

    def test_is_segment6_affine_of_pooled_stats(self):
        rng = np.random.default_rng(3)
        params = tiny_net()
        feats = random_features(rng)
        cache = net.forward(params, feats)
        pooled = np.concatenate([cache.mean, np.sqrt(cache.var)])
        expected = params.weights["segment6"] @ pooled + params.biases["segment6"]
        assert np.array_equal(cache.xvector, expected)


def draw_checkable_instance(rng, num_classes=3):
    """Tiny net + batch with every rectifier input well clear of its kink,
    so central differences are a valid oracle at h = 1e-4."""
    for _ in range(50):
        params = tiny_net(num_classes, seed=int(rng.integers(1 << 30)))
        batch = [
            (random_features(rng, t=int(rng.integers(18, 35))), int(rng.integers(num_classes)))
            for _ in range(2)
        ]
        if oracles.min_kink_distance(params, batch) > 1e-3:
            return params, batch
    raise AssertionError("could not draw a kink-free instance")


class TestGradients:
    def test_all_layer_types_match_finite_differences(self):
        rng = np.random.default_rng(21)
        params, batch = draw_checkable_instance(rng)
        _, grads = net.compute_gradients(params, batch)
        worst = 0.0
        for spec in params.specs:
            gw, gb = grads[spec.name]
            rows, cols = params.weights[spec.name].shape
            picks = {(int(rng.integers(rows)), int(rng.integers(cols))) for _ in range(8)}
            for i, j in picks:
                fd = oracles.fd_weight_gradient(params, batch, spec.name, i, j)
                worst = max(worst, oracles.relative_error(fd, gw[i, j]))
            for j in range(min(rows, 6)):
                fd = oracles.fd_bias_gradient(params, batch, spec.name, j)
                worst = max(worst, oracles.relative_error(fd, gb[j]))
        assert worst < 1e-4

    def test_learn_rate_and_hyper_are_required(self):
        # the recipe's rate lives in the harness config table alone
        rng = np.random.default_rng(5)
        with pytest.raises(TypeError):
            net.train_step(tiny_net(), [(random_features(rng), 1)])

    def test_zero_learn_rate_keeps_params(self):
        rng = np.random.default_rng(5)
        params = tiny_net()
        before = copy.deepcopy(params)
        batch = [(random_features(rng), 1)]
        updated, loss = net.train_step(params, batch, 0.0)
        assert np.isfinite(loss) and loss > 0.0
        for name in params.weights:
            assert np.array_equal(updated.weights[name], before.weights[name])
            assert np.array_equal(updated.biases[name], before.biases[name])

    def test_step_is_made_in_place(self):
        rng = np.random.default_rng(5)
        params = tiny_net()
        before = copy.deepcopy(params)
        batch = [(random_features(rng), 1)]
        _, grads = net.compute_gradients(params, batch)
        updated, _ = net.train_step(params, batch, 0.1)
        assert updated is params
        for name, (gw, gb) in grads.items():
            assert np.array_equal(params.weights[name], before.weights[name] - 0.1 * gw)
            assert np.array_equal(params.biases[name], before.biases[name] - 0.1 * gb)

    def test_reused_gradient_buffers_give_the_same_steps(self):
        rng = np.random.default_rng(10)
        batches = [[(random_features(rng), int(rng.integers(3))) for _ in range(3)]
                   for _ in range(4)]
        learn_rate = 0.05
        fresh, reused = tiny_net(), tiny_net()
        grads = net.zero_gradients(reused)
        for batch in batches:
            fresh, loss_a = net.train_step(fresh, batch, learn_rate)
            reused, loss_b = net.train_step(reused, batch, learn_rate, grads)
            assert loss_a == loss_b
        assert net.save_params(fresh) == net.save_params(reused)

    def test_stale_gradient_buffers_are_zeroed(self):
        rng = np.random.default_rng(11)
        params = tiny_net()
        batch = [(random_features(rng), int(rng.integers(3))) for _ in range(3)]
        stale = net.zero_gradients(params)
        for gw, gb in stale.values():
            gw.fill(7.0)
            gb.fill(-7.0)
        loss_a, grads_a = net.compute_gradients(params, batch)
        loss_b, grads_b = net.compute_gradients(params, batch, stale)
        assert loss_a == loss_b and grads_b is stale
        for name, (gw, gb) in grads_a.items():
            assert np.array_equal(grads_b[name][0], gw)
            assert np.array_equal(grads_b[name][1], gb)

    def test_training_reduces_loss_on_separable_data(self):
        rng = np.random.default_rng(6)
        params = net.init_network(2, seed=3, feat_dim=4, frame_dim=8, stats_dim=12, embed_dim=8)
        batch = []
        for label in (0, 1):
            for _ in range(6):
                feats = rng.standard_normal((20, 4)) * 0.1
                feats[:, label] += 3.0
                batch.append((feats, label))
        initial = oracles.batch_loss(params, batch)
        for _ in range(50):
            params, loss = net.train_step(params, batch, 0.1)
        assert loss < initial

    def test_nonfinite_loss_raises(self):
        rng = np.random.default_rng(7)
        params = tiny_net()
        params.weights["softmax"][:] = 1e200
        params.weights["segment7"][:] = 1e200
        with warnings.catch_warnings(record=True) as caught, pytest.raises(NonFiniteLoss):
            warnings.simplefilter("always")
            net.compute_gradients(params, [(random_features(rng), 0)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_bad_label_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            net.compute_gradients(tiny_net(), [(random_features(rng), 3)])

    def test_gradient_accumulation_is_order_stable(self):
        rng = np.random.default_rng(9)
        params = tiny_net()
        batch = [(random_features(rng), int(rng.integers(3))) for _ in range(4)]
        loss_a, grads_a = net.compute_gradients(params, batch)
        loss_b, grads_b = net.compute_gradients(params, batch)
        assert loss_a == loss_b
        for name in grads_a:
            assert np.array_equal(grads_a[name][0], grads_b[name][0])


class TestSerialization:
    def test_round_trip_bit_identical(self):
        params = tiny_net(seed=13)
        blob = net.save_params(params)
        back = net.load_params(blob)
        assert back.specs == params.specs
        for name in params.weights:
            assert np.array_equal(back.weights[name], params.weights[name])
            assert np.array_equal(back.biases[name], params.biases[name])
        assert net.save_params(back) == blob

    def test_truncated_stream_is_corrupt(self):
        blob = net.save_params(tiny_net())
        for cut in (4, len(blob) // 2, len(blob) - 3):
            with pytest.raises(CorruptModel):
                net.load_params(blob[:cut])

    def test_trailing_garbage_is_corrupt(self):
        blob = net.save_params(tiny_net())
        with pytest.raises(CorruptModel):
            net.load_params(blob + b"x")

    def test_bad_magic_is_corrupt(self):
        blob = net.save_params(tiny_net())
        with pytest.raises(CorruptModel):
            net.load_params(b"NOTMODEL" + blob[8:])

    def test_layer_name_that_is_not_utf8_is_corrupt(self):
        blob = bytearray(net.save_params(tiny_net()))
        blob[blob.index(b"frame2")] = 0xFF
        with pytest.raises(CorruptModel, match="layer 2 .* not UTF-8"):
            net.load_params(bytes(blob))

    def test_two_layers_of_one_name_are_corrupt(self):
        # frame5 renamed frame4: the wiring holds, but the weights are keyed by name
        blob = net.save_params(tiny_net()).replace(b"frame5", b"frame4", 1)
        with pytest.raises(CorruptModel, match="^frame4: layer name given twice$"):
            net.load_params(blob)

    def test_non_finite_weight_or_bias_is_corrupt(self):
        for bad in (np.nan, np.inf):
            for table in ("weights", "biases"):
                params = tiny_net()
                getattr(params, table)["frame2"].flat[1] = bad
                with pytest.raises(CorruptModel, match="frame2"):
                    net.load_params(net.save_params(params))

    @TOTALITY
    @given(st.binary(max_size=200))
    def test_any_bytes_give_a_model_or_corrupt(self, data):
        try:
            net.load_params(data)
        except CorruptModel:
            pass

    @TOTALITY
    @given(st.data())
    def test_one_byte_changed_gives_a_model_or_corrupt(self, data):
        params = tiny_net()
        blob = bytearray(net.save_params(params))
        payload = 8 * sum(params.weights[s.name].size + s.out_dim for s in params.specs)
        # half the draws change the layer table before the payload
        at = st.integers(0, len(blob) - payload - 1) | st.integers(0, len(blob) - 1)
        blob[data.draw(at)] = data.draw(st.integers(0, 255))
        try:
            net.load_params(bytes(blob))
        except CorruptModel:
            pass

    def test_zero_width_layer_is_refused(self):
        with pytest.raises(DimMismatch, match="frame1: zero-width"):
            net.init_network(3, seed=0, feat_dim=4, frame_dim=0, stats_dim=12, embed_dim=8)
        # a stored zero-width model, written without the check init_network makes
        specs = net.default_layer_specs(3, feat_dim=4, frame_dim=0, stats_dim=12, embed_dim=8)
        params = net.NetworkParams(specs, {s.name: np.zeros((s.out_dim, s.in_dim)) for s in specs},
                                   {s.name: np.zeros(s.out_dim) for s in specs})
        with pytest.raises(CorruptModel, match="frame1: zero-width"):
            net.load_params(net.save_params(params))

    def test_inconsistent_wiring_is_dim_mismatch(self):
        specs = net.default_layer_specs(3, feat_dim=4, frame_dim=8, stats_dim=12, embed_dim=8)
        specs[5] = net.LayerSpec("segment6", None, 23, 8)  # should be 24
        with pytest.raises(DimMismatch):
            net.validate_specs(specs)
