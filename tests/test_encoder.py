import numpy as np
import pytest

from sslcl import autodiff as ad
from sslcl.autodiff import Tape, Tensor
from sslcl.data import generate_synthetic, preset_spec, records_to_batch
from sslcl.encoder import (FULL_MASK, TEXT_ONLY, ModalityMask, augmentation_views,
                           classify, encode, init_encoder_params)


@pytest.fixture
def small_batch():
    dataset = generate_synthetic(preset_spec("iemocap-like", 6, seed=1))
    return dataset.header, records_to_batch(dataset.header, dataset.records)


def _constant_params(header, rng, hidden=4, feat=3):
    return {k: Tensor(v) for k, v in init_encoder_params(header, hidden, feat, rng).items()}


class TestAugmentationViews:
    def test_trimodal_gives_three_text_bearing_masks(self):
        views = augmentation_views("trimodal")
        assert views == [ModalityMask(False, False),
                         ModalityMask(True, False),
                         ModalityMask(False, True)]

    def test_bimodal_limits_to_text(self):
        assert augmentation_views("bimodal") == [ModalityMask(False, False)]

    def test_text_only_performs_no_augmentation(self):
        assert augmentation_views("text-only") == []

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            augmentation_views("audio-only")


class TestEncode:
    def test_output_shape(self, small_batch):
        header, batch = small_batch
        params = _constant_params(header, np.random.default_rng(2))
        feats = encode(batch, FULL_MASK, params)
        assert feats.shape == (batch.size, 3)

    def test_masking_equals_zeroed_modalities(self, small_batch):
        header, batch = small_batch
        params = _constant_params(header, np.random.default_rng(3))
        batch.audio[:] = 0.0
        batch.visual[:] = 0.0
        full = encode(batch, FULL_MASK, params)
        masked = encode(batch, TEXT_ONLY, params)
        np.testing.assert_array_equal(full.values, masked.values)

    def test_masking_a_live_modality_changes_features(self, small_batch):
        header, batch = small_batch
        params = _constant_params(header, np.random.default_rng(4))
        masked = encode(batch, ModalityMask(True, False), params)
        full = encode(batch, FULL_MASK, params)
        assert np.any(masked.values != full.values)

    def test_gradient_matches_finite_differences(self, small_batch):
        header, batch = small_batch
        rng = np.random.default_rng(6)
        arrays = init_encoder_params(header, 3, 2, rng)
        tape = Tape()
        leaves = {k: tape.leaf(k, v) for k, v in arrays.items()}
        loss = ad.sum_all(encode(batch, FULL_MASK, leaves))
        grads = tape.gradients(loss)
        h = 1e-6
        for name in ("enc.text_proj", "enc.audio_proj", "enc.fusion_w", "enc.fusion_b"):
            flat = arrays[name].ravel()
            for j in range(min(flat.size, 6)):
                orig = flat[j]
                flat[j] = orig + h
                up = ad.sum_all(encode(batch, FULL_MASK,
                                       {k: Tensor(v) for k, v in arrays.items()})).item()
                flat[j] = orig - h
                down = ad.sum_all(encode(batch, FULL_MASK,
                                         {k: Tensor(v) for k, v in arrays.items()})).item()
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grads[name].ravel()[j]), 1e-3)
                assert abs(grads[name].ravel()[j] - numeric) / denom < 1e-4


class TestClassify:
    def test_zero_head_gives_uniform_rows(self, small_batch):
        header, batch = small_batch
        params = _constant_params(header, np.random.default_rng(7))
        params["head.weight"] = Tensor(np.zeros((header.num_labels, 3)))
        params["head.bias"] = Tensor(np.zeros(header.num_labels))
        probs = classify(encode(batch, FULL_MASK, params), params)
        np.testing.assert_allclose(probs.values, 1.0 / header.num_labels, atol=1e-15)

    def test_rows_sum_to_one(self, small_batch):
        header, batch = small_batch
        params = _constant_params(header, np.random.default_rng(8))
        probs = classify(encode(batch, FULL_MASK, params), params)
        np.testing.assert_allclose(probs.values.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_agrees_with_logits(self, small_batch):
        header, batch = small_batch
        params = _constant_params(header, np.random.default_rng(9))
        feats = encode(batch, FULL_MASK, params)
        logits = feats.values @ params["head.weight"].values.T + params["head.bias"].values
        probs = classify(feats, params)
        np.testing.assert_array_equal(np.argmax(probs.values, axis=1),
                                      np.argmax(logits, axis=1))
