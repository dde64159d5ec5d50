import json
import re

import numpy as np
import pytest

from sslcl.data import (FeatureDataset, SyntheticSpec, batch_iter, class_counts,
                        generate_synthetic, load_features, preset_spec,
                        records_to_batch, save_jsonl, split_dataset)
from sslcl.losses import sample_weights

# A record field that `_feature_file` leaves out.
_ABSENT = object()


class TestClassCounts:
    def test_even_split(self):
        assert class_counts([0.5, 0.5], 10) == [5, 5]

    def test_totals_always_match(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            props = rng.dirichlet(np.ones(k))
            n = int(rng.integers(k, 500))
            counts = class_counts(props, n)
            assert sum(counts) == n
            assert min(counts) >= 1

    def test_meld_like_majority_share(self):
        spec = preset_spec("meld-like", 1000, seed=1)
        counts = class_counts(spec.class_proportions, 1000)
        assert abs(counts[0] / 1000 - spec.class_proportions[0]) <= 0.02


class TestGenerateSynthetic:
    def test_deterministic_serialization(self, tmp_path):
        spec = preset_spec("iemocap-like", 120, seed=7)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(generate_synthetic(spec), p1)
        save_jsonl(generate_synthetic(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_class_present(self):
        dataset = generate_synthetic(preset_spec("meld-like", 60, seed=3))
        labels = {r.label for r in dataset.records}
        assert labels == set(range(7))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(preset_spec("meld-like", 5, seed=0))

    @pytest.mark.parametrize("proportions,match", [
        ((0.7, 0.7), "sum to 1"), ((1.2, -0.2), "strictly positive")], ids=["sum", "sign"])
    def test_bad_proportions_rejected(self, proportions, match):
        with pytest.raises(ValueError, match=match):
            SyntheticSpec(class_proportions=proportions, n_samples=10)

    def test_class_count_follows_the_proportions_and_names(self):
        spec = SyntheticSpec(class_proportions=(0.5, 0.3, 0.2), n_samples=30)
        header = generate_synthetic(spec).header
        assert spec.num_labels == header.num_labels == 3
        assert header.label_names == ("class0", "class1", "class2")
        assert preset_spec("iemocap-like", 30, seed=0).num_labels == 6

    @pytest.mark.parametrize("separation", [float("nan"), float("inf"), -1.0])
    def test_bad_class_separation_rejected(self, separation):
        with pytest.raises(ValueError, match="class_separation"):
            preset_spec("meld-like", 60, seed=0, class_separation=separation)

    def test_modalities_all_carry_signal(self):
        # Per-class means should sit near distinct centers in every modality.
        dataset = generate_synthetic(preset_spec(
            "iemocap-like", 1200, seed=5, class_separation=4.0))
        for attr in ("text", "audio", "visual"):
            by_class = {}
            for rec in dataset.records:
                by_class.setdefault(rec.label, []).append(getattr(rec, attr))
            means = np.array([np.mean(v, axis=0) for v in by_class.values()])
            gaps = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
            off = gaps[~np.eye(len(means), dtype=bool)]
            assert off.min() > 0.5


class TestJsonlRoundTrip:
    def test_roundtrip_is_lossless(self, tmp_path):
        dataset = generate_synthetic(preset_spec("meld-like", 40, seed=11))
        path = tmp_path / "data.jsonl"
        save_jsonl(dataset, path)
        loaded = load_features(path)
        assert loaded.header == dataset.header
        for a, b in zip(dataset.records, loaded.records):
            assert a.id == b.id and a.dialogue_id == b.dialogue_id
            assert a.speaker_id == b.speaker_id and a.label == b.label
            np.testing.assert_array_equal(a.text, b.text)
            np.testing.assert_array_equal(a.audio, b.audio)
            np.testing.assert_array_equal(a.visual, b.visual)

    def test_missing_modalities_survive_roundtrip(self, tmp_path):
        dataset = generate_synthetic(preset_spec("iemocap-like", 12, seed=2))
        dataset.records[3].audio = None
        dataset.records[5].visual = None
        path = tmp_path / "data.jsonl"
        save_jsonl(dataset, path)
        loaded = load_features(path)
        assert loaded.records[3].audio is None
        assert loaded.records[5].visual is None

    def test_failed_write_keeps_previous_file(self, tmp_path):
        dataset = generate_synthetic(preset_spec("iemocap-like", 12, seed=2))
        path = tmp_path / "data.jsonl"
        save_jsonl(dataset, path)
        before = path.read_bytes()
        # Records 0-4 are written before record 5 fails to serialize.
        dataset.records[5].label = object()
        with pytest.raises(TypeError):
            save_jsonl(dataset, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("record", [
        {"t": [1.0, 2.0, 3.0]}, {"t": [1, 2, 3]}, {"t": [1e308, 1e308, -1e308]},
        {"id": "true"}, {"id": 12}],
        ids=["floats", "ints", "overflowing-sum", "id-true-string", "id-int"])
    def test_conforming_row_parses(self, tmp_path, record):
        # The third vector's sum overflows, yet every entry is finite; a
        # "true" outside a vector only turns on the per-entry bool test.
        loaded = load_features(_feature_file(tmp_path / "ok.jsonl", **record))
        assert loaded.records[0].id == str(record.get("id", "u7"))
        assert loaded.records[0].label == 4
        assert loaded.records[0].audio is None
        np.testing.assert_array_equal(loaded.records[0].text, record.get("t", [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("key,value", [
        ("t", [1.0, 2.0, 3.0, 4.0]), ("t", 5), ("a", {"x": 1}), ("v", [0.5, None]),
        ("t", [1.0, float("nan"), 3.0]), ("v", [float("inf"), 0.5]), ("a", [1.0, [2.0]]),
        ("t", "abc"), ("t", [1.0, 2.0, 10 ** 400]), ("t", [True, 2.0, 3.0]), ("a", [False, 1.0])],
        ids=["dimension", "scalar", "object", "null", "nan", "inf", "nested", "string", "huge-int",
             "true", "false"])
    def test_malformed_vector_names_record_and_field(self, tmp_path, key, value):
        path = _feature_file(tmp_path / "bad.jsonl", **{key: value})
        where = re.escape(f"{path} line 2")
        with pytest.raises(ValueError, match=f"^{where}: field '{key}' must list "):
            load_features(path)

    @pytest.mark.parametrize("label", [9, -1, 1.7, True, "3", None, _ABSENT],
                             ids=["9", "-1", "1.7", "true", "string", "null", "absent"])
    def test_unknown_label_rejected(self, tmp_path, label):
        path = _feature_file(tmp_path / "bad2.jsonl", label=label)
        where = re.escape(f"{path} line 2")
        with pytest.raises(ValueError, match=f"^{where}: field 'label' must be an integer"):
            load_features(path)

    @pytest.mark.parametrize("header,match", [
        ({"K": 6.9}, "K as positive integers"), ({"d_t": "3"}, "K as positive integers"),
        ({"d_a": 0}, "K as positive integers"), ({"d_v": None}, "K as positive integers"),
        ({"label_names": list("abcde")}, "'label_names' must list K=6 names"),
        ({"label_names": "abcdef"}, "'label_names' must list K=6 names"),
        ('{"d_t": 3,, "d_a": 2}', "bad4.jsonl line 1 column 11: Expecting property name")],
        ids=["K-float", "d_t-string", "d_a-zero", "d_v-null", "names-short", "names-string",
             "json-syntax"])
    def test_malformed_header_rejected(self, tmp_path, header, match):
        with pytest.raises(ValueError, match=match):
            load_features(_feature_file(tmp_path / "bad4.jsonl", header=header))

    @pytest.mark.parametrize("record,match", [
        ({"id": None}, "line 2: field 'id' must be a string or an integer, got None"),
        ({"id": True}, "line 2: field 'id' must be a string or an integer, got True"),
        ({"id": 1.5}, "line 2: field 'id' must be a string or an integer, got 1.5"),
        ({"id": _ABSENT}, "line 2: field 'id' must be a string or an integer, it is absent"),
        ({"dialogue_id": _ABSENT}, "line 2: field 'dialogue_id' must be a string or an integer, "
                                   "it is absent"),
        ({"speaker_id": ["s1"]}, "line 2: field 'speaker_id' must be a string or an integer"),
        ({"copies": 2}, "line 3: field 'id' repeats record u7 of line 2"),
        ({"tail": '{"id":"u2", "label": 1,\n'},
         "bad5.jsonl line 3 column 25: Expecting property name enclosed in double quotes$"),
        ({"tail": "[1, 2]\n"},
         r"bad5.jsonl line 3: a record line must be a JSON object, got \[1, 2\]\Z")],
        ids=["id-null", "id-true", "id-float", "id-absent", "dialogue-absent", "speaker-list",
             "id-repeated", "json-syntax", "non-object"])
    def test_malformed_record_id_names_line_and_field(self, tmp_path, record, match):
        with pytest.raises(ValueError, match=match):
            load_features(_feature_file(tmp_path / "bad5.jsonl", **record))

    def test_absent_text_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="text"):
            load_features(_feature_file(tmp_path / "bad3.jsonl", t=None, a=[1.0, 1.0]))


def _feature_file(path, header=None, copies=1, tail="", **record):
    """A feature file of `copies` equal records, then the raw text `tail`: a
    conforming header and record, with the given header keys and record
    fields replaced. A string `header` is the raw header line."""
    head = {"d_t": 3, "d_a": 2, "d_v": 2, "K": 6, "label_names": list("abcdef")}
    row = {"id": "u7", "dialogue_id": "d1", "speaker_id": "s1", "label": 4,
           "t": [1.0, 2.0, 3.0], "a": None, "v": [0.5, 0.5]}
    row = {key: value for key, value in {**row, **record}.items() if value is not _ABSENT}
    head_line = header if isinstance(header, str) else json.dumps({**head, **(header or {})})
    path.write_text(head_line + "\n" + (json.dumps(row) + "\n") * copies + tail)
    return path


class TestBatchIter:
    def test_short_final_batch_kept(self):
        dataset = generate_synthetic(preset_spec("iemocap-like", 10, seed=1))
        sizes = [b.size for b in batch_iter(dataset, 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_label_counts_sum_to_batch_size(self):
        # The sample weights (N / n_{y_i})^gamma count each label within its
        # batch, including the short final one.
        dataset = generate_synthetic(preset_spec("meld-like", 50, seed=4))
        for batch in batch_iter(dataset, 8, seed=1):
            weights = sample_weights(batch.labels, gamma=1.0)
            counts = np.array([np.sum(batch.labels == label) for label in batch.labels])
            np.testing.assert_array_equal(weights, batch.size / counts)
            per_label = dict(zip(batch.labels.tolist(), counts.tolist()))
            assert sum(per_label.values()) == batch.size

    def test_fixed_seed_replays_identically(self):
        dataset = generate_synthetic(preset_spec("iemocap-like", 30, seed=9))
        first = np.concatenate([b.text for b in batch_iter(dataset, 7, seed=42)])
        second = np.concatenate([b.text for b in batch_iter(dataset, 7, seed=42)])
        assert np.array_equal(first, second)
        third = np.concatenate([b.text for b in batch_iter(dataset, 7, seed=43)])
        assert not np.array_equal(first, third)

    def test_empty_dataset_rejected(self):
        empty = FeatureDataset(generate_synthetic(preset_spec("iemocap-like", 10, seed=0)).header, [])
        with pytest.raises(ValueError):
            next(batch_iter(empty, 4, seed=0))

    def test_zero_imputation_in_batches(self):
        dataset = generate_synthetic(preset_spec("iemocap-like", 8, seed=0))
        dataset.records[0].audio = None
        batch = records_to_batch(dataset.header, dataset.records[:2])
        np.testing.assert_array_equal(batch.audio[0], np.zeros(dataset.header.audio_dim))
        assert np.any(batch.audio[1] != 0)


class TestSplitDataset:
    def test_fractions_and_determinism(self):
        dataset = generate_synthetic(preset_spec("meld-like", 200, seed=6))
        s1 = split_dataset(dataset, seed=1234)
        s2 = split_dataset(dataset, seed=1234)
        assert [r.id for r in s1.train.records] == [r.id for r in s2.train.records]
        assert len(s1.train) == 140 and len(s1.val) == 30 and len(s1.test) == 30
        all_ids = {r.id for r in dataset.records}
        split_ids = ({r.id for r in s1.train.records} | {r.id for r in s1.val.records}
                     | {r.id for r in s1.test.records})
        assert split_ids == all_ids
