"""Synthetic class-imbalanced multimodal datasets, JSONL ingestion, batching.

Records mimic per-utterance feature files: each sample carries a text
feature vector plus optional audio/visual vectors and a class label.
The synthetic generator draws every modality from per-class Gaussian
clusters whose centers sit on a scaled, jittered simplex; the textual
modality gets the strongest signal-to-noise so audio and visual act as
complementary cues rather than substitutes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ._files import atomic_open

MODALITY_SIGNAL = {"text": 1.0, "audio": 0.55, "visual": 0.55}
CENTER_JITTER = 0.15
DIALOGUE_LENGTH = 8

PRESETS = {
    # seven classes, heavily skewed toward one majority class
    "meld-like": {
        "num_labels": 7,
        "class_proportions": (0.47, 0.16, 0.12, 0.10, 0.07, 0.05, 0.03),
    },
    # six classes, mild skew
    "iemocap-like": {
        "num_labels": 6,
        "class_proportions": (0.22, 0.20, 0.18, 0.16, 0.13, 0.11),
    },
}


@dataclass(frozen=True)
class DatasetHeader:
    text_dim: int
    audio_dim: int
    visual_dim: int
    num_labels: int
    label_names: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "d_t": self.text_dim,
            "d_a": self.audio_dim,
            "d_v": self.visual_dim,
            "K": self.num_labels,
            "label_names": list(self.label_names),
        }


@dataclass
class UtteranceRecord:
    id: str
    dialogue_id: str
    speaker_id: str
    label: int
    text: np.ndarray
    audio: np.ndarray | None
    visual: np.ndarray | None


@dataclass
class FeatureDataset:
    header: DatasetHeader
    records: list[UtteranceRecord]

    def __len__(self) -> int:
        return len(self.records)

    def subset(self, indices: Sequence[int]) -> "FeatureDataset":
        return FeatureDataset(self.header, [self.records[i] for i in indices])


@dataclass
class SyntheticSpec:
    num_labels: int
    class_proportions: tuple[float, ...]
    n_samples: int
    text_dim: int = 10
    audio_dim: int = 6
    visual_dim: int = 6
    class_separation: float = 2.0
    modality_noise: dict = field(default_factory=lambda: {"text": 1.0, "audio": 1.3, "visual": 1.3})
    seed: int = 0

    def validate(self) -> None:
        props = np.asarray(self.class_proportions, dtype=np.float64)
        if len(props) != self.num_labels:
            raise ValueError("class_proportions length must equal the class count")
        if abs(props.sum() - 1.0) > 1e-9:
            raise ValueError("class_proportions must sum to 1")
        if np.any(props <= 0):
            raise ValueError("class_proportions must be strictly positive")
        if self.n_samples < self.num_labels:
            raise ValueError("n_samples must cover every class at least once")
        if not 0 <= self.class_separation < math.inf:  # NaN fails the range test
            raise ValueError(f"class_separation must be finite and >= 0, got {self.class_separation!r}")


def preset_spec(name: str, n_samples: int, seed: int, **overrides) -> SyntheticSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    spec = SyntheticSpec(n_samples=n_samples, seed=seed, **PRESETS[name])
    for key, value in overrides.items():
        if not hasattr(spec, key):
            raise ValueError(f"unknown SyntheticSpec field {key!r}")
        setattr(spec, key, value)
    spec.validate()
    return spec


def class_counts(proportions: Sequence[float], n: int) -> list[int]:
    """Largest-remainder apportionment; every class keeps at least one sample."""
    props = np.asarray(proportions, dtype=np.float64)
    base = np.floor(props * n).astype(int)
    remainders = props * n - base
    missing = n - int(base.sum())
    for idx in np.argsort(-remainders, kind="stable")[:missing]:
        base[idx] += 1
    while np.any(base == 0):
        base[int(np.argmax(base))] -= 1
        base[int(np.argmin(base))] += 1
    return [int(c) for c in base]


def _class_centers(rng: np.random.Generator, num_labels: int, dim: int, spread: float) -> np.ndarray:
    if dim >= num_labels:
        centers = np.zeros((num_labels, dim))
        centers[:, :num_labels] = np.eye(num_labels)
    else:
        raw = rng.standard_normal((num_labels, dim))
        centers = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    centers = centers * spread
    centers += rng.normal(0.0, CENTER_JITTER * spread, size=centers.shape)
    return centers


def generate_synthetic(spec: SyntheticSpec) -> FeatureDataset:
    """Deterministic Gaussian-cluster data; each modality carries class signal."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    dims = {"text": spec.text_dim, "audio": spec.audio_dim, "visual": spec.visual_dim}
    centers = {
        name: _class_centers(rng, spec.num_labels, dim,
                             spec.class_separation * MODALITY_SIGNAL[name])
        for name, dim in dims.items()
    }
    counts = class_counts(spec.class_proportions, spec.n_samples)
    labels = np.repeat(np.arange(spec.num_labels), counts)
    rng.shuffle(labels)
    feats = {
        name: centers[name][labels] + spec.modality_noise[name] * rng.standard_normal((spec.n_samples, dim))
        for name, dim in dims.items()
    }
    header = DatasetHeader(
        text_dim=spec.text_dim, audio_dim=spec.audio_dim, visual_dim=spec.visual_dim,
        num_labels=spec.num_labels,
        label_names=tuple(f"class{k}" for k in range(spec.num_labels)),
    )
    records = []
    for i in range(spec.n_samples):
        dialogue = i // DIALOGUE_LENGTH
        records.append(UtteranceRecord(
            id=f"utt{i:05d}",
            dialogue_id=f"dia{dialogue:04d}",
            speaker_id=f"spk{i % 2}",
            label=int(labels[i]),
            text=feats["text"][i],
            audio=feats["audio"][i],
            visual=feats["visual"][i],
        ))
    return FeatureDataset(header, records)


def save_jsonl(dataset: FeatureDataset, path) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(dataset.header.to_json_obj()) + "\n")
        for rec in dataset.records:
            fh.write(json.dumps({
                "id": rec.id,
                "dialogue_id": rec.dialogue_id,
                "speaker_id": rec.speaker_id,
                "label": rec.label,
                "t": list(rec.text),
                "a": None if rec.audio is None else list(rec.audio),
                "v": None if rec.visual is None else list(rec.visual),
            }) + "\n")


_MODALITY_FIELDS = {"t": ("text", "d_t"), "a": ("audio", "d_a"), "v": ("visual", "d_v")}


def _feature_vector(raw, dim: int, rec_id, key: str) -> np.ndarray:
    """A JSON list of `dim` finite numbers as a float64 vector: the sum is
    checked first (a null or string entry fails it), entries only if it is not finite."""
    try:
        ok = (isinstance(raw, list) and len(raw) == dim
              and (math.isfinite(sum(raw)) or all(map(math.isfinite, raw))))
    except (TypeError, OverflowError):  # a non-number, or an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"record {rec_id}: field {key!r} must list {dim} finite numbers, got {raw!r:.60}")
    return np.asarray(raw, dtype=np.float64)


def load_features(path) -> FeatureDataset:
    """Parse a JSONL feature file, checking the header and every record; a
    malformed value raises ValueError naming its record and field."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: missing header line")
        raw = json.loads(header_line)
        if not isinstance(raw, dict) or any(type(raw.get(k)) is not int or raw[k] < 1
                                            for k in ("d_t", "d_a", "d_v", "K")):
            raise ValueError(f"{path}: the header must give d_t, d_a, d_v and K as positive "
                             f"integers, got {header_line.strip():.100}")
        names = raw.get("label_names")
        if not (isinstance(names, list) and len(names) == raw["K"]
                and all(isinstance(name, str) for name in names)):
            raise ValueError(f"{path}: header 'label_names' must list K={raw['K']} names, got {names!r}")
        header = DatasetHeader(text_dim=raw["d_t"], audio_dim=raw["d_a"], visual_dim=raw["d_v"],
                               num_labels=raw["K"], label_names=tuple(names))
        records = []
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: a record line must be a JSON object, got {line:.60}")
            rec_id = obj.get("id", "<missing id>")
            label = obj["label"]
            if type(label) is not int or not 0 <= label < header.num_labels:
                raise ValueError(f"record {rec_id}: field 'label' must be an integer class "
                                 f"in [0, {header.num_labels}), got {label!r}")
            if obj.get("t") is None:
                raise ValueError(f"record {rec_id}: field 't' (text features) is absent")
            vectors = {attr: None if obj.get(key) is None
                       else _feature_vector(obj[key], raw[dim_key], rec_id, key)
                       for key, (attr, dim_key) in _MODALITY_FIELDS.items()}
            records.append(UtteranceRecord(
                id=str(obj["id"]), dialogue_id=str(obj["dialogue_id"]),
                speaker_id=str(obj["speaker_id"]), label=label, **vectors))
    return FeatureDataset(header, records)


@dataclass
class FeatureBatch:
    """Materialized batch: absent modalities are zero-imputed, which is
    exactly the fusion-input imputation the encoder applies anyway. A
    stacked batch holds one batch per seed along a leading axis."""

    ids: list
    text: np.ndarray
    audio: np.ndarray
    visual: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.labels.shape[-1]


def records_to_batch(header: DatasetHeader, records: Sequence[UtteranceRecord]) -> FeatureBatch:
    n = len(records)
    text = np.zeros((n, header.text_dim))
    audio = np.zeros((n, header.audio_dim))
    visual = np.zeros((n, header.visual_dim))
    labels = np.zeros(n, dtype=np.intp)
    for i, rec in enumerate(records):
        text[i] = rec.text
        if rec.audio is not None:
            audio[i] = rec.audio
        if rec.visual is not None:
            visual[i] = rec.visual
        labels[i] = rec.label
    return FeatureBatch(
        ids=[rec.id for rec in records], text=text, audio=audio, visual=visual, labels=labels)


def stack_batches(batches: Sequence[FeatureBatch]) -> FeatureBatch:
    """One stacked batch from same-size batches, one per seed."""
    return FeatureBatch(ids=[b.ids for b in batches],
                        text=np.stack([b.text for b in batches]),
                        audio=np.stack([b.audio for b in batches]),
                        visual=np.stack([b.visual for b in batches]),
                        labels=np.stack([b.labels for b in batches]))


def batch_iter(dataset: FeatureDataset, batch_size: int, seed, shuffle: bool = True) -> Iterator[FeatureBatch]:
    """Seed-deterministic epoch over the dataset; the short final batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot iterate an empty dataset")
    order = np.arange(n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        chunk = [dataset.records[i] for i in order[start:start + batch_size]]
        yield records_to_batch(dataset.header, chunk)


@dataclass
class Splits:
    train: FeatureDataset
    val: FeatureDataset
    test: FeatureDataset


def split_dataset(dataset: FeatureDataset, seed: int) -> Splits:
    """Fixed 70/15/15 train/val/test split by seed-deterministic shuffle."""
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.15 * n))
    return Splits(
        train=dataset.subset(order[:n_train]),
        val=dataset.subset(order[n_train:n_train + n_val]),
        test=dataset.subset(order[n_train + n_val:]),
    )
