"""Generate the synthetic imbalanced multimodal presets and look inside.

Both presets mimic per-utterance feature files: every record carries a
text/audio/visual vector and a class label, with class frequencies skewed
the way conversational emotion corpora are. A 200-record sample is
written to the working directory and read back.
"""

from collections import Counter

from sslcl import generate_synthetic, preset_spec, save_jsonl, load_features

DATA_PATH = "sslcl_demo_data.jsonl"

for name in ("meld-like", "iemocap-like"):
    spec = preset_spec(name, n_samples=1000, seed=7)
    dataset = generate_synthetic(spec)
    counts = Counter(r.label for r in dataset.records)
    print(f"\n{name}: {spec.num_labels} classes, {len(dataset)} samples")
    for label in sorted(counts):
        share = counts[label] / len(dataset)
        bar = "#" * round(60 * share)
        print(f"  class{label}: {counts[label]:4d} ({share:5.1%}) {bar}")

spec = preset_spec("meld-like", n_samples=200, seed=7)
dataset = generate_synthetic(spec)
save_jsonl(dataset, DATA_PATH)
reloaded = load_features(DATA_PATH)
first = reloaded.records[0]
print(f"\nwrote and reloaded {DATA_PATH} in the working directory ({len(reloaded)} records)")
print(f"first record: id={first.id} dialogue={first.dialogue_id} "
      f"speaker={first.speaker_id} label={first.label}")
print(f"  text dims={len(first.text)}, audio dims={len(first.audio)}, "
      f"visual dims={len(first.visual)}")
print("round-trip lossless:", all(
    (a.text == b.text).all() and a.label == b.label
    for a, b in zip(dataset.records, reloaded.records)))
