"""Outside-in tracing of sslcl: spans around the public functions of each
layer, and a count of autodiff primitives with the bytes they produce.

The tracer replaces module attributes (and the `from x import f` copies of
them in other sslcl modules) with thin wrappers, so the program runs
unchanged. Spans are kept in memory per thread and written out at the end;
a target a later version of the program no longer has is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# span name -> (module, attribute path, annotate(args, kwargs) -> dict | None)
SPAN_TARGETS = {
    "autodiff.backward": ("sslcl.autodiff", "Tape.gradients", None),
    "encoder.encode": ("sslcl.encoder", "encode", None),
    "encoder.classify": ("sslcl.encoder", "classify", None),
    "label_embedding.embed": ("sslcl.label_embedding", "embed_labels", None),
    "similarity.build_context": ("sslcl.similarity", "build_context", None),
    "similarity.sim_matrix": ("sslcl.similarity", "sim_matrix", None),
    "similarity.view_sim": ("sslcl.similarity", "view_sim_vector", None),
    "losses.sslcl": ("sslcl.losses", "sslcl_loss", None),
    "losses.label_label": ("sslcl.losses", "label_label_loss", None),
    "losses.cross_entropy": ("sslcl.losses", "cross_entropy", None),
    "trainer.train": ("sslcl.trainer", "train",
                      lambda a, k: {"epochs": a[0].epochs}),
    "trainer.step_loss": ("sslcl.trainer", "compute_step_loss", None),
    "trainer.adam": ("sslcl.trainer", "Adam.step", None),
    "trainer.predict": ("sslcl.trainer", "predict", lambda a, k: {"predictor": a[3].predictor}),
    "trainer.save_checkpoint": ("sslcl.trainer", "save_checkpoint", None),
    "metrics.weighted_f1": ("sslcl.metrics", "weighted_f1", None),
    "data.records_to_batch": ("sslcl.data", "records_to_batch", None),
    "data.generate": ("sslcl.data", "generate_synthetic", None),
    "data.save_jsonl": ("sslcl.data", "save_jsonl", None),
    "data.load_features": ("sslcl.data", "load_features", None),
    "evaluation.train_and_score": ("sslcl.evaluation", "train_and_score", None),
    "evaluation.ablation_suite": ("sslcl.evaluation", "ablation_suite",
                                  lambda a, k: {"jobs": k.get("jobs", 1)}),
    "evaluation.report": ("sslcl.evaluation", "write_ablation_report", None),
    "cli.main": ("sslcl.cli", "main", None),
}

# Public primitives of sslcl.autodiff expected at the time of writing; any
# other public function the module defines is counted too.
EXPECTED_OPS = (
    "add", "sub", "mul", "div", "scale", "add_const", "add_rowvec", "mul_colvec",
    "matmul", "transpose", "outer", "dot", "concat_cols", "gather_rows", "stack",
    "relu", "exp", "log", "pow_const", "clamp_min", "sum_all", "rowsum", "colmean",
    "center_rows", "sample_covariance", "stable_softmax", "softmax_rows",
)

STEP_SPAN = "trainer.step_loss"

UNITS = {
    "autodiff.ops_per_step": "count",
    "autodiff.op_bytes_per_step": "bytes",
    "autodiff.backward_ms_per_step": "ms",
    "encoder.encode_ms_per_step": "ms",
    "encoder.classify_ms_per_step": "ms",
    "label_embedding.embed_ms_per_step": "ms",
    "losses.sslcl_self_ms_per_step": "ms",
    "losses.label_label_ms_per_step": "ms",
    "losses.cross_entropy_ms_per_step": "ms",
    "similarity.sim_matrix_ms_per_step": "ms",
    "similarity.view_sim_ms_per_step": "ms",
    "similarity.build_context_ms_per_step": "ms",
    "similarity.score_ms": "ms",
    "trainer.step_ms": "ms",
    "trainer.adam_ms_per_step": "ms",
    "trainer.scoring_ms_per_epoch": "ms",
    "data.batch_ms_per_step": "ms",
    "data.load_features_ms": "ms",
    "evaluation.tasks": "count",
    "evaluation.task_s": "s",
    "evaluation.busy_share": "share",
    "evaluation.report_ms": "ms",
    "cli.self_ms": "ms",
}


def _note(annotate, args, kwargs) -> dict:
    # A changed signature must not break the run; the metric then reads 0.
    if annotate is None:
        return {}
    try:
        return annotate(args, kwargs)
    except (IndexError, AttributeError, TypeError):
        return {}


class Tracer:
    """Patches sslcl, records spans and op counts, restores on uninstall."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._thread_spans: list[list] = []
        self._thread_ops: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- per-thread state -------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.ops = defaultdict(lambda: [0, 0])
            local.op_depth = 0
            local.step_depth = 0
            with self._lock:
                self._thread_spans.append(local.spans)
                self._thread_ops.append(local.ops)
        return local

    # --- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, annotate):
        is_step = name == STEP_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            span_id = next(self._ids)
            parent = st.stack[-1] if st.stack else None
            st.stack.append(span_id)
            st.step_depth += is_step
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                st.step_depth -= is_step
                st.stack.pop()
                st.spans.append((span_id, name, start, end, parent, threading.get_ident(),
                                 _note(annotate, args, kwargs)))
        return wrapper

    def _op_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            if st.op_depth:  # a primitive built from other primitives counts once
                return fn(*args, **kwargs)
            st.op_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                st.op_depth -= 1
            entry = st.ops[(name, st.step_depth > 0)]
            entry[0] += 1
            entry[1] += getattr(getattr(out, "values", None), "nbytes", 0)
            return out
        return wrapper

    # --- patching ---------------------------------------------------------
    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make_wrapper(original)
        targets = [(owner, attr)]
        if not outer:  # also rebind `from module import name` copies
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("sslcl") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, original))
            setattr(obj, key, wrapper)

    def install(self) -> "Tracer":
        ad = importlib.import_module("sslcl.autodiff")
        public_ops = [n for n, v in vars(ad).items()
                      if callable(v) and not isinstance(v, type) and not n.startswith("_")
                      and getattr(v, "__module__", None) == ad.__name__]
        self.missing.extend(f"sslcl.autodiff.{n}" for n in EXPECTED_OPS if n not in public_ops)
        for name in public_ops:
            self._patch("sslcl.autodiff", name, lambda f, n=name: self._op_wrapper(n, f))
        for span_name, (module_name, path, annotate) in SPAN_TARGETS.items():
            self._patch(module_name, path,
                        lambda f, s=span_name, a=annotate: self._span_wrapper(s, f, a))
        if self.missing:
            print(f"trace: not found in this version of sslcl: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------
    def spans(self) -> list[tuple]:
        with self._lock:
            merged = [s for spans in self._thread_spans for s in spans]
        return sorted(merged, key=lambda s: s[2])

    def op_counts(self) -> dict[tuple[str, bool], list[int]]:
        total: dict = defaultdict(lambda: [0, 0])
        with self._lock:
            for ops in self._thread_ops:
                for key, (count, nbytes) in list(ops.items()):
                    total[key][0] += count
                    total[key][1] += nbytes
        return dict(total)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time covered by its direct children.

    Children run on their parent's thread and one after another, so the
    covered time is the sum of their durations."""
    child_time: dict[int, int] = defaultdict(int)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, start, end, _, _, _ in spans}


def layer_metrics(spans, ops) -> dict[str, float]:
    """Per-layer metrics from a run's spans and op counts.

    Per-step figures cover the training steps only (spans under a
    compute_step_loss call inside train); a layer the workload never calls
    reads 0."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    groups: dict[str, list] = defaultdict(list)
    for s in spans:
        groups[s[1]].append(s)

    def under(span, name):
        parent = span[4]
        while parent is not None and parent in by_id:
            if by_id[parent][1] == name:
                return True
            parent = by_id[parent][4]
        return False

    def dur(s):
        return s[3] - s[2]

    in_train = {s[0] for s in spans if under(s, "trainer.train")}
    in_step = {s[0] for s in spans if under(s, STEP_SPAN)}
    steps = sum(1 for s in groups[STEP_SPAN] if s[0] in in_train)
    trains = groups["trainer.train"]
    epochs = sum(s[6].get("epochs", 0) for s in trains)
    train_ids = {s[0] for s in trains}

    def per(total_ns, count, unit=1e6):
        return total_ns / count / unit if count else 0.0

    def step_ms(name, self_time=False):
        total = sum(selfs[s[0]] if self_time else dur(s) for s in groups[name] if s[0] in in_step)
        return per(total, steps)

    def train_child_ns(*names):
        return sum(dur(s) for s in spans if s[1] in names and s[4] in train_ids)

    def mean_ms(name, pick=lambda s: True, self_time=False):
        chosen = [selfs[s[0]] if self_time else dur(s) for s in groups[name] if pick(s)]
        return per(sum(chosen), len(chosen))

    step_ops = sum(c for (_, in_step_scope), (c, _) in ops.items() if in_step_scope)
    step_bytes = sum(b for (_, in_step_scope), (_, b) in ops.items() if in_step_scope)
    suites = groups["evaluation.ablation_suite"]
    tasks = groups["evaluation.train_and_score"]
    suite_capacity = sum(dur(s) * s[6].get("jobs", 1) for s in suites)
    scoring_ns = train_child_ns("trainer.predict", "metrics.weighted_f1")
    batching_ns = train_child_ns("data.records_to_batch")
    return {
        "autodiff.ops_per_step": step_ops / steps if steps else 0.0,
        "autodiff.op_bytes_per_step": step_bytes / steps if steps else 0.0,
        "autodiff.backward_ms_per_step": per(
            sum(selfs[s[0]] for s in groups["autodiff.backward"] if s[0] in in_train), steps),
        "encoder.encode_ms_per_step": step_ms("encoder.encode"),
        "encoder.classify_ms_per_step": step_ms("encoder.classify"),
        "label_embedding.embed_ms_per_step": step_ms("label_embedding.embed"),
        "losses.sslcl_self_ms_per_step": step_ms("losses.sslcl", self_time=True),
        "losses.label_label_ms_per_step": step_ms("losses.label_label"),
        "losses.cross_entropy_ms_per_step": step_ms("losses.cross_entropy"),
        "similarity.sim_matrix_ms_per_step": step_ms("similarity.sim_matrix"),
        "similarity.view_sim_ms_per_step": step_ms("similarity.view_sim"),
        "similarity.build_context_ms_per_step": step_ms("similarity.build_context"),
        "similarity.score_ms": mean_ms(
            "trainer.predict", lambda s: s[6].get("predictor") == "similarity"),
        "trainer.step_ms": per(sum(dur(s) for s in trains) - scoring_ns - batching_ns, steps),
        "trainer.adam_ms_per_step": per(
            sum(dur(s) for s in groups["trainer.adam"] if s[0] in in_train), steps),
        "trainer.scoring_ms_per_epoch": per(scoring_ns, epochs),
        "data.batch_ms_per_step": per(batching_ns, steps),
        "data.load_features_ms": mean_ms("data.load_features"),
        "evaluation.tasks": len(tasks) / len(suites) if suites else 0.0,
        "evaluation.task_s": per(sum(dur(s) for s in tasks), len(tasks), 1e9),
        "evaluation.busy_share": (sum(dur(s) for s in tasks) / suite_capacity
                                  if suite_capacity else 0.0),
        "evaluation.report_ms": mean_ms("evaluation.report"),
        "cli.self_ms": mean_ms("cli.main", self_time=True),
    }


def write_trace(path, tracer: Tracer, metrics: dict, extra: dict) -> None:
    """Gzipped JSON: metrics, per-op and per-span summaries, raw spans."""
    spans = tracer.spans()
    ops = tracer.op_counts()
    selfs = self_times(spans)
    steps = sum(1 for s in spans if s[1] == STEP_SPAN)
    summary: dict[str, dict] = {}
    for s in spans:
        entry = summary.setdefault(s[1], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (s[3] - s[2]) / 1e6
        entry["self_ms"] += selfs[s[0]] / 1e6
    doc = {
        **extra,
        "missing": tracer.missing,
        "metrics": metrics,
        "ops_per_step": {name: {"calls": c / steps, "bytes": b / steps}
                         for (name, in_step_scope), (c, b) in sorted(ops.items())
                         if in_step_scope and steps},
        "ops_outside_steps": {name: {"calls": c, "bytes": b}
                              for (name, in_step_scope), (c, b) in sorted(ops.items())
                              if not in_step_scope},
        "spans_summary": summary,
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "note"],
        "spans": spans,
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)
