"""In-memory span tracer that wraps fairvec's public functions from outside.

Each wrapped call records a span: name, start, end, parent span, self time
(the span's duration minus the time its child spans cover) and counts taken
from the call's arguments or result. A function is replaced both where it is
defined and wherever another fairvec module imported it by name (for example
``toymodel.featurize_all`` and ``cli.read_checkpoint``); otherwise calls made
inside the package would go unseen. ``uninstall`` puts every original back,
so untraced iterations run the unmodified program.

Spans stay in memory until ``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tensor_bytes(ckpt) -> int:
    return sum(len(t.data) for t in ckpt.tensors.values())


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# Count extractors: (args, kwargs, result) -> dict of counts for the span.
def _c_gen_corpus(a, k, r):
    return {"examples": len(r[0]) + len(r[1])}


def _c_save_corpus(a, k, r):
    out = _arg(a, k, 3, "out_dir")
    names = ("train.jsonl", "test.jsonl", "spec.json")
    return {"bytes": _file_bytes(os.path.join(out, n) for n in names)}


def _c_featurize_all(a, k, r):
    examples = _arg(a, k, 0, "examples")
    first = id(examples[0]) if len(examples) else 0
    # (first example object, length, dim) identifies a split within one
    # iteration, because the corpus lists stay alive for the whole iteration.
    return {"rows": len(examples), "dim": int(r.shape[1]), "split": first}


def _c_loss_and_grads(a, k, r):
    X = _arg(a, k, 1, "X")
    hidden = _arg(a, k, 0, "arrays")["W1"].shape[1]
    rows, dim = X.shape
    # the forward X @ W1 and the backward X.T @ dZ: 2 * (2 * B * D * H)
    return {"rows": rows, "flop": 4 * rows * dim * hidden}


def _c_predict(a, k, r):
    return {"rows": len(r)}


def _c_diff(a, k, r):
    task, base = _arg(a, k, 0, "task"), _arg(a, k, 1, "base")
    out = sum(len(t.data) for t in r.deltas.values())
    return {"bytes": _tensor_bytes(task) + _tensor_bytes(base) + out}


def _c_merge(a, k, r):
    base = _arg(a, k, 0, "base")
    parts = _arg(a, k, 1, "parts")
    vec = 0
    for p in parts:
        tv = p[0] if isinstance(p, tuple) else p.vector
        vec += sum(len(t.data) for t in tv.deltas.values())
    return {"bytes": _tensor_bytes(base) + vec + _tensor_bytes(r)}


def _c_read_checkpoint(a, k, r):
    return {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}


def _c_write_checkpoint(a, k, r):
    return {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}


def _c_to_numpy(a, k, r):
    return {"bytes": len(a[0].data)}


def _c_from_numpy(a, k, r):
    return {"bytes": len(r.data)}


def _c_records(a, k, r):
    return {"records": len(r)}


def _c_evaluate(a, k, r):
    return {"records": sum(row.n for row in r.rows)}


def _c_sweep(a, k, r):
    return {"points": len(r.rows)}


def _c_emit(a, k, r):
    return {"bytes": _file_bytes(r)}


def _c_line_chart(a, k, r):
    return {"bytes": len(r.encode("utf-8"))}


def _c_cli(a, k, r):
    return {"commands": 1}


# (module, attribute, span name, count extractor). "Tensor.x" names a method.
TARGETS = [
    ("fairvec.corpus", "gen_corpus", "corpus.gen_corpus", _c_gen_corpus),
    ("fairvec.corpus", "save_corpus", "corpus.save_corpus", _c_save_corpus),
    ("fairvec.features", "featurize_all", "features.featurize_all", _c_featurize_all),
    ("fairvec.toymodel", "train", "toymodel.train", None),
    ("fairvec.toymodel", "train_subgroup", "toymodel.train_subgroup", None),
    ("fairvec.toymodel", "loss_and_grads", "toymodel.loss_and_grads", _c_loss_and_grads),
    ("fairvec.toymodel", "predict", "toymodel.predict", _c_predict),
    ("fairvec.arith", "diff", "arith.diff", _c_diff),
    ("fairvec.arith", "merge", "arith.merge", _c_merge),
    ("fairvec.arith", "inject", "arith.inject", None),
    ("fairvec.ckpt", "read_checkpoint", "ckpt.read_checkpoint", _c_read_checkpoint),
    ("fairvec.ckpt", "write_checkpoint", "ckpt.write_checkpoint", _c_write_checkpoint),
    ("fairvec.ckpt", "Tensor.to_numpy", "ckpt.to_numpy", _c_to_numpy),
    ("fairvec.ckpt", "Tensor.from_numpy", "ckpt.from_numpy", _c_from_numpy),
    ("fairvec.metrics", "load_predictions", "metrics.load_predictions", _c_records),
    ("fairvec.metrics", "evaluate", "metrics.evaluate", _c_evaluate),
    ("fairvec.sweep", "lambda_sweep", "sweep.lambda_sweep", _c_sweep),
    ("fairvec.sweep", "inject_sweep", "sweep.inject_sweep", _c_sweep),
    ("fairvec.sweep", "emit", "sweep.emit", _c_emit),
    ("fairvec.svg", "line_chart", "svg.line_chart", _c_line_chart),
    ("fairvec.cli", "main", "cli.main", _c_cli),
]

ROOT_SPAN = "bench.iteration"


class Tracer:
    """Span recorder; one root span per traced iteration."""

    def __init__(self):
        self.iterations: list[list[list]] = []
        self.counters: list[dict[str, int]] = []
        self._spans: list[list] | None = None
        self._counters: defaultdict | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        entry = [span_id, 0.0, parent]
        self._stack.append(entry)
        return entry

    def _close(self, entry, name, start, end):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self._spans.append([name, start, end, entry[0], entry[2], dur - entry[1], None])

    def run_iteration(self, fn, *args, **kwargs):
        """Run fn under a root span and return its result."""
        self._spans = []
        self._counters = defaultdict(int)
        entry = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._close(entry, ROOT_SPAN, start, end)
            self.iterations.append(self._spans)
            self.counters.append(dict(self._counters))
            self._spans = None
        return result

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._spans is None:
                return fn(*args, **kwargs)
            entry = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(entry, name, start, time.perf_counter())
            if counter is not None:
                # counted after the span closed: the parent pays for counting
                tracer._spans[-1][6] = counter(args, kwargs, result)
            return result

        return traced

    def _count_digest(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(path):
            if tracer._spans is not None:
                tracer._counters["cli.digest_bytes"] += os.path.getsize(path)
            return fn(path)

        return counted

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target where it is defined and wherever it was imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fairvec" or n.startswith("fairvec."))]
        for mod_name, attr, span_name, counter in TARGETS:
            mod = sys.modules[mod_name]
            if attr.startswith("Tensor."):
                cls, meth = mod.Tensor, attr.split(".", 1)[1]
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(span_name, raw.__func__, counter)))
                else:
                    self._set(cls, meth, self._wrap(span_name, raw, counter))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(span_name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, traced)
        cli = sys.modules["fairvec.cli"]
        # cli hashes every input for its manifests; count those bytes without
        # a span so the hashing stays in cli's self time
        self._set(cli, "sha256_file", self._count_digest(cli.sha256_file))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for it, spans in enumerate(self.iterations):
                for name, start, end, sid, parent, self_s, counts in spans:
                    rec = {"iteration": it, "id": sid, "parent": parent, "name": name,
                           "start": start, "end": end, "self_s": self_s}
                    if counts:
                        rec["counts"] = counts
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and summed counts."""
    out: dict[str, dict] = {}
    for name, start, end, _sid, _parent, self_s, counts in spans:
        s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
        s["calls"] += 1
        s["incl_s"] += end - start
        s["self_s"] += self_s
        for key, value in (counts or {}).items():
            if key != "split":
                s["counts"][key] += value
    return out


# The self-time metrics partition the root span: they sum to trace.wall_s.
SELF_TIME_METRICS = {
    "corpus.gen_s": ["corpus.gen_corpus"],
    "corpus.save_s": ["corpus.save_corpus"],
    "features.s": ["features.featurize_all"],
    "toymodel.step_s": ["toymodel.loss_and_grads"],
    "toymodel.train_self_s": ["toymodel.train", "toymodel.train_subgroup"],
    "toymodel.predict_self_s": ["toymodel.predict"],
    "arith.merge_s": ["arith.merge", "arith.inject"],
    "arith.diff_s": ["arith.diff"],
    "ckpt.read_s": ["ckpt.read_checkpoint"],
    "ckpt.write_s": ["ckpt.write_checkpoint"],
    "ckpt.codec_s": ["ckpt.to_numpy", "ckpt.from_numpy"],
    "metrics.load_s": ["metrics.load_predictions"],
    "metrics.evaluate_s": ["metrics.evaluate"],
    "sweep.self_s": ["sweep.lambda_sweep", "sweep.inject_sweep", "sweep.emit"],
    "svg.s": ["svg.line_chart"],
    "cli.self_s": ["cli.main"],
    "bench.self_s": [ROOT_SPAN],
}


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    s = summarize(spans)

    def calls(*names):
        return sum(s[n]["calls"] for n in names if n in s)

    def count(name, key):
        return s[name]["counts"][key] if name in s else 0

    def incl(name):
        return s[name]["incl_s"] if name in s else 0.0

    out = {m: math.fsum(s[n]["self_s"] for n in names if n in s)
           for m, names in SELF_TIME_METRICS.items()}
    feat_calls = calls("features.featurize_all")
    splits = {(c["split"], c["rows"], c["dim"]) for name, *_r, c in spans
              if name == "features.featurize_all" and c}
    out.update({
        "corpus.examples": count("corpus.gen_corpus", "examples"),
        "corpus.bytes_written": count("corpus.save_corpus", "bytes"),
        "features.calls": feat_calls,
        "features.rows": count("features.featurize_all", "rows"),
        "features.useful_ratio": len(splits) / feat_calls if feat_calls else 1.0,
        "toymodel.train_calls": calls("toymodel.train"),
        "toymodel.steps": calls("toymodel.loss_and_grads"),
        "toymodel.step_gflop": count("toymodel.loss_and_grads", "flop") / 1e9,
        "toymodel.predict_calls": calls("toymodel.predict"),
        "toymodel.predict_rows": count("toymodel.predict", "rows"),
        "arith.merge_calls": calls("arith.merge"),
        "arith.merge_bytes": count("arith.merge", "bytes"),
        "ckpt.read_calls": calls("ckpt.read_checkpoint"),
        "ckpt.read_bytes": count("ckpt.read_checkpoint", "bytes"),
        "ckpt.write_calls": calls("ckpt.write_checkpoint"),
        "ckpt.write_bytes": count("ckpt.write_checkpoint", "bytes"),
        "ckpt.codec_bytes": count("ckpt.to_numpy", "bytes") + count("ckpt.from_numpy", "bytes"),
        "metrics.load_records": count("metrics.load_predictions", "records"),
        "metrics.evaluate_calls": calls("metrics.evaluate"),
        "metrics.records": count("metrics.evaluate", "records"),
        "sweep.lambda_sweep_s": incl("sweep.lambda_sweep"),
        "sweep.inject_sweep_s": incl("sweep.inject_sweep"),
        "sweep.emit_s": incl("sweep.emit"),
        "sweep.emit_bytes": count("sweep.emit", "bytes"),
        "cli.commands": calls("cli.main"),
        "cli.digest_bytes": counters.get("cli.digest_bytes", 0),
        "trace.wall_s": incl(ROOT_SPAN),
    })
    return out
