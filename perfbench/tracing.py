"""Spans around the calls into emforge's layers, recorded from outside.

The program is not edited: `install` swaps the layer functions that
`emforge.corpus` and `emforge.metrics` look up at call time for timing
wrappers, and `uninstall` puts the originals back. Spans are kept in
memory and written out once, when the traced run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

VIEW_KINDS = ("constellation", "fft_spectrum", "stft_spectrogram", "iq_waveform")
ROOT = "run"


class Tracer:
    """In-memory spans: [name, start, end, parent index, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def start(self, name: str, attrs: dict | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name: str, attrs=None, after=None):
        """`fn` inside a span; `attrs(args)` labels it, `after(attrs, args, result)` counts."""

        def traced(*args, **kwargs):
            index = self.start(name, attrs(args) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after:
                span = self.spans[index]
                span[4] = span[4] or {}
                after(span[4], args, result)
            return result

        return traced

    def patch(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, old = self._undo.pop()
            setattr(module, attr, old)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"id": i, "run": self.run_id, "name": name, "start": start,
                       "end": end, "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def install(tracer: Tracer, corpus, metrics, builders) -> None:
    """Swap the layer entry points for traced ones."""

    def png_sizes(attrs, args, result):
        attrs["raw_bytes_in"] = int(args[0].pixels.nbytes)
        attrs["bytes_out"] = len(result)

    def promoted(attrs, args, result):
        attrs["promoted"] = len(result) - sum(1 for r in args[0] if r.split == "bench")

    w = tracer.wrap
    tracer.patch(builders, "draft_record", w(builders.draft_record, "builders.draft"))
    # One record's build; its self time is the sha256, the image writes and the record itself.
    tracer.patch(corpus, "_build_one", w(corpus._build_one, "corpus.build_one"))
    tracer.patch(corpus, "render_view", w(
        corpus.render_view, "views.render", attrs=lambda a: {"kind": getattr(a[1], "value", a[1])}))
    tracer.patch(corpus, "encode_png", w(corpus.encode_png, "png.encode", after=png_sizes))
    tracer.patch(corpus, "assign_split", w(corpus.assign_split, "corpus.split"))
    tracer.patch(corpus, "stratified_bench", w(
        corpus.stratified_bench, "corpus.stratify", after=promoted))
    tracer.patch(corpus, "write_manifest", w(corpus.write_manifest, "corpus.manifest_write"))
    tracer.patch(metrics, "record_correctness", w(metrics.record_correctness, "metrics.correctness"))
    tracer.patch(metrics, "snr_binned_report", w(metrics.snr_binned_report, "metrics.snr_tables"))
    for name in ("bleu4", "rouge_l", "meteor", "cider"):
        tracer.patch(metrics, name, w(getattr(metrics, name), f"metrics.{name}"))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

# (metric prefix, span name, view kind or None); each gets _s, _ms.p50, _ms.p99.
TIMED = (
    [("builders.draft", "builders.draft", None)]
    + [(f"views.{k}", "views.render", k) for k in VIEW_KINDS]
    + [("png.encode", "png.encode", None)]
)
# metric -> span name whose self times it sums.
SUMMED = {
    "corpus.hash_write_s": "corpus.build_one",
    "corpus.split_s": "corpus.split",
    "corpus.stratify_s": "corpus.stratify",
    "corpus.manifest_write_s": "corpus.manifest_write",
    "corpus.manifest_read_s": "corpus.manifest_read",
    "metrics.load_predictions_s": "metrics.load_predictions",
    "metrics.correctness_s": "metrics.correctness",
    "metrics.snr_tables_s": "metrics.snr_tables",
    "metrics.bleu4_s": "metrics.bleu4",
    "metrics.rouge_l_s": "metrics.rouge_l",
    "metrics.meteor_s": "metrics.meteor",
    "metrics.cider_s": "metrics.cider",
}
# metric -> (span name, attribute summed over its spans)
COUNTED = {
    "png.bytes_out": ("png.encode", "bytes_out"),
    "png.raw_bytes_in": ("png.encode", "raw_bytes_in"),
    "corpus.promoted": ("corpus.stratify", "promoted"),
}


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self times, per-call percentiles and counts of every layer.

    A span's self time is its duration minus its children's durations;
    trace.unattributed_s is the root span's self time.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    self_time = list(duration)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            self_time[parent] -= duration[i]

    out: dict[str, float] = {}
    for prefix, name, kind in TIMED:
        picked = [i for i, s in enumerate(spans)
                  if s[0] == name and (kind is None or s[4]["kind"] == kind)]
        ms = [duration[i] * 1e3 for i in picked]
        out[f"{prefix}_s"] = sum(self_time[i] for i in picked)
        out[f"{prefix}_ms.p50"] = statistics.median(ms) if ms else 0.0
        out[f"{prefix}_ms.p99"] = _percentile(ms, 99)
        if prefix == "builders.draft":
            out["builders.calls"] = len(picked)
    for metric, name in SUMMED.items():
        out[metric] = sum(self_time[i] for i, s in enumerate(spans) if s[0] == name)
    for metric, (name, attr) in COUNTED.items():
        out[metric] = sum(s[4][attr] for s in spans if s[0] == name)
    out["trace.unattributed_s"] = sum(
        self_time[i] for i, s in enumerate(spans) if s[0] == ROOT)
    return out

