"""The benchmark's tracer patches emforge functions by name; those names must stay,
and a traced build must run every wrapped call on the thread that started it."""

import os

from emforge import builders, corpus, metrics
from emforge.manifest import gold_prediction

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    modules = (corpus, metrics, builders)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer("t")
    try:
        # A name the tracer expects but emforge lost raises AttributeError here.
        tracing.install(tracer, corpus, metrics, builders)
        patched = {
            (m.__name__, name)
            for m, old in zip(modules, before)
            for name, value in vars(m).items()
            if old.get(name) is not value
        }
        assert ("emforge.builders", "draft_record") in patched
        assert ("emforge.corpus", "_build_one") in patched
    finally:
        tracer.uninstall()
    for m, old in zip(modules, before):
        now = vars(m)
        assert now.keys() == old.keys(), m.__name__
        assert all(now[name] is value for name, value in old.items()), m.__name__


def test_traced_rendered_build_closes_every_span(monkeypatch, tmp_path):
    """The tracer keeps one span stack, so every call it wraps must run on the calling thread."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    spec = corpus.CorpusSpec.from_dict({"counts": {"MR": [1, 3]}, "per_bin_min": 0})
    tracer = tracing.Tracer("t")
    tracing.install(tracer, corpus, metrics, builders)
    try:
        root = tracer.start(tracing.ROOT)
        train, bench = corpus.build_corpus(spec, str(tmp_path), render=True)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert len(train) + len(bench) == 4
    assert [s[0] for s in tracer.spans].count("builders.draft") == 4
    assert not tracer._open
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    # Drafts and record builds nest under the run, never inside one another.
    nested = ("builders.draft", "corpus.build_one")
    assert all(parent == root for name, _, _, parent, _ in tracer.spans if name in nested)


def test_traced_scoring_times_each_snr_table(monkeypatch):
    """score_predictions builds each task's SNR table through metrics.snr_binned_report,
    so the tracer's metrics.snr_tables span covers the real fold."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    spec = corpus.CorpusSpec.from_dict(
        {"counts": {"MR": [0, 4], "SPE": [4, 2], "EI": [0, 3], "AJSD": [3, 0]}, "per_bin_min": 0}
    )
    train, bench = corpus.build_corpus(spec, None, render=False)
    records = train + bench
    predictions = {r.sample_id: gold_prediction(r) for r in records}
    tracer = tracing.Tracer("t")
    tracing.install(tracer, corpus, metrics, builders)
    try:
        report = metrics.score_predictions(records, predictions)
    finally:
        tracer.uninstall()
    labelled = {r.task for r in records if r.snr_db is not None}
    assert labelled == set(report.snr_tables) == {"MR", "SPE"}
    assert [s[0] for s in tracer.spans].count("metrics.snr_tables") == len(labelled)
