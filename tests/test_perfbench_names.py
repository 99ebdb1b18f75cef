"""The benchmark's tracer patches emforge functions by name; those names must stay."""

import os

from emforge import builders, corpus, metrics

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
