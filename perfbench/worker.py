"""One benchmark iteration in a fresh process; run.py starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED T0 WORKDIR

MODE is `setup` (import and spec only), `timed`, `traced` or `fixture`.
T0 is the starter's time.perf_counter() just before it started this
process; on Linux that clock is system-wide, so setup_s spans process
start, interpreter start, the emforge import and the CorpusSpec. The
result is written to WORKDIR/result.json; build output goes to
WORKDIR/out, the score fixture lives in WORKDIR/fixture.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_emforge():
    """The emforge of this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import emforge
    from emforge import builders, corpus, metrics, png  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(emforge.__file__))) != SRC:
        raise SystemExit(f"emforge imported from {emforge.__file__}, not from {SRC}")
    return emforge


def main(argv: list[str]) -> int:
    mode, name, seed, t0, workdir = argv
    seed, t0 = int(seed), float(t0)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    emforge = _import_emforge()
    corpus, metrics = emforge.corpus, emforge.metrics
    spec = workload.spec(corpus, seed)
    setup_s = time.perf_counter() - t0

    result_path = os.path.join(workdir, "result.json")
    out_dir = os.path.join(workdir, "out")
    fixture_dir = os.path.join(workdir, "fixture")
    if mode == "setup":
        return _write(result_path, {"setup_s": setup_s})
    if mode == "fixture":
        import fixture

        fixture.build(corpus, spec, seed, fixture_dir)
        return _write(result_path, {})

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
        tracing.install(tracer, corpus, metrics, emforge.builders)
    span = tracer.span if tracer else (lambda _name: nullcontext())

    cpu0 = _cpu_s()
    start = time.perf_counter()
    root = tracer.start(tracing.ROOT) if tracer else None
    if workload.kind == "build":
        train, bench = corpus.build_corpus(spec, out_dir, workers=1, render=workload.render)
    else:
        with span("corpus.manifest_read"):
            records = corpus.read_manifest(os.path.join(fixture_dir, "manifest.jsonl"))
        with span("metrics.load_predictions"):
            predictions = metrics.load_predictions(os.path.join(fixture_dir, "predictions.jsonl"))
        report = metrics.score_predictions(records, predictions).to_dict()
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    if tracer:
        tracer.end(root)
    wall_s = time.perf_counter() - start
    cpu1 = _cpu_s()
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer:
        tracer.uninstall()

    import checks  # imported after the timed region, like everything below
    import numpy

    if workload.kind == "build":
        tally = checks.Tally(sum(sum(pair) for pair in spec.counts.values()))
        checks.check_build(tally, spec, train + bench, out_dir, workload.render, emforge)
        digest = checks.build_digest(out_dir)
    else:
        tally = checks.Tally(len(records))
        with open(os.path.join(fixture_dir, "expected.json"), encoding="utf-8") as fh:
            checks.check_score(tally, report, json.load(fh))
        digest = hashlib.sha256(payload.encode()).hexdigest()
    checks.check_pinned(tally, name, seed, digest, numpy.__version__)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mib": peak_kib / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "digest": digest,
    }
    if tracer:
        layers = tracing.layer_metrics(tracer.spans)
        layers["corpus.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
        ) if workload.kind == "build" else 0
        layers["metrics.unparseable"] = report["unparseable"] if workload.kind == "score" else 0
        result["layers"] = layers
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    return _write(result_path, result)


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
