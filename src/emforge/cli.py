"""Command-line entry point: build, render, score, report, budget.

Exit codes: 0 on success, 2 for usage/config errors, 1 for runtime
failures. All randomness flows from the config seed (overridable with
--seed); the default output directory comes from $EMFORGE_OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import budget as budget_mod
from . import manifest
from .manifest import ConfigError, read_manifest

ENV_OUT_DIR = "EMFORGE_OUT"


def _default_out() -> str:
    return os.environ.get(ENV_OUT_DIR, "emforge-out")


def _load_spec(args):
    """The CorpusSpec that build's or render's flags name; only these two import corpus."""
    from .corpus import CorpusSpec, desk_scale_counts

    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", str(exc)) from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError("config", f"{args.config}: malformed JSON ({exc})") from exc
        spec = CorpusSpec.from_dict(data)
    else:
        spec = CorpusSpec.default_desk()
    if args.total is not None:
        spec.counts = desk_scale_counts(args.total)
    if args.seed is not None:
        spec.global_seed = args.seed
    return spec


def cmd_build(args) -> int:
    from .corpus import build_corpus

    spec = _load_spec(args)
    out_dir = args.out or _default_out()
    _check_out_dir(out_dir)
    train, bench = build_corpus(spec, out_dir, workers=args.workers)
    records = train + bench
    per_format = Counter((r.task, r.format) for r in records)
    per_bench_task = Counter(r.task for r in bench)
    hist = Counter(f"{r.snr_db:g}" for r in records if r.snr_db is not None)
    print(f"built {len(records)} records -> {out_dir}")
    print(f"  train: {len(train)}  bench: {len(bench)}")
    for task in sorted({r.task for r in records}):
        print(
            f"  {task:5s} OpenQA {per_format[task, 'OpenQA']:5d}  "
            f"MCQA {per_format[task, 'MCQA']:5d}  (bench {per_bench_task[task]})"
        )
    if hist:
        print("  SNR histogram (dB: count): "
              + ", ".join(f"{k}: {hist[k]}" for k in sorted(hist, key=float)))
    return 0


def cmd_render(args) -> int:
    from .corpus import build_record

    spec = _load_spec(args)
    out_dir = args.out or _default_out()
    _check_out_dir(out_dir)
    record = build_record(spec, args.sample_id, out_dir)
    for rel_path in record.view_paths:
        print(os.path.join(out_dir, rel_path))
    # The corpus build may still promote the record to bench, so its split is left out.
    row = record.to_dict()
    del row["split"]
    print(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return 0


def _check_outputs(*outputs) -> None:
    """Raise ConfigError for a (flag, path) output whose directory is missing
    or that is a directory, so a command fails before its first write."""
    for flag, path in outputs:
        if path is None:
            continue
        if os.path.isdir(path):
            raise ConfigError(flag, f"{path}: is a directory")
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            raise ConfigError(flag, f"{path}: no such directory {parent}")


def _check_out_dir(path) -> None:
    """Raise ConfigError for an output directory that cannot be made because
    it, or the nearest part of its path that exists, is not a directory."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        where = "" if existing == path else f"{existing} "
        raise ConfigError("out", f"{path}: {where}is not a directory")


def cmd_score(args) -> int:
    from . import metrics  # only scoring loads numpy

    _check_outputs(("report", args.report), ("csv", args.csv), ("per-record", args.per_record))
    # An input that cannot be opened is a usage error, as is one that does not parse.
    try:
        records = read_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        raise ConfigError("manifest", str(exc)) from exc
    try:
        predictions = manifest.load_predictions(args.predictions)
        report = metrics.score_predictions(records, predictions)
    except (OSError, ValueError) as exc:
        raise ConfigError("predictions", str(exc)) from exc
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    print(manifest.format_report_table(report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest.snr_tables_csv(report))
    if args.per_record:
        with open(args.per_record, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(json.dumps(o.to_row()) + "\n" for o in report.outcomes)
    return 0


def cmd_report(args) -> int:
    _check_outputs(("csv", args.csv))
    # Formatting runs in the try too: a number beyond the float range fails there.
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = manifest.ScoreReport.from_dict(json.load(fh))
        table = manifest.format_report_table(report)
        csv_text = manifest.snr_tables_csv(report) if args.csv else None
    except OSError as exc:
        raise ConfigError("report", str(exc)) from exc
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise ConfigError("report", f"{args.report}: malformed report ({exc})") from exc
    print(table)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    return 0


def cmd_budget(args) -> int:
    if args.stage is None:
        print(budget_mod.stage_table())
        return 0
    if args.stage not in budget_mod.STAGES:
        raise ConfigError("stage", f"stage must be one of {sorted(budget_mod.STAGES)}")
    stage = budget_mod.STAGES[args.stage]
    layout, verdict = budget_mod.largest_layout(stage)
    status = "fits" if verdict.fits else "exceeds"
    print(
        f"stage {stage.stage}: {stage.max_views} view(s) x {stage.tokens_per_view} tokens "
        f"+ {stage.max_views - 1} boundaries = {layout.total_tokens} layout tokens; "
        f"with {budget_mod.RESERVED_PROMPT_TOKENS} prompt tokens {status} in "
        f"{stage.max_seq_len} (slack {verdict.slack})"
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emforge",
        description="EM signal corpus forge and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags that define a corpus, and where it goes.
    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument("--config", help="JSON config file defining the corpus")
    spec_flags.add_argument("--seed", type=int, help="override the config's global seed")
    spec_flags.add_argument(
        "--total", type=int, help="benchmark-table-proportional total record count"
    )
    spec_flags.add_argument(
        "--out", help=f"output directory (default ${ENV_OUT_DIR} or emforge-out)"
    )

    p_build = sub.add_parser(
        "build", parents=[spec_flags], help="synthesize the corpus, views, and manifests"
    )
    p_build.add_argument("--workers", type=int, default=1, help="worker processes, N >= 1")
    p_build.set_defaults(func=cmd_build)

    p_render = sub.add_parser("render", parents=[spec_flags], help="build one corpus record")
    p_render.add_argument("--sample-id", required=True, help="the record to build, e.g. mr-00007")
    p_render.set_defaults(func=cmd_render)

    p_score = sub.add_parser("score", help="score a predictions file against a bench manifest")
    p_score.add_argument("--manifest", required=True)
    p_score.add_argument("--predictions", required=True)
    p_score.add_argument("--report", help="write the machine-readable report JSON here")
    p_score.add_argument("--csv", help="write the SNR-binned tables as CSV here")
    p_score.add_argument(
        "--per-record", help="write one JSON line per scored record here, in manifest order"
    )
    p_score.set_defaults(func=cmd_score)

    p_report = sub.add_parser("report", help="print a previously written report")
    p_report.add_argument("--report", required=True)
    p_report.add_argument("--csv", help="export the SNR-binned tables as CSV")
    p_report.set_defaults(func=cmd_report)

    p_budget = sub.add_parser("budget", help="print the token-budget schedule and fit verdicts")
    p_budget.add_argument("--stage", type=int, help="single stage to check (1-4)")
    p_budget.set_defaults(func=cmd_budget)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
