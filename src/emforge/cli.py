"""Command-line entry point: build, render, score, report, budget.

Exit codes: 0 on success, 2 for usage/config errors, 1 for runtime
failures. All randomness flows from the config seed (overridable with
--seed); the default output directory comes from $EMFORGE_OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import budget as budget_mod
from . import metrics
from .builders import modulated_payload
from .corpus import (
    ConfigError, CorpusSpec, build_corpus, build_summary, desk_scale_counts, read_manifest,
)
from .png import encode_png
from .signal import IqSignal
from .synth import (
    Cw,
    ModulationKind,
    RadarPulseSpec,
    apply_awgn,
    gen_noise,
    gen_radar_pulse_train,
)
from .views import RenderParams, VIEW_ORDER, render_view

ENV_OUT_DIR = "EMFORGE_OUT"

RENDER_KINDS = tuple(k.value for k in ModulationKind) + ("noise", "radar")


def _default_out() -> str:
    return os.environ.get(ENV_OUT_DIR, "emforge-out")


def _load_spec(args) -> CorpusSpec:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            spec = CorpusSpec.from_dict(json.load(fh))
    else:
        spec = CorpusSpec.default_desk()
    if args.total is not None:
        spec.counts = desk_scale_counts(args.total)
    if args.seed is not None:
        spec.global_seed = args.seed
    return spec


def cmd_build(args) -> int:
    spec = _load_spec(args)
    out_dir = args.out or _default_out()
    train, bench = build_corpus(spec, out_dir, workers=args.workers)
    summary = build_summary(train, bench)
    print(f"built {summary['total']} records -> {out_dir}")
    print(f"  train: {summary['train']}  bench: {summary['bench']}")
    for task, row in summary["per_task"].items():
        print(
            f"  {task:5s} OpenQA {row['OpenQA']:5d}  MCQA {row['MCQA']:5d}  "
            f"(bench {row['bench']})"
        )
    hist = summary["snr_histogram"]
    if hist:
        print("  SNR histogram (dB: count): " + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    return 0


def _render_signal(args) -> IqSignal:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    fs = 10e6
    if args.kind == "noise":
        return gen_noise(4096, fs, int(rng.integers(2**62)))
    if args.kind == "radar":
        sig = gen_radar_pulse_train(RadarPulseSpec(4.0, 20.0, 4, 10.0, Cw()), 409.6, fs)
    else:
        sig = modulated_payload(ModulationKind(args.kind), 4096, 8, 1e6, rng)
    if args.snr is not None:
        sig = apply_awgn(sig, args.snr, int(rng.integers(2**62)))
    return sig


def cmd_render(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("seed", f"must be nonnegative, got {args.seed}")
    if args.snr is not None and not math.isfinite(args.snr):
        raise ConfigError("snr", f"must be a finite number of dB, got {args.snr}")
    out_dir = args.out or _default_out()
    os.makedirs(out_dir, exist_ok=True)
    sig = _render_signal(args)
    params = RenderParams(constellation_stride=8 if args.kind not in ("noise", "radar") else 4)
    for kind in VIEW_ORDER:
        path = os.path.join(out_dir, f"{args.kind}_{kind.value}.png")
        with open(path, "wb") as fh:
            fh.write(encode_png(render_view(sig, kind, params)))
        print(path)
    return 0


def cmd_score(args) -> int:
    try:
        records = read_manifest(args.manifest)
    except ValueError as exc:
        raise ConfigError("manifest", str(exc)) from exc
    try:
        predictions = metrics.load_predictions(args.predictions)
    except ValueError as exc:
        raise ConfigError("predictions", str(exc)) from exc
    try:
        report = metrics.score_predictions(records, predictions)
    except ValueError as exc:
        raise ConfigError("predictions", str(exc)) from exc
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    print(metrics.format_report_table(report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.snr_tables_csv(report))
    if args.per_record:
        with open(args.per_record, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(json.dumps(o.to_row()) + "\n" for o in report.outcomes)
    return 0


def cmd_report(args) -> int:
    # Formatting reads nested fields, so a mistyped one surfaces there.
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = metrics.ScoreReport.from_dict(json.load(fh))
        table = metrics.format_report_table(report)
        csv_text = metrics.snr_tables_csv(report) if args.csv else None
    except (ValueError, TypeError, KeyError) as exc:
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

    p_build = sub.add_parser("build", help="synthesize the corpus, views, and manifests")
    p_build.add_argument("--config", help="JSON config file defining the corpus")
    p_build.add_argument("--seed", type=int, help="override the config's global seed")
    p_build.add_argument(
        "--total", type=int, help="benchmark-table-proportional total record count"
    )
    p_build.add_argument("--workers", type=int, default=1, help="worker processes, N >= 1")
    p_build.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or emforge-out)")
    p_build.set_defaults(func=cmd_build)

    p_render = sub.add_parser("render", help="render the four views of one synthetic signal")
    p_render.add_argument("--kind", required=True, choices=RENDER_KINDS)
    p_render.add_argument("--snr", type=float, help="optional AWGN level in dB")
    p_render.add_argument("--seed", type=int, help="payload/noise seed")
    p_render.add_argument("--out", help="output directory")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
