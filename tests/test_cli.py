"""End-to-end command-line behavior and exit codes."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import emforge
from emforge import metrics
from emforge.builders import SAMPLE_RATE_WINDOWS_HZ
from emforge.cli import _load_spec, _parser, main
from emforge.corpus import (
    TASK_ORDER,
    CorpusSpec,
    DEFAULT_SAMPLE_RATES,
    DEFAULT_SNR_GRIDS,
    build_corpus,
)
from emforge.manifest import TEXT_METRICS, ConfigError, ScoreReport, gold_prediction, read_manifest
from emforge.metrics import METEOR_BETA, METEOR_GAMMA

SMALL_CONFIG = {
    "counts": {
        "SSD": [4, 2],
        "SPE": [3, 3],
        "MR": [0, 6],
        "PR": [0, 6],
        "EI": [0, 6],
        "AJSD": [6, 0],
    },
    "snr_grids": {
        "SSD": [-10, 10, 20],
        "SPE": [-20, 0, 20],
        "MR": [-20, 0, 18],
        "PR": [-20, 0, 18],
    },
    "bench_fraction": 0.3,
}

# desk_scale_counts(846): the benchmark composition at one tenth.
TOTAL_846_COUNTS = {"SPE": (225, 75), "SSD": (170, 30), "MR": (0, 50), "PR": (0, 50),
                    "EI": (0, 46), "AJSD": (200, 0)}


# One well-formed bench record, written by hand.
MANIFEST_RECORD = {
    "sample_id": "mr-00000",
    "task": "MR",
    "format": "MCQA",
    "view_paths": [f"images/mr-00000_{v}.png" for v in "abcd"],
    "question": "Which modulation is this?",
    "options": ["BPSK", "QPSK", "8PSK", "QAM16", "Unable to answer"],
    "answer": "B",
    "tag": "answer",
    "snr_db": 0.0,
    "ground_truth": {"label": "QPSK"},
    "split": "bench",
    "content_hash": "0" * 64,
}

# An SPE OpenQA record whose ground truth lacks the value its scoring reads.
SPE_RECORD = {
    **MANIFEST_RECORD,
    "sample_id": "spe-00000",
    "task": "SPE",
    "format": "OpenQA",
    "question": "What is the pulse width?",
    "options": None,
    "answer": "<value>2.5</value>",
    "tag": "value",
    "ground_truth": {},
}

# SPE ground truths that scoring cannot use: each makes a manifest line malformed.
SPE_BAD_GROUND_TRUTHS = {
    "spe-bool-value-and-tolerance": {"value": True, "tolerance": True},
    "spe-nan-value": {"value": float("nan"), "tolerance": 1.0},
    "spe-infinite-tolerance": {"value": 2.5, "tolerance": float("inf")},
    "spe-negative-tolerance": {"value": 2.5, "tolerance": -1.0},
    "spe-int-value-past-float": {"value": 10**400, "tolerance": 1.0},
}

# The exact stdout of `emforge build` on SMALL_CONFIG, pinned across commits.
BUILD_STDOUT = """\
built 36 records -> {out}
  train: 14  bench: 22
  AJSD  OpenQA     6  MCQA     0  (bench 3)
  EI    OpenQA     0  MCQA     6  (bench 2)
  MR    OpenQA     0  MCQA     6  (bench 4)
  PR    OpenQA     0  MCQA     6  (bench 5)
  SPE   OpenQA     3  MCQA     3  (bench 3)
  SSD   OpenQA     4  MCQA     2  (bench 5)
  SNR histogram (dB: count): -20: 6, -10: 2, 0: 6, 10: 1, 18: 4, 20: 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def _tree_hash(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class TestBuild:
    def test_build_layout_and_rerun_stability(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "manifest_train.jsonl").exists()
        assert (out / "manifest_bench.jsonl").exists()
        records = read_manifest(out / "manifest_train.jsonl") + read_manifest(
            out / "manifest_bench.jsonl"
        )
        assert len(records) == 36
        assert len(list((out / "images").iterdir())) == 4 * 36
        for record in records:
            for rel in record.view_paths:
                assert (out / rel).exists()
        assert capsys.readouterr().out == BUILD_STDOUT.format(out=out)

        first = _tree_hash(out)
        out2 = tmp_path / "out2"
        assert main(["build", "--config", config_path, "--out", str(out2)]) == 0
        assert _tree_hash(out2) == first

    def test_smaller_rebuild_leaves_no_stale_views(self, tmp_path):
        out, images = tmp_path / "out", tmp_path / "out" / "images"
        configs = {}
        for n in (6, 3, 5):
            configs[n] = tmp_path / f"mr{n}.json"
            configs[n].write_text(json.dumps({"counts": {"MR": [0, n]}, "per_bin_min": 0}))
        assert main(["build", "--config", str(configs[6]), "--out", str(out)]) == 0
        # Files without the <task>-<digits>_<view>.png form are not the build's to remove.
        kept = ["notes.txt", "mr-00004_thumbnail.png", "xx-00004_constellation.png"]
        for name in kept:
            (images / name).write_text("kept")
        assert main(["build", "--config", str(configs[3]), "--out", str(out)]) == 0
        records = read_manifest(out / "manifest_train.jsonl") + read_manifest(
            out / "manifest_bench.jsonl"
        )
        listed = [Path(rel).name for r in records for rel in r.view_paths]
        assert len(records) == 3 and len(listed) == 12
        assert sorted(p.name for p in images.iterdir()) == sorted(listed + kept)
        # `emforge render` adds its record's views and removes nothing.
        assert main(["render", "--config", str(configs[5]), "--sample-id", "mr-00004",
                     "--out", str(out)]) == 0
        assert len(list(images.glob("mr-00004_*.png"))) == 5
        assert len(list(images.iterdir())) == 12 + 4 + len(kept)
        # A plan build writes no image and removes none.
        plan = CorpusSpec.from_dict({"counts": {"MR": [0, 1]}, "per_bin_min": 0})
        build_corpus(plan, out, render=False)
        assert len(list(images.iterdir())) == 12 + 4 + len(kept)

    def test_seed_flag_changes_content(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["build", "--config", config_path, "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["build", "--config", config_path, "--out", str(out_b), "--seed", "2"]) == 0
        text_a = (out_a / "manifest_bench.jsonl").read_text()
        text_b = (out_b / "manifest_bench.jsonl").read_text()
        assert text_a != text_b

    def test_invalid_snr_range_exit_2(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG, snr_grids={"MR": [-40, 0]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["build", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "snr_grids" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"stft_window": 100}, "stft_window"),
            ({"image_size": 8}, "image_size"),
            ({"counts": {"MR": ["a", 3]}}, "counts"),
            ({"counts": {"MR": [0, 2]}, "stft_window": 2048}, "stft_window"),
            ({"counts": {"MR": [0, 2, 5]}}, "counts"),
            ({"counts": {"MR": [0, 40]}, "sample_rates": {"MR": float("nan")}}, "sample_rates"),
            ({"counts": {"MR": [0, 40]}, "sample_rates": {"MR": float("inf")}}, "sample_rates"),
            ({"counts": {"MR": [0, 40]}, "snr_grids": {"MR": [-20, float("nan"), 0]}}, "snr_grids"),
            # 10 records cannot fill the 20 default MR bins; 40 give each bin 2, not 3.
            ({"counts": {"MR": [0, 10]}, "snr_grids": DEFAULT_SNR_GRIDS}, "per_bin_min"),
            ({"counts": {"MR": [0, 40]}, "snr_grids": DEFAULT_SNR_GRIDS, "per_bin_min": 3},
             "per_bin_min"),
            # Keys that start with "--" are command-line flags, not config fields.
            ({"--workers": 0}, "workers"),
            ({"--workers": -3}, "workers"),
            # Rates a built task's generators cannot draw at: below Nyquist for
            # PR's 2 MHz symbols, a noise-band jammer outside the band, empty
            # SPE pulses, and pulse trains longer than the record.
            ({"sample_rates": {"PR": 1e6}}, "sample_rates"),
            ({"sample_rates": {"AJSD": 3e6}}, "sample_rates"),
            ({"sample_rates": {"AJSD": 8e6}}, "sample_rates"),
            ({"sample_rates": {"SPE": 1e3}}, "sample_rates"),
            ({"sample_rates": {"SPE": 20e6}}, "sample_rates"),
            ({"sample_rates": {"SSD": 40e6}}, "sample_rates"),
            # Device 16 would need a 10.1 degree phase skew.
            ({"ei_device_count": 17}, "ei_device_count"),
            # Rates at which a labelled component wraps past the band edge: a
            # jammer 5 MHz off with its sweep, the 4 MHz SSD and 2 MHz SPE LFM
            # fills, and PR's bluetooth-like hops to 2 MHz plus 1 MHz symbols.
            ({"sample_rates": {"AJSD": 9.5e6}}, "sample_rates"),
            ({"sample_rates": {"SSD": 3e6}}, "sample_rates"),
            ({"sample_rates": {"SPE": 1.5e6}}, "sample_rates"),
            ({"sample_rates": {"PR": 5e6}}, "sample_rates"),
            # A field takes only JSON values of its declared type, never a bool:
            # nothing is truncated, parsed from a string or turned into one.
            ({"counts": {"MR": [0, 40.9]}}, "counts"),
            ({"image_size": 384.7}, "image_size"),
            ({"ei_device_count": 12.5}, "ei_device_count"),
            ({"global_seed": True}, "global_seed"),
            ({"counts": {"MR": [True, 40]}}, "counts"),
            ({"bench_fraction": "0.25"}, "bench_fraction"),
            ({"sample_rates": {"MR": "1e6"}}, "sample_rates"),
            ({"split_salt": 7}, "split_salt"),
            # A rate keyed by an unknown task would be ignored and still written out.
            ({"counts": {"MR": [0, 60]}, "snr_grids": {"MR": [0]}, "sample_rates": {"mr": 2e6}},
             "sample_rates"),
            # Without MR the STFT window must fit a 4,096-sample record.
            ({"counts": {"SSD": [6, 3]}, "stft_window": 8192, "stft_hop": 512}, "stft_window"),
        ],
    )
    def test_config_error_exit_2_before_writing(self, tmp_path, capsys, overrides, field):
        flags = [str(a) for k, v in overrides.items() if k.startswith("--") for a in (k, v)]
        config = {k: v for k, v in overrides.items() if not k.startswith("--")}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, **config)))
        out = tmp_path / "o"
        assert main(["build", "--config", str(path), "--out", str(out), *flags]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            # The device count bounds only an EI build.
            {"counts": {"MR": [0, 22]}, "ei_device_count": 2},
            # The STFT window must fit the shortest record built, here 4,096 samples.
            {"counts": {"SSD": [6, 3]}, "stft_window": 2048, "stft_hop": 512},
        ],
        ids=["no-EI-2-devices", "SSD-only-window-2048"],
    )
    def test_build_checks_only_the_tasks_it_builds(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "per_bin_min": 0, "image_size": 32}))
        out = tmp_path / "o"
        assert main(["build", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "manifest_bench.jsonl").exists()

    @pytest.mark.parametrize("body", ["[]", "5", "null", "{", '"abc"'])
    def test_config_not_a_json_object_exit_2(self, tmp_path, capsys, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        out = tmp_path / "o"
        assert main(["build", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "use_config,total,expected",
        [
            (False, None, {"counts": {"SPE": (75, 25), "SSD": (85, 15), "MR": (0, 100),
                                      "PR": (0, 100), "EI": (0, 100), "AJSD": (100, 0)}}),
            (False, 846, {"counts": TOTAL_846_COUNTS}),
            (True, None, {"global_seed": 7, "bench_fraction": 0.25, "counts": {"MR": (0, 60)}}),
            (True, 846, {"global_seed": 7, "bench_fraction": 0.25, "counts": TOTAL_846_COUNTS}),
        ],
        ids=["defaults", "total", "config", "config-and-total"],
    )
    def test_spec_from_config_and_total(self, tmp_path, use_config, total, expected):
        # --total replaces a config's counts and keeps the rest; --seed wins over both.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"global_seed": 7, "counts": {"MR": [0, 60]},
                                    "bench_fraction": 0.25}))
        config = str(path) if use_config else None
        spec = _load_spec(argparse.Namespace(config=config, total=total, seed=None))
        assert spec.to_dict() == CorpusSpec(**expected).to_dict()
        spec = _load_spec(argparse.Namespace(config=config, total=total, seed=11))
        assert spec.to_dict() == CorpusSpec(**{**expected, "global_seed": 11}).to_dict()

    def test_total_below_60_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["build", "--total", "10", "--out", str(out)]) == 2
        assert "total" in capsys.readouterr().err
        assert not out.exists()

    def test_python_dash_m_entry_point(self):
        src = os.path.dirname(os.path.dirname(emforge.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "emforge", "budget", "--stage", "3"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "7299" in result.stdout

    def test_env_var_default_out(self, tmp_path, config_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("EMFORGE_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["build", "--config", config_path]) == 0
        assert (target / "manifest_train.jsonl").exists()

    def test_empty_env_var_is_unset(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("EMFORGE_OUT", "")
        monkeypatch.chdir(tmp_path)
        assert main(["build", "--config", config_path]) == 0
        assert (tmp_path / "emforge-out" / "manifest_train.jsonl").exists()
        assert not (tmp_path / "manifest_train.jsonl").exists()
        assert not (tmp_path / "images").exists()


class TestScore:
    def test_importing_the_cli_loads_no_openssl(self):
        # Only building hashes, so score and report never load hashlib (OpenSSL).
        src = os.path.dirname(os.path.dirname(emforge.__file__))
        code = "import sys, emforge.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        # One corpus for the class: its tests only read it and write under
        # their own tmp_path.
        root = tmp_path_factory.mktemp("score")
        config = root / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["build", "--config", str(config), "--out", str(root / "corpus")]) == 0
        return root / "corpus"

    def _write_preds(self, path, records, text_fn):
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps({"sample_id": record.sample_id, "text": text_fn(record)}))
                fh.write("\n")

    def test_gold_predictions_score_100(self, built, tmp_path, capsys):
        manifest = built / "manifest_bench.jsonl"
        records = read_manifest(manifest)
        preds = tmp_path / "gold.jsonl"
        self._write_preds(preds, records, gold_prediction)
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "snr.csv"
        code = main([
            "score", "--manifest", str(manifest), "--predictions", str(preds),
            "--report", str(report_path), "--csv", str(csv_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        for task, stats in report["per_task"].items():
            for key, value in stats.items():
                if key.endswith("accuracy_pct"):
                    assert value == 100.0, (task, key)
        if report["ajsd"]:
            assert report["ajsd"]["composite"] >= 99.9
        assert report["unparseable"] == 0
        assert csv_path.read_text().startswith("task,snr_db,count,accuracy_pct")

    def test_empty_predictions_score_zero(self, built, tmp_path):
        manifest = built / "manifest_bench.jsonl"
        records = read_manifest(manifest)
        preds = tmp_path / "empty.jsonl"
        preds.write_text("")
        report_path = tmp_path / "report.json"
        code = main([
            "score", "--manifest", str(manifest), "--predictions", str(preds),
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        for stats in report["per_task"].values():
            for key, value in stats.items():
                if key.endswith("accuracy_pct"):
                    assert value == 0.0
        assert report["unparseable"] == report["total"]

    def test_unknown_sample_id_exit_2(self, built, tmp_path, capsys):
        manifest = built / "manifest_bench.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"sample_id": "ghost-00000", "text": "<answer>A</answer>"}\n')
        code = main(["score", "--manifest", str(manifest), "--predictions", str(preds)])
        assert code == 2
        assert "ghost-00000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{{"sample_id": "{sid}", "text": 5}}',
            '{{"sample_id": "{sid}", "text": null}}',
            '{{"sample_id": 7, "text": "<answer>A</answer>"}}',
            '{{"sample_id": "{sid}"}}',
            '["{sid}", "<answer>A</answer>"]',
            "not json",
        ],
        ids=["text-int", "text-null", "sample-id-int", "text-missing", "not-object", "not-json"],
    )
    def test_malformed_prediction_line_exit_2(self, built, tmp_path, capsys, line):
        manifest = built / "manifest_bench.jsonl"
        sample_id = read_manifest(manifest)[0].sample_id
        preds = tmp_path / "preds.jsonl"
        preds.write_text(line.format(sid=sample_id) + "\n")
        code = main(["score", "--manifest", str(manifest), "--predictions", str(preds)])
        assert code == 2
        assert "preds.jsonl:1: malformed prediction line" in capsys.readouterr().err

    def test_single_ajsd_record_reports_null_cider(self, tmp_path, capsys):
        config = tmp_path / "ajsd.json"
        config.write_text(json.dumps({"counts": {"AJSD": [6, 0]}}))
        out = tmp_path / "corpus"
        assert main(["build", "--config", str(config), "--out", str(out)]) == 0
        manifest = out / "manifest_bench.jsonl"
        records = read_manifest(manifest)
        assert len(records) == 1
        preds = tmp_path / "gold.jsonl"
        self._write_preds(preds, records, gold_prediction)
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "snr.csv"
        capsys.readouterr()
        code = main([
            "score", "--manifest", str(manifest), "--predictions", str(preds),
            "--report", str(report_path), "--csv", str(csv_path),
        ])
        assert code == 0
        table = capsys.readouterr().out
        ajsd = json.loads(report_path.read_text())["ajsd"]
        assert ajsd["count"] == 1
        assert ajsd["cider"] is None and ajsd["composite"] is None
        assert ajsd["bleu4"] == ajsd["rouge_l"] == 1.0
        assert "n/a" in table and "cider n/a" in table
        assert main(["report", "--report", str(report_path)]) == 0
        assert capsys.readouterr().out == table
        assert csv_path.read_text() == "task,snr_db,count,accuracy_pct\n"

    def test_hand_written_manifest_scores(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(MANIFEST_RECORD) + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"sample_id": "mr-00000", "text": "<answer>B</answer>"}\n')
        assert main(["score", "--manifest", str(manifest), "--predictions", str(preds)]) == 0
        assert "100.00%" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "line,message",
        [
            ("{not json", "malformed manifest line (Expecting property name"),
            ('{"sample_id": "x"}', "malformed manifest line (missing fields: task, format,"),
            (json.dumps({**MANIFEST_RECORD, "task": "FOO"}), "unknown task 'FOO'"),
            (json.dumps({**MANIFEST_RECORD, "format": "Essay"}), "unknown format 'Essay'"),
            (json.dumps(MANIFEST_RECORD), "duplicate sample_id 'mr-00000'"),
            (json.dumps(SPE_RECORD), "SPE ground_truth needs a numeric 'value' and 'tolerance'"),
            *[
                (json.dumps({**SPE_RECORD, "ground_truth": ground_truth}),
                 "SPE ground_truth needs a numeric 'value' and 'tolerance', both finite")
                for ground_truth in SPE_BAD_GROUND_TRUTHS.values()
            ],
            (json.dumps({**MANIFEST_RECORD, "snr_db": "high"}), "snr_db must be a finite number"),
            (json.dumps({**MANIFEST_RECORD, "snr_db": 10**400}), "snr_db must be a finite number"),
            (json.dumps({**MANIFEST_RECORD, "snr_db": float("nan")}),
             "snr_db must be a finite number"),
            (json.dumps({**MANIFEST_RECORD, "view_paths": "abcd"}),
             "view_paths must list exactly 4 view paths"),
            (json.dumps({**MANIFEST_RECORD, "view_paths": ["a", "b", "c", 4]}),
             "view_paths must list exactly 4 view paths"),
            (json.dumps({**MANIFEST_RECORD, "options": "ABCDE"}),
             "options must be null or a list of strings"),
            (json.dumps({**MANIFEST_RECORD, "sample_id": 7}), "sample_id must be a string"),
            (json.dumps({**MANIFEST_RECORD, "question": ["Which?"]}), "question must be a string"),
            (json.dumps({**MANIFEST_RECORD, "answer": 2}), "answer must be a string"),
            (json.dumps({**MANIFEST_RECORD, "content_hash": None}),
             "content_hash must be a string"),
            (json.dumps({**MANIFEST_RECORD, "tag": "mode"}), "MR MCQA records use the answer tag"),
            (json.dumps({**SPE_RECORD, "tag": "answer", "answer": "<answer>2.5</answer>",
                         "ground_truth": {"value": 2.5, "tolerance": 1.0}}),
             "SPE OpenQA records use the value tag"),
        ],
        ids=[
            "bad-json", "missing-fields", "unknown-task", "unknown-format", "duplicate-id",
            "spe-no-value", *SPE_BAD_GROUND_TRUTHS, "snr-string", "snr-int-past-float", "snr-nan",
            "view-paths-string", "view-path-number",
            "options-string", "sample-id-number", "question-list", "answer-number",
            "content-hash-null", "mcqa-mode-tag", "openqa-answer-tag",
        ],
    )
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, line, message):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(MANIFEST_RECORD) + "\n" + line + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        report = tmp_path / "report.json"
        code = main([
            "score", "--manifest", str(manifest), "--predictions", str(preds),
            "--report", str(report),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: manifest: " in err and "manifest.jsonl:2: " in err
        assert message in err
        assert not report.exists()

    def test_per_record_rows_agree_with_report(self, built, tmp_path, capsys):
        manifest = built / "manifest_train.jsonl"
        records = read_manifest(manifest)
        preds = tmp_path / "mixed.jsonl"
        with open(preds, "w") as fh:
            for i, r in enumerate(records):
                if i % 3 == 2:
                    continue
                if i % 3 == 0:
                    text = gold_prediction(r)
                elif r.task == "AJSD":
                    text = " ".join(r.answer.split()[::2])
                else:
                    text = "<answer>E</answer>"
                fh.write(json.dumps({"sample_id": r.sample_id, "text": text}) + "\n")
        outputs = {}
        for extra in ([], ["--per-record", str(tmp_path / "rows.jsonl")]):
            tag = "with" if extra else "without"
            capsys.readouterr()
            code = main([
                "score", "--manifest", str(manifest), "--predictions", str(preds),
                "--report", str(tmp_path / f"report-{tag}.json"),
                "--csv", str(tmp_path / f"snr-{tag}.csv"),
            ] + extra)
            assert code == 0
            outputs[tag] = (
                capsys.readouterr().out,
                (tmp_path / f"report-{tag}.json").read_bytes(),
                (tmp_path / f"snr-{tag}.csv").read_bytes(),
            )
        assert outputs["with"] == outputs["without"]

        report = json.loads(outputs["with"][1])
        rows = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
        assert [row["sample_id"] for row in rows] == [r.sample_id for r in records]
        assert _folded(rows) == report
        assert report["unparseable"] > 0
        ajsd = [row for row in rows if row["task"] == "AJSD"]
        assert len(ajsd) >= 2
        assert all("correct" not in row for row in ajsd)
        assert all(set(row) == {"sample_id", "task", "format", "snr_db", "parseable", "correct"}
                   for row in rows if row["task"] != "AJSD")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{", "Expecting property name"),
            ('{"per_task": 5}', "field 'per_task' cannot be int"),
            ("[]", "a report is a JSON object, not list"),
            ('{"per_task": {}, "ajsd": null, "snr_tables": {}, "unparseable": true, '
             '"total": false}', "field 'unparseable' cannot be bool"),
        ],
        ids=["bad-json", "per-task-number", "list", "count-bool"],
    )
    def test_malformed_report_exit_2(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["report", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert "error: report: " in captured.err and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("per_task", {"MR": {"mcqa_accuracy_pct": True, "mcqa_count": True}},
             "field 'per_task.MR.mcqa_accuracy_pct' cannot be bool"),
            ("per_task", {"MR": []}, "field 'per_task.MR' cannot be list"),
            ("per_task", {"MR": {"openqa_count": 3}},
             "field 'per_task.MR' lacks 'openqa_accuracy_pct'"),
            ("per_task", {"MR": {"mcqa_accuracy_pct": 10**400, "mcqa_count": 2}},
             "int too large to convert to float"),
            ("ajsd", {"bleu4": 1.0, "rouge_l": 1.0, "meteor": 0.5, "cider": None,
                      "composite": None, "count": True}, "field 'ajsd.count' cannot be bool"),
            ("ajsd", {}, "field 'ajsd' lacks 'bleu4'"),
            ("snr_tables", {"MR": [{"snr_db": 0.0, "count": False, "accuracy_pct": None}]},
             "field 'snr_tables.MR[0].count' cannot be bool"),
            ("snr_tables", {"MR": [{"snr_db": None, "count": 2, "accuracy_pct": 50.0}]},
             "field 'snr_tables.MR[0].snr_db' cannot be NoneType"),
            ("snr_tables", {"MR": {}}, "field 'snr_tables.MR' cannot be dict"),
        ],
        ids=["cell-bools", "cell-list", "cell-count-only", "cell-huge-int", "ajsd-count-bool",
             "ajsd-empty", "snr-count-bool", "snr-db-null", "snr-rows-object"],
    )
    def test_report_of_another_shape_exit_2(self, tmp_path, capsys, name, value, message):
        report = tmp_path / "report.json"
        csv_path = tmp_path / "snr.csv"
        report.write_text(json.dumps(ScoreReport().to_dict() | {name: value}))
        assert main(["report", "--report", str(report), "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert "error: report: " in captured.err and message in captured.err
        assert captured.out == ""
        assert not csv_path.exists()

    def test_report_replay(self, built, tmp_path, capsys):
        manifest = built / "manifest_bench.jsonl"
        records = read_manifest(manifest)
        preds = tmp_path / "gold.jsonl"
        self._write_preds(preds, records, gold_prediction)
        report_path = tmp_path / "report.json"
        main(["score", "--manifest", str(manifest), "--predictions", str(preds),
              "--report", str(report_path)])
        capsys.readouterr()
        assert main(["report", "--report", str(report_path)]) == 0
        assert "unparseable predictions" in capsys.readouterr().out


def test_score_outputs_do_not_depend_on_the_forked_split(tmp_path, monkeypatch, capsys):
    # A plan-built train manifest with enough AJSD free text for pass 2 to fork.
    from test_golden import mixed_predictions

    build_corpus(CorpusSpec.from_total(846, global_seed=5), tmp_path / "corpus", render=False)
    manifest = tmp_path / "corpus" / "manifest_train.jsonl"
    records = read_manifest(manifest)
    preds = tmp_path / "preds.jsonl"
    with open(preds, "w") as fh:
        for sample_id, text in mixed_predictions(records, seed=5).items():
            fh.write(json.dumps({"sample_id": sample_id, "text": text}) + "\n")
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    outputs = {}
    for mode in ("forked", "in-process"):
        with monkeypatch.context() as m:
            if mode == "forked":
                m.setattr(os, "fork", counting_fork)
            else:
                m.delattr(os, "fork")
            capsys.readouterr()
            argv = ["score", "--manifest", manifest, "--predictions", preds]
            for flag in ("report", "csv", "per-record"):
                argv += [f"--{flag}", tmp_path / f"{mode}.{flag}"]
            assert main([str(arg) for arg in argv]) == 0
        outputs[mode] = [capsys.readouterr().out] + [
            (tmp_path / f"{mode}.{flag}").read_bytes() for flag in ("report", "csv", "per-record")
        ]
    assert forks == [os.getpid()]
    assert outputs["forked"] == outputs["in-process"]
    assert b'"bleu4"' in outputs["forked"][3]


def _input_argv(tmp_path, flag: str, bad) -> list[str]:
    """argv of a command that reads `bad` as its `flag` input, its other inputs
    well formed, writing to tmp_path/o."""
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(MANIFEST_RECORD) + "\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("")
    out = tmp_path / "o"
    argv = {
        "config": ["build", "--config", bad, "--out", out],
        "manifest": ["score", "--manifest", bad, "--predictions", preds, "--report", out],
        "predictions": ["score", "--manifest", manifest, "--predictions", bad,
                        "--report", out],
        "report": ["report", "--report", bad, "--csv", out],
    }[flag]
    return [str(arg) for arg in argv]


class TestUnreadableInput:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("flag", ["config", "manifest", "predictions", "report"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, flag, kind):
        # An input path that cannot be opened is a usage error naming its flag.
        bad = tmp_path / kind
        if kind == "directory":
            bad.mkdir()
        assert main(_input_argv(tmp_path, flag, bad)) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not (tmp_path / "o").exists()


class TestMalformedInput:
    @pytest.mark.parametrize("flag", ["config", "manifest", "predictions", "report"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, flag):
        # JSON nested past the recursion limit is malformed input, not a runtime failure.
        bad = tmp_path / f"bad-{flag}"
        bad.write_text("[" * 200_000 + "\n")
        assert main(_input_argv(tmp_path, flag, bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "recursion" in err
        assert {
            "config": f"{bad}: malformed JSON",
            "manifest": f"{bad}:1: malformed manifest line",
            "predictions": f"{bad}:1: malformed prediction line",
            "report": f"{bad}: malformed report",
        }[flag] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["manifest", "predictions"])
    def test_invalid_utf8_line_is_named(self, tmp_path, capsys, flag):
        # Line 1 is well formed and not ASCII; line 2 holds a byte UTF-8 never uses.
        good = {
            "manifest": {**MANIFEST_RECORD, "question": "Quelle modulation ? \u00b5s \u2713"},
            "predictions": {"sample_id": "mr-00000", "text": "<answer>B</answer> \u2713"},
        }[flag]
        bad = tmp_path / f"bad-{flag}"
        bad.write_bytes(json.dumps(good, ensure_ascii=False).encode() + b'\n{"sample_id": "\xff"}\n')
        assert main(_input_argv(tmp_path, flag, bad)) == 2
        kind = flag.removesuffix("s")
        assert (f"error: {flag}: {bad}:2: malformed {kind} line ('utf-8' codec can't decode "
                "byte 0xff in position 15") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestUnwritableOutput:
    @staticmethod
    def _bad_path(tmp_path, kind):
        if kind == "directory":
            (tmp_path / "adir").mkdir()
            return tmp_path / "adir"
        return tmp_path / "nodir" / "out.txt"

    @pytest.mark.parametrize("kind", ["no-parent", "directory"])
    @pytest.mark.parametrize("flag", ["report", "csv", "per-record"])
    def test_score_exit_2_before_any_output(self, tmp_path, capsys, flag, kind):
        # One bad output path stops `score` before it writes a file or prints the table.
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(MANIFEST_RECORD) + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"sample_id": "mr-00000", "text": "<answer>B</answer>"}\n')
        outputs = {name: tmp_path / f"r.{name}" for name in ("report", "csv", "per-record")}
        outputs[flag] = self._bad_path(tmp_path, kind)
        argv = ["score", "--manifest", manifest, "--predictions", preds]
        for name, path in outputs.items():
            argv += [f"--{name}", path]
        assert main([str(arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: ") and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
            "manifest.jsonl", "preds.jsonl"
        ]

    @pytest.mark.parametrize("kind", ["no-parent", "directory"])
    def test_report_csv_exit_2_before_printing(self, tmp_path, capsys, kind):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(ScoreReport().to_dict()))
        bad = self._bad_path(tmp_path, kind)
        assert main(["report", "--report", str(report), "--csv", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: csv: ") and captured.out == ""

    @pytest.mark.parametrize("command", [
        ["build", "--total", "1000"], ["render", "--sample-id", "mr-00000"],
    ], ids=["build", "render"])
    @pytest.mark.parametrize("under", ["", "sub/dir"], ids=["file", "under-file"])
    def test_out_naming_a_file_exit_2_before_writing(self, tmp_path, capsys, command, under):
        # `--out` must be, or be creatable as, a directory.
        blocker = tmp_path / "F"
        blocker.write_text("keep")
        out = os.path.join(blocker, under) if under else str(blocker)
        assert main([*command, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: out: {out}: " + (
            f"{blocker} is not a directory\n" if under else "is not a directory\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["F"]
        assert blocker.read_text() == "keep"


def _readme_commands():
    """The arguments after `emforge` of every command line in the README's sh blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"\w+=\S*", words[0]):  # environment assignments
                words.pop(0)
            for program in (["emforge"], ["python", "-m", "emforge"]):
                if words[: len(program)] == program:
                    commands.append(words[len(program):])
    return commands


class TestReadmeCommands:
    def test_every_readme_command_line_parses(self):
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == {"build", "render", "score", "report", "budget"}
        parser = _parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"the README's `emforge {shlex.join(argv)}` does not parse")


# The exact stdout of `emforge budget`, pinned across commits.
BUDGET_TABLE = """\
stage   grid views tok/view  layout  max_seq              verdict
    1    1x1     1      729     729     4096     fits, slack 3111
    2    2x2     5      729    3649     4096      fits, slack 191
    3    6x6    10      729    7299     8192      fits, slack 637
    4    6x6    10      729    7299     8192      fits, slack 637
"""
BUDGET_STAGE_LINES = {
    1: "stage 1: 1 view(s) x 729 tokens + 0 boundaries = 729 layout tokens; "
    "with 256 prompt tokens fits in 4096 (slack 3111)",
    2: "stage 2: 5 view(s) x 729 tokens + 4 boundaries = 3649 layout tokens; "
    "with 256 prompt tokens fits in 4096 (slack 191)",
    3: "stage 3: 10 view(s) x 729 tokens + 9 boundaries = 7299 layout tokens; "
    "with 256 prompt tokens fits in 8192 (slack 637)",
    4: "stage 4: 10 view(s) x 729 tokens + 9 boundaries = 7299 layout tokens; "
    "with 256 prompt tokens fits in 8192 (slack 637)",
}


class TestBudgetCommand:
    def test_all_stages_table(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        assert out.count("fits") == 4
        assert "7299" in out
        assert out == BUDGET_TABLE

    def test_single_stage(self, capsys):
        assert main(["budget", "--stage", "3"]) == 0
        assert "7299" in capsys.readouterr().out
        for stage, line in BUDGET_STAGE_LINES.items():
            assert main(["budget", "--stage", str(stage)]) == 0
            assert capsys.readouterr().out == line + "\n"

    def test_invalid_stage_exit_2(self, capsys):
        assert main(["budget", "--stage", "9"]) == 2
        assert "stage" in capsys.readouterr().err


def _manifest_rows(corpus):
    return {
        row["sample_id"]: row
        for name in ("manifest_train.jsonl", "manifest_bench.jsonl")
        for row in map(json.loads, (corpus / name).read_text().splitlines())
    }


class TestRenderCommand:
    @pytest.fixture(scope="class")
    def small_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("small")
        config = root / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["build", "--config", str(config), "--out", str(root / "corpus")]) == 0
        return ["--config", str(config)], root / "corpus"

    @staticmethod
    def _assert_render_matches_build(capsys, spec_flags, corpus, sample_id, out):
        # The four views are the corpus's bytes, and the printed line is its
        # manifest line without `split`.
        capsys.readouterr()
        assert main(["render", *spec_flags, "--sample-id", sample_id, "--out", str(out)]) == 0
        row = _manifest_rows(corpus)[sample_id]
        del row["split"]
        assert capsys.readouterr().out.splitlines() == [
            *(os.path.join(out, rel) for rel in row["view_paths"]),
            json.dumps(row, sort_keys=True, ensure_ascii=False),
        ]
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == sorted(
            ["images", *row["view_paths"]]
        )
        for rel in row["view_paths"]:
            assert (out / rel).read_bytes() == (corpus / rel).read_bytes()

    # One record of each task; EI's device draw depends on the task's total.
    @pytest.mark.parametrize(
        "sample_id", ["ssd-00005", "spe-00001", "mr-00003", "pr-00005", "ei-00004", "ajsd-00002"]
    )
    def test_renders_the_corpus_record(self, tmp_path, capsys, small_corpus, sample_id):
        spec_flags, corpus = small_corpus
        self._assert_render_matches_build(capsys, spec_flags, corpus, sample_id, tmp_path / "v")

    def test_renders_four_views(self, tmp_path, capsys):
        # --total and a negative --seed define the corpus for render as for build;
        # SMALL_CONFIG's three-bin grids let 60 records cover every bin.
        config = tmp_path / "grids.json"
        config.write_text(json.dumps({"snr_grids": SMALL_CONFIG["snr_grids"]}))
        spec_flags = ["--config", str(config), "--total", "60", "--seed", "-3"]
        corpus = tmp_path / "corpus"
        assert main(["build", *spec_flags, "--out", str(corpus)]) == 0
        self._assert_render_matches_build(capsys, spec_flags, corpus, "ei-00002", tmp_path / "v")

    @pytest.mark.parametrize("sample_id", [
        "mr-0003", "mr-000003", "mr_00003", "MR-00003", pytest.param("", id="empty"),
        "xx-00000", "mr-00006", "pr-00000", "ssd-00000",
    ])
    def test_unknown_sample_id_exit_2_before_writing(self, tmp_path, capsys, sample_id):
        # A malformed id, an unknown task, an index past the task's count, and
        # tasks of count 0 and of no count name no record.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(SMALL_CONFIG, counts={"MR": [0, 6], "PR": [0, 0]})))
        out = tmp_path / "views"
        argv = ["render", "--config", str(config), "--sample-id", sample_id, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: sample-id: ")
        assert not out.exists()

    def test_missing_manifest_exit_2(self, tmp_path):
        code = main(["score", "--manifest", str(tmp_path / "nope.jsonl"),
                     "--predictions", str(tmp_path / "nope2.jsonl")])
        assert code == 2


# One record of every (task, format) cell at the smallest useful image size.
TINY_CONFIG = {
    "counts": {
        "SSD": [1, 1],
        "SPE": [1, 0],
        "MR": [0, 1],
        "PR": [0, 1],
        "EI": [0, 1],
        "AJSD": [1, 0],
    },
    "snr_grids": {"SSD": [20], "SPE": [20], "MR": [18], "PR": [18]},
    "sample_rates": dict(DEFAULT_SAMPLE_RATES),
    "image_size": 16,
}
_JSON_JUNK = [True, False, None, "16", 1.5, -1, [], {}, [1, 2], {"SSD": 1}]


def _rates_about_the_window(task):
    """Each edge of the task's window, the next float either side of it, and
    rates no window takes."""
    rates = {0.0, -1e6, math.nan, math.inf, -math.inf}
    for edge in SAMPLE_RATE_WINDOWS_HZ[task]:
        rates |= {edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)}
    return sorted(rates, key=repr)


# (path, value) pairs; the empty path replaces the whole config.
CONFIG_MUTATIONS = [
    ((), []),
    ((), "config"),
    (("bogus",), 1),
    (("counts", "XYZ"), [1, 0]),
    (("snr_grids", "EI"), [0]),
    (("sample_rates", "mr"), 1e6),
    *(((name,), junk) for name in CorpusSpec.__dataclass_fields__ for junk in _JSON_JUNK),
    *(
        (path, junk)
        for task in TASK_ORDER
        for path in [("counts", task), ("counts", task, 0), ("sample_rates", task)]
        for junk in _JSON_JUNK
    ),
    *((("snr_grids", "SSD"), junk) for junk in _JSON_JUNK),
    *((("snr_grids", "SSD", 0), junk) for junk in _JSON_JUNK),
    *((("counts", task, i), -1) for task in TASK_ORDER for i in (0, 1)),
    (("counts", "AJSD", 1), 1),
    *((("snr_grids", "SPE"), grid) for grid in
      ([], [20, -20], [-30], [30], [math.nan], [math.inf], [-20, 0, 20])),
    *((("sample_rates", task), rate)
      for task in TASK_ORDER for rate in _rates_about_the_window(task)),
    *((("stft_window",), w) for w in (0, 1, 2, 3, 48, 64, 100, 1024, 2048)),
    *((("stft_hop",), h) for h in (0, 1, 3, 16, 17, 100, 256, 257)),
    *((("image_size",), size) for size in (-1, 0, 15, 16, 17, 64)),
    *((("ei_device_count",), count) for count in (3, 4, 16, 17)),
    *((("bench_fraction",), f) for f in (0, 1, 0.5, -0.5, math.nan, math.inf)),
    *((("per_bin_min",), m) for m in (-1, 0, 2)),
    *((("split_salt",), salt) for salt in ("", "x")),
    *((("global_seed",), seed) for seed in (-1, 0, 2**64)),
]


def _mutated(config, mutations):
    """`config` with each (path, value) set in turn. A path that no longer
    leads anywhere, because an earlier mutation replaced what it goes
    through, is skipped."""
    config = copy.deepcopy(config)
    for path, value in mutations:
        if not path:
            config = copy.deepcopy(value)
            continue
        try:
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
        except (TypeError, KeyError, IndexError):
            pass
    return config


def _every_single_mutation(test):
    """Run each mutation on its own as an explicit example, besides the drawn lists."""
    for mutation in CONFIG_MUTATIONS:
        test = example([mutation])(test)
    return test


class TestConfigMutations:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @_every_single_mutation
    @given(st.lists(st.sampled_from(CONFIG_MUTATIONS), min_size=1, max_size=3))
    def test_build_succeeds_or_exits_2_before_writing(self, tmp_path_factory, mutations):
        # A config mistake exits 2 before --out exists; a runtime failure (1)
        # of a config that validates is a window or check missing from src.
        root = tmp_path_factory.mktemp("mutated")
        config, out = root / "config.json", root / "out"
        config.write_text(json.dumps(_mutated(TINY_CONFIG, mutations)))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["build", "--config", str(config), "--out", str(out)])
        try:
            assert code in (0, 2), stderr.getvalue()
            if code == 2:
                assert not out.exists()
            else:
                assert (out / "manifest_bench.jsonl").exists()
        finally:
            shutil.rmtree(root)


def _grid_subset(task):
    return st.lists(st.sampled_from(DEFAULT_SNR_GRIDS[task]), min_size=1, max_size=3,
                    unique=True).map(sorted)


# Small specs over every task cell; a drawn spec that does not validate is rejected.
PLAN_SPECS = st.builds(
    CorpusSpec,
    global_seed=st.integers(-2**31, 2**31),
    counts=st.fixed_dictionaries({
        task: st.tuples(st.integers(0, 4), st.just(0) if task == "AJSD" else st.integers(0, 4))
        for task in TASK_ORDER
    }),
    snr_grids=st.fixed_dictionaries({task: _grid_subset(task) for task in DEFAULT_SNR_GRIDS}),
    bench_fraction=st.floats(0.05, 0.95),
    split_salt=st.text(min_size=1, max_size=6),
    per_bin_min=st.integers(0, 1),
    ei_device_count=st.integers(4, 16),
)


def _folded(rows) -> dict:
    """The report JSON that `--per-record` rows fold to."""
    tagged = [row for row in rows if row["task"] != "AJSD"]
    per_task, snr_tables = {}, {}
    for task in sorted({row["task"] for row in tagged}):
        stats = per_task.setdefault(task, {})
        for fmt in ("MCQA", "OpenQA"):
            cell = [row["correct"] for row in tagged if (row["task"], row["format"]) == (task, fmt)]
            if cell:
                stats[f"{fmt.lower()}_accuracy_pct"] = round(100.0 * sum(cell) / len(cell), 4)
                stats[f"{fmt.lower()}_count"] = len(cell)
        bins = {}
        for row in tagged:
            if row["task"] == task and row["snr_db"] is not None:
                bins.setdefault(row["snr_db"], []).append(row["correct"])
        if bins:
            snr_tables[task] = [
                {"snr_db": snr, "count": len(bins[snr]),
                 "accuracy_pct": round(100.0 * sum(bins[snr]) / len(bins[snr]), 4)}
                for snr in sorted(bins)
            ]
    ajsd = [row for row in rows if row["task"] == "AJSD"]
    summary = None
    if ajsd:
        means = [None if len(ajsd) < 2 and name == "cider" else
                 sum(row[name] for row in ajsd) / len(ajsd) for name in TEXT_METRICS]
        summary = {name: None if mean is None else round(mean, 6)
                   for name, mean in zip(TEXT_METRICS, means)}
        summary["composite"] = None if None in means else round(metrics.ajsd_composite(*means), 4)
        summary["count"] = len(ajsd)
    return {"per_task": per_task, "ajsd": summary, "snr_tables": snr_tables,
            "unparseable": sum(not row["parseable"] for row in rows), "total": len(rows)}


class TestPlanBuildRoundTrip:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(PLAN_SPECS)
    def test_manifests_read_back_and_gold_scores_full_marks(self, tmp_path_factory, spec):
        try:
            spec.validate()
        except ConfigError:
            reject()
        root = tmp_path_factory.mktemp("roundtrip")
        try:
            built = build_corpus(spec, str(root / "out"), render=False)
            for split, records in zip(("train", "bench"), built):
                manifest = root / "out" / f"manifest_{split}.jsonl"
                assert read_manifest(manifest) == records
                self._assert_gold_scores(root / split, manifest, records)
        finally:
            shutil.rmtree(root)

    def _assert_gold_scores(self, root, manifest, records):
        root.mkdir()
        preds, report_path, rows_path = root / "gold.jsonl", root / "r.json", root / "rows.jsonl"
        preds.write_text("".join(
            json.dumps({"sample_id": r.sample_id, "text": gold_prediction(r)}) + "\n"
            for r in records))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["score", "--manifest", str(manifest), "--predictions", str(preds),
                         "--report", str(report_path), "--per-record", str(rows_path)]) == 0
        report = json.loads(report_path.read_text())
        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        assert [row["sample_id"] for row in rows] == [r.sample_id for r in records]
        assert _folded(rows) == report
        assert report["unparseable"] == 0
        assert all(row["correct"] for row in rows if row["task"] != "AJSD")
        ajsd = [r.answer for r in records if r.task == "AJSD"]
        for answer, row in zip(ajsd, (row for row in rows if row["task"] == "AJSD")):
            # METEOR's fragmentation penalty stays on a one-chunk exact match.
            m = len(metrics.tokenize(answer))
            assert (row["bleu4"], row["rouge_l"]) == (1.0, 1.0)
            assert row["meteor"] == 1 - METEOR_GAMMA * (1 / m) ** METEOR_BETA
            if len(ajsd) < 2:
                assert row["cider"] is None
            elif len(set(ajsd)) == 1:
                assert row["cider"] == 0.0  # every n-gram is in every reference: IDF 0
            else:
                assert abs(row["cider"] - 1.0) < 1e-9
        if len(set(ajsd)) > 1:
            assert report["ajsd"]["composite"] >= 99.99
