"""End-to-end command-line behavior and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import emforge
from emforge.cli import main
from emforge.corpus import gold_prediction, read_manifest

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
        stdout = capsys.readouterr().out
        assert "built 36 records" in stdout
        assert "SNR histogram" in stdout

        first = _tree_hash(out)
        out2 = tmp_path / "out2"
        assert main(["build", "--config", config_path, "--out", str(out2)]) == 0
        assert _tree_hash(out2) == first

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
        ],
    )
    def test_config_error_exit_2_before_writing(self, tmp_path, capsys, overrides, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, **overrides)))
        out = tmp_path / "o"
        assert main(["build", "--config", str(path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

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


class TestScore:
    @pytest.fixture
    def built(self, tmp_path, config_path):
        out = tmp_path / "corpus"
        assert main(["build", "--config", config_path, "--out", str(out)]) == 0
        return out

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


class TestBudgetCommand:
    def test_all_stages_table(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        assert out.count("fits") == 4
        assert "7299" in out

    def test_single_stage(self, capsys):
        assert main(["budget", "--stage", "3"]) == 0
        assert "7299" in capsys.readouterr().out

    def test_invalid_stage_exit_2(self, capsys):
        assert main(["budget", "--stage", "9"]) == 2
        assert "stage" in capsys.readouterr().err


class TestRenderCommand:
    def test_renders_four_views(self, tmp_path):
        out = tmp_path / "views"
        assert main(["render", "--kind", "QAM16", "--snr", "10", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "QAM16_constellation.png",
            "QAM16_fft_spectrum.png",
            "QAM16_iq_waveform.png",
            "QAM16_stft_spectrogram.png",
        ]

    def test_missing_manifest_exit_2(self, tmp_path):
        code = main(["score", "--manifest", str(tmp_path / "nope.jsonl"),
                     "--predictions", str(tmp_path / "nope2.jsonl")])
        assert code == 2
