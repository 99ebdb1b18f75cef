"""Golden digest: the bytes of a small build, pinned across commits.

Criterion 11 compares two builds made by the same code; this test
compares one build with digests stored here, so a change to any PNG
byte or manifest line between commits fails it. The pin depends on
the numpy FFT and zlib in use: a dependency upgrade that moves it is
an explicit re-pin (new digests and versions below, logged in
CHANGES.md), never a skip.
"""

import hashlib
import platform

import numpy as np

from emforge.corpus import CorpusSpec, build_corpus

# Every (task, format) cell the builder supports, one record each, with
# SNR grids trimmed so every bin holds a record.
GOLDEN_CONFIG = {
    "counts": {
        "SSD": [1, 1],
        "SPE": [1, 1],
        "MR": [1, 1],
        "PR": [1, 1],
        "EI": [1, 1],
        "AJSD": [1, 0],
    },
    "snr_grids": {
        "SSD": [-10, 20],
        "SPE": [-20, 20],
        "MR": [-20, 18],
        "PR": [-20, 18],
    },
}

PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6"}
PINNED_DIGESTS = {
    "images": "a4ca59ab72ad6b27ebf82cac643c70293620e3d2eb0c3ab31f8ee1f5292ed087",
    "manifest_train.jsonl": "8fd5a8d08f43f620ee68f37bd74935923ed503a739d65ae6cd34a08268bf3007",
    "manifest_bench.jsonl": "404cf956116d98150aa179a723476a57e0a6aa2e296410ceb966793686c6b9b3",
}


def golden_digests(out) -> dict:
    """sha256 of every PNG (name and bytes, in name order) and of each manifest."""
    images = hashlib.sha256()
    for path in sorted((out / "images").iterdir()):
        images.update(path.name.encode())
        images.update(path.read_bytes())
    digests = {"images": images.hexdigest()}
    for name in ("manifest_train.jsonl", "manifest_bench.jsonl"):
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


def test_small_build_matches_pinned_digests(tmp_path):
    out = tmp_path / "golden"
    train, bench = build_corpus(CorpusSpec.from_dict(GOLDEN_CONFIG), out_dir=str(out))
    assert len(train) + len(bench) == 11
    running = {"python": platform.python_version(), "numpy": np.__version__}
    assert golden_digests(out) == PINNED_DIGESTS, (
        f"golden build bytes changed; pinned with {PINNED_VERSIONS}, running {running}"
    )
