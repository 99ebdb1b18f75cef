"""emforge: desk-scale EM signal corpus forge and benchmark harness.

Synthesizes labeled complex-baseband signals for six task families,
renders the four canonical views, emits OpenQA/MCQA instruction records,
builds SNR-stratified leak-free splits, and scores prediction files.
"""

from .budget import LmBatch, PackingLayout, StageConfig, STAGES, check_budget, lm_loss, pack_views, seq_logprob
from .corpus import (
    ConfigError,
    CorpusSpec,
    ManifestRecord,
    RecordError,
    assign_split,
    build_corpus,
    desk_scale_counts,
    gold_prediction,
    read_manifest,
    stratified_bench,
    write_manifest,
)
from .instrgen import (
    OptionSet,
    TagKind,
    make_ajsd_openqa,
    make_mcqa_categorical,
    make_mcqa_numeric,
    make_openqa,
)
from .metrics import (
    ScoreReport,
    ajsd_composite,
    bleu4,
    cider,
    mean_of_four,
    meteor,
    parse_tag,
    rouge_l,
    score_predictions,
    snr_binned_report,
)
from .signal import IqSignal, measure_snr, signal_power
from .views import RenderParams, StftParams, ViewKind, fft_magnitude, render_view, stft

__version__ = "0.1.0"
