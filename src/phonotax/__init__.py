"""Positional onset/rhyme path grammar for word acceptability.

Train path probabilities over a pronunciation lexicon, parse novel
transcriptions by unifying onset and rhyme paths against word
templates, and score how English-like a nonsense word is.
"""

from .errors import PhonotaxError
from .grammar import LABELS, PathType, format_path, sequential_unify, templates_for
from .parse import parse_all
from .phonology import PhonemeInventory, Stress, Transcription, load_inventory, tokenize
from .score import ScoreReport, score_batch, score_word
from .stats import evaluate, pearson_r, p_two_tailed, synthetic_judgments, t_from_r
from .syllabify import MedialSplitPolicy, collect_word_onsets, syllabify
from .train import (
    TrainedModel,
    good_turing,
    ingest_lexicon,
    load_model,
    save_model,
    tabulate,
    top_k,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "PhonotaxError",
    "LABELS", "PathType", "format_path", "sequential_unify", "templates_for",
    "parse_all",
    "PhonemeInventory", "Stress", "Transcription", "load_inventory", "tokenize",
    "ScoreReport", "score_batch", "score_word",
    "evaluate", "pearson_r", "p_two_tailed", "synthetic_judgments", "t_from_r",
    "MedialSplitPolicy", "collect_word_onsets", "syllabify",
    "TrainedModel", "good_turing", "ingest_lexicon", "load_model",
    "save_model", "tabulate", "top_k", "train_model",
    "__version__",
]
