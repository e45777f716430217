"""Positional onset/rhyme path grammar for word acceptability.

Train path probabilities over a pronunciation lexicon, parse novel
transcriptions by unifying onset and rhyme paths against word
templates, and score how English-like a nonsense word is.

The exports below are imported on first access (PEP 562), so
``import phonotax`` loads no submodule and a command loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the names this package exports from it
_EXPORTS = {
    "errors": ("PhonotaxError",),
    "grammar": ("LABELS", "PathType", "format_path", "sequential_unify", "templates_for"),
    "parse": ("parse_all",),
    "phonology": ("PhonemeInventory", "Transcription", "load_inventory", "tokenize"),
    "score": ("ScoreReport", "score_batch", "score_word"),
    "stats": ("evaluate", "pearson_r", "p_two_tailed", "synthetic_judgments", "t_from_r"),
    "syllabify": ("collect_word_onsets",),
    "train": ("TrainedModel", "good_turing", "ingest_lexicon", "load_model",
              "save_model", "tabulate", "top_k", "train_model"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
