from __future__ import annotations

from collections import Counter

import pytest

from phonotax.phonology import load_inventory
from phonotax.syllabify import split_medial
from phonotax.train import ModelConfig, extract_paths, train_model

INVENTORY_TEXT = (
    "\n".join(
        f"{s}\tC"
        for s in ["p", "b", "t", "d", "k", "g", "s", "z", "ʃ", "m", "n", "l", "r", "w", "j"]
    )
    + "\n"
    + "\n".join(f"{s}\tV" for s in ["æ", "ɪ", "ʌ", "ə", "iː", "aɪ", "ɔɪ", "e"])
    + "\n"
)


@pytest.fixture(scope="session")
def inv():
    """Small fixed inventory used by most tests."""
    return load_inventory(INVENTORY_TEXT)


@pytest.fixture(scope="session")
def default_inv():
    """The packaged full inventory."""
    from importlib import resources

    text = resources.files("phonotax").joinpath("data/inventory_ipa.tsv").read_text("utf-8")
    return load_inventory(text)


TOY_LEXICON = """\
cat\tk æ1 t
at\tæ1 t
still\ts t ɪ1 l
dull\td ʌ1 l
sandal\ts æ1 n d ə0 l
candle\tk æ1 n d ə0 l
busboy\tb ʌ1 s + b ɔɪ1
"""


def entry_paths(entry, onsets, policy=ModelConfig._field_defaults["medial_split"]) -> list:
    """An entry's whole training analysis in slot order: its fixed paths, its medial part split."""
    fixed, part = extract_paths(entry)
    if part is None:
        return fixed
    rhyme, onset = split_medial(Counter({part: 1}), onsets, policy)
    return [fixed[0], rhyme, onset, fixed[1]]


@pytest.fixture(scope="session")
def toy_model(inv):
    return train_model(TOY_LEXICON, inv).model
