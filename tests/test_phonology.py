from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from phonotax.errors import (
    BadStressDigit,
    DuplicateSymbol,
    EmptyDocument,
    EmptyTranscription,
    MissingStress,
    NoNucleus,
    OutOfScope,
    PhonotaxError,
    ReservedSymbol,
    TooManyBoundaries,
    UnknownClass,
    UnknownSymbol,
)
from phonotax.phonology import PhonemeInventory, load_inventory, split_lines, stress_pattern, tokenize
from phonotax.train import ingest_lexicon

from conftest import INVENTORY_TEXT
from oracles import (
    GEN_CONSONANTS,
    GEN_VOWELS,
    documents,
    format_transcription,
    random_compound,
    random_transcription_text,
    read_fields,
    word_runs,
)


def test_load_inventory_basics(inv):
    assert "k" in inv
    assert inv.is_vowel("æ")
    assert not inv.is_vowel("k")
    vowels = [s for s in inv.symbols if inv.classes[s] == "V"]
    consonants = [s for s in inv.symbols if inv.classes[s] == "C"]
    assert set(vowels).isdisjoint(consonants)
    assert len(inv.symbols) == len(vowels) + len(consonants)


def test_an_inventory_compares_and_shows_without_its_field_memo():
    used, fresh = load_inventory(INVENTORY_TEXT), load_inventory(INVENTORY_TEXT)
    tokenize("k æ1 t", used)
    assert used == fresh
    assert repr(used) == repr(fresh) == f"PhonemeInventory(classes={used.classes!r})"
    assert PhonemeInventory._fields == ("classes",)
    # a replaced inventory derives its own table from the classes it is given
    voiced = used._replace(classes={**used.classes, "k": "V"})
    assert voiced.fields == load_inventory(INVENTORY_TEXT.replace("k\tC", "k\tV")).fields
    assert voiced.fields["k1"] == ("k", 1, True) and "k1" not in used.fields


def test_a_replaced_inventory_derives_its_own_digest(inv):
    voiced = inv._replace(classes={**inv.classes, "k": "V"})
    assert voiced.digest == load_inventory(INVENTORY_TEXT.replace("k\tC", "k\tV")).digest != inv.digest
    assert voiced != inv
    with pytest.raises(ValueError):
        inv._replace(digest=inv.digest)


def test_symbol_order_counts_in_equality_and_the_digest(inv):
    reordered = PhonemeInventory(dict(reversed(inv.classes.items())))
    assert reordered.classes == inv.classes  # as dicts, without order
    assert reordered != inv and not reordered == inv
    assert reordered.digest != inv.digest
    assert reordered.symbols == inv.symbols[::-1]


@pytest.mark.parametrize("classes, error", [
    ({}, EmptyDocument),
    ({"k": "X"}, UnknownClass),
    ({"k": None}, UnknownClass),  # a symbol with no class
    ({"": "C"}, ReservedSymbol),
    ({"k t": "C"}, ReservedSymbol),
    ({"k\t": "C"}, ReservedSymbol),
    ({"∅": "C"}, ReservedSymbol),
    ({"k1": "C"}, ReservedSymbol),
    ({"+": "V"}, ReservedSymbol),  # else "k æ1 t + t æ1" reads three nuclei and no boundary
    ({"#k": "C"}, ReservedSymbol),  # a document would read its line as a comment
    ({"k\ud800": "C"}, ReservedSymbol),  # a lone surrogate, which no UTF-8 file can carry
])
def test_an_inventory_checks_its_classes_when_it_is_built(inv, classes, error):
    with pytest.raises(error):  # _replace builds the inventory anew
        inv._replace(classes={**inv.classes, **classes} if classes else classes)


# symbols an inventory may hold and ones it may not: reserved marks, digit-final,
# empty, whitespace and comment-opening symbols; and classes outside V/C
INVENTORY_SYMBOLS = st.one_of(
    st.sampled_from(["k", "t", "æ", "tʃ", "-l", "'a", "", " ", "k t", "k\x85", "∅", "+", ";", ":", "k1", "æ0",
                     "#", "#k", "k#"]),
    st.text(max_size=3),
)
INVENTORY_CLASSES = st.sampled_from(["V", "C", "X", "", "v", "V C"])


def _render(classes: dict[str, str]) -> str:
    return "".join(f"{symbol}\t{kind}\n" for symbol, kind in classes.items())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(INVENTORY_SYMBOLS, INVENTORY_CLASSES, max_size=5))
def test_an_inventory_is_the_document_its_classes_render(classes):
    try:
        inventory = PhonemeInventory(classes)
    except PhonotaxError:
        return
    loaded = load_inventory(_render(classes))
    assert loaded == inventory
    assert loaded.digest == inventory.digest
    assert list(loaded.classes.items()) == list(classes.items())
    assert loaded.fields == inventory.fields


def test_inventory_digest_ignores_comments():
    noisy = "# a comment\n\n" + INVENTORY_TEXT + "\n# trailing\n"
    assert load_inventory(noisy).digest == load_inventory(INVENTORY_TEXT).digest


def test_inventory_digest_tracks_content(inv):
    changed = INVENTORY_TEXT.replace("k\tC", "k\tV")
    assert load_inventory(changed).digest != inv.digest


def test_load_inventory_errors():
    with pytest.raises(DuplicateSymbol):
        load_inventory("k\tC\nk\tC\n")
    with pytest.raises(UnknownClass):
        load_inventory("k\tX\n")
    with pytest.raises(UnknownClass):
        load_inventory("k\n")
    with pytest.raises(EmptyDocument):
        load_inventory("# nothing here\n")


@pytest.mark.parametrize("symbol", ["∅", "+", ";", ":", "a1", "ʃ0"])
def test_load_inventory_rejects_notation_symbols(symbol):
    with pytest.raises(ReservedSymbol):
        load_inventory(INVENTORY_TEXT + f"{symbol}\tC\n")


def test_tokenize_stress_and_boundary(inv):
    t = tokenize("b ʌ1 s + b ɔɪ1", inv)
    assert t.symbols == ("b", "ʌ", "s", "b", "ɔɪ")
    assert t.nuclei == (1, 4)
    assert t.stresses[0] == 1
    assert t.boundary == 3
    first, second = word_runs(t)
    assert first == ("b", "ʌ", "s")
    assert second == ("b", "ɔɪ")


def test_tokenize_errors(inv):
    with pytest.raises(EmptyTranscription):
        tokenize("   ", inv)
    with pytest.raises(UnknownSymbol):
        tokenize("q æ1 t", inv)
    with pytest.raises(BadStressDigit):
        tokenize("k æ3 t", inv)
    with pytest.raises(BadStressDigit):
        tokenize("k1 æ1 t", inv)  # digit on a consonant
    with pytest.raises(TooManyBoundaries):
        tokenize("k æ1 + t ʌ1 + m æ1", inv)
    with pytest.raises(EmptyTranscription):
        tokenize("+ k æ1", inv)
    with pytest.raises(EmptyTranscription):
        tokenize("k æ1 +", inv)


def test_format_round_trip(inv):
    for raw in ("k æ1 t", "b ʌ1 s + b ɔɪ1", "s æ1 n d ə0 l", "æ1 t"):
        assert format_transcription(tokenize(raw, inv)) == raw


def _pattern(raw, inv):
    return stress_pattern(tokenize(raw, inv))


def test_stress_pattern_rules(inv):
    assert _pattern("k æ t", inv) == "s"  # bare monosyllable
    assert _pattern("k æ1 t", inv) == "s"
    assert _pattern("k æ2 t", inv) == "s"
    assert _pattern("k æ1 n ə0", inv) == "sw"
    assert _pattern("k æ0 n ə1", inv) == "ws"
    # compound halves default independently
    assert _pattern("k æ + t ʌ", inv) == "ss"


def test_a_read_pattern_skips_no_check(inv):
    # the same stress digits and boundary, read before, still fail each check on a new word
    assert _pattern("k æ1 n ə0", inv) == "sw"
    with pytest.raises(OutOfScope):
        _pattern("k æ1 n ə0 t ɪ0", inv)
    assert _pattern("k æ + t ʌ", inv) == "ss"
    with pytest.raises(NoNucleus):
        _pattern("k æ + t", inv)
    with pytest.raises(MissingStress):
        _pattern("k æ n ə", inv)


def test_stress_pattern_errors(inv):
    with pytest.raises(MissingStress, match="^vowel 'æ' lacks a stress digit$"):
        _pattern("k æ n ə", inv)
    with pytest.raises(MissingStress, match="^vowel 'ə' lacks a stress digit$"):
        _pattern("k æ1 n ə", inv)
    with pytest.raises(NoNucleus):
        _pattern("k + æ1", inv)
    # tokenize never gives a digit outside 0-2, so only a hand-built record holds one
    t = tokenize("k æ1 n ə0", inv)
    for stresses in ((3, 0), (1, -1), (None, 3)):
        with pytest.raises(BadStressDigit):
            stress_pattern(t._replace(stresses=stresses))
    with pytest.raises(BadStressDigit):
        stress_pattern(tokenize("k æ1 t", inv)._replace(stresses=(3,)))


@st.composite
def transcription_texts(draw):
    cons = st.sampled_from(["p", "t", "k", "s", "m", "l"])
    vows = st.sampled_from(["æ", "ɪ", "ʌ", "ə"])
    digits = st.sampled_from(["0", "1", "2"])
    n = draw(st.integers(1, 8))
    fields = []
    for _ in range(n):
        if draw(st.booleans()):
            fields.append(draw(cons))
        else:
            fields.append(draw(vows) + draw(st.one_of(st.just(""), digits)))
    return " ".join(fields)


@given(transcription_texts())
def test_tokenize_format_inverse(raw):
    inventory = load_inventory(INVENTORY_TEXT)
    t = tokenize(raw, inventory)
    assert format_transcription(t) == raw
    assert tokenize(format_transcription(t), inventory) == t


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
def test_tokenize_is_stable_across_its_memo(seeds):
    inventory = load_inventory(INVENTORY_TEXT)
    texts = [random_transcription_text(random.Random(seed)) for seed in seeds]
    first = [tokenize(x, inventory) for x in texts]
    second = [tokenize(x, inventory) for x in texts]
    unshared = [tokenize(x, load_inventory(INVENTORY_TEXT)) for x in texts]
    assert first == second == unshared
    assert [format_transcription(t) for t in first] == texts
    # the table holds valid fields only: one per consonant, four per vowel
    assert len(inventory.fields) <= 4 * len(inventory.symbols)
    assert "+" not in inventory.fields


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([random_transcription_text, random_compound]))
def test_transcription_agrees_with_a_field_by_field_reading(seed, draw_text):
    inventory = load_inventory(INVENTORY_TEXT)
    raw = draw_text(random.Random(seed))
    t = tokenize(raw, inventory)
    assert format_transcription(t) == raw
    words = read_fields(raw, inventory)
    fields = [f for word in words for f in word]
    assert t.symbols == tuple(symbol for symbol, _, _ in fields)
    assert t.nuclei == tuple(i for i, (_, _, is_vowel) in enumerate(fields) if is_vowel)
    assert t.stresses == tuple(stress for _, stress, is_vowel in fields if is_vowel)
    assert t.boundary == (len(words[0]) if len(words) == 2 else None)
    # the ingest fold rewrites stress digits only, a 2 to a 0
    (entry,) = ingest_lexicon(f"x\t{raw}\n", inventory).entries
    folded = entry.transcription
    assert (folded.symbols, folded.nuclei, folded.boundary) == (t.symbols, t.nuclei, t.boundary)
    assert all(old == new or (old, new) == (2, 0) for old, new in zip(t.stresses, folded.stresses, strict=True))


INVALID_FIELDS = (
    [(c + "1", BadStressDigit) for c in GEN_CONSONANTS]
    + [(v + "3", BadStressDigit) for v in GEN_VOWELS]
    + [("q", UnknownSymbol), ("q1", UnknownSymbol), ("+1", UnknownSymbol)]
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(INVALID_FIELDS), st.integers(0, 20))
def test_invalid_field_raises_on_every_call(seed, invalid, at):
    field, error = invalid
    inventory = load_inventory(INVENTORY_TEXT)
    text = random_transcription_text(random.Random(seed))
    expected = tokenize(text, inventory)  # the text's reading before the invalid field goes in
    fields = text.split()
    fields.insert(at % (len(fields) + 1), field)
    for _ in range(3):
        with pytest.raises(error):
            tokenize(" ".join(fields), inventory)
    assert field not in inventory.fields
    assert tokenize(text, inventory) == expected


# a field text: an inventory symbol, an unknown one or the boundary mark, then up to two digits
FIELD_TEXTS = st.builds(str.__add__,
                        st.sampled_from([*load_inventory(INVENTORY_TEXT).symbols, "q", "ʔ", "kk", "+"]),
                        st.text("0123456789", max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.lists(FIELD_TEXTS, min_size=1, max_size=6))
def test_the_field_table_holds_exactly_the_fields_tokenize_reads(texts):
    inventory = load_inventory(INVENTORY_TEXT)
    table = dict(inventory.fields)
    for text in texts:
        try:
            tokenize(text, inventory)
        except PhonotaxError:
            assert text not in table
        else:
            assert text in table
    with contextlib.suppress(PhonotaxError):
        tokenize(" ".join(texts), inventory)
    assert inventory.fields == table


@settings(max_examples=300, deadline=None)
@given(documents(INVENTORY_TEXT))
def test_load_inventory_raises_only_phonotax_errors(document):
    with contextlib.suppress(PhonotaxError):
        load_inventory(document)


# the characters str.splitlines cuts at that do not end a line
_NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@given(st.text(st.sampled_from("ab \t\r\n" + _NOT_LINE_ENDS)))
def test_split_lines_is_splitlines_with_only_line_ends(document):
    # each other separator, read as a letter, stays where it is inside its line
    as_letters = str.maketrans(dict.fromkeys(_NOT_LINE_ENDS, "x"))
    assert [line.translate(as_letters) for line in split_lines(document)] == \
        document.translate(as_letters).splitlines()
