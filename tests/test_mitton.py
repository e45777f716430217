import contextlib

import pytest
from hypothesis import given, settings

from phonotax.errors import PhonotaxError
from phonotax.mitton import MITTON_PHONES, PhoneError, _tokenize_phones, convert_mitton
from phonotax.phonology import tokenize
from phonotax.train import train_model

from oracles import documents


def _single(document: str) -> str:
    result = convert_mitton(document)
    assert result.converted == 1, result.skipped
    line = result.lexicon_text.rstrip("\n")
    return line.split("\t")[1]


def test_plain_monosyllable():
    assert _single("cat 'k&t Ki\n") == "k æ1 t"


def test_unmarked_monosyllable_stays_undigited():
    assert _single("film fIlm K\n") == "f ɪ l m"


def test_polysyllable_fills_zero_stress():
    assert _single("sofa 's@Uf@ K\n") == "s əʊ1 f ə0"


def test_secondary_stress_mark():
    assert _single("canteen ,k&n'ti:n K\n") == "k æ2 n t iː1 n"


def test_every_phone_maps_to_a_packaged_symbol(default_inv):
    assert set(MITTON_PHONES.values()) <= set(default_inv.symbols)


def test_greedy_multicharacter_phones():
    assert _tokenize_phones("baI") == [("b", None), ("aɪ", None)]
    assert _tokenize_phones("bi:n") == [("b", None), ("iː", None), ("n", None)]
    assert _tokenize_phones("tSIn") == [("tʃ", None), ("ɪ", None), ("n", None)]
    with pytest.raises(PhoneError):
        _tokenize_phones("k$t")


def test_syllabic_consonant_gains_schwa():
    assert _single("candle 'k&ndl K\n") == "k æ1 n d ə0 l"
    assert _single("prism 'prIzm K\n") == "p r ɪ1 z ə0 m"
    result = convert_mitton("candle 'k&ndl K\n")
    assert result.notes["syllabic-consonant-schwa"] == 1


def test_liquid_final_cluster_left_alone():
    # lm is not obstruent + sonorant, so no schwa is restored
    assert _single("film fIlm K\n").split() == ["f", "ɪ", "l", "m"]


def test_hyphen_plus_comma_splits_compound():
    assert _single("bus-boy 'bVs,bOI K\n") == "b ʌ1 s + b ɔɪ1"


def test_hyphen_without_comma_stays_single():
    assert _single("co-op 'k@UQp K\n") == "k əʊ1 ɒ0 p"


def test_approximated_phones_are_counted():
    result = convert_mitton("loch 'lQx K\n")
    assert result.lexicon_text == "loch\tl ɒ1 k\n"
    assert result.notes["approximated-phones"] == 1


def test_multiword_head_sheds_itself():
    result = convert_mitton("act on '&kt Qn K\n")
    assert result.converted == 0
    assert [reason for _, reason, _ in result.skipped] == ["unmappable-pronunciation"]


def test_short_and_blank_lines():
    result = convert_mitton("justaword\n\n   \ncat 'k&t K\n")
    assert result.converted == 1
    assert [reason for _, reason, _ in result.skipped] == ["short-line"]
    assert result.skipped[0] == (1, "short-line", "justaword")


def test_empty_document():
    result = convert_mitton("")
    assert result.lexicon_text == ""
    assert result.converted == 0


def test_output_tokenizes_and_trains(default_inv):
    document = (
        "cat 'k&t K\n"
        "candle 'k&ndl K\n"
        "sofa 's@Uf@ K\n"
        "bus-boy 'bVs,bOI K\n"
        "film fIlm K\n"
    )
    result = convert_mitton(document)
    assert result.converted == 5
    for line in result.lexicon_text.splitlines():
        tokenize(line.split("\t")[1], default_inv)  # must not raise
    trained = train_model(result.lexicon_text, default_inv)
    assert trained.trained_entries == 5
    assert trained.path_count > 0


MITTON_SAMPLE = """\
cat 'k&t Ki
candle 'k&ndl K
canteen ,k&n'ti:n K
sofa 's@Uf@ K
film fIlm K
loch lQx K
bus-boy 'bVs,bOI K
ad hoc &d'hQk OA
"""


@settings(max_examples=300, deadline=None)
@given(documents(MITTON_SAMPLE, sep=" "))
def test_convert_mitton_raises_only_phonotax_errors(document):
    with contextlib.suppress(PhonotaxError):
        convert_mitton(document)
