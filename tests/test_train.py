from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from phonotax.errors import (
    BadConfig,
    EmptyCorpus,
    ModelFormatError,
    ReservedSymbol,
    UnsupportedStressPattern,
    VersionMismatch,
)
from phonotax.grammar import (
    ALL_CELLS,
    ConstituentKind,
    PathType,
    SyllableCategory,
    cell_from_label,
    templates_for,
)
from phonotax.phonology import Stress, load_inventory, stress_pattern
from phonotax.syllabify import MedialSplitPolicy, collect_word_onsets, syllabify
from phonotax.train import (
    ModelConfig,
    PathTable,
    extract_paths,
    good_turing,
    ingest_lexicon,
    load_model,
    save_model,
    tabulate,
    top_k,
    train_model,
)

from conftest import INVENTORY_TEXT
from oracles import random_lexicon

SC = SyllableCategory
ON, RH = ConstituentKind.ONSET, ConstituentKind.RHYME
OSIF, RSIF = (SC.STRONG_INITIAL_FINAL, ON), (SC.STRONG_INITIAL_FINAL, RH)


def test_ingest_retains_and_skips(inv):
    doc = """\
# comment line
cat\tk æ1 t

banana\tb ə0 n æ1 n ə0
junk\tq æ1 t
missing\tk æ n ə
noline
boundary\tk + æ1
two\ts æ1 n d ə0 l
"""
    result = ingest_lexicon(doc, inv)
    assert [e.orthography for e in result.entries] == ["cat", "two"]
    assert result.entries[0].lineno == 2
    reasons = result.skip_counts()
    assert reasons == {
        "OutOfScope": 1,
        "UnknownSymbol": 1,
        "MissingStress": 1,
        "MalformedLine": 1,
        "NoNucleus": 1,
    }


def test_ingest_keeps_an_empty_orthography(inv):
    result = ingest_lexicon("\tk æ1 t\ncat\tk æ1 t\n", inv)
    assert [(e.orthography, e.lineno) for e in result.entries] == [("", 1), ("cat", 2)]
    assert result.skipped == []


def test_ingest_empty_corpus(inv):
    with pytest.raises(EmptyCorpus):
        ingest_lexicon("# nothing\n", inv)
    with pytest.raises(EmptyCorpus):
        ingest_lexicon("bad\tq q q\n", inv)


def test_ingest_downgrades_secondary_next_to_primary(inv):
    result = ingest_lexicon("insect\tɪ1 n s e2 k t\nunknown\tʌ2 n ə0\n", inv)
    assert result.downgraded == 1
    insect, lone = result.entries
    # 2 adjacent to 1 folds into weak; a lone 2 keeps its strong reading
    assert stress_pattern(insect.transcription) == (Stress.STRONG, Stress.WEAK)
    assert stress_pattern(lone.transcription) == (Stress.STRONG, Stress.WEAK)
    assert lone.transcription.tokens[0].stress == 2


def test_extract_paths_monosyllables(inv):
    result = ingest_lexicon("cat\tk æ1 t\nat\tæ1 t\n", inv)
    onsets = collect_word_onsets([e.transcription for e in result.entries])
    paths = [p for e in result.entries for p in extract_paths(e, onsets)]
    table = tabulate(paths)
    assert table.counts[OSIF] == {("k",): 1, (): 1}
    assert table.counts[RSIF] == {("æ", "t"): 2}
    assert table.n(OSIF) == 2 and table.n(RSIF) == 2
    assert table.total == 4


def test_extract_paths_compound(inv):
    result = ingest_lexicon("busboy\tb ʌ1 s + b ɔɪ1\n", inv)
    onsets = collect_word_onsets([e.transcription for e in result.entries])
    paths = extract_paths(result.entries[0], onsets)
    assert paths == [
        ("Osif", ("b",)), ("Rsif", ("ʌ", "s")),
        ("Osif", ("b",)), ("Rsif", ("ɔɪ",)),
    ]


def test_extract_paths_rejects_bad_patterns(inv):
    weak_weak = ingest_lexicon("of-a\tə0 z ə0\n", inv).entries[0]
    with pytest.raises(UnsupportedStressPattern):
        extract_paths(weak_weak, frozenset({()}))
    # boundary demands two strong monosyllables
    bad_compound = ingest_lexicon("x\tk æ1 + t ə0\n", inv).entries[0]
    with pytest.raises(UnsupportedStressPattern):
        extract_paths(bad_compound, frozenset({()}))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 30))
def test_extract_paths_match_syllabify(seed, size):
    inventory = load_inventory(INVENTORY_TEXT)
    entries = ingest_lexicon(random_lexicon(random.Random(seed), size), inventory).entries
    onsets = collect_word_onsets([e.transcription for e in entries])
    for entry in entries:
        assert entry.pattern == stress_pattern(entry.transcription)
        for policy in MedialSplitPolicy:
            try:
                paths = extract_paths(entry, onsets, policy)
            except UnsupportedStressPattern:
                continue
            syllables = [syl for word in syllabify(entry.transcription, onsets, policy)
                         for syl in word]
            runs = [run for syl in syllables for run in (syl.onset_symbols, syl.rhyme_symbols)]
            assert [terminal for _, terminal in paths] == runs
            assert [cell_from_label(label)[0].stress for label, _ in paths[::2]] == [
                syl.stress for syl in syllables]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from(MedialSplitPolicy))
def test_trained_counts_match_a_path_type_recount(seed, size, policy):
    # the reference counts PathType objects built from syllabify()'s
    # syllables and each template's slots, with no label in sight
    inventory = load_inventory(INVENTORY_TEXT)
    doc = random_lexicon(random.Random(seed), size)
    entries = ingest_lexicon(doc, inventory).entries
    onsets = collect_word_onsets([e.transcription for e in entries])
    recount = Counter()
    for entry in entries:
        words = syllabify(entry.transcription, onsets, policy)
        syllables = [syl for word in words for syl in word]
        pattern = tuple(syl.stress for syl in syllables)
        try:
            (template,) = [c for c in templates_for(pattern) if len(c.words) == len(words)]
        except (UnsupportedStressPattern, ValueError):
            continue
        runs = [run for syl in syllables for run in (syl.onset_symbols, syl.rhyme_symbols)]
        recount.update(PathType(cat, kind, run) for (cat, kind), run in zip(template.slots, runs))
    expected = {}
    for path, c in recount.items():
        expected.setdefault(path.cell, {})[path.terminal] = c
    if not expected:
        with pytest.raises(EmptyCorpus):
            train_model(doc, inventory, policy)
        return
    table = train_model(doc, inventory, policy).model.table
    assert table.counts == expected
    assert table.total == recount.total()


def test_tabulate_invariants(inv):
    rng = random.Random(5)
    inventory = load_inventory(INVENTORY_TEXT)
    result = train_model(random_lexicon(rng, 25), inventory)
    table = result.model.table
    assert sum(table.n(c) for c in ALL_CELLS) == table.total
    for cell in ALL_CELLS:
        assert table.n(cell) == sum(table.counts.get(cell, {}).values())
        fof = table.freq_of_freqs(cell)
        assert sum(r * k for r, k in fof.items()) == table.n(cell)
    with pytest.raises(EmptyCorpus):
        tabulate([])


def _table_with(counts_for_osif):
    counts = {OSIF: dict(counts_for_osif)}
    return PathTable(counts, sum(counts_for_osif.values()))


CONFIG = ModelConfig("x" * 64)


def test_good_turing_worked_example():
    m = good_turing(_table_with({("a",): 3, ("b",): 1}), CONFIG)
    assert m.p0[OSIF] == pytest.approx(0.25, abs=1e-12)
    assert m.prob(OSIF, ("a",)) == (pytest.approx(0.5625, abs=1e-12), True)
    assert m.prob(OSIF, ("b",)) == (pytest.approx(0.1875, abs=1e-12), True)
    # unseen terminals get the whole reserved mass, not a share of it
    assert m.prob(OSIF, ("z",)) == (pytest.approx(0.25, abs=1e-12), False)


def test_good_turing_clamps():
    low = good_turing(_table_with({("a",): 2, ("b",): 2}), CONFIG)
    assert low.p0[OSIF] == pytest.approx(0.125, abs=1e-12)  # floor 1/(2N)
    assert low.prob(OSIF, ("a",))[0] == pytest.approx(0.4375, abs=1e-12)
    high = good_turing(_table_with({("a",): 1}), CONFIG)
    assert high.p0[OSIF] == pytest.approx(0.5, abs=1e-12)  # ceiling 0.5
    assert high.prob(OSIF, ("a",))[0] == pytest.approx(0.5, abs=1e-12)


def test_good_turing_all_unseen_cell():
    m = good_turing(_table_with({("a",): 1}), CONFIG)
    assert RSIF in m.all_unseen
    assert m.prob(RSIF, ("æ",)) == (CONFIG.epsilon, False)


def test_good_turing_full_discounts():
    # counts 1,1,2,3: N=7, N1=2, p0=2/7; r*=1 for r=1 (N2/N1=1/2 -> 2*1/2),
    # r*=3 for r=2 (3*N3/N2), r=3 undiscounted (no N4)
    counts = {("a",): 1, ("b",): 1, ("c",): 2, ("d",): 3}
    cfg = ModelConfig("x" * 64, gt_mode="full")
    m = good_turing(_table_with(counts), cfg)
    assert m.p0[OSIF] == pytest.approx(2 / 7, abs=1e-12)
    masses = {"a": 1 / 7, "b": 1 / 7, "c": 3 / 7, "d": 3 / 7}
    scale = (1 - 2 / 7) / sum(masses.values())
    for t, mass in masses.items():
        assert m.prob(OSIF, (t,))[0] == pytest.approx(mass * scale, abs=1e-12)
    total = m.p0[OSIF] + math.fsum(m.probabilities[OSIF].values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_top_k_ordering():
    m = good_turing(_table_with({("b",): 2, ("a",): 2, ("c",): 5}), CONFIG)
    assert top_k(m, OSIF, 2) == [("c", 5), ("a", 2)]
    assert top_k(m, OSIF, 10) == [("c", 5), ("a", 2), ("b", 2)]
    assert top_k(m, RSIF, 3) == []


def test_model_round_trip(inv):
    model = train_model(
        "cat\tk æ1 t\nat\tæ1 t\nsandal\ts æ1 n d ə0 l\nbusboy\tb ʌ1 s + b ɔɪ1\n",
        inv, gt_mode="full", epsilon=1e-6,
    ).model
    doc = save_model(model)
    loaded = load_model(doc)
    assert save_model(loaded) == doc  # byte-stable
    assert loaded.p0 == model.p0
    assert loaded.probabilities == model.probabilities
    assert loaded.all_unseen == model.all_unseen
    assert loaded.config == model.config
    assert loaded.table.counts == model.table.counts
    assert loaded.table.total == model.table.total


def test_load_model_version_and_corruption(toy_model):
    doc = save_model(toy_model)
    with pytest.raises(VersionMismatch):
        load_model(doc.replace("phonotax-model v1", "phonotax-model v2", 1))
    with pytest.raises(ModelFormatError):
        load_model("something else\n")
    with pytest.raises(ModelFormatError):
        load_model("")
    # truncate a record
    lines = doc.splitlines()
    with pytest.raises(ModelFormatError):
        load_model("\n".join(lines[:-1]) + "\n")
    # tamper with a probability so the cell no longer normalizes
    target = next(l for l in lines if l.startswith("Osif\t"))
    broken = doc.replace(target, target.rsplit("\t", 1)[0] + "\t0.9999")
    with pytest.raises(ModelFormatError):
        load_model(broken)
    # duplicate record
    with pytest.raises(ModelFormatError):
        load_model(doc + target + "\n")


def _replace_line(doc: str, prefix: str, new: str) -> str:
    (line,) = [l for l in doc.splitlines() if l.startswith(prefix)]
    return doc.replace(line + "\n", new + "\n")


def test_load_model_rederives_probabilities(toy_model):
    doc = save_model(toy_model)
    # Osi holds s and k at 0.25 each beside p0 0.5; move a whole unit of mass
    # from p0 to one record, so the cell still sums to 1
    assert "p0\tOsi\t0.5\tN\t2\tN1\t2\n" in doc and "Osi\tk\t1\t0.25\n" in doc
    shifted = _replace_line(doc, "p0\tOsi\t", "p0\tOsi\t-0.5\tN\t2\tN1\t2")
    shifted = _replace_line(shifted, "Osi\tk\t", "Osi\tk\t1\t1.25")
    with pytest.raises(ModelFormatError, match="Osi"):
        load_model(shifted)
    with pytest.raises(ModelFormatError, match="Osi"):
        load_model(_replace_line(doc, "p0\tOsi\t", "p0\tOsi\tnan\tN\t2\tN1\t2"))


@pytest.mark.parametrize("low, high", [(0, 4), (-1, 5)])
def test_load_model_rejects_counts_below_one(low, high):
    doc = save_model(good_turing(_table_with({("a",): 2, ("b",): 2}), CONFIG))
    # N, N1, the total and every probability stay as they were
    moved = _replace_line(doc, "Osif\ta\t2\t", f"Osif\ta\t{low}\t0.4375")
    moved = _replace_line(moved, "Osif\tb\t2\t", f"Osif\tb\t{high}\t0.4375")
    with pytest.raises(ModelFormatError, match="count below 1"):
        load_model(moved)


def test_load_model_keeps_the_files_floats(toy_model):
    doc = save_model(toy_model)
    line = next(l for l in doc.splitlines() if l.startswith("Osif\tk\t"))
    count, prob = line.split("\t")[2:]
    nudged = float(prob) + 1e-15  # inside the re-derivation tolerance
    assert nudged != float(prob)
    doc = doc.replace(line, f"Osif\tk\t{count}\t{nudged!r}")
    loaded = load_model(doc)
    assert loaded.probabilities[OSIF][("k",)] == nudged
    assert save_model(loaded) == doc


@pytest.mark.parametrize("record, text", [
    ("Osif\t∅\t", ""), ("Osif\ts t\t", "s  t"), ("Osif\tk\t", " k"),
], ids=["empty", "doubled-space", "leading-space"])
def test_load_model_rejects_non_canonical_terminal_text(toy_model, record, text):
    doc = save_model(toy_model)
    (line,) = [l for l in doc.splitlines() if l.startswith(record)]
    edited = doc.replace(line, line.replace(record, f"Osif\t{text}\t"))
    assert edited != doc
    with pytest.raises(ModelFormatError, match="terminal"):
        load_model(edited)


@pytest.mark.parametrize("text", ["∅ k", "k1", "+", ";", ":", "k;"])
def test_load_model_takes_only_symbols_an_inventory_may_hold(toy_model, text):
    def declarable(symbol):
        try:
            load_inventory(INVENTORY_TEXT + f"{symbol}\tC\n")
        except ReservedSymbol:
            return False
        return True

    doc = save_model(toy_model)
    (line,) = [l for l in doc.splitlines() if l.startswith("Osif\tk\t")]
    edited = doc.replace(line, line.replace("Osif\tk\t", f"Osif\t{text}\t"))
    if all(map(declarable, text.split())):
        assert tuple(text.split()) in load_model(edited).probabilities[cell_from_label("Osif")]
    else:
        with pytest.raises(ModelFormatError, match=r"line \d+: terminal"):
            load_model(edited)


def test_load_model_rejects_unknown_cell_label(toy_model):
    doc = save_model(toy_model)
    bad_p0 = _replace_line(doc, "p0\tOsi\t", "p0\tOsx\t0.5\tN\t2\tN1\t2")
    with pytest.raises(ModelFormatError, match="unknown cell label 'Osx'"):
        load_model(bad_p0)
    bad_record = _replace_line(doc, "Osi\tk\t", "Xsi\tk\t1\t0.25")
    with pytest.raises(ModelFormatError, match="unknown cell label 'Xsi'"):
        load_model(bad_record)


@pytest.mark.parametrize("epsilon", [1e-75, 1e-9, 1e-3])
def test_epsilon_range_accepts(epsilon):
    assert ModelConfig("x" * 64, epsilon=epsilon).epsilon == epsilon


@pytest.mark.parametrize("epsilon", [0.0, 9e-76, 1e-200, 2e-3, -1e-9, math.nan, math.inf])
def test_epsilon_range_rejects(epsilon):
    with pytest.raises(BadConfig):
        ModelConfig("x" * 64, epsilon=epsilon)


def test_load_model_rejects_epsilon_below_floor(toy_model):
    doc = save_model(toy_model)
    low = doc.replace("config\tepsilon\t1e-09\n", "config\tepsilon\t1e-200\n")
    assert low != doc
    with pytest.raises(ModelFormatError):
        load_model(low)


def test_train_model_reports_unsupported(inv):
    doc = "cat\tk æ1 t\nofa\tə0 z ə0\n"
    result = train_model(doc, inv)
    assert result.trained_entries == 1
    assert result.unsupported == [(2, "ofa")]
    assert result.path_count == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 20))
def test_training_normalizes_every_cell(seed, size):
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(random.Random(seed), size), inventory).model
    for cell in ALL_CELLS:
        if cell in model.all_unseen:
            assert model.probabilities[cell] == {}
            continue
        mass = model.p0[cell] + math.fsum(model.probabilities[cell].values())
        assert abs(mass - 1.0) <= 1e-9
        assert 0 < model.p0[cell] <= 0.5
        assert all(p > 0 for p in model.probabilities[cell].values())
