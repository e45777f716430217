from __future__ import annotations

import contextlib
import gc
import importlib
import itertools
import math
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from phonotax import chunks, train
from phonotax.cli import main
from phonotax.errors import (
    BadConfig,
    EmptyCorpus,
    ModelFormatError,
    PhonotaxError,
    ReservedSymbol,
    UnsupportedStressPattern,
    VersionMismatch,
)
from phonotax.grammar import LABELS, PathType, format_terminal, templates_for
from phonotax.phonology import PhonemeInventory, load_inventory, stress_pattern, tokenize
from phonotax.score import score_batch, score_word
from phonotax.syllabify import MEDIAL_SPLITS, collect_word_onsets, syllabify
from phonotax.train import (
    EPSILON_MIN,
    GT_MODES,
    ModelConfig,
    TrainedModel,
    extract_paths,
    good_turing,
    ingest_lexicon,
    load_model,
    save_model,
    tabulate,
    top_k,
    train_model,
)

from conftest import INVENTORY_TEXT, TOY_LEXICON, entry_paths
from oracles import (ORACLE_TEMPLATES, documents, edited_documents, random_lexicon, random_transcription_text,
                     read_fields)

OSIF, RSIF = "Osif", "Rsif"


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
    reasons = Counter(reason for _, reason, _ in result.skipped)
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
    assert stress_pattern(insect.transcription) == "sw"
    assert stress_pattern(lone.transcription) == "sw"
    assert lone.transcription.stresses[0] == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 120), st.sampled_from(MEDIAL_SPLITS))
def test_a_trained_word_scores_at_least_its_training_parse(seed, size, policy):
    # training and scoring read one transcription one way: an entry's
    # pattern is the one its text reads as, and scoring the text finds a
    # parse at least as probable as the paths training counted for it
    inventory = load_inventory(INVENTORY_TEXT)
    doc = random_lexicon(random.Random(seed), size)
    result = train_model(doc, inventory, policy)
    model, texts = result.model, [line.split("\t")[1] for line in doc.splitlines()]
    for entry in ingest_lexicon(doc, inventory).entries:  # every one trains: random_lexicon draws no weak-weak word
        t = tokenize(texts[entry.lineno - 1], inventory)
        assert entry.pattern == stress_pattern(t), texts[entry.lineno - 1]
        counted = math.prod([model.lookup[label][0].get(terminal, model.lookup[label][1])
                             for label, terminal in entry_paths(entry, result.onsets, policy)])
        assert score_word(model, t).p_word >= counted, texts[entry.lineno - 1]


def test_extract_paths_monosyllables(inv):
    result = ingest_lexicon("cat\tk æ1 t\nat\tæ1 t\n", inv)
    onsets = collect_word_onsets(e.transcription for e in result.entries)
    paths = [p for e in result.entries for p in entry_paths(e, onsets)]
    counts = tabulate(paths)
    assert counts == {OSIF: {("k",): 1, (): 1}, RSIF: {("æ", "t"): 2}}
    model = TrainedModel(counts, CONFIG)
    assert model.n(OSIF) == 2 and model.n(RSIF) == 2
    assert model.total == 4


def test_extract_paths_compound(inv):
    result = ingest_lexicon("busboy\tb ʌ1 s + b ɔɪ1\n", inv)
    onsets = collect_word_onsets(e.transcription for e in result.entries)
    paths = entry_paths(result.entries[0], onsets)
    assert paths == [
        ("Osif", ("b",)), ("Rsif", ("ʌ", "s")),
        ("Osif", ("b",)), ("Rsif", ("ɔɪ",)),
    ]


def test_extract_paths_rejects_bad_patterns(inv):
    weak_weak = ingest_lexicon("of-a\tə0 z ə0\n", inv).entries[0]
    with pytest.raises(UnsupportedStressPattern):
        extract_paths(weak_weak)
    # boundary demands two strong monosyllables
    bad_compound = ingest_lexicon("x\tk æ1 + t ə0\n", inv).entries[0]
    with pytest.raises(UnsupportedStressPattern):
        extract_paths(bad_compound)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 30))
def test_extract_paths_match_syllabify(seed, size):
    inventory = load_inventory(INVENTORY_TEXT)
    entries = ingest_lexicon(random_lexicon(random.Random(seed), size), inventory).entries
    onsets = collect_word_onsets(e.transcription for e in entries)
    for entry in entries:
        assert entry.pattern == stress_pattern(entry.transcription)
        for policy in MEDIAL_SPLITS:
            try:
                paths = entry_paths(entry, onsets, policy)
            except UnsupportedStressPattern:
                continue
            syllables = [syl for word in syllabify(entry.transcription, onsets, policy)
                         for syl in word]
            runs = [run for syl in syllables for run in (syl.onset, syl.rhyme)]
            assert [terminal for _, terminal in paths] == runs
            assert [label[1] for label, _ in paths[::2]] == [syl.stress for syl in syllables]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from(MEDIAL_SPLITS))
def test_trained_counts_match_a_path_type_recount(seed, size, policy):
    # the reference counts PathType objects built from syllabify()'s
    # syllables and each template's labels, not from extract_paths
    inventory = load_inventory(INVENTORY_TEXT)
    doc = random_lexicon(random.Random(seed), size)
    entries = ingest_lexicon(doc, inventory).entries
    onsets = collect_word_onsets(e.transcription for e in entries)
    recount = Counter()
    for entry in entries:
        words = syllabify(entry.transcription, onsets, policy)
        syllables = [syl for word in words for syl in word]
        pattern = "".join([syl.stress for syl in syllables])
        try:
            (template,) = [c for c in templates_for(pattern) if len(c.words) == len(words)]
        except (UnsupportedStressPattern, ValueError):
            continue
        runs = [run for syl in syllables for run in (syl.onset, syl.rhyme)]
        recount.update(PathType(label, run) for label, run in zip(template.labels, runs))
    expected = {}
    for path, c in recount.items():
        expected.setdefault(path.label, {})[path.terminal] = c
    if not expected:
        with pytest.raises(EmptyCorpus):
            train_model(doc, inventory, policy)
        return
    model = train_model(doc, inventory, policy).model
    assert model.counts == expected
    assert model.total == recount.total()


def _literal_split(cluster: tuple, onsets: set, policy: str) -> int:
    """How many trailing consonants of a medial cluster open the second syllable."""
    longest = len(cluster)
    if policy == "always-split-cc" and len(cluster) > 1 and cluster[0] != "s":
        longest -= 1  # the first of two or more consonants stays back, unless it is s
    return max(k for k in range(longest + 1) if k == 0 or cluster[len(cluster) - k :] in onsets)


def _literal_recount(document: str, inventory, policy: str) -> dict[str, dict[tuple, int]]:
    """The path counts of an oracle lexicon, read line by line with read_fields alone."""
    entries = [read_fields(line.split("\t", 1)[1], inventory) for line in document.splitlines()]
    onsets = {()}
    for words in entries:
        for word in words:
            first = next(i for i, (_, _, vowel) in enumerate(word) if vowel)
            onsets.add(tuple(symbol for symbol, _, _ in word[:first]))
    counts: dict[str, dict[tuple, int]] = {}
    for words in entries:
        digits = [digit for word in words for _, digit, vowel in word if vowel]
        if len(words) == 1 and sorted(digits) == [1, 2]:
            digits = [0 if digit == 2 else 1 for digit in digits]  # a 1-2 or 2-1 pair is one foot
        pattern = tuple("w" if digit == 0 else "s" for digit in digits)
        categories = next(cats for n, cats in ORACLE_TEMPLATES[pattern] if n == len(words))
        syllables = []
        for word in words:
            symbols = tuple(symbol for symbol, _, _ in word)
            at = [i for i, (_, _, vowel) in enumerate(word) if vowel]
            if len(at) == 1:
                syllables.append((symbols[: at[0]], symbols[at[0] :]))
                continue
            n0, n1 = at
            j = n1 - _literal_split(symbols[n0 + 1 : n1], onsets, policy)
            syllables += [(symbols[:n0], symbols[n0:j]), (symbols[j:n1], symbols[n1:])]
        for category, (onset, rhyme) in zip(categories, syllables):
            for label, run in (("O" + category[1:], onset), ("R" + category[1:], rhyme)):
                cell = counts.setdefault(label, {})
                cell[run] = cell.get(run, 0) + 1
    return counts


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40))
def test_trained_counts_match_a_literal_recount(seed, size):
    # the reference reads each line with the oracle's read_fields and
    # makes its own fold, word onsets and medial split: no package step
    inventory = load_inventory(INVENTORY_TEXT)
    doc = random_lexicon(random.Random(seed), size)
    for policy in MEDIAL_SPLITS:
        assert train_model(doc, inventory, policy).model.counts == _literal_recount(doc, inventory, policy)


def test_training_splits_each_medial_cluster_once(inv, monkeypatch):
    syllabify_module = importlib.import_module("phonotax.syllabify")
    split = syllabify_module._split_cluster
    calls = Counter()

    def counted(cluster, onsets, policy):
        calls[cluster] += 1
        return split(cluster, onsets, policy)

    monkeypatch.setattr(syllabify_module, "_split_cluster", counted)
    doc = random_lexicon(random.Random(8), 400)
    words = [e.transcription for e in ingest_lexicon(doc, inv).entries]
    clusters = {t.symbols[t.nuclei[0] + 1 : t.nuclei[1]] for t in words if len(t.nuclei) == 2 and t.boundary is None}
    train_model(doc, inv)
    assert set(calls) == clusters and set(calls.values()) == {1}


def _planted(rng: random.Random, line: str) -> str:
    """A random_lexicon line, or one that the rules read apart, drawn with the line's own symbols."""
    orthography, text = line.split("\t")
    fields = text.split()
    roll = rng.randrange(12)
    if roll == 0:  # a line that holds no entry, or one read as a comment
        return rng.choice(["", "  ", "# comment", text, f"{orthography}\t", f" # {orthography}\t{text}"])
    if roll == 1:  # a '#' that is no comment, and an empty orthography
        return rng.choice([f"{orthography}#\t{text}", f"\t{text}"])
    if roll == 2:  # an unknown symbol, a bad digit, a digit on a consonant, a boundary too many or at an edge
        fields.insert(rng.randint(0, len(fields)), rng.choice(["q", "æ7", "ɪ3", "k1", "+"]))
    elif roll == 3:  # weak-weak, and compounds with a weak half
        fields = [re.sub("[12]$", "0", f) for f in fields]
    elif roll == 4:  # a 1-2 or 2-1 fold, or two secondaries
        digits = iter(rng.choice([("1", "2"), ("2", "1"), ("2", "2")]))
        fields = [re.sub("[0-2]$", lambda _: next(digits, "0"), f) for f in fields]
    elif roll == 5:  # no nucleus, or a missing stress digit
        fields = rng.choice([[f for f in fields if not f[-1].isdigit()] or ["t"],
                             [re.sub("[0-2]$", "", f) for f in fields]])
    elif roll == 6:  # a third syllable
        fields += ["ə0", rng.choice(["t", "n"])]
    return f"{orthography}\t{' '.join(fields)}"


def _chunk_reference(lines: list[str], first: int, inventory):
    """What a chunk of lines gives, read entry by entry through ingest, path extraction and the onset rule."""
    ingest = ingest_lexicon(lines, inventory, first + 1)
    tally, medial, unsupported = Counter(), Counter(), []
    for entry in ingest.entries:
        try:
            fixed, part = extract_paths(entry)
        except UnsupportedStressPattern:
            unsupported.append((entry.lineno, entry.orthography))
            continue
        tally.update(fixed)
        if part is not None:
            medial[part] += 1
    onsets = collect_word_onsets(entry.transcription for entry in ingest.entries)
    return tally, medial, onsets, ingest.skipped, ingest.downgraded, len(ingest.entries), unsupported


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 600), st.integers(0, 10**5))
def test_a_chunk_replays_each_shape_as_its_entries_read(seed, size, first):
    # each line of a known shape is cut by the plan of the first line of
    # its shape; the outcome must be what reading every entry gives
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    lines = [_planted(rng, line) for line in random_lexicon(rng, size).splitlines()]
    chunk = train._train_chunk(lines, first, inventory)
    reference = _chunk_reference(lines, first, inventory)
    fields = ("tally", "medial", "onsets", "skipped", "downgraded", "retained", "unsupported")
    for name, got, want in zip(fields, chunk, reference):
        assert got == want, name


def test_tabulate_invariants(inv):
    rng = random.Random(5)
    inventory = load_inventory(INVENTORY_TEXT)
    result = train_model(random_lexicon(rng, 25), inventory)
    model = result.model
    assert sum(model.n(c) for c in LABELS) == model.total
    for cell in LABELS:
        assert model.n(cell) == sum(model.counts.get(cell, {}).values())
        fof = Counter(model.counts.get(cell, {}).values())  # types per count r
        assert sum(r * k for r, k in fof.items()) == model.n(cell)
    with pytest.raises(EmptyCorpus):
        tabulate([])


def _counts_with(counts_for_osif):
    return {OSIF: dict(counts_for_osif)}


CONFIG = ModelConfig("x" * 64)


def test_good_turing_worked_example():
    m = TrainedModel(_counts_with({("a",): 3, ("b",): 1}), CONFIG)
    seen, unseen = m.lookup[OSIF]
    assert seen[("a",)] == pytest.approx(0.5625, abs=1e-12)
    assert seen[("b",)] == pytest.approx(0.1875, abs=1e-12)
    # unseen terminals get the whole reserved mass, not a share of it
    assert ("z",) not in seen and unseen == pytest.approx(0.25, abs=1e-12)


def test_good_turing_clamps():
    low = TrainedModel(_counts_with({("a",): 2, ("b",): 2}), CONFIG)
    assert low.lookup[OSIF][1] == pytest.approx(0.125, abs=1e-12)  # floor 1/(2N)
    assert low.lookup[OSIF][0][("a",)] == pytest.approx(0.4375, abs=1e-12)
    high = TrainedModel(_counts_with({("a",): 1}), CONFIG)
    assert high.lookup[OSIF][1] == pytest.approx(0.5, abs=1e-12)  # ceiling 0.5
    assert high.lookup[OSIF][0][("a",)] == pytest.approx(0.5, abs=1e-12)


def test_good_turing_all_unseen_cell():
    m = TrainedModel(_counts_with({("a",): 1}), CONFIG)
    assert m.lookup[RSIF] == ({}, CONFIG.epsilon)


def test_good_turing_full_discounts():
    # counts 1,1,2,3: N=7, N1=2, p0=2/7; r*=1 for r=1 (N2/N1=1/2 -> 2*1/2),
    # r*=3 for r=2 (3*N3/N2), r=3 undiscounted (no N4)
    counts = {("a",): 1, ("b",): 1, ("c",): 2, ("d",): 3}
    cfg = ModelConfig("x" * 64, gt_mode="full")
    seen, unseen = TrainedModel(_counts_with(counts), cfg).lookup[OSIF]
    assert unseen == pytest.approx(2 / 7, abs=1e-12)
    masses = {"a": 1 / 7, "b": 1 / 7, "c": 3 / 7, "d": 3 / 7}
    scale = (1 - 2 / 7) / sum(masses.values())
    for t, mass in masses.items():
        assert seen[(t,)] == pytest.approx(mass * scale, abs=1e-12)
    total = unseen + math.fsum(seen.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_top_k_ordering():
    m = TrainedModel(_counts_with({("b",): 2, ("a",): 2, ("c",): 5}), CONFIG)
    assert top_k(m, OSIF, 2) == [("c", 5), ("a", 2)]
    assert top_k(m, OSIF, 10) == [("c", 5), ("a", 2), ("b", 2)]
    assert top_k(m, RSIF, 3) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 30), st.sampled_from(MEDIAL_SPLITS),
       st.sampled_from(GT_MODES), st.sampled_from([1e-75, 1e-9, 1e-6, 1e-3]))
def test_model_round_trip(seed, size, policy, gt_mode, epsilon):
    inventory = load_inventory(INVENTORY_TEXT)
    doc = random_lexicon(random.Random(seed), size)
    model = train_model(doc, inventory, policy, gt_mode, epsilon).model
    assert list(model.lookup) == list(LABELS)
    assert set(model.counts) <= set(LABELS)
    doc = save_model(model)
    loaded = load_model(doc)
    assert save_model(loaded) == doc  # byte-stable
    assert loaded.lookup == model.lookup
    assert loaded.config == model.config
    assert loaded.counts == model.counts
    assert loaded.total == model.total


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
    doc = save_model(TrainedModel(_counts_with({("a",): 2, ("b",): 2}), CONFIG))
    # N, N1, the total and every probability stay as they were
    moved = _replace_line(doc, "Osif\ta\t2\t", f"Osif\ta\t{low}\t0.4375")
    moved = _replace_line(moved, "Osif\tb\t2\t", f"Osif\tb\t{high}\t0.4375")
    with pytest.raises(ModelFormatError, match="count below 1"):
        load_model(moved)


def test_load_model_rejects_a_float_off_its_derived_value(toy_model):
    doc = save_model(toy_model)
    lineno, line = next((i, l) for i, l in enumerate(doc.splitlines(), start=1) if l.startswith("Osif\tk\t"))
    count, prob = line.split("\t")[2:]
    nudged = float(prob) + 1e-15  # within 1e-12 of the value its counts imply
    assert nudged != float(prob)
    edited = f"Osif\tk\t{count}\t{nudged!r}"
    message = f"line {lineno}: the file has {edited!r} where its counts imply {line!r}"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load_model(doc.replace(line, edited))


def test_load_model_rejects_counts_too_large_to_smooth(tmp_path):
    doc = save_model(TrainedModel(_counts_with({("a",): 2, ("b",): 2}), CONFIG))
    # the cell's N and the total agree with the huge count, so only smoothing can fail
    huge = 10**400
    edited = _replace_line(doc, "Osif\ta\t2\t", f"Osif\ta\t{huge}\t0.4375")
    edited = _replace_line(edited, "p0\tOsif\t", f"p0\tOsif\t0.125\tN\t{huge + 2}\tN1\t0")
    edited = _replace_line(edited, "total\t", f"total\t{huge + 2}")
    with pytest.raises(ModelFormatError, match="too large"):
        load_model(edited)
    (tmp_path / "model.tsv").write_text(edited, encoding="utf-8")
    assert main(["tables", str(tmp_path / "model.tsv")]) == 2


def _saved(counts: dict[str, dict[tuple[str, ...], int]], config: ModelConfig = CONFIG) -> str:
    """save_model of the model of per-cell counts."""
    return save_model(TrainedModel(counts, config))


def test_load_model_rejects_counts_that_smooth_below_the_floor(tmp_path, capsys):
    # k and æ t are seen once beside 10**300 tokens: each answers about 1e-300,
    # so the parse of k æ1 t would multiply to 0 and its log fail. No model
    # holds such counts, so the file is edited from one whose counts are 1.
    huge = {OSIF: {("k",): 1, ("t",): 10**300}, RSIF: {("æ", "t"): 1, ("ɪ", "p"): 10**300}}
    message = f"^cell {OSIF}: .* below {EPSILON_MIN:g}$"
    with pytest.raises(ValueError, match=message):
        TrainedModel(huge, CONFIG)
    doc = _saved({OSIF: {("k",): 1, ("t",): 1}, RSIF: {("æ", "t"): 1, ("ɪ", "p"): 1}})
    doc = _replace_line(doc, f"{OSIF}\tt\t", f"{OSIF}\tt\t{10**300}\t0.25")
    doc = _replace_line(doc, f"{RSIF}\tɪ p\t", f"{RSIF}\tɪ p\t{10**300}\t0.25")
    with pytest.raises(ModelFormatError, match=message):
        load_model(doc)
    (tmp_path / "model.tsv").write_text(doc, encoding="utf-8")
    (tmp_path / "stimuli.tsv").write_text("w1\tk æ1 t\n", encoding="utf-8")
    for command in ("score", "evaluate"):
        assert main([command, str(tmp_path / "model.tsv"), str(tmp_path / "stimuli.tsv")]) == 2
        assert f"error: cell {OSIF}" in capsys.readouterr().err


# terminals any cell may hold, and in-scope words under every template that read them
_TERMINALS = [(), ("k",), ("s", "t"), ("æ", "t"), ("ɪ", "p"), ("ɪ",)]
_WORDS = [(f"w{i}", raw) for i, raw in enumerate([
    "k æ1 t", "æ1 t", "s t ɪ1", "k æ1 t ɪ0 p", "k æ0 s t ɪ1 p", "æ1 k ɪ1 p", "k æ1 t + s t ɪ1 p"])]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(LABELS), st.dictionaries(
    st.sampled_from(_TERMINALS), st.integers(1, 10**300), min_size=1, max_size=3)),
    st.sampled_from([1e-75, 1e-9, 1e-3]))
def test_a_model_that_loads_scores_every_word_finite(counts, epsilon):
    try:
        model = TrainedModel(counts, ModelConfig("x" * 64, epsilon=epsilon))
    except ValueError:  # counts that smooth below the floor build no model
        return
    model = load_model(save_model(model))
    for row in score_batch(model, _WORDS, load_inventory(INVENTORY_TEXT)):
        assert row.report is None or math.isfinite(row.report.ln_p_word), row


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


@pytest.mark.parametrize("text", ["∅ k", "k1", "+", ";", ":", "k;", "#k", "k#"])
def test_load_model_takes_only_symbols_an_inventory_may_hold(toy_model, text):
    def declarable(symbol):  # built, not read from a line, where #k would be a comment
        try:
            PhonemeInventory({symbol: "C"})
        except ReservedSymbol:
            return False
        return True

    doc = save_model(toy_model)
    (line,) = [l for l in doc.splitlines() if l.startswith("Osif\tk\t")]
    edited = doc.replace(line, line.replace("Osif\tk\t", f"Osif\t{text}\t"))
    if all(map(declarable, text.split())):
        assert tuple(text.split()) in load_model(edited).lookup["Osif"][0]
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


def test_a_replaced_config_is_checked_and_the_defaults_are_trainings():
    config = ModelConfig("x" * 64)
    assert config == ("x" * 64, *ModelConfig._field_defaults.values())
    assert config._replace(gt_mode="full").gt_mode == "full"
    with pytest.raises(BadConfig):
        config._replace(epsilon=1.0)
    with pytest.raises(BadConfig):
        config._replace(gt_mode="other")


def test_a_config_names_a_known_medial_split():
    for policy in MEDIAL_SPLITS:
        assert ModelConfig("x" * 64, policy).medial_split == policy
    for policy in ("bogus", "max_onset", "MAX-ONSET", ""):
        with pytest.raises(BadConfig, match=r"^medial_split must be one of \('max-onset', 'always-split-cc'\)$"):
            ModelConfig("x" * 64, policy)
    with pytest.raises(BadConfig):
        ModelConfig("x" * 64)._replace(medial_split="bogus")


def test_load_model_rejects_an_unknown_medial_split(toy_model):
    doc = _replace_line(save_model(toy_model), "config\tmedial_split\t", "config\tmedial_split\tbogus")
    with pytest.raises(ModelFormatError,
                       match=r"^bad config: medial_split must be one of \('max-onset', 'always-split-cc'\)$"):
        load_model(doc)


def test_train_model_takes_the_policy_as_the_flag_spells_it(inv, tmp_path):
    # "tr" is a word onset, so max-onset hands it whole to the second
    # syllable of "atra" and always-split-cc keeps its "t" back
    doc = TOY_LEXICON + "tree\tt r iː1\natra\tæ1 t r ə0\n"
    (tmp_path / "lexicon.tsv").write_text(doc, encoding="utf-8")
    (tmp_path / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
    written = {}
    for policy in MEDIAL_SPLITS:
        out = tmp_path / policy
        assert main(["train", str(tmp_path / "lexicon.tsv"), "--inventory", str(tmp_path / "inventory.tsv"),
                     "--medial-split", policy, "--out", str(out)]) == 0
        written[policy] = (out / "model.tsv").read_text("utf-8")
        model = train_model(doc, inv, policy=policy).model
        assert model.config.medial_split == policy
        assert save_model(model) == written[policy]
    assert written["max-onset"] != written["always-split-cc"]


def test_a_replaced_model_derives_its_lookup(toy_model):
    config = toy_model.config._replace(epsilon=1e-6)
    model = toy_model._replace(config=config)
    assert model == (toy_model.counts, config)
    for label in LABELS:
        if not model.n(label):
            assert model.lookup[label] == ({}, 1e-6)
    assert model.templates == TrainedModel(toy_model.counts, config).templates != toy_model.templates


def test_a_model_is_its_counts_and_config():
    assert TrainedModel._fields == ("counts", "config")
    model = TrainedModel({OSIF: {("k",): 2, ("t",): 1}}, CONFIG)
    assert model.total == 3 and (model.n(OSIF), model.n1(OSIF)) == (3, 1)
    assert not any(hasattr(model, name) for name in ("table", "p0", "probabilities", "all_unseen"))


def test_an_empty_cell_reserves_all_its_mass_and_answers_epsilon(inv):
    model = train_model("cat\tk æ1 t\n", inv, epsilon=1e-6).model
    # the model file writes the cell's reserved mass, 1.0, and flags the cell
    assert "p0\tOsi\t1.0\tN\t0\tN1\t0\tall_unseen" in save_model(model).splitlines()
    assert model.lookup["Osi"] == ({}, 1e-6)  # the answer an unseen terminal gets


def _accepted_keys() -> set:
    """Every (stress pattern, compound) key of one or two syllables that templates_for accepts."""
    keys = set()
    for pattern in map("".join, [*itertools.product("sw", repeat=1), *itertools.product("sw", repeat=2)]):
        for compound in (False, True):
            with contextlib.suppress(UnsupportedStressPattern):
                templates_for(pattern, compound)
                keys.add((pattern, compound))
    return keys


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 30), st.sampled_from(GT_MODES))
def test_a_model_is_a_function_of_its_counts(seed, size, gt_mode):
    inventory = load_inventory(INVENTORY_TEXT)
    rng = random.Random(seed)
    model = train_model(random_lexicon(rng, size), inventory, gt_mode=gt_mode).model
    again = TrainedModel(model.counts, model.config)
    assert again.lookup == model.lookup == good_turing(model)
    assert again.templates == model.templates
    assert set(model.templates) == _accepted_keys()
    before = {key: (tables, list(tables)) for key, tables in model.templates.items()}
    score_batch(model, [(str(i), random_transcription_text(rng)) for i in range(20)], inventory)
    assert model.templates.keys() == before.keys()
    for key, (tables, copy) in before.items():
        assert model.templates[key] is tables and tables == copy


def _mostly(good, bad):
    """``good`` four draws in five, else ``bad``: so that most drawn models are built."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 0 else good)


_SYMBOL = st.sampled_from(["k", "s", "t", "æ", "ɪ", "p"])
_TERMINAL = st.lists(_SYMBOL, max_size=3).map(tuple)
# symbols a model file cannot carry: empty, holding whitespace, a notation
# mark, ending in a digit or opening with #
_UNCARRIED = ["", "k t", " ", "k\u2028", "\x1f", "∅", "+", "k1", "#k"]
_ANY_TERMINAL = st.lists(_SYMBOL | st.sampled_from(_UNCARRIED), min_size=1, max_size=3).map(tuple)
# a cell no model may hold: one with no counts, one whose counts are floats or
# bools, or one whose terminals may hold a symbol a model file cannot carry
_FLAWED_CELL = (st.dictionaries(_TERMINAL, st.floats(-2, 1000) | st.booleans(), max_size=2)
                | st.dictionaries(_ANY_TERMINAL, st.integers(1, 1000), min_size=1, max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([*LABELS, "Xsif", "Osx", "osif"]),
                       st.dictionaries(_TERMINAL, st.integers(-2, 1000), min_size=1, max_size=4)),
       _mostly(st.none(), st.tuples(st.sampled_from(LABELS), _FLAWED_CELL)), st.sampled_from(GT_MODES),
       _mostly(st.just("x" * 64), st.text("0af \t\n\r\x0c\x85\u2028", max_size=6)))
@example({"Osif": {("k t",): 1}}, None, "simple", "x" * 64)
@example({"Osif": {("∅",): 1}}, None, "simple", "x" * 64)
@example({"Osif": {("",): 1}}, None, "simple", "x" * 64)
@example({"Osif": {("k", ""): 1}}, None, "simple", "x" * 64)
@example({"Osif": {("+",): 1}}, None, "simple", "x" * 64)
@example({"Osif": {("k1",): 1}}, None, "simple", "x" * 64)
@example({"Osif": {("#k",): 1}}, None, "simple", "x" * 64)
@example({"Osi": {("k",): 10**80, ("t",): 1}}, None, "simple", "x" * 64)
@example({"Osi": {("k",): 10**400}}, None, "simple", "x" * 64)
def test_a_model_built_from_counts_saves_a_file_that_loads(counts, flaw, gt_mode, digest):
    if flaw is not None:
        counts = {**counts, flaw[0]: flaw[1]}
    # a digest that is not printable is refused when the config is built; a
    # label outside LABELS, an empty cell, a count that is not an int of at
    # least 1 or a terminal a model file cannot carry is refused when the
    # model is built, naming the label, or the cell and terminal
    if not digest.isprintable():
        with pytest.raises(BadConfig):
            ModelConfig(digest, gt_mode=gt_mode)
        return
    unknown = {f"unknown cell label {label!r}" for label in counts if label not in LABELS}
    empty = {f"cell {label}: holds no counts" for label, cell in counts.items() if not cell}
    not_int = {(label, repr(format_terminal(terminal)), repr(c))
               for label, cell in counts.items() for terminal, c in cell.items() if type(c) is not int}
    low = {(label, repr(format_terminal(terminal)), str(c))
           for label, cell in counts.items() for terminal, c in cell.items() if type(c) is int and c < 1}
    uncarried = {(label, repr(terminal)) for label, cell in counts.items() for terminal in cell
                 if set(terminal) & set(_UNCARRIED)}
    config = ModelConfig(digest, gt_mode=gt_mode)
    if unknown or empty or not_int or low or uncarried:
        with pytest.raises(ValueError) as caught:
            TrainedModel(counts, config)
        message = str(caught.value)
        named = re.fullmatch(r"cell (\w+): count (-?\d+) below 1 for terminal (.*)", message)
        typed = re.fullmatch(r"cell (\w+): count (.*) for terminal (.*) is not an int", message)
        carried = re.fullmatch(r"cell (\w+): a model file cannot carry terminal (.*)", message)
        assert (message in unknown | empty or named is not None and named.group(1, 3, 2) in low
                or typed is not None and typed.group(1, 3, 2) in not_int
                or carried is not None and carried.group(1, 2) in uncarried)
        return
    # counts whose N does not fit a float, or that smooth a cell's answer below
    # the floor, are refused too, with the messages load_model gives such a file
    try:
        model = TrainedModel(counts, config)
    except ValueError as caught:
        message = str(caught)
        floor = re.fullmatch(rf"cell (\w+): counts so large a probability is below {EPSILON_MIN:g}", message)
        if floor is None:
            assert message == "counts too large to smooth: a cell's N does not fit a float"
            assert any(sum(cell.values()) > sys.float_info.max for cell in counts.values())
        else:
            assert sum(counts[floor.group(1)].values()) > 1 / (2 * EPSILON_MIN)
        return
    assert model.total == sum(model.n(label) for label in LABELS)
    doc = save_model(model)
    loaded = load_model(doc)
    assert loaded == model and loaded.lookup == model.lookup
    assert save_model(loaded) == doc


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(["#", "∅", "+", ";", ":", "1", " ", "\x1f", "\ud800", "k", "a"]), max_size=3))
@example("#k")
@example("k#")
@example("k\ud800")
def test_an_inventory_a_model_and_a_model_file_take_the_same_symbols(text):
    # one symbol rule: the inventory declares the text, a built model carries
    # it in a terminal, and a model file whose one record holds it loads it
    config = ModelConfig("x" * 64)
    try:
        PhonemeInventory({text: "C"})
        declared = True
    except ReservedSymbol:
        declared = False
    try:
        TrainedModel({OSIF: {(text,): 1}}, config)
        built = True
    except ValueError:
        built = False
    doc = save_model(TrainedModel({OSIF: {("k",): 1}}, config))
    edited = doc.replace(f"\n{OSIF}\tk\t", f"\n{OSIF}\t{text}\t")
    try:
        loaded = (text,) in load_model(edited).counts[OSIF]
    except ModelFormatError:
        loaded = False
    assert declared == built == loaded, (declared, built, loaded)


@pytest.mark.parametrize("separator", "\v\f\x1c\x1d\x1e\x85\u2028\u2029")
def test_a_model_file_ends_a_line_only_at_a_line_end(toy_model, separator):
    # str.splitlines also cuts at these; no input, model files included, ends a line there
    doc = save_model(toy_model)
    with pytest.raises(ModelFormatError):
        load_model(doc.replace("\n", separator))
    for i in [i for i, c in enumerate(doc) if c == "\n"]:
        with pytest.raises(ModelFormatError):
            load_model(doc[:i] + separator + doc[i + 1:])
    for ended in (doc.replace("\n", "\r\n"), doc.replace("\n", "\r"), doc[:-1]):
        assert load_model(ended) == toy_model


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


# one line per skip reason, an entry whose secondary stress is folded,
# and a weak-weak entry that ingest keeps but training cannot cut
EVERY_SKIP_LEXICON = TOY_LEXICON + "".join(f"{line}\n" for line in [
    "noline", "e1\tk æ3 t", "e2\tq æ1 t", "e3\t  ", "e4\tk æ1 + t æ1 + t æ1", "e5\tæ ɪ", "e6\tt",
    "e7\tb ə0 n æ1 n ə0", "rally\tr æ1 l ɪ2", "ofa\tə0 z ə0",
])


def test_training_makes_no_reference_cycles(inv, monkeypatch):
    # the premise of run_chunks' collector pause for training: with the
    # collector off, training leaves nothing that only it could free
    monkeypatch.setattr(chunks, "_processes", lambda rows: 1)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = train_model(EVERY_SKIP_LEXICON, inv)
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert [reason for _, reason, _ in result.skipped] == [
        "MalformedLine", "BadStressDigit", "UnknownSymbol", "EmptyTranscription", "TooManyBoundaries",
        "MissingStress", "NoNucleus", "OutOfScope",
    ]
    assert (result.downgraded, result.unsupported) == (1, [(17, "ofa")])
    assert unreachable == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 20))
def test_training_normalizes_every_cell(seed, size):
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(random.Random(seed), size), inventory).model
    for cell in LABELS:
        seen, unseen = model.lookup[cell]
        if not model.n(cell):
            assert seen == {}
            continue
        mass = unseen + math.fsum(seen.values())
        assert abs(mass - 1.0) <= 1e-9
        assert 0 < unseen <= 0.5
        assert all(p > 0 for p in seen.values())


# a saved toy model per smoothing mode: the documents the load property edits
_MODEL_DOCS = [save_model(train_model(TOY_LEXICON, load_inventory(INVENTORY_TEXT), gt_mode=mode).model)
               for mode in GT_MODES]


@st.composite
def count_edits(draw, document: str) -> str:
    """``document`` with one record's count replaced by a drawn integer, up to 10**400."""
    lines = document.splitlines()
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.count("\t") == 3]))
    fields = lines[i].split("\t")
    fields[2] = str(draw(st.integers(-1, 10**400)))
    lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_MODEL_DOCS).flatmap(lambda doc: st.one_of(documents(doc), count_edits(doc))))
def test_load_model_raises_only_phonotax_errors(document):
    with contextlib.suppress(PhonotaxError):
        load_model(document)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_MODEL_DOCS).flatmap(edited_documents))
def test_a_model_document_loads_only_as_save_model_writes_it(document):
    try:
        model = load_model(document)
    except ModelFormatError:
        return
    assert save_model(model).splitlines() == document.splitlines()


@settings(max_examples=200, deadline=None)
@given(documents(TOY_LEXICON), st.sampled_from(MEDIAL_SPLITS), st.sampled_from(GT_MODES),
       st.one_of(st.just(1e-9), st.floats()))
def test_train_model_raises_only_phonotax_errors(document, policy, gt_mode, epsilon):
    with contextlib.suppress(PhonotaxError):
        train_model(document, load_inventory(INVENTORY_TEXT), policy, gt_mode, epsilon)
