"""Acceptance gate: one test per shipping criterion.

Each test states its criterion, runs it at the stated tolerance, and
carries its own wall-clock budget where one applies. Criterion 8 needs
a dictionary file the repository cannot ship; point PHONOTAX_MITTON at
one to run it, otherwise it reports itself as skipped.
"""

import math
import os
import random
import time

import pytest
from scipy import stats as sps

from phonotax.grammar import LABELS
from phonotax.mitton import convert_mitton
from phonotax.parse import parse_all
from phonotax.phonology import tokenize
from phonotax.score import ScoreReport, score_word
from phonotax.stats import evaluate, p_two_tailed, synthetic_judgments, t_from_r
from phonotax.train import ModelConfig, TrainedModel, train_model

from oracles import oracle_best, random_lexicon, random_transcription_text


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_normalization_over_random_lexica(inv):
    """Every non-empty cell satisfies p0 + sum(p) = 1 within 1e-9."""
    start = time.monotonic()
    rng = random.Random(101)
    for trial in range(120):
        lexicon = random_lexicon(rng, rng.randint(3, 20))
        mode = "simple" if trial % 2 == 0 else "full"
        model = train_model(lexicon, inv, gt_mode=mode).model
        for cell in LABELS:
            seen, unseen = model.lookup[cell]
            if not seen:
                assert model.n(cell) == 0 and unseen == model.config.epsilon
                continue
            mass = unseen + math.fsum(seen.values())
            assert abs(mass - 1.0) <= 1e-9, (trial, cell, mass)
    assert time.monotonic() - start < 5.0


def _random_pairs(inv, n_models: int, n_inputs: int):
    """Deterministic (model, transcription text) pairs shared by criteria 2 and 3."""
    rng = random.Random(20_260_819)
    for _ in range(n_models):
        lexicon = random_lexicon(rng, rng.randint(5, 25))
        model = train_model(lexicon, inv).model
        for _ in range(n_inputs):
            yield model, random_transcription_text(rng)


def test_criterion_2_best_parse_matches_brute_force(inv):
    """200 random inputs agree with exhaustive enumeration.

    The best parse must carry the same path sequence and a product
    within 1e-12 relative of the oracle's.
    """
    start = time.monotonic()
    checked = 0
    for model, raw in _random_pairs(inv, 20, 10):
        best = parse_all(tokenize(raw, inv), model)[0]
        want_product, want_paths = oracle_best(raw, inv, model)
        assert best.path_text.split(" ; ") == want_paths, raw
        assert _rel(best.product, want_product) <= 1e-12, raw
        checked += 1
    assert checked == 200
    assert time.monotonic() - start < 10.0


def test_criterion_3_product_law(inv):
    """ln(product) equals the sum of path logs for every parse in the forest."""
    for model, raw in _random_pairs(inv, 20, 10):
        for scored in parse_all(tokenize(raw, inv), model):
            lhs = math.log(scored.product)
            rhs = math.fsum(math.log(p) for p in scored.probabilities)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (raw, scored.path_text)


def test_criterion_4_smoothing_worked_examples():
    """Hand-computed discounts reproduce to 1e-12."""
    cell = "Osi"
    config = ModelConfig("0" * 64)

    def fit(counts):
        """The cell's seen probabilities and its p0."""
        return TrainedModel({cell: dict(counts)}, config).lookup[cell]

    seen, p0 = fit({("a",): 3, ("b",): 1})
    assert abs(p0 - 0.25) <= 1e-12
    assert abs(seen[("a",)] - 0.5625) <= 1e-12
    assert abs(seen[("b",)] - 0.1875) <= 1e-12

    seen, p0 = fit({("a",): 2, ("b",): 2})
    assert abs(p0 - 0.125) <= 1e-12
    assert abs(seen[("a",)] - 0.4375) <= 1e-12
    assert abs(seen[("b",)] - 0.4375) <= 1e-12

    seen, p0 = fit({("a",): 1})
    assert abs(p0 - 0.5) <= 1e-12
    assert abs(seen[("a",)] - 0.5) <= 1e-12


def test_criterion_5_test_statistic_reference_points():
    """t(r=0) and p(t=0) are exact; the .05 crossing sits at the textbook value."""
    assert t_from_r(0.0, 116) == 0.0
    assert p_two_tailed(0.0, 114) == 1.0

    lo, hi = 1.0, 3.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if p_two_tailed(mid, 114) > 0.05:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 1.981) <= 1e-3
    assert abs(lo - sps.t.ppf(0.975, 114)) <= 1e-9

    # a 116-item experiment runs at 114 degrees of freedom
    reports = [
        (f"w{i}", ScoreReport(p, math.log(p), p, p, None))
        for i, p in enumerate(0.5 ** (1 + (k % 13)) for k in range(116))
    ]
    judgments = synthetic_judgments(reports, seed=1)
    results, _ = evaluate(reports, judgments)
    assert all(r.n == 116 and r.df == 114 for r in results)


def test_criterion_6_synthetic_experiment(inv):
    """116 stimuli, seeded votes: methods 1-3 significant, log wins."""
    start = time.monotonic()
    rng = random.Random(606)
    model = train_model(random_lexicon(rng, 40), inv).model

    stimuli = {}
    while len(stimuli) < 116:
        text = random_transcription_text(rng)
        if text not in stimuli:
            stimuli[text] = tokenize(text, inv)
    reports = [
        (f"s{i}", score_word(model, t)) for i, t in enumerate(stimuli.values())
    ]
    judgments = synthetic_judgments(reports, seed=606)
    results, scatter = evaluate(reports, judgments)

    assert len(scatter) == 116
    by_method = {r.method: r for r in results}
    for method in ("p(word)", "ln p(word)", "p(worst part)"):
        assert by_method[method].p < 0.05, by_method[method]
    assert abs(by_method["ln p(word)"].r) >= abs(by_method["p(word)"].r)
    assert time.monotonic() - start < 5.0


def test_criterion_7_unseen_onset_twin(inv):
    """Swapping a seen onset for an unseen one hurts p(word) and p(worst) only."""
    lexicon = "".join(
        f"{onset}{i}\t{onset} æ1 t\n" for onset in ("k", "b", "s", "m", "p") for i in range(3)
    )
    model = train_model(lexicon, inv).model
    seen = score_word(model, tokenize("k æ1 t", inv))
    twin = score_word(model, tokenize("g æ1 t", inv))
    winner = parse_all(tokenize("g æ1 t", inv), model)[0]
    assert not all(path.terminal in model.lookup[path.label][0] for path in winner.paths)
    assert twin.p_word < seen.p_word
    assert twin.p_worst < seen.p_worst
    assert twin.p_best == seen.p_best


def test_criterion_8_dictionary_reproduction(default_inv, capsys):
    """Counts from a full dictionary run, reported against published figures.

    Informational: deviations are printed, not failed, since dictionary
    files differ by edition and cleanup.
    """
    path = os.environ.get("PHONOTAX_MITTON")
    if not path:
        pytest.skip("set PHONOTAX_MITTON to a Mitton-style dictionary file to run")

    with open(path, encoding="utf-8", errors="replace") as fh:
        imported = convert_mitton(fh.read())
    result = train_model(imported.lexicon_text, default_inv)
    retained = result.retained

    lines = [
        ("retained entries", retained, 48_580),
        ("path instances", result.path_count, 98_697),
    ]
    for label, cell, terminal, want in (
        ("Osf s", "Osf", ("s",), 234),
        ("Osi null", "Osi", (), 1_180),
        ("Owf l", "Owf", ("l",), 979),
    ):
        got = result.model.counts.get(cell, {}).get(terminal, 0)
        lines.append((label, got, want))

    with capsys.disabled():
        print("\ndictionary reproduction report:")
        for i, (label, got, want) in enumerate(lines):
            dev = (got - want) / want
            flag = " (outside the 5% window)" if i < 2 and abs(dev) > 0.05 else ""
            print(f"  {label}: got {got}, published {want}, deviation {dev:+.1%}{flag}")

    assert retained > 0
    assert result.path_count > 0
