"""Tests of the benchmark's generator, checker and tracer.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# absolute tolerance on each shape's share of 20,000 draws (about 4 sigma at 6%)
SHARE_TOLERANCE = 0.007


@pytest.fixture(scope="module")
def inventory():
    return gen.read_inventory(run.INVENTORY.read_text("utf-8"))


def _write_all(directory: Path, inventory, seed: int, n: int) -> list[Path]:
    gen.write_lexicon(directory / "lexicon.tsv", inventory, seed, n=n)
    gen.write_stimuli(directory / "mix.tsv", inventory, seed, wide=False, n=n)
    gen.write_stimuli(directory / "wide.tsv", inventory, seed, wide=True, n=n)
    return sorted(directory.iterdir())


def test_same_seed_gives_byte_identical_files(tmp_path, inventory):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _write_all(tmp_path / "a", inventory, 7, 2000)
    second = _write_all(tmp_path / "b", inventory, 7, 2000)
    other = _write_all(tmp_path / "c", inventory, 8, 2000)
    assert [p.name for p in first] == [p.name for p in second]
    assert len(first) == 6  # three tables, three planted sidecars
    for a, b, c in zip(first, second, other):
        assert a.read_bytes() == b.read_bytes()
        if a.stat().st_size:
            assert a.read_bytes() != c.read_bytes()


def test_shape_shares_stay_within_tolerance(tmp_path, inventory):
    n = 20_000
    for mix, shares in (
        (gen.LEXICON_MIX, gen.write_lexicon(tmp_path / "lexicon.tsv", inventory, 3, n=n)),
        (gen.LEXICON_MIX, gen.write_stimuli(tmp_path / "mix.tsv", inventory, 3, wide=False, n=n)),
        (gen.WIDE_MIX, gen.write_stimuli(tmp_path / "wide.tsv", inventory, 3, wide=True, n=n)),
    ):
        total = sum(mix.values())
        for shape, weight in mix.items():
            assert abs(shares.get(shape, 0) / n - weight / total) <= SHARE_TOLERANCE, shape
    planted = gen.read_planted(tmp_path / "lexicon.tsv")
    assert Counter(planted.values()) == _planted_counts(tmp_path / "lexicon.tsv")
    assert not gen.read_planted(tmp_path / "wide.tsv")


def _planted_counts(path: Path) -> Counter:
    """Planted reasons recounted from the lines themselves."""
    inventory = gen.read_inventory(run.INVENTORY.read_text("utf-8"))
    out: Counter = Counter()
    for _, raw in check.read_rows(path.read_text("utf-8")):
        symbols = [f[:-1] if f[-1].isdigit() else f for f in raw.split() if f != "+"]
        vowels = sum(1 for s in symbols if inventory.get(s) == "V")
        if any(s not in inventory for s in symbols):
            out["UnknownSymbol"] += 1
        elif vowels == 0:
            out["NoNucleus"] += 1
        elif vowels > 2:
            out["OutOfScope"] += 1
    return out


def test_generator_covers_the_inventory_and_wide_medial_range(tmp_path, inventory):
    gen.write_lexicon(tmp_path / "lexicon.tsv", inventory, 1, n=20_000)
    text = (tmp_path / "lexicon.tsv").read_text("utf-8")
    used = {f[:-1] if f[-1].isdigit() else f for line in text.splitlines() for f in line.split("\t")[1].split()}
    assert set(inventory) <= used
    gen.write_stimuli(tmp_path / "wide.tsv", inventory, 1, wide=True, n=2000)
    for _, raw in check.read_rows((tmp_path / "wide.tsv").read_text("utf-8")):
        symbols = [f[:-1] if f[-1].isdigit() else f for f in raw.split()]
        nuclei = [i for i, s in enumerate(symbols) if inventory[s] == "V"]
        assert len(nuclei) == 2 and 2 <= nuclei[1] - nuclei[0] - 1 <= 4


def test_wide_strong_strong_share_does_not_rest_on_the_secondary_stress_defect(tmp_path, inventory):
    n = 2000
    gen.write_stimuli(tmp_path / "wide.tsv", inventory, 1, wide=True, n=n)
    vowels = {s for s, c in inventory.items() if c == "V"}
    patterns = Counter()
    for _, raw in check.read_rows((tmp_path / "wide.tsv").read_text("utf-8")):
        (word,), _ = check._symbols_and_digits(raw)
        readings = check._stress_readings(word, vowels)
        assert "sw" not in readings  # one reading, however a 2 next to a 1 is read
        patterns["".join(readings)] += 1
    assert patterns["ss"] / n >= 0.7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, inventory):
    """A small lexicon and stimuli run through the real commands in-process."""
    from phonotax.cli import main

    work = tmp_path_factory.mktemp("outputs")
    gen.write_lexicon(work / "lexicon.tsv", inventory, 11, n=3000)
    gen.write_stimuli(work / "stimuli.tsv", inventory, 11, wide=False, n=400)
    train_out = io.StringIO()
    with contextlib.redirect_stdout(train_out):
        assert main(["train", str(work / "lexicon.tsv"), "--out", str(work)]) == 0
    score_out = io.StringIO()
    with contextlib.redirect_stdout(score_out):
        assert main(["score", str(work / "model.tsv"), str(work / "stimuli.tsv")]) == 0
    return work, train_out.getvalue(), score_out.getvalue()


def _round_trip(doc: str) -> str:
    from phonotax.train import load_model, save_model

    return save_model(load_model(doc))


def _check_scores(work: Path, scores: str, inventory):
    model = check.read_model((work / "model.tsv").read_text("utf-8"))
    vowels = {s for s, c in inventory.items() if c == "V"}
    return check.check_scores((work / "stimuli.tsv").read_text("utf-8"),
                              gen.read_planted(work / "stimuli.tsv"), scores, model, vowels)


def _check_train(work: Path, stdout: str, model_text: str, inventory):
    vowels = {s for s, c in inventory.items() if c == "V"}
    expected = check.expected_training((work / "lexicon.tsv").read_text("utf-8"),
                                       gen.read_planted(work / "lexicon.tsv"), vowels)
    return check.check_train(expected, stdout, model_text, _round_trip)


def test_checker_accepts_the_program_output(outputs, inventory):
    work, train_stdout, scores = outputs
    assert _check_train(work, train_stdout, (work / "model.tsv").read_text("utf-8"), inventory) == ([], 0)
    assert _check_scores(work, scores, inventory) == ([], 0)


def _edit_row(scores: str, edit) -> str:
    """Apply ``edit`` to the fields of the first scored row."""
    lines = scores.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        if fields[1]:
            lines[i] = "\t".join(edit(fields))
            return "\n".join(lines) + "\n"
    raise AssertionError("no scored row")


@pytest.mark.parametrize("edit", [
    lambda f: [f[0], repr(float(f[1]) * (1 + 1e-9))] + f[2:],                  # p_word changed
    lambda f: f[:3] + [f[4], f[3]] + f[5:],                                     # worst and best swapped
    lambda f: f[:5] + [f[5] + " t"] + f[6:],                                    # a symbol not in the input
    lambda f: [f[0], "", "", "", "", "", "NoNucleus: invented"],               # a valid row errs
])
def test_checker_rejects_a_changed_score_row(outputs, inventory, edit):
    work, _, scores = outputs
    problems, failed = _check_scores(work, _edit_row(scores, edit), inventory)
    assert problems and failed == 1


def test_checker_rejects_a_parse_that_is_not_the_best(outputs, inventory):
    from phonotax.parse import parse_all
    from phonotax.phonology import load_inventory, tokenize
    from phonotax.train import load_model

    work, _, scores = outputs
    model = load_model((work / "model.tsv").read_text("utf-8"))
    inv = load_inventory(run.INVENTORY.read_text("utf-8"))
    stimuli = dict(check.read_rows((work / "stimuli.tsv").read_text("utf-8")))
    lines = scores.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        if not fields[1]:
            continue
        forest = parse_all(tokenize(stimuli[fields[0]], inv), model)
        if len(forest) > 1 and forest[1].product < forest[0].product:
            runner_up = forest[1]
            lines[i] = "\t".join((
                fields[0], repr(runner_up.product), repr(math.log(runner_up.product)),
                repr(min(runner_up.probabilities)), repr(max(runner_up.probabilities)),
                runner_up.path_text, ""))
            break
    problems, failed = _check_scores(work, "\n".join(lines) + "\n", inventory)
    assert failed == 1 and "not the best parse" in problems[0]


def test_checker_rejects_a_changed_model_or_total(outputs, inventory):
    work, train_stdout, _ = outputs
    model_text = (work / "model.tsv").read_text("utf-8")
    lines = model_text.splitlines()
    record = next(i for i, line in enumerate(lines) if line.startswith("Osif\t"))
    label, terminal, count, prob = lines[record].split("\t")
    lines[record] = "\t".join((label, terminal, count, repr(float(prob) * 1.5)))
    changed_model = "\n".join(lines) + "\n"
    problems, failed = _check_train(work, train_stdout, changed_model, inventory)
    assert problems and failed == 3000
    changed_stdout = train_stdout.replace("path instances: ", "path instances: 1")
    problems, _ = _check_train(work, changed_stdout, model_text, inventory)
    assert problems


def test_tracer_self_times_sum_to_the_root_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))
    middle = tracer.wrap("middle", lambda: [leaf() for _ in range(3)])
    with tracer.span("root"):
        middle()
        leaf()
    own = tracer.self_times()
    (root,) = tracer.durations("root")
    assert set(own) == {"root", "middle", "leaf"}
    assert len(tracer.durations("leaf")) == 4
    assert sum(own.values()) == pytest.approx(root, rel=1e-9)
    assert min(own.values()) >= 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
