"""Output checker for the benchmark, independent of the package's parser.

It reads model files with its own code and checks ``train`` and
``score`` outputs against what the generated inputs imply:

- train: stdout totals agree with the input lines, the planted
  rejections and the model file; every cell's counts and Good-Turing
  numbers agree with each other; the model file round-trips through
  the package's ``load_model`` and ``save_model`` byte for byte.
- score: one row per input row in input order; errors on exactly the
  planted ids, with the planted error class; per scored row, the listed
  paths' probabilities (seen, cell p0, or epsilon for an all-unseen
  cell) give p_word, p_worst, p_best and ln p_word, and the paths are
  the best parse that a brute-force search over the input's own symbols
  finds, so they fill a legal template and rebuild the input in order.

Each check returns a list of problems and the number of input rows
with a wrong outcome; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field

NULL_TERMINAL = "∅"
CELL_LABELS = tuple(k + c for k in "OR" for c in ("si", "sf", "sif", "wi", "wf", "wif"))
# syllable categories per stress pattern; the single-word reading comes first
COMPOUND = ("Ssif", "Ssif")
TEMPLATES = {
    ("s",): [("Ssif",)], ("w",): [("Swif",)], ("w", "s"): [("Swi", "Ssf")],
    ("s", "w"): [("Ssi", "Swf")], ("s", "s"): [("Ssi", "Ssf"), COMPOUND],
}
SCORE_HEADER = "word_id\tp_word\tln_p_word\tp_worst\tp_best\tbest_parse_paths\terror"
# accepted error classes per planted reason (ThreePlusNuclei subclasses OutOfScope)
ERROR_CLASSES = {
    "OutOfScope": {"OutOfScope", "ThreePlusNuclei"},
    "NoNucleus": {"NoNucleus"},
    "UnknownSymbol": {"UnknownSymbol"},
}
MAX_LISTED = 20


@dataclass
class Model:
    config: dict[str, str] = field(default_factory=dict)
    total: int = -1
    declared_records: int = -1
    p0: dict[str, float] = field(default_factory=dict)
    n: dict[str, int] = field(default_factory=dict)
    n1: dict[str, int] = field(default_factory=dict)
    all_unseen: set[str] = field(default_factory=set)
    records: dict[str, dict[str, tuple[int, float]]] = field(default_factory=dict)

    @property
    def epsilon(self) -> float:
        return float(self.config["epsilon"])

    def prob(self, label: str, terminal: str) -> float:
        if label in self.all_unseen:
            return self.epsilon
        seen = self.records[label].get(terminal)
        return seen[1] if seen is not None else self.p0[label]


def read_model(text: str) -> Model:
    """Parse a model document; raises ValueError on a line it cannot read."""
    lines = text.splitlines()
    if not lines or lines[0] != "phonotax-model v1":
        raise ValueError("missing model header")
    model = Model(records={label: {} for label in CELL_LABELS})
    for line in lines[1:]:
        parts = line.split("\t")
        if parts[0] == "config":
            model.config[parts[1]] = parts[2]
        elif parts[0] == "total":
            model.total = int(parts[1])
        elif parts[0] == "records":
            model.declared_records = int(parts[1])
        elif parts[0] == "p0":
            label = parts[1]
            model.p0[label] = float(parts[2])
            model.n[label] = int(parts[4])
            model.n1[label] = int(parts[6])
            if parts[7:] == ["all_unseen"]:
                model.all_unseen.add(label)
        elif parts[0] in model.records and len(parts) == 4:
            model.records[parts[0]][parts[1]] = (int(parts[2]), float(parts[3]))
        else:
            raise ValueError(f"unreadable model line {line!r}")
    return model


def check_model(model: Model) -> list[str]:
    """Internal consistency of a model, re-deriving simple Good-Turing."""
    problems = []
    if set(model.p0) != set(CELL_LABELS):
        return ["model lacks a p0 line for some cell"]
    counts = {label: [c for c, _ in recs.values()] for label, recs in model.records.items()}
    if sum(len(c) for c in counts.values()) != model.declared_records:
        problems.append("records line disagrees with the record count")
    if sum(sum(c) for c in counts.values()) != model.total:
        problems.append("total line disagrees with the summed counts")
    for label in CELL_LABELS:
        n, n1 = sum(counts[label]), sum(1 for c in counts[label] if c == 1)
        if (n, n1) != (model.n[label], model.n1[label]):
            problems.append(f"{label}: N/N1 disagree with the records")
        if (n == 0) != (label in model.all_unseen):
            problems.append(f"{label}: all_unseen flag disagrees with N")
        if n == 0:
            continue
        p0 = min(0.5, max(n1 / n, 1.0 / (2 * n)))
        if not math.isclose(model.p0[label], p0, rel_tol=1e-12):
            problems.append(f"{label}: p0 {model.p0[label]!r} is not {p0!r}")
        mass = model.p0[label] + math.fsum(p for _, p in model.records[label].values())
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"{label}: mass sums to {mass!r}")
        if model.config.get("gt") == "simple":
            for terminal, (c, p) in model.records[label].items():
                if not math.isclose(p, (1.0 - p0) * c / n, rel_tol=1e-12):
                    problems.append(f"{label} {terminal}: p {p!r} is not (1 - p0) * {c} / {n}")
    return problems


def _symbols_and_digits(raw: str) -> tuple[list[list[tuple[str, str | None]]], bool]:
    """Per phonological word, (symbol, stress digit or None); and whether '+' split it."""
    words: list[list[tuple[str, str | None]]] = [[]]
    for field_ in raw.split():
        if field_ == "+":
            words.append([])
        elif field_[-1].isdigit():
            words[-1].append((field_[:-1], field_[-1]))
        else:
            words[-1].append((field_, None))
    return words, len(words) == 2


def _stress_readings(word: list[tuple[str, str | None]], vowels: set[str]) -> list[str]:
    """Allowed s/w readings per nucleus of one word.

    Digit 0 is weak; 1, or none on a monosyllable, is strong. A 2 is
    strong, or weak when it sits next to a 1 in the same word, the
    reading training gives it.
    """
    digits = [d for s, d in word if s in vowels]
    out = []
    for i, d in enumerate(digits):
        if d == "0":
            out.append("w")
        elif d == "2" and "1" in digits[max(0, i - 1) : i] + digits[i + 1 : i + 2]:
            out.append("sw")
        else:
            out.append("s")
    return out


def read_rows(text: str) -> list[tuple[str, str]]:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            word_id, _, raw = line.partition("\t")
            rows.append((word_id.strip(), raw))
    return rows


def expected_training(lexicon_text: str, planted: dict[str, str], vowels: set[str]) -> dict:
    """What ``train`` must report for a lexicon, derived without the package.

    Valid lines are the non-planted ones. A secondary stress next to a
    primary in the same word trains as unstressed. A medial cluster
    gives the second syllable its longest suffix attested as a word
    onset (the default max-onset policy). Each trained syllable yields
    one onset and one rhyme path in the cell its template assigns.
    """
    rows = read_rows(lexicon_text)
    onsets = {()}
    entries = []
    downgraded = 0
    for orthography, raw in rows:
        if orthography in planted:
            continue
        words, marked = _symbols_and_digits(raw)
        readings = [r for word in words for r in _stress_readings(word, vowels)]
        downgraded += "sw" in readings
        symbols = [[sym for sym, _ in word] for word in words]
        for word in symbols:
            first = next(i for i, sym in enumerate(word) if sym in vowels)
            onsets.add(tuple(word[:first]))
        # a downgradable 2 trains weak; a marked entry takes the compound template
        pattern = tuple(r[-1] for r in readings)
        cats = next((c for c in TEMPLATES.get(pattern, ()) if (c == COMPOUND) == marked), None)
        entries.append((symbols, cats))
    records: Counter[tuple[str, str]] = Counter()
    unsupported = 0
    for symbols, cats in entries:
        if cats is None:
            unsupported += 1
            continue
        syllables = []
        for word in symbols:
            nuclei = [i for i, sym in enumerate(word) if sym in vowels]
            if len(nuclei) == 1:
                syllables.append((word[: nuclei[0]], word[nuclei[0] :]))
                continue
            n0, n1 = nuclei
            cluster = word[n0 + 1 : n1]
            take = next((k for k in range(len(cluster), 0, -1) if tuple(cluster[-k:]) in onsets), 0)
            cut = n1 - take
            syllables += [(word[:n0], word[n0:cut]), (word[cut:n1], word[n1:])]
        for cat, (onset, rhyme) in zip(cats, syllables):
            records["O" + cat[1:], " ".join(onset) or NULL_TERMINAL] += 1
            records["R" + cat[1:], " ".join(rhyme)] += 1
    cells: Counter[str] = Counter()
    for (label, _), count in records.items():
        cells[label] += count
    return {
        "lines": len(rows),
        "retained": len(entries),
        "skip_reasons": dict(Counter(planted.values())),
        "downgraded": downgraded,
        "unsupported": unsupported,
        "trained": len(entries) - unsupported,
        "paths": sum(records.values()),
        "word_onsets": len(onsets),
        "cells": {label: cells.get(label, 0) for label in CELL_LABELS},
        "records": records,
    }


def read_train_stdout(stdout: str) -> dict:
    """Totals from ``phonotax train`` stdout."""
    out: dict = {"skip_reasons": {}, "unsupported": 0, "cells": {}}
    m = re.search(r"lexicon entries: retained (\d+), skipped (\d+), downgraded (\d+)", stdout)
    if m:
        out["retained"], out["skipped"], out["downgraded"] = map(int, m.groups())
    m = re.search(r"skip reasons: (.*)", stdout)
    if m:
        for part in m.group(1).split(", "):
            reason, count = part.rsplit(" ", 1)
            out["skip_reasons"][reason] = int(count)
    m = re.search(r"unsupported stress patterns: (\d+)", stdout)
    if m:
        out["unsupported"] = int(m.group(1))
    for key, pattern in (("trained", "trained entries"), ("paths", "path instances"),
                         ("word_onsets", "word onsets")):
        m = re.search(pattern + r": (\d+)", stdout)
        if m:
            out[key] = int(m.group(1))
    for label, count in re.findall(r"\b([OR][sw]i?f?) (\d+)", stdout):
        out["cells"][label] = int(count)
    return out


def check_train(expected: dict, stdout: str, model_text: str, round_trip) -> tuple[list[str], int]:
    """Check one train run; ``round_trip(doc)`` is save_model(load_model(doc))."""
    got = read_train_stdout(stdout)
    problems = []
    for key in ("retained", "downgraded", "unsupported", "trained", "paths", "word_onsets", "cells",
                "skip_reasons"):
        if got.get(key) != expected[key]:
            problems.append(f"train stdout {key}: {got.get(key)!r}, expected {expected[key]!r}")
    # rows with a wrong outcome: planted lines kept or valid lines skipped, per reason
    reasons = set(expected["skip_reasons"]) | set(got["skip_reasons"])
    failed = sum(abs(got["skip_reasons"].get(r, 0) - expected["skip_reasons"].get(r, 0)) for r in reasons)
    try:
        model = read_model(model_text)
    except (ValueError, IndexError) as err:
        return problems + [f"model file: {err}"], expected["lines"]
    model_problems = check_model(model)
    if model.total != expected["paths"]:
        model_problems.append(f"model total {model.total}, expected {expected['paths']} paths")
    counts = {(label, terminal): c for label, recs in model.records.items() for terminal, (c, _) in recs.items()}
    if counts != expected["records"]:
        model_problems.append("model counts disagree with the lexicon's syllables")
    try:
        if round_trip(model_text) != model_text:
            model_problems.append("save_model(load_model(doc)) != doc")
    except Exception as err:  # the package rejects the file: a failed check, not a crash
        model_problems.append(f"load_model rejects the file: {err}")
    if model_problems:
        failed = expected["lines"]  # every row feeds the model
    return problems + model_problems, failed


def best_parse(raw: str, model: Model, vowels: set[str], downgrade: bool) -> tuple[float, str] | None:
    """The best parse of a transcription as (-product, path text), by brute force.

    Every template the stress pattern allows is tried with every split
    of each medial cluster; the best has the highest product, ties going
    to the smallest path text. ``downgrade`` reads a 2 next to a 1 as
    weak, the way training does. None when no template fits.
    """
    words, marked = _symbols_and_digits(raw)
    pattern: list[str] = []
    per_word = []
    for word in words:
        symbols = [sym for sym, _ in word]
        pattern += [r[-1] if downgrade else r[0] for r in _stress_readings(word, vowels)]
        nuclei = [i for i, sym in enumerate(symbols) if sym in vowels]
        if len(nuclei) == 1:
            per_word.append([((symbols[: nuclei[0]], symbols[nuclei[0] :]),)])
        else:
            n0, n1 = nuclei
            per_word.append([
                ((symbols[:n0], symbols[n0 : n0 + 1 + keep]), (symbols[n0 + 1 + keep : n1], symbols[n1:]))
                for keep in range(n1 - n0)
            ])
    templates = [cats for cats in TEMPLATES.get(tuple(pattern), ()) if (cats == COMPOUND) >= marked]
    candidates = []
    for cats in templates:
        for combo in itertools.product(*per_word):
            texts, probs = [], []
            for cat, (onset, rhyme) in zip(cats, itertools.chain(*combo)):
                for label, terminal in (("O" + cat[1:], onset), ("R" + cat[1:], rhyme)):
                    text = " ".join(terminal) or NULL_TERMINAL
                    texts.append(f"U : W : {cat} : {label} : {text}")
                    probs.append(model.prob(label, text))
            candidates.append((-math.prod(probs), " ; ".join(texts)))
    return min(candidates, default=None)


def _check_row(raw: str, fields: list[str], model: Model, vowels: set[str]) -> str | None:
    """First problem with one scored row, or None."""
    try:
        p_word, ln_p, p_worst, p_best = (float(f) for f in fields[1:5])
    except ValueError:
        return "score fields are not numbers"
    paths = [p.split(" : ") for p in fields[5].split(" ; ")]
    if any(len(p) != 5 for p in paths):
        return "malformed best_parse_paths"
    probs = [model.prob(p[3], p[4]) for p in paths]
    if not math.isclose(p_word, math.prod(probs), rel_tol=1e-12):
        return f"p_word {p_word!r} is not the product {math.prod(probs)!r}"
    if p_worst != min(probs) or p_best != max(probs):
        return "p_worst or p_best is not the min or max path probability"
    if not math.isclose(ln_p, math.log(p_word), rel_tol=1e-9):
        return "ln_p_word is not log p_word"
    # the winner, rebuilt from the input's own symbols, under either stress reading
    readings = {best_parse(raw, model, vowels, downgrade) for downgrade in (False, True)}
    if fields[5] not in {best[1] for best in readings if best is not None}:
        return "best_parse_paths is not the best parse of the input"
    return None


def check_scores(
    stimuli_text: str, planted: dict[str, str], scores_text: str, model: Model, vowels: set[str]
) -> tuple[list[str], int]:
    """Check one score output; returns problems and the number of failed rows."""
    rows = read_rows(stimuli_text)
    lines = scores_text.splitlines()
    if not lines or lines[0] != SCORE_HEADER:
        return ["score header is wrong"], len(rows)
    out = [line.split("\t") for line in lines[1:]]
    problems = []
    if len(out) != len(rows):
        problems.append(f"{len(out)} score rows for {len(rows)} stimuli")
    failed = abs(len(out) - len(rows))
    for (word_id, raw), fields in zip(rows, out):
        if len(fields) != 7 or fields[0] != word_id:
            problem = f"row for {word_id} is missing or out of order"
        elif word_id in planted:
            error_class = fields[6].split(":", 1)[0]
            if error_class not in ERROR_CLASSES[planted[word_id]] or any(fields[1:6]):
                problem = f"planted {planted[word_id]} row reads {fields[1:]!r}"
            else:
                problem = None
        elif fields[6]:
            problem = f"valid row errs: {fields[6]}"
        else:
            problem = _check_row(raw, fields, model, vowels)
        if problem is not None:
            failed += 1
            if len(problems) < MAX_LISTED:
                problems.append(f"{word_id}: {problem}")
    return problems, failed
