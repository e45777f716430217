"""Which one-line faults in ``src/`` does the test suite catch?

Run by hand from the repository root (tier-1 does not collect it)::

    python tests/mutants.py            # every mutant in MUTANTS
    python tests/mutants.py NAME ...   # only these

Each mutant names a file under ``src/phonotax``, an exact text that
occurs in it once, the text that replaces it, and the test file
expected to catch the change. For each one the script copies ``src``,
``tests``, ``bench`` and ``pyproject.toml`` to a temporary directory,
applies the mutant there, runs that test file with ``pytest -x`` and
prints a kill table: ``killed`` with the first failing test,
``SURVIVED``, or ``absent`` when the old text is not in the file
exactly once (the code moved, and the table must follow it). Every
test file named is first run on the unmutated copy, since a file that
already fails kills nothing. Exits 1 if any mutant survived or is
absent, or a baseline run failed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/phonotax
    old: str
    new: str
    test: str  # the test file expected to fail


MUTANTS = [
    Mutant("p0-cap", "train.py",
           "reserved = min(0.5, max(", "reserved = min(0.45, max(",
           "tests/test_acceptance.py"),
    Mutant("worst-best-swap", "score.py",
           "min(probs), max(probs), best)", "max(probs), min(probs), best)",
           "tests/test_acceptance.py"),
    # the stress fold, phonology._FOLDS, read by stress_pattern and fold_stress alike
    Mutant("fold-reversed", "phonology.py",
           "_FOLDS = {(1, 2): (1, 0), (2, 1): (0, 1)}", "_FOLDS = {(1, 2): (0, 1), (2, 1): (1, 0)}",
           "tests/test_train.py"),
    Mutant("fold-in-training-only", "phonology.py",
           'for d in _FOLDS.get(digits, digits)]', "for d in digits]",
           "tests/test_train.py"),
    Mutant("split-cc-no-s-exception", "syllabify.py",
           'm > 1 and symbols[0] != "s":', "m > 1:",
           "tests/test_syllabify.py"),
    Mutant("lone-cr-not-a-line-end", "phonology.py",
           '.replace("\\r", "\\n")', "",
           "tests/test_phonology.py"),
    Mutant("full-discount-scaled", "train.py",
           "t: ((c + 1) * nr[c + 1] / nr[c]", "t: (1.1 * (c + 1) * nr[c + 1] / nr[c]",
           "tests/test_train.py"),
    Mutant("min-onset", "syllabify.py",
           "for k in range(longest, 0, -1):", "for k in range(1, longest + 1):",
           "tests/test_score_pinned.py"),
    Mutant("pearson-scaled", "stats.py",
           "return max(-1.0, min(1.0, r))", "return max(-1.0, min(1.0, 0.9 * r))",
           "tests/test_stats.py"),
    Mutant("last-tie-wins", "parse.py",
           "if product > top:\n                    top, best = product, (template, runs,",
           "if product >= top:\n                    top, best = product, (template, runs,",
           "tests/test_parse.py"),
    # the inventory's constructor checks and derived values
    Mutant("inventory-may-be-empty", "phonology.py",
           'raise EmptyDocument("inventory declares no symbols")', "pass",
           "tests/test_phonology.py"),
    Mutant("any-class", "phonology.py",
           "if kind not in (VOWEL, CONSONANT):", "if not kind:",
           "tests/test_phonology.py"),
    Mutant("replace-keeps-the-digest", "phonology.py",
           "def _make(cls, iterable) -> PhonemeInventory:", "def _unused(cls, iterable) -> PhonemeInventory:",
           "tests/test_phonology.py"),
    Mutant("equality-without-order", "phonology.py",
           "and self.digest == other.digest", "and self.classes == other.classes",
           "tests/test_phonology.py"),
    # the one symbol rule, phonology.is_symbol, and its callers in train
    Mutant("symbol-may-hold-whitespace", "phonology.py",
           "text.split() == [text] and", "text != '' and",
           "tests/test_phonology.py"),
    Mutant("symbol-may-be-empty", "phonology.py",
           "text.split() == [text] and", "(text.split() or [text]) == [text] and",
           "tests/test_phonology.py"),
    Mutant("symbol-may-be-reserved", "phonology.py",
           " and text not in RESERVED_SYMBOLS and not text[-1].isdigit()", "",
           "tests/test_phonology.py"),
    Mutant("symbol-may-open-a-comment", "phonology.py",
           ' and text[0] != "#"', "",
           "tests/test_phonology.py"),
    Mutant("model-carries-any-symbol", "train.py",
           'raise ValueError(f"cell {label}: a model file cannot carry', '(f"cell {label}: a model file cannot carry',
           "tests/test_train.py"),
    Mutant("model-below-the-floor", "train.py",
           "if min([unseen, *seen.values()]) < EPSILON_MIN:", "if False:",
           "tests/test_train.py"),
    Mutant("model-file-carries-any-symbol", "train.py",
           'raise ModelFormatError(f"line {lineno}: terminal {text!r} holds', '(f"line {lineno}: terminal {text!r} holds',
           "tests/test_train.py"),
    Mutant("symbol-may-hold-a-surrogate", "phonology.py",
           'and (text.isprintable() or not any("\\ud800" <= c <= "\\udfff" for c in text))', "and True",
           "tests/test_phonology.py"),
    # reading a lexicon: what training reports and which lines it replays
    Mutant("no-retained-line-trains-on", "train.py",
           "            raise EmptyCorpus(NO_ENTRIES)", "            pass",
           "tests/test_processes.py"),
    Mutant("lines-renumbered-per-block", "train.py",
           "+= len(block)", "+= 0",
           "tests/test_train.py"),
    Mutant("hash-line-replays-its-shape", "train.py",
           'if plan is None or "#" in line:', "if plan is None:",
           "tests/test_train.py"),
    # the process layer, chunks.run_chunks, that all three batch commands run through. Left out as
    # equivalent: a worker that keeps an earlier sibling's read end (`sibling.up.close()` -> `pass`)
    # delays that sibling's EPIPE only until its own guard check or EPIPE, within the same slice.
    Mutant("guard-skipped", "chunks.py",
           "if os.getppid() != parent:", "if False:",
           "tests/test_processes.py"),
    Mutant("sigint-not-held", "chunks.py",
           "signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])", "signal.pthread_sigmask(signal.SIG_BLOCK, [])",
           "tests/test_processes.py"),
    Mutant("second-thread-forks", "chunks.py",
           "threading is not None and threading.active_count() > 1", "False",
           "tests/test_processes.py"),
    Mutant("threshold-off-by-one", "chunks.py",
           "rows < 2 * ROWS_PER_PROCESS", "rows <= 2 * ROWS_PER_PROCESS",
           "tests/test_processes.py"),
    Mutant("worker-fails-silently", "chunks.py",
           'os.write(2, traceback.format_exc().encode("utf-8", "replace"))', "pass",
           "tests/test_processes.py"),
    Mutant("no-kill-on-failure", "chunks.py",
           "os.kill(worker.pid, signal.SIGKILL)", "pass",
           "tests/test_processes.py"),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _pytest(tree: Path, tests: list[str]) -> tuple[bool, str]:
    """Whether the test files pass in a tree, and the first failing test's id."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                         cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", run.stdout, re.MULTILINE)
    return run.returncode == 0, failed.group(1) if failed else run.stdout.strip()[-200:]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="phonotax-mutants-") as tmp:
        clean = Path(tmp, "clean")
        _copy(clean)
        for test in sorted({m.test for m in mutants}):
            passed, first = _pytest(clean, [test])
            if not passed:
                print(f"baseline fails: {test} ({first})")
                bad += 1
        print(f"{'mutant':<30} {'file':<14} {'result':<9} {'s':>5}  first failing test")
        for m in mutants:
            start = time.perf_counter()
            tree = Path(tmp, m.name)
            _copy(tree)
            target = tree / "src" / "phonotax" / m.path
            text = target.read_text("utf-8")
            if text.count(m.old) != 1:
                result, first = "absent", ""
            else:
                target.write_text(text.replace(m.old, m.new), "utf-8")
                passed, first = _pytest(tree, [m.test])
                result, first = ("SURVIVED", m.test) if passed else ("killed", first)
            shutil.rmtree(tree)
            bad += result != "killed"
            print(f"{m.name:<30} {m.path:<14} {result:<9} {time.perf_counter() - start:5.1f}  {first}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
