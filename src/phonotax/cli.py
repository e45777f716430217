"""Command-line surface: train, score, evaluate, tables, import-mitton.

Reports go to stdout, diagnostics to stderr, and files only under the
directory named by --out. Every command is deterministic given its
inputs, flags, and seed; re-running writes byte-identical outputs.
Exit codes: 0 success, 1 I/O trouble or a failed worker, 2 bad data or
configuration, 130 interrupted (SIGINT, as Ctrl-C sends it). Outputs
are written only once the work is done, so an interrupted run writes
none.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from collections import Counter
from collections.abc import Iterable
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .chunks import run_chunks
from .errors import BadEncoding, PhonotaxError
from .grammar import LABELS
from .phonology import PhonemeInventory, load_inventory, packaged_inventory, split_lines
from .syllabify import MEDIAL_SPLITS
from .train import (EPSILON_MAX, EPSILON_MIN, GT_MODES, FloatReprs, ModelConfig, TrainedModel, load_model,
                    save_model, top_k, train_model)

if TYPE_CHECKING:
    from .score import BatchRow

SCORE_COLUMNS = ("word_id", "p_word", "ln_p_word", "p_worst", "p_best", "best_parse_paths", "error")


def _run_on_first_use(*names: str) -> None:
    """Put the named submodules in ``sys.modules`` unrun: each runs when a name in it is first read.

    ``train`` reads neither ``score`` nor ``parse``, so it never runs
    them, while code that swaps one of their functions before a command
    runs (``bench/tracing.py`` does) finds them as if they were imported.
    A submodule already imported is left as it is.
    """
    package = sys.modules[__package__]
    for name in names:
        spec = importlib.util.find_spec(f"{__package__}.{name}")
        if spec.name in sys.modules:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        setattr(package, name, module)
        spec.loader.exec_module(module)


_run_on_first_use("parse", "score")


def _read(path: Path) -> str:
    """An input file's text, less any leading byte-order mark; bad UTF-8 is bad data, not a crash."""
    try:
        return path.read_text("utf-8-sig")
    except UnicodeDecodeError as err:
        raise BadEncoding(f"{path}: not valid UTF-8 ({err.reason})") from None


def _load_inventory(args: argparse.Namespace) -> PhonemeInventory:
    if args.inventory is None:
        return packaged_inventory()
    return load_inventory(_read(args.inventory.resolve()))


def _skip_reasons(skipped: list[tuple[int, str, str]]) -> str:
    """Each skip reason with its count, by reason: ``NoNucleus 2, OutOfScope 1``."""
    return ", ".join(f"{r} {c}" for r, c in sorted(Counter(reason for _, reason, _ in skipped).items()))


def _write(out_dir: Path, name: str, text: str) -> Path:
    """Write a file under the out directory; the returned path is absolute."""
    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def cmd_train(args: argparse.Namespace) -> int:
    inv = _load_inventory(args)
    result = train_model(
        _read(args.lexicon), inv,
        policy=args.medial_split, gt_mode=args.gt, epsilon=args.epsilon,
    )
    model_path = _write(args.out, "model.tsv", save_model(result.model))
    print(f"lexicon entries: retained {result.retained}, skipped {len(result.skipped)}, "
          f"downgraded {result.downgraded}")
    if result.skipped:
        print(f"skip reasons: {_skip_reasons(result.skipped)}")
    if result.unsupported:
        print(f"unsupported stress patterns: {len(result.unsupported)} entries left untrained")
    print(f"trained entries: {result.trained_entries}")
    print(f"path instances: {result.path_count}")
    print(f"word onsets: {len(result.onsets)}")
    print("per-cell totals:")
    for kind in "OR":
        row = "  ".join(f"{label} {result.model.n(label)}" for label in LABELS if label[0] == kind)
        print(f"  {row}")
    print(f"model: {model_path}")
    return 0


def _load_batch(args: argparse.Namespace) -> tuple[TrainedModel, PhonemeInventory, list[str]]:
    """The model, the inventory and the stimuli lines that ``score`` and ``evaluate`` read.

    The lines are left unread: each chunk of ``run_chunks`` reads its
    own through ``stimulus_rows``.
    """
    inv = _load_inventory(args)
    model = load_model(_read(args.model))
    if model.config.inventory_digest != inv.digest:
        print("warning: inventory digest differs from the one the model was trained with", file=sys.stderr)
    return model, inv, split_lines(_read(args.stimuli))


def _score_lines(batch: Iterable[BatchRow]) -> str:
    """The scored rows' ``scores.tsv`` lines, each ending in a newline."""
    lines = []
    part = FloatReprs()  # part probabilities are model probabilities: few distinct values
    # p(word) -> it and its log rendered: products of few distinct values recur
    words: dict[float, str] = {}
    for word_id, rep, error in batch:
        if rep is None:
            lines.append(f"{word_id}\t\t\t\t\t\t{error or ''}")
            continue
        p_word, ln_p_word, p_worst, p_best, winner = rep
        scores = words.get(p_word)
        if scores is None:
            scores = words[p_word] = f"{p_word!r}\t{ln_p_word!r}"
        lines.append(f"{word_id}\t{scores}\t{part[p_worst]}\t{part[p_best]}\t{winner.path_text}\t")
    lines.append("")
    return "\n".join(lines)


def _evaluation_rows(
    batch: Iterable[BatchRow],
) -> list[tuple[str, tuple[float, float, float, float] | None, str | None]]:
    """The scored rows as ``evaluate`` reads them: the word id, its four scores or None, and the error.

    The rows are plain tuples, the cheapest to send up a worker's pipe.
    """
    return [(word_id, None if rep is None else rep[:4], error) for word_id, rep, error in batch]


def cmd_score(args: argparse.Namespace) -> int:
    from .score import score_batch, stimulus_rows

    model, inv, lines = _load_batch(args)
    texts = run_chunks(lines, lambda chunk, first: _score_lines(score_batch(model, stimulus_rows(chunk), inv)))
    if not any(texts):
        print("warning: stimuli file holds no rows", file=sys.stderr)
    texts.insert(0, "\t".join(SCORE_COLUMNS) + "\n")
    sys.stdout.writelines(texts)
    if args.out is not None:
        _write(args.out, "scores.tsv", "".join(texts))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .plot import scatter_csv, scatter_svg
    from .score import score_batch, stimulus_rows
    from .stats import evaluate, load_judgments, synthetic_judgments

    model, inv, lines = _load_batch(args)
    batch = [*chain.from_iterable(run_chunks(
        lines, lambda chunk, first: _evaluation_rows(score_batch(model, stimulus_rows(chunk), inv))))]
    failed = [(word_id, error) for word_id, scores, error in batch if scores is None]
    if failed:
        print(f"warning: {len(failed)} stimuli failed to score and are excluded", file=sys.stderr)
        for word_id, error in failed:
            print(f"  {word_id}: {error}", file=sys.stderr)
    reports = [(word_id, scores) for word_id, scores, _ in batch if scores is not None]
    if args.judgments is not None:
        judgments = load_judgments(_read(args.judgments))
        print(f"judgments: {args.judgments} ({len(judgments)} records)")
    else:
        judgments = synthetic_judgments(reports, args.seed)
        print(f"judgments: synthetic (seed {args.seed}, {len(judgments)} records)")
    results, scatter = evaluate(reports, judgments)
    print(f"n = {results[0].n}, df = {results[0].df}")
    for i, res in enumerate(results, start=1):
        name = f"{i}) {res.method}"
        if res.r is None:
            print(f"{name:<18} r = undefined (zero variance)")
            continue
        print(f"{name:<18} r = {res.r:+.4f}   t = {res.t:+.3f}   p = {res.p:.4g}   {res.significant_at}")
    if args.out is not None:
        csv_path = _write(args.out, "scatter.csv", scatter_csv(scatter))
        svg_path = _write(args.out, "scatter.svg", scatter_svg(scatter))
        print(f"scatter: {csv_path}, {svg_path}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise PhonotaxError("--top must be at least 1")
    model = load_model(_read(args.model))
    for kind, title in (("O", "Onsets"), ("R", "Rhymes")):
        columns = []
        for label in LABELS:
            if label[0] == kind:
                columns.append([label] + [f"{t} {c}" for t, c in top_k(model, label, args.top)])
        height = max(len(col) for col in columns)
        widths = [max(len(entry) for entry in col) for col in columns]
        print(title)
        for i in range(height):
            line = "  ".join(
                (col[i] if i < len(col) else "").ljust(w) for col, w in zip(columns, widths)
            )
            print(f"  {line.rstrip()}")
        print()
    return 0


def cmd_import_mitton(args: argparse.Namespace) -> int:
    from .mitton import convert_mitton

    result = convert_mitton(args.dictionary.read_text("utf-8-sig", errors="replace"))
    path = _write(args.out, "lexicon.tsv", result.lexicon_text)
    print(f"converted entries: {result.converted}")
    if result.skipped:
        print(f"skipped: {len(result.skipped)} ({_skip_reasons(result.skipped)})")
    for note, count in sorted(result.notes.items()):
        print(f"note: {note} on {count} entries")
    print(f"lexicon: {path}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--inventory", type=Path, default=None,
                     help="phoneme inventory TSV (default: packaged IPA set)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonotax",
        description="Train positional onset/rhyme path probabilities and score novel words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a lexicon")
    p.add_argument("lexicon", type=Path)
    _add_common(p)
    defaults = ModelConfig._field_defaults
    p.add_argument("--medial-split", choices=MEDIAL_SPLITS, default=defaults["medial_split"])
    p.add_argument("--gt", choices=GT_MODES, default=defaults["gt_mode"])
    p.add_argument("--epsilon", type=float, default=defaults["epsilon"],
                   help="probability of any path in a cell the lexicon leaves empty "
                        f"(default {defaults['epsilon']:g}, range [{EPSILON_MIN:g}, {EPSILON_MAX:g}])")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score stimuli against a model")
    p.add_argument("model", type=Path)
    p.add_argument("stimuli", type=Path)
    _add_common(p)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="correlate scores with judgments")
    p.add_argument("model", type=Path)
    p.add_argument("stimuli", type=Path)
    p.add_argument("judgments", type=Path, nargs="?", default=None,
                   help="CSV word_id,votes_against; omitted -> seeded synthetic votes")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tables", help="print the most frequent terminals per cell")
    p.add_argument("model", type=Path)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("import-mitton", help="convert a text710.dat dictionary to lexicon format")
    p.add_argument("dictionary", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_import_mitton)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PhonotaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # run_chunks has killed and reaped every worker
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
