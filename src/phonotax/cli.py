"""Command-line surface: train, score, evaluate, tables, import-mitton.

Reports go to stdout, diagnostics to stderr, and files only under the
directory named by --out. Every command is deterministic given its
inputs, flags, and seed; re-running writes byte-identical outputs.
Exit codes: 0 success, 1 I/O trouble, 2 bad data or configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import BadEncoding, PhonotaxError
from .grammar import ALL_CELLS, ConstituentKind, cell_label
from .mitton import convert_mitton
from .phonology import PhonemeInventory, load_inventory
from .plot import scatter_csv, scatter_svg
from .score import parse_stimuli, score_batch
from .stats import evaluate, load_judgments, synthetic_judgments
from .syllabify import MedialSplitPolicy
from .train import EPSILON_MAX, EPSILON_MIN, TrainedModel, load_model, save_model, top_k, train_model

SCORE_COLUMNS = ("word_id", "p_word", "ln_p_word", "p_worst", "p_best", "best_parse_paths", "error")


@dataclass
class Config:
    inventory_path: Path | None
    medial_split: MedialSplitPolicy
    gt_mode: str
    epsilon: float
    out_dir: Path | None
    seed: int
    top: int

    def __post_init__(self) -> None:
        if self.top < 1:
            raise PhonotaxError("--top must be at least 1")
        if self.inventory_path is not None:
            self.inventory_path = self.inventory_path.resolve()
        if self.out_dir is not None:
            self.out_dir = self.out_dir.resolve()


def _config(args: argparse.Namespace) -> Config:
    return Config(
        inventory_path=getattr(args, "inventory", None),
        medial_split=MedialSplitPolicy(getattr(args, "medial_split", "max-onset")),
        gt_mode=getattr(args, "gt", "simple"),
        epsilon=getattr(args, "epsilon", 1e-9),
        out_dir=getattr(args, "out", None),
        seed=getattr(args, "seed", 0),
        top=getattr(args, "top", 10),
    )


def _read(path: Path) -> str:
    """An input file's text; a file that is not UTF-8 is bad data, not a crash."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as err:
        raise BadEncoding(f"{path}: not valid UTF-8 ({err.reason})") from None


def _load_inventory(config: Config) -> PhonemeInventory:
    if config.inventory_path is None:
        text = resources.files("phonotax").joinpath("data/inventory_ipa.tsv").read_text("utf-8")
    else:
        text = _read(config.inventory_path)
    return load_inventory(text)


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _check_inventory(model: TrainedModel, inv: PhonemeInventory) -> None:
    if model.config.inventory_digest != inv.digest:
        print(
            "warning: inventory digest differs from the one the model was trained with",
            file=sys.stderr,
        )


def cmd_train(args: argparse.Namespace) -> int:
    config = _config(args)
    inv = _load_inventory(config)
    result = train_model(
        _read(args.lexicon), inv,
        policy=config.medial_split, gt_mode=config.gt_mode, epsilon=config.epsilon,
    )
    model_path = _write(config.out_dir, "model.tsv", save_model(result.model))
    ingest = result.ingest
    print(f"lexicon entries: retained {len(ingest.entries)}, skipped {len(ingest.skipped)}, "
          f"downgraded {ingest.downgraded}")
    if ingest.skipped:
        reasons = ", ".join(f"{r} {c}" for r, c in sorted(ingest.skip_counts().items()))
        print(f"skip reasons: {reasons}")
    if result.unsupported:
        print(f"unsupported stress patterns: {len(result.unsupported)} entries left untrained")
    print(f"trained entries: {result.trained_entries}")
    print(f"path instances: {result.path_count}")
    print(f"word onsets: {len(result.onsets)}")
    print("per-cell totals:")
    for kind in ConstituentKind:
        row = "  ".join(
            f"{cell_label(cell)} {result.model.table.n(cell)}"
            for cell in ALL_CELLS if cell[1] is kind
        )
        print(f"  {row}")
    print(f"model: {model_path}")
    return 0


def _score_rows(model: TrainedModel, inv: PhonemeInventory, stimuli_text: str) -> list[str]:
    rows = parse_stimuli(stimuli_text)
    if not rows:
        print("warning: stimuli file holds no rows", file=sys.stderr)
    lines = ["\t".join(SCORE_COLUMNS)]
    for row in score_batch(model, rows, inv):
        if row.report is None:
            lines.append("\t".join((row.word_id, "", "", "", "", "", row.error or "")))
            continue
        rep = row.report
        lines.append("\t".join((
            row.word_id, repr(rep.p_word), repr(rep.ln_p_word),
            repr(rep.p_worst), repr(rep.p_best), rep.best.path_text, "",
        )))
    return lines


def cmd_score(args: argparse.Namespace) -> int:
    config = _config(args)
    inv = _load_inventory(config)
    model = load_model(_read(args.model))
    _check_inventory(model, inv)
    lines = _score_rows(model, inv, _read(args.stimuli))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if config.out_dir is not None:
        _write(config.out_dir, "scores.tsv", text)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config(args)
    inv = _load_inventory(config)
    model = load_model(_read(args.model))
    _check_inventory(model, inv)
    batch = score_batch(model, parse_stimuli(_read(args.stimuli)), inv)
    failed = [row for row in batch if row.report is None]
    if failed:
        print(f"warning: {len(failed)} stimuli failed to score and are excluded", file=sys.stderr)
        for row in failed:
            print(f"  {row.word_id}: {row.error}", file=sys.stderr)
    reports = [(row.word_id, row.report) for row in batch if row.report is not None]
    if args.judgments is not None:
        judgments = load_judgments(_read(args.judgments))
        print(f"judgments: {args.judgments} ({len(judgments)} records)")
    else:
        judgments = synthetic_judgments(reports, config.seed)
        print(f"judgments: synthetic (seed {config.seed}, {len(judgments)} records)")
    results, scatter = evaluate(reports, judgments)
    print(f"n = {results[0].n}, df = {results[0].df}")
    for i, res in enumerate(results, start=1):
        name = f"{i}) {res.method}"
        if res.r is None:
            print(f"{name:<18} r = undefined (zero variance)")
            continue
        print(f"{name:<18} r = {res.r:+.4f}   t = {res.t:+.3f}   p = {res.p:.4g}   {res.significant_at}")
    if config.out_dir is not None:
        csv_path = _write(config.out_dir, "scatter.csv", scatter_csv(scatter))
        svg_path = _write(config.out_dir, "scatter.svg", scatter_svg(scatter))
        print(f"scatter: {csv_path}, {svg_path}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    config = _config(args)
    model = load_model(_read(args.model))
    for kind, title in ((ConstituentKind.ONSET, "Onsets"), (ConstituentKind.RHYME, "Rhymes")):
        cells = [cell for cell in ALL_CELLS if cell[1] is kind]
        columns = []
        for cell in cells:
            rows = top_k(model, cell, config.top)
            columns.append([cell_label(cell)] + [f"{t} {c}" for t, c in rows])
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
    config = _config(args)
    result = convert_mitton(args.dictionary.read_text("utf-8", errors="replace"))
    path = _write(config.out_dir, "lexicon.tsv", result.lexicon_text)
    print(f"converted entries: {result.converted}")
    if result.skipped:
        reasons = ", ".join(f"{r} {c}" for r, c in sorted(result.skip_counts().items()))
        print(f"skipped: {len(result.skipped)} ({reasons})")
    for note, count in sorted(result.notes.items()):
        print(f"note: {note} on {count} entries")
    print(f"lexicon: {path}")
    return 0


def _add_common(sub: argparse.ArgumentParser, *, inventory: bool = True) -> None:
    if inventory:
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
    p.add_argument("--medial-split", choices=[m.value for m in MedialSplitPolicy],
                   default="max-onset")
    p.add_argument("--gt", choices=("simple", "full"), default="simple")
    p.add_argument("--epsilon", type=float, default=1e-9,
                   help="probability of any path in a cell the lexicon leaves empty "
                        f"(default 1e-9, range [{EPSILON_MIN:g}, {EPSILON_MAX:g}])")
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


if __name__ == "__main__":
    sys.exit(main())
