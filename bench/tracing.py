"""Traced in-process run of phonotax, for the benchmark's per-layer split.

Run as a child process with the package on ``PYTHONPATH``::

    python3 bench/tracing.py LEXICON STIMULI VOTES OUT_DIR

It wraps the public functions of each module from outside the package
(every module-level reference to the function is swapped, so calls
between modules are caught too), then runs ``phonotax train`` and
``phonotax score`` through ``cli.main`` in this process. As each scored
forest is built, two separate passes render and re-unify every parse in
it. Last, the scores are evaluated against the given votes. Spans (name,
start, end, parent) are kept in memory and written to
``OUT_DIR/spans.tsv.gz`` at the end, with the per-layer summary in
``OUT_DIR/trace.json``.
"""

from __future__ import annotations

import array
import contextlib
import gzip
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# (module, function) pairs whose calls are spans; the span is "<module>.<function>"
WRAPPED = (
    ("phonology", "load_inventory"), ("phonology", "tokenize"),
    ("train", "train_model"), ("train", "ingest_lexicon"), ("train", "extract_paths"),
    ("train", "tabulate"), ("train", "good_turing"), ("train", "save_model"), ("train", "load_model"),
    ("syllabify", "collect_word_onsets"), ("syllabify", "syllabify"),
    ("score", "parse_stimuli"), ("score", "score_batch"), ("score", "score_word"),
    ("parse", "parse_all"), ("parse", "enumerate_segmentations"),
    ("stats", "load_judgments"), ("stats", "evaluate"),
    ("plot", "scatter_csv"), ("plot", "scatter_svg"),
)
# spans timed around the separate passes over every scored forest
PASSES = ("grammar.format_path", "grammar.sequential_unify")
LAYERS = tuple(f"{m}.{f}" for m, f in WRAPPED) + PASSES


class Tracer:
    """Span recorder. Span i is names[i], starts[i], ends[i], parents[i].

    Flat arrays keep a quarter of a million spans out of the garbage
    collector's way; a parent of -1 marks a top-level span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.stack = array.array("i", [-1])

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, then=None):
        """``fn`` with each call recorded as a span; ``then(result)`` runs after it."""
        name_id = self._id(name)
        name_ids, starts, ends, parents, stack = self.name_ids, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if then is not None:
                then(result)
            return result

        return traced

    def durations(self, name: str, minus: tuple[str, ...] = ()) -> list[float]:
        """Durations of the spans called ``name``, less their children named in ``minus``."""
        name_id, minus_ids = self._id(name), {self._id(m) for m in minus}
        spans = zip(self.name_ids, self.starts, self.ends, self.parents)
        out = {i: e - s for i, (n, s, e, _) in enumerate(spans) if n == name_id}
        for n, s, e, parent in zip(self.name_ids, self.starts, self.ends, self.parents):
            if n in minus_ids and parent in out:
                out[parent] -= e - s
        return list(out.values())

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed durations minus those of direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for parent, d in zip(self.parents, list(own)):
            if parent >= 0:
                own[parent] -= d
        totals = dict.fromkeys(self.names, 0.0)
        for name_id, t in zip(self.name_ids, own):
            totals[self.names[name_id]] += t
        return totals

    def write(self, path: Path) -> None:
        """Spans as gzipped ``name<TAB>start<TAB>end<TAB>parent`` lines."""
        lines = [f"{self.names[n]}\t{s!r}\t{e!r}\t{p}"
                 for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\n" + "\n".join(lines) + "\n")


def install(tracer: Tracer, then: dict) -> None:
    """Swap every phonotax module's reference to each wrapped function."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "phonotax"]
    for module_name, func_name in WRAPPED:
        # by module path: the attribute phonotax.syllabify is the re-exported function
        original = getattr(importlib.import_module(f"phonotax.{module_name}"), func_name)
        name = f"{module_name}.{func_name}"
        wrapper = tracer.wrap(name, original, then.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main(argv: list[str]) -> None:
    lexicon, stimuli, votes, out = argv
    out_dir = Path(out)
    import phonotax.cli as cli

    grammar = importlib.import_module("phonotax.grammar")
    stats = importlib.import_module("phonotax.stats")
    plot = importlib.import_module("phonotax.plot")
    tracer = Tracer()
    batches = []
    parses = []

    def passes(forest) -> None:
        # run as each forest is built, so forests need not stay alive
        parses.append(len(forest))
        with tracer.span("grammar.format_path"):
            for scored in forest:
                for path in scored.paths:
                    grammar.format_path(path)
        with tracer.span("grammar.sequential_unify"):
            for scored in forest:
                grammar.sequential_unify(scored.parse.template, scored.parse.paths)

    install(tracer, {"parse.parse_all": passes, "score.score_batch": batches.append})
    for command, args, stdout in (
        ("train", [lexicon, "--out", str(out_dir)], "train.stdout"),
        ("score", [str(out_dir / "model.tsv"), stimuli], "scores.tsv"),
    ):
        with open(out_dir / stdout, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
            with tracer.span(f"cli.{command}"):
                code = cli.main([command, *args])
        if code != 0:
            sys.exit(f"traced {command} exited {code}")
    (batch,) = batches
    reports = [(row.word_id, row.report) for row in batch if row.report is not None]
    judgments = stats.load_judgments(Path(votes).read_text("utf-8"))
    _, scatter = stats.evaluate(reports, judgments)
    plot.scatter_csv(scatter)
    plot.scatter_svg(scatter)

    start = time.perf_counter()
    top_level = dict.fromkeys(tracer.names, 0.0)
    for n, s, e, p in zip(tracer.name_ids, tracer.starts, tracer.ends, tracer.parents):
        if p < 0:
            top_level[tracer.names[n]] += e - s
    passes_s = sum(sum(tracer.durations(name)) for name in PASSES)
    word_us = [d * 1e6 for d in tracer.durations("score.score_word", minus=PASSES)]
    summary = {
        "layers": {name: t for name, t in tracer.self_times().items() if name in LAYERS},
        # traced time spent outside each command, the benchmark's passes included
        "outside_s": {
            "train": sum(top_level.values()) - top_level["cli.train"],
            "score": sum(top_level.values()) - top_level["cli.score"] + passes_s,
        },
        "score_word_us": statistics.quantiles(word_us, n=100),
        "words_parsed": len(parses),
        "parses_total": sum(parses),
    }
    tracer.write(out_dir / "spans.tsv.gz")
    summary["write_s"] = time.perf_counter() - start
    (out_dir / "trace.json").write_text(json.dumps(summary), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
