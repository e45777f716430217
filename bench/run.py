"""Benchmark phonotax the way its users run it: ``train`` and ``score``.

Usage (from the repository root)::

    python3 bench/run.py                                    # every workload, all metrics
    python3 bench/run.py --workload score-mix --seed 3 --seconds 20 --trace 0

Each workload generates its inputs from ``--seed`` (see gen.py), then
runs the real command as one child process at a time, tracing off, over
and over for ``--seconds`` seconds, and reports medians. Set-up time is
the same command on a one-line input, run several times. Every output
is checked (see check.py). With ``--trace 1`` a separate traced child
(see tracing.py) gives the per-layer split. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
The exit code is 1 when an output is wrong, 2 when the package source
is missing. See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INVENTORY = SRC / "phonotax" / "data" / "inventory_ipa.tsv"

# workload -> the command it times
WORKLOADS = {"train-lex50k": "train", "score-mix": "score", "score-wide": "score"}
SETUP_PER_REP = 2
MIN_SETUP_RUNS = 7
MIN_REPS = 3
# stimuli the traced run scores on train-lex50k, whose command scores nothing
PROBE_SIZE = 2_000
CLI = "import sys; from phonotax.cli import main; sys.exit(main())"

END_TO_END = {"rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNTS = {
    "train.model_bytes": "bytes", "train.model_records": "count", "train.paths": "count",
    "train.word_onsets": "count", "train.skipped_entries": "count", "train.downgraded": "count",
    "train.unsupported": "count", "score.rejected_rows": "count", "parse.parses_total": "count",
    "parse.parses_per_word": "parses/word", "parse.winner_share": "ratio",
}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in tracing.LAYERS},
    "cli.other_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "score.score_word_p50_us": "us", "score.score_word_p99_us": "us",
    **COUNTS,
}


class Child:
    """One finished child process: wall seconds and peak resident set."""

    def __init__(self, argv: list[str], stdout: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        stderr = stdout.with_suffix(".stderr")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:])[:300]} exited {proc.returncode}: "
                               f"{stderr.read_text('utf-8')[-2000:]}")


def phonotax(args: list[str], stdout: Path) -> Child:
    return Child([sys.executable, "-c", CLI, *args], stdout)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks outputs once per distinct content; collects problems."""

    def __init__(self, vowels: set[str]) -> None:
        from phonotax.train import load_model, save_model

        self.vowels = vowels
        self.round_trip = lambda doc: save_model(load_model(doc))
        self.problems: list[str] = []
        self._verdicts: dict[tuple, int] = {}

    def train(self, lexicon: Path, out_dir: Path, stdout: Path) -> int:
        """Rows with a wrong outcome in one train run."""
        key = ("train", sha256(lexicon), sha256(out_dir / "model.tsv"), sha256(stdout))
        if key not in self._verdicts:
            expected = check.expected_training(
                lexicon.read_text("utf-8"), gen.read_planted(lexicon), self.vowels)
            problems, failed = check.check_train(
                expected, stdout.read_text("utf-8"), (out_dir / "model.tsv").read_text("utf-8"),
                self.round_trip)
            self._record(f"train {lexicon.name}", problems, failed)
            self._verdicts[key] = failed
        return self._verdicts[key]

    def score(self, stimuli: Path, model: Path, scores: Path) -> int:
        """Rows with a wrong outcome in one score run."""
        key = ("score", sha256(stimuli), sha256(model), sha256(scores))
        if key not in self._verdicts:
            try:
                parsed = check.read_model(model.read_text("utf-8"))
            except (ValueError, IndexError) as err:
                problems, failed = [f"model file: {err}"], len(check.read_rows(stimuli.read_text("utf-8")))
            else:
                problems, failed = check.check_scores(
                    stimuli.read_text("utf-8"), gen.read_planted(stimuli),
                    scores.read_text("utf-8"), parsed, self.vowels)
            self._record(f"score {stimuli.name}", problems, failed)
            self._verdicts[key] = failed
        return self._verdicts[key]

    def _record(self, what: str, problems: list[str], failed: int) -> None:
        if problems or failed:
            self.problems += [f"{what}: {failed} rows failed"] + [f"{what}: {p}" for p in problems]


def context() -> dict:
    src_lines = sum(len(p.read_text("utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "src_lines": src_lines,
    }


def write_inputs(work: Path, workload: str, seed: int, inventory: dict[str, str]) -> dict[str, Path]:
    """Generate the workload's files; returns their paths by role."""
    paths = {"lexicon": work / "lexicon.tsv", "stimuli": work / "stimuli.tsv"}
    gen.write_lexicon(paths["lexicon"], inventory, seed)
    if workload == "train-lex50k":
        gen.write_stimuli(paths["stimuli"], inventory, seed, wide=False, n=PROBE_SIZE)
    else:
        gen.write_stimuli(paths["stimuli"], inventory, seed, wide=workload == "score-wide")
    for role in ("lexicon", "stimuli"):
        # the set-up input: the first valid line, alone
        source = paths[role]
        planted = gen.read_planted(source)
        first = next(line for line in source.read_text("utf-8").splitlines()
                     if line.split("\t")[0] not in planted)
        paths[f"one_{role}"] = work / f"one_{role}.tsv"
        gen.write_table(paths[f"one_{role}"], "", [("setup", first.split("\t")[1])])
    rng = random.Random(f"votes-{seed}")
    planted = gen.read_planted(paths["stimuli"])
    votes = ["word_id,votes_against"] + [
        f"{word_id},{rng.randint(0, 12)}" for word_id, _ in check.read_rows(paths["stimuli"].read_text("utf-8"))
        if word_id not in planted
    ]
    paths["votes"] = work / "votes.csv"
    paths["votes"].write_text("\n".join(votes) + "\n", encoding="utf-8")
    return paths


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    ctx = context()
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inventory = gen.read_inventory(INVENTORY.read_text("utf-8"))
    checker = Checker({s for s, c in inventory.items() if c == "V"})
    inputs = write_inputs(work, workload, seed, inventory)
    command = WORKLOADS[workload]

    # The traced child trains on the lexicon and scores the stimuli. Its
    # model is the one the score command loads; untraced, that model is
    # trained first, untimed.
    traced = work / "traced"
    traced.mkdir()
    if trace:
        traced_child = Child(
            [sys.executable, str(BENCH / "tracing.py"), str(inputs["lexicon"]), str(inputs["stimuli"]),
             str(inputs["votes"]), str(traced)],
            work / "traced.stdout",
        )
        checker.score(inputs["stimuli"], traced / "model.tsv", traced / "scores.tsv")
        shutil.copy(traced / "spans.tsv.gz", out_dir / "spans.tsv.gz")
    elif command == "score":
        phonotax(["train", str(inputs["lexicon"]), "--out", str(traced)], traced / "train.stdout")
    if trace or command == "score":
        checker.train(inputs["lexicon"], traced, traced / "train.stdout")
    model = traced / "model.tsv"

    if command == "train":
        def once(source: Path, tag: str) -> tuple[Child, int]:
            out = work / tag
            child = phonotax(["train", str(source), "--out", str(out)], work / f"{tag}.stdout")
            return child, checker.train(source, out, work / f"{tag}.stdout")
        timed_input, setup_input = inputs["lexicon"], inputs["one_lexicon"]
    else:
        def once(source: Path, tag: str) -> tuple[Child, int]:
            scores = work / f"{tag}.tsv"
            child = phonotax(["score", str(model), str(source)], scores)
            return child, checker.score(source, model, scores)
        timed_input, setup_input = inputs["stimuli"], inputs["one_stimuli"]
    rows = len(check.read_rows(timed_input.read_text("utf-8")))

    once(setup_input, "setup")  # warm-up: byte-compiles the package
    # Set-up runs are spread between the timed runs, so that their median
    # samples the whole measuring window rather than one moment of it.
    setup: list[float] = []
    runs: list[Child] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        setup += [once(setup_input, "setup")[0].wall for _ in range(SETUP_PER_REP)]
        child, wrong = once(timed_input, "timed")
        runs.append(child)
        failed += wrong
    while len(setup) < MIN_SETUP_RUNS:
        setup.append(once(setup_input, "setup")[0].wall)
    attempted = rows * len(runs)
    metrics = {
        "rows_per_s": statistics.median(rows / r.wall for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    if command == "train":
        sha = {"model.tsv": sha256(work / "timed" / "model.tsv")}
    else:
        sha = {"model.tsv": sha256(model), "scores.tsv": sha256(work / "timed.tsv")}
    if trace:
        wall = statistics.median(r.wall for r in runs)
        metrics.update(layer_metrics(traced, traced_child.wall, command, wall))
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "context": ctx, "output_sha256": sha,
        "correct": not checker.problems, "problems": checker.problems[:50],
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "timed_walls_s": [r.wall for r in runs], "setup_walls_s": setup,
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    shutil.rmtree(work)
    return result


def layer_metrics(traced: Path, child_wall: float, command: str, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced child's summary and outputs."""
    summary = json.loads((traced / "trace.json").read_text("utf-8"))
    metrics = {f"{layer}_s": summary["layers"].get(layer, 0.0) for layer in tracing.LAYERS}
    # writing the spans out comes after the traced work and is not part of it
    wall = child_wall - summary["write_s"]
    metrics["trace.wall_s"] = wall
    metrics["cli.other_s"] = wall - sum(metrics[f"{layer}_s"] for layer in tracing.LAYERS)
    metrics["trace.overhead_s"] = wall - summary["outside_s"][command] - untraced_wall
    metrics["score.score_word_p50_us"] = summary["score_word_us"][49]
    metrics["score.score_word_p99_us"] = summary["score_word_us"][98]
    stdout = check.read_train_stdout((traced / "train.stdout").read_text("utf-8"))
    model_text = (traced / "model.tsv").read_text("utf-8")
    score_lines = (traced / "scores.tsv").read_text("utf-8").splitlines()[1:]
    metrics.update({
        "train.model_bytes": len(model_text.encode("utf-8")),
        "train.model_records": check.read_model(model_text).declared_records,
        "train.paths": stdout["paths"],
        "train.word_onsets": stdout["word_onsets"],
        "train.skipped_entries": stdout["skipped"],
        "train.downgraded": stdout["downgraded"],
        "train.unsupported": stdout["unsupported"],
        "score.rejected_rows": sum(1 for line in score_lines if line.split("\t")[6]),
        "parse.parses_total": summary["parses_total"],
        "parse.parses_per_word": summary["parses_total"] / summary["words_parsed"],
        "parse.winner_share": summary["words_parsed"] / summary["parses_total"],
    })
    return metrics


def report(result: dict, names: dict[str, str]) -> None:
    ctx = result["context"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}")
    print(f"  context: python {ctx['python']}, nproc {ctx['nproc']}, loadavg "
          f"{' '.join(map(str, ctx['loadavg']))}, src_lines {ctx['src_lines']}")
    for name, digest in result["output_sha256"].items():
        print(f"  output_sha256 {name} {digest}")
    print(f"  failed_share {result['failed_share']} ({result['failed']} of {result['attempted']} rows)")
    for name, unit in names.items():
        if name in result["metrics"]:
            print(f"  {name:<36} {result['metrics'][name]:.6g} {unit}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "phonotax" / "cli.py").is_file() or not INVENTORY.is_file():
        print(f"error: no phonotax source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    names = {**END_TO_END, **PER_LAYER} if args.trace else END_TO_END
    results = []
    for workload in workloads:
        out_dir = BENCH / "out" / f"{workload}-seed{args.seed}-trace{args.trace}"
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), out_dir)
        report(result, names)
        results.append(result)
    shown = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": r["metrics"][name], "unit": unit}
            for r in results for name, unit in shown.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
