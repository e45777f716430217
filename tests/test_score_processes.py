"""The score and train commands over several processes: the same bytes, and no worker left behind.

``chunks.run_chunks`` cuts a command's rows into contiguous chunks, works
on the first in the calling process and forks a worker for each of the
others. ``score`` scores each chunk; ``train`` reads each chunk once,
and the parent splits the medial parts of all chunks under their
united word onsets. These tests hold the chunked outputs to the
one-process outputs, and check that every worker is reaped, also when
one fails or the command is killed or interrupted.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import fcntl
import io
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from phonotax import chunks, cli, score, train
from phonotax.chunks import ROWS_PER_PROCESS
from phonotax.cli import main
from phonotax.errors import EmptyCorpus, PhonotaxError, UnsupportedStressPattern
from phonotax.phonology import load_inventory
from phonotax.score import score_batch, stimulus_rows
from phonotax.train import extract_paths, ingest_lexicon, save_model, train_model

from conftest import INVENTORY_TEXT
from oracles import random_lexicon, random_transcription_text

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = "import sys; from phonotax.cli import main; sys.exit(main())"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.fork, CPU affinity masks and at least two CPUs")
# fields that break a row: an unknown symbol, a stress digit out of range or
# on a consonant, a vowel that takes a word past two syllables, a boundary
_BREAKERS = ["q", "æ7", "k1", "ɪ1", "+"]


def _rows(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """Oracle words, compounds among them, about a quarter with a breaking field spliced in."""
    rows = []
    for i in range(n):
        fields = random_transcription_text(rng).split()
        if rng.random() < 0.25:
            fields.insert(rng.randint(0, len(fields)), rng.choice(_BREAKERS))
        rows.append((f"w{i}", " ".join(fields)))
    return rows


# stimulus lines that hold no row: comments, one after a tab, and blank lines
_DEAD_STIMULI = ["# comment", "\t# a comment after a tab", "", "   "]


def _stimuli_lines(rng: random.Random, rows: list[tuple[str, str]]) -> list[str]:
    """The rows as stimulus lines, with about as many lines that hold no row spliced in."""
    lines = [f"{word_id}\t{raw}" for word_id, raw in rows]
    for _ in range(len(rows) + 1):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_DEAD_STIMULI))
    return lines


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def batch_files(tmp_path):
    """A model, the inventory it was trained on, and a stimuli file above the threshold."""
    rng = random.Random(15)
    inventory = load_inventory(INVENTORY_TEXT)
    (tmp_path / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
    model = train_model(random_lexicon(rng, 300), inventory).model
    (tmp_path / "model.tsv").write_text(save_model(model), encoding="utf-8")
    rows = _rows(rng, 2 * ROWS_PER_PROCESS + 7)
    (tmp_path / "stimuli.tsv").write_text("".join(f"{i}\t{raw}\n" for i, raw in rows), encoding="utf-8")
    return tmp_path


def _score_argv(files: Path, *extra: str) -> list[str]:
    return ["score", str(files / "model.tsv"), str(files / "stimuli.tsv"),
            "--inventory", str(files / "inventory.tsv"), *extra]


@needs_fork
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 30))
def test_chunked_text_is_the_same_for_one_to_four_processes(seed, n):
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
    lines = _stimuli_lines(rng, _rows(rng, n))
    texts = []
    for processes in (1, 2, 3, 4):
        with mock.patch.object(chunks, "_processes", lambda rows: processes):
            texts.append("".join(chunks.run_chunks(
                lines, lambda chunk, first: cli._score_lines(score_batch(model, stimulus_rows(chunk), inventory)))))
    assert texts[0].count("\n") == n
    assert texts[1:] == texts[:1] * 3
    _assert_no_child_left()


def _evaluate_outcome(model_text: str, stimuli: str, votes: str | None, processes: int):
    """What the evaluate command gives over a forced process count: exit code, stdout, stderr, scatter files."""
    with mock.patch.object(chunks, "_processes", lambda rows: processes), tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        (files / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
        (files / "model.tsv").write_text(model_text, encoding="utf-8")
        (files / "stimuli.tsv").write_text(stimuli, encoding="utf-8")
        argv = ["evaluate", str(files / "model.tsv"), str(files / "stimuli.tsv")]
        if votes is not None:
            (files / "votes.csv").write_text(votes, encoding="utf-8")
            argv.append(str(files / "votes.csv"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--inventory", str(files / "inventory.tsv"), "--out", str(files / "out")])
        scatter = [path.read_bytes() if path.exists() else None
                   for path in (files / "out" / "scatter.csv", files / "out" / "scatter.svg")]
        return code, out.getvalue().replace(tmp, "DIR"), err.getvalue(), *scatter


@needs_fork
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 30), st.booleans())
def test_evaluate_is_the_same_for_one_to_four_processes(seed, n, with_votes):
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
    rows = _rows(rng, n)
    votes = None
    if with_votes:  # votes for most ids, and for one the stimuli lack
        votes = "word_id,votes_against\n" + "".join(
            f"{word_id},{rng.randint(0, 12)}\n" for word_id, _ in rows + [("extra", "")] if rng.random() < 0.9)
    stimuli = "".join(line + "\n" for line in _stimuli_lines(rng, rows))
    outcomes = [_evaluate_outcome(save_model(model), stimuli, votes, processes) for processes in (1, 2, 3, 4)]
    assert outcomes[1:] == outcomes[:1] * 3
    _assert_no_child_left()

    # the one-process outcome warns of the failed rows as one score_batch call reports them, in input order
    code, _, stderr, csv, svg = outcomes[0]
    failed = [row for row in score_batch(model, rows, inventory) if row.report is None]
    warnings = "".join(f"  {row.word_id}: {row.error}\n" for row in failed)
    if failed:
        warnings = f"warning: {len(failed)} stimuli failed to score and are excluded\n" + warnings
    assert stderr.startswith(warnings)
    assert (code == 0) == (stderr == warnings) == (csv is not None) == (svg is not None)


def _score_outcome(model_text: str, stimuli: str, processes: int):
    """What the score command gives over a forced process count: exit code, stdout, stderr, scores.tsv."""
    with mock.patch.object(chunks, "_processes", lambda rows: processes), tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        (files / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
        (files / "model.tsv").write_text(model_text, encoding="utf-8")
        (files / "stimuli.tsv").write_text(stimuli, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["score", str(files / "model.tsv"), str(files / "stimuli.tsv"),
                         "--inventory", str(files / "inventory.tsv"), "--out", str(files / "out")])
        scores = files / "out" / "scores.tsv"
        return code, out.getvalue(), err.getvalue(), scores.read_bytes() if scores.exists() else None


def _dead_on_the_cuts(rows: list[tuple[str, str]]) -> str:
    """The rows as stimulus lines, with a line that holds no row at and before every cut of 2-4 chunks."""
    lines = [f"{word_id}\t{raw}" for word_id, raw in rows]
    total = 2 * len(lines)  # as many dead lines again, so the cuts fall among all the lines
    cuts = {total * i // processes for processes in (2, 3, 4) for i in range(1, processes)}
    dead = iter(_DEAD_STIMULI * total)
    live = iter(lines)
    document = [next(dead) if i in cuts or i + 1 in cuts else next(live, None) or next(dead) for i in range(total)]
    return "".join(line + "\n" for line in document)


@needs_fork
@pytest.mark.parametrize("kind", ["rows", "comments only"])
def test_score_and_evaluate_read_lines_without_rows_on_the_cuts_alike(kind):
    rng = random.Random(24)
    inventory = load_inventory(INVENTORY_TEXT)
    model_text = save_model(train_model(random_lexicon(rng, 12), inventory).model)
    if kind == "rows":
        stimuli = _dead_on_the_cuts(_rows(rng, 40))
    else:
        stimuli = "".join(f"{rng.choice(_DEAD_STIMULI)}\n" for _ in range(40)) + "# the end\n"
    scored = [_score_outcome(model_text, stimuli, processes) for processes in (1, 2, 3, 4)]
    evaluated = [_evaluate_outcome(model_text, stimuli, None, processes) for processes in (1, 2, 3, 4)]
    assert scored[1:] == scored[:1] * 3
    assert evaluated[1:] == evaluated[:1] * 3
    _assert_no_child_left()
    code, stdout, stderr, scores = scored[0]
    assert code == 0 and scores == stdout.encode("utf-8")
    if kind == "rows":
        assert stdout.count("\n") == 41 and stderr == ""
    else:
        assert stdout == "\t".join(cli.SCORE_COLUMNS) + "\n"
        assert stderr == "warning: stimuli file holds no rows\n"


def test_process_count_follows_the_affinity_mask_and_the_threshold(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert [chunks._processes(n * ROWS_PER_PROCESS) for n in (0, 1, 2, 3, 4, 100)] == [1, 1, 2, 3, 4, 4]
    assert chunks._processes(2 * ROWS_PER_PROCESS - 1) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert chunks._processes(100 * ROWS_PER_PROCESS) == 1  # fork would copy only this thread
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert chunks._processes(100 * ROWS_PER_PROCESS) == 3
    monkeypatch.delattr(os, "fork")
    assert chunks._processes(100 * ROWS_PER_PROCESS) == 1


def test_a_batch_below_the_threshold_never_forks(batch_files, monkeypatch, capsys):
    stimuli = batch_files / "stimuli.tsv"
    lines = stimuli.read_text("utf-8").splitlines(keepends=True)
    stimuli.write_text("".join(lines[: 2 * ROWS_PER_PROCESS - 1]), encoding="utf-8")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("fork called"), raising=False)
    assert main(_score_argv(batch_files)) == 0
    assert capsys.readouterr().out.count("\n") == 2 * ROWS_PER_PROCESS


@needs_two_cpus
def test_score_is_byte_identical_pinned_to_one_cpu_and_unpinned(batch_files):
    assert chunks._processes(2 * ROWS_PER_PROCESS + 7) >= 2  # unpinned, the child forks
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = {}
    for name, preexec in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)), ("unpinned", None)):
        argv = _score_argv(batch_files, "--out", str(batch_files / name))
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], env=ENV, capture_output=True,
                              check=True, timeout=120, preexec_fn=preexec)
        assert (batch_files / name / "scores.tsv").read_bytes() == proc.stdout
        outputs[name] = proc.stdout
    assert outputs["pinned"] == outputs["unpinned"]
    assert outputs["pinned"].count(b"\n") == 2 * ROWS_PER_PROCESS + 8


@needs_fork
@pytest.mark.parametrize("command, failing", [
    pytest.param(command, failing, id=failing if command == "score" else f"{command}-{failing}")
    for command in ("score", "evaluate") for failing in ("worker", "parent")
])
def test_a_failure_on_either_side_writes_nothing_and_reaps_every_worker(
    batch_files, monkeypatch, capfd, command, failing
):
    parent = os.getpid()
    real_batch = score.score_batch

    def batch(model, rows, inv):
        if (os.getpid() == parent) == (failing == "parent"):
            raise ZeroDivisionError(f"{failing} fault")
        return real_batch(model, rows, inv)

    monkeypatch.setattr(score, "score_batch", batch)
    monkeypatch.setattr(chunks, "_processes", lambda rows: 3)
    argv = _score_argv(batch_files, "--out", str(batch_files / "scored"))
    argv[0] = command
    if failing == "worker":
        assert main(argv) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            main(argv)
    captured = capfd.readouterr()
    assert captured.out == ""
    assert not (batch_files / "scored").exists()
    _assert_no_child_left()
    if failing == "worker":
        assert captured.err.count("ZeroDivisionError: worker fault") == 2
        assert "exited with status 1" in captured.err


# a score command that says on stderr when it has forked its first worker
_ANNOUNCING = """
import os, sys
from phonotax.cli import main
fork = os.fork
def announcing_fork():
    pid = fork()
    if pid:
        os.write(2, b"forked\\n")
    return pid
os.fork = announcing_fork
"""
ANNOUNCING_CLI = _ANNOUNCING + "sys.exit(main())\n"
# the same, with each row taking about ROW_DELAY seconds longer to score
ROW_DELAY = 0.001
SLOW_ANNOUNCING_CLI = _ANNOUNCING + f"""
import time
from phonotax import score
score_word = score.score_word
def slow_score_word(model, t):
    time.sleep({ROW_DELAY!r})
    return score_word(model, t)
score.score_word = slow_score_word
sys.exit(main())
"""


@needs_two_cpus
def test_a_killed_score_leaves_no_worker_running(batch_files):
    proc = subprocess.Popen([sys.executable, "-c", ANNOUNCING_CLI, *_score_argv(batch_files)], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    group = proc.pid
    try:
        assert proc.stderr.readline() == b"forked\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-batch
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _group_running(group):
            assert time.monotonic() < deadline, "a worker outlived the killed command"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


def _running_in_group(group: int) -> list[int]:
    """Pids of the processes in a process group that have not exited (zombies left out)."""
    running = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # gone since the listing
            state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
            if int(pgrp) == group and state != "Z":
                running.append(int(entry))
    return running


def _group_running(group: int) -> bool:
    """Whether a process group holds a process that has not exited.

    Where /proc shows process states, an exited worker that nobody has
    reaped yet counts as gone. Elsewhere os.killpg(group, 0) is the test,
    and it counts such a zombie until its new parent reaps it.
    """
    if Path("/proc/self/stat").exists():
        return bool(_running_in_group(group))
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    return True


@needs_two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to read process states")
def test_a_worker_stops_within_a_slice_of_its_parent_dying(batch_files):
    # The worker's chunk takes ten slices or more, so a worker that scored
    # it to the end would run far past the limit. An exited worker stays a
    # zombie until its new parent reaps it, so it counts as stopped.
    assert ROWS_PER_PROCESS >= 10 * chunks.ROWS_PER_SLICE
    limit = 3 * chunks.ROWS_PER_SLICE * ROW_DELAY
    proc = subprocess.Popen([sys.executable, "-c", SLOW_ANNOUNCING_CLI, *_score_argv(batch_files)], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    group = proc.pid
    try:
        assert proc.stderr.readline() == b"forked\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-batch
        proc.wait(timeout=10)
        start = time.monotonic()
        while _running_in_group(group):
            assert time.monotonic() - start < limit, "a worker kept scoring after its parent died"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


# A command forced into two processes, each of which takes about ROW_DELAY
# seconds longer per stimulus it scores or lexicon line it counts. Training
# counts each block's lines in one pass over enumerate(block), read from the
# train module's globals, so a slowed enumerate there slows every line.
SLOW_TWO_PROCESS_CLI = f"""
import sys, time
from phonotax import chunks, score, train
from phonotax.cli import main
chunks._processes = lambda rows: 2
def slowed(fn):
    def slow(*args):
        time.sleep({ROW_DELAY!r})
        return fn(*args)
    return slow
def slowed_items(fn):
    def slow(*args, **kwargs):
        for item in fn(*args, **kwargs):
            time.sleep({ROW_DELAY!r})
            yield item
    return slow
score.score_word = slowed(score.score_word)
train.enumerate = slowed_items(enumerate)
sys.exit(main())
"""


def _default_sigint() -> None:
    """Run in the child before it starts: SIGINT acts, even where the test runner ignores it."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _assert_interrupted(proc: subprocess.Popen, out: Path) -> None:
    """SIGINT the command's process group; it must end with one line, exit 130, and leave nothing."""
    group = proc.pid
    os.killpg(group, signal.SIGINT)
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (130, b"error: interrupted\n")
    assert _running_in_group(group) == []
    assert not out.exists()


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to read process states")
@pytest.mark.parametrize("command", ["score", "evaluate", "train"])
def test_an_interrupted_command_ends_with_one_line_and_no_worker(batch_files, lexicon_files, command):
    out = batch_files / "out"
    argv = {
        "score": _score_argv(batch_files, "--out", str(out)),
        "evaluate": ["evaluate", *_score_argv(batch_files, "--out", str(out))[1:]],
        "train": _train_argv(lexicon_files),  # its --out is the same directory
    }[command]
    proc = subprocess.Popen([sys.executable, "-c", SLOW_TWO_PROCESS_CLI, *argv], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
                            preexec_fn=_default_sigint)
    try:
        deadline = time.monotonic() + 30
        while len(_running_in_group(proc.pid)) < 2:  # the command and its worker
            assert proc.poll() is None, "the command ended before it forked"
            assert time.monotonic() < deadline, "no worker started"
            time.sleep(0.01)
        _assert_interrupted(proc, out)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


# A command forced into two processes, where SIGINT reaches the command and
# its worker the moment the fork returns in each, before either has recorded
# or guarded the other.
INTERRUPTED_FORK_CLI = """
import os, signal, sys
from phonotax import chunks
from phonotax.cli import main
chunks._processes = lambda rows: 2
fork = os.fork
def interrupted_fork():
    pid = fork()
    os.kill(os.getpid(), signal.SIGINT)
    return pid
os.fork = interrupted_fork
sys.exit(main())
"""


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to read process states")
@pytest.mark.parametrize("command", ["score", "train"])
def test_an_interrupt_as_a_worker_is_forked_ends_with_one_line_and_no_worker(batch_files, lexicon_files, command):
    out = batch_files / "out"
    argv = _score_argv(batch_files, "--out", str(out)) if command == "score" else _train_argv(lexicon_files)
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_FORK_CLI, *argv], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
                            preexec_fn=_default_sigint)
    group = proc.pid
    try:
        _, err = proc.communicate(timeout=30)
        assert (proc.returncode, err) == (130, b"error: interrupted\n")
        assert _running_in_group(group) == []
        assert not out.exists()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_an_interrupt_while_reading_input_ends_with_one_line(batch_files):
    fifo = batch_files / "stimuli.fifo"
    os.mkfifo(fifo)
    out = batch_files / "out"
    argv = ["score", str(batch_files / "model.tsv"), str(fifo), "--inventory", str(batch_files / "inventory.tsv"),
            "--out", str(out)]
    proc = subprocess.Popen([sys.executable, "-c", CLI, *argv], env=ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True, preexec_fn=_default_sigint)
    writer = None
    try:
        deadline = time.monotonic() + 30
        while writer is None:
            try:  # opens once the command has the pipe open to read; the command then waits for lines
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as err:
                if err.errno != errno.ENXIO:
                    raise
                assert proc.poll() is None, "the command ended before it read its input"
                assert time.monotonic() < deadline, "the command never opened its input"
                time.sleep(0.01)
        _assert_interrupted(proc, out)
    finally:
        if writer is not None:
            os.close(writer)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


# run_chunks over rows that take about ROW_DELAY seconds each, forced into
# two processes, with work that walks its rows plainly; the worker says on
# stderr when it starts on its first row
UNCHECKED_CHUNKS = f"""
import os, time
from phonotax import chunks
chunks._processes = lambda rows: 2
def work(rows, first):
    for row in rows:
        if first and row == first:
            os.write(2, b"worker\\n")
        time.sleep({ROW_DELAY!r})
chunks.run_chunks(list(range(2 * chunks.ROWS_PER_PROCESS)), work)
"""


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to read process states")
def test_every_worker_is_guarded_by_run_chunks():
    # run_chunks hands a worker its rows already guarded, so work that walks
    # them plainly still stops within a slice of its parent's death
    assert ROWS_PER_PROCESS >= 10 * chunks.ROWS_PER_SLICE
    limit = 3 * chunks.ROWS_PER_SLICE * ROW_DELAY
    proc = subprocess.Popen([sys.executable, "-c", UNCHECKED_CHUNKS], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    group = proc.pid
    try:
        assert proc.stderr.readline() == b"worker\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-chunk
        proc.wait(timeout=10)
        start = time.monotonic()
        while _running_in_group(group):
            assert time.monotonic() - start < limit, "a worker kept working after its parent died"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


# ------------------------------------------------------------------ train

# lines that retain no entry: a comment, a blank line, a line without a
# tab, and an entry with an unknown symbol
_DEAD = ["# comment", "   ", "w", "w\tk q æ1"]
# entries that ingest keeps but training cannot cut: weak-weak, and a
# compound with a weak half
_UNSUPPORTED = ["ə0 z ə0", "k æ1 + t ə0"]


def _lexicon_lines(rng: random.Random, n: int, unsupported: bool) -> list[str]:
    """Oracle lexicon lines, with dead lines, unsupported entries and breaking fields spliced in."""
    lines = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.2:
            lines.append(rng.choice(_DEAD))
            continue
        text = rng.choice(_UNSUPPORTED) if unsupported or roll < 0.25 else random_transcription_text(rng)
        fields = text.split()
        if rng.random() < 0.2:
            fields.insert(rng.randint(0, len(fields)), rng.choice(_BREAKERS))
        lines.append(f"w{i}\t{' '.join(fields)}")
    return lines


def _train_outcome(document: str, processes: int):
    """What training a document over a forced process count gives: through train_model and the command."""
    with mock.patch.object(chunks, "_processes", lambda rows: processes):
        return _library_outcome(document), _command_outcome(document)


def _library_outcome(document: str):
    """What train_model gives on a document: the model text and the report, or the error."""
    try:
        result = train_model(document, load_inventory(INVENTORY_TEXT))
    except PhonotaxError as err:
        return type(err).__name__, str(err)
    return save_model(result.model), result.skipped, result.retained, result.unsupported


def _command_outcome(document: str):
    """What the train command gives on a document: exit code, stdout, stderr and model bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        (files / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
        (files / "lexicon.tsv").write_text(document, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", str(files / "lexicon.tsv"), "--inventory", str(files / "inventory.tsv"),
                         "--out", str(files / "out")])
        model = files / "out" / "model.tsv"
        return (code, out.getvalue().replace(str(files), "DIR"), err.getvalue(),
                model.read_bytes() if model.exists() else None)


@needs_fork
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 30), st.sampled_from(["mixed", "unsupported", "dead"]),
       st.booleans())
def test_chunked_training_is_the_same_for_one_to_four_processes(seed, n, kind, dead_first):
    rng = random.Random(seed)
    lines = [] if kind == "dead" else _lexicon_lines(rng, n, kind == "unsupported")
    # as many lines again that retain nothing: with two or more chunks, one chunk keeps no entry
    dead = [rng.choice(_DEAD) for _ in range(max(n, 1))]
    document = "\n".join(dead + lines if dead_first else lines + dead) + "\n"
    outcomes = [_train_outcome(document, processes) for processes in (1, 2, 3, 4)]
    assert outcomes[1:] == outcomes[:1] * 3
    _assert_no_child_left()

    # the one-process outcome, against ingest and path extraction on the whole document
    (library, (code, stdout, stderr, model)) = outcomes[0]
    inventory = load_inventory(INVENTORY_TEXT)
    try:
        ingest = ingest_lexicon(document, inventory)
    except EmptyCorpus:
        assert library == ("EmptyCorpus", "no usable lexicon entries")
        assert (code, stdout, stderr, model) == (2, "", "error: no usable lexicon entries\n", None)
        return
    unsupported = []
    for entry in ingest.entries:
        try:
            extract_paths(entry)
        except UnsupportedStressPattern:
            unsupported.append((entry.lineno, entry.orthography))
    if len(unsupported) == len(ingest.entries):
        assert library == ("EmptyCorpus", "no paths to tabulate")
        assert (code, stdout, model) == (2, "", None)
        return
    model_text, skipped, retained, trained_unsupported = library
    assert (skipped, retained, trained_unsupported) == (ingest.skipped, len(ingest.entries), unsupported)
    assert (code, stderr, model) == (0, "", model_text.encode("utf-8"))
    assert stdout.startswith(f"lexicon entries: retained {retained}, skipped {len(skipped)}, ")


@pytest.fixture()
def lexicon_files(tmp_path):
    """The test inventory and a lexicon above the threshold."""
    (tmp_path / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
    lexicon = random_lexicon(random.Random(19), 2 * ROWS_PER_PROCESS + 7)
    (tmp_path / "lexicon.tsv").write_text(lexicon, encoding="utf-8")
    return tmp_path


def _train_argv(files: Path, *extra: str) -> list[str]:
    return ["train", str(files / "lexicon.tsv"), "--inventory", str(files / "inventory.tsv"),
            "--out", str(files / "out"), *extra]


def test_a_lexicon_below_the_threshold_never_forks(lexicon_files, monkeypatch, capsys):
    lexicon = lexicon_files / "lexicon.tsv"
    lines = lexicon.read_text("utf-8").splitlines(keepends=True)
    lexicon.write_text("".join(lines[: 2 * ROWS_PER_PROCESS - 1]), encoding="utf-8")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("fork called"), raising=False)
    assert main(_train_argv(lexicon_files)) == 0
    assert capsys.readouterr().out.startswith(f"lexicon entries: retained {2 * ROWS_PER_PROCESS - 1}, ")


@needs_fork
def test_train_model_forks_like_the_command(lexicon_files, monkeypatch):
    # a library call on a lexicon above the threshold is cut as `phonotax train` cuts it
    document = (lexicon_files / "lexicon.tsv").read_text("utf-8")
    with mock.patch.object(chunks, "_processes", lambda rows: 1):
        one_process = _library_outcome(document)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    assert _library_outcome(document) == one_process
    assert len(forks) == 1
    _assert_no_child_left()


@needs_two_cpus
def test_train_is_byte_identical_pinned_to_one_cpu_and_unpinned(lexicon_files):
    assert chunks._processes(2 * ROWS_PER_PROCESS + 7) >= 2  # unpinned, the child forks
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = {}
    for name, preexec in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)), ("unpinned", None)):
        argv = _train_argv(lexicon_files)
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], env=ENV, capture_output=True,
                              check=True, timeout=120, preexec_fn=preexec)
        outputs[name] = proc.stdout, (lexicon_files / "out" / "model.tsv").read_bytes()
    assert outputs["pinned"] == outputs["unpinned"]


@needs_fork
@pytest.mark.parametrize("phase", ["ingest", "count"])
@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_a_failed_train_writes_nothing_and_reaps_every_worker(lexicon_files, monkeypatch, capfd, failing, phase):
    # a chunk reads its lines a block at a time through islice, then counts
    # each block in one pass over enumerate(block), both from train's globals
    parent = os.getpid()
    name = "islice" if phase == "ingest" else "enumerate"
    real = getattr(train, name, None) or getattr(builtins, name)

    def failing_step(*args, **kwargs):
        if (os.getpid() == parent) == (failing == "parent"):
            raise PhonotaxError(f"{failing} fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(train, name, failing_step, raising=False)
    monkeypatch.setattr(chunks, "_processes", lambda rows: 3)
    code = main(_train_argv(lexicon_files))
    captured = capfd.readouterr()
    assert captured.out == ""
    assert not (lexicon_files / "out").exists()
    _assert_no_child_left()
    if failing == "worker":
        # the first failed worker stops the command; the other may be killed before it reports
        assert code == 1
        assert "PhonotaxError: worker fault" in captured.err
        assert "exited with status 1" in captured.err
    else:
        assert code == 2
        assert captured.err == "error: parent fault\n"


@needs_two_cpus
def test_a_killed_train_leaves_no_worker_running(lexicon_files):
    proc = subprocess.Popen([sys.executable, "-c", ANNOUNCING_CLI, *_train_argv(lexicon_files)], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    group = proc.pid
    try:
        assert proc.stderr.readline() == b"forked\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-training
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _group_running(group):
            assert time.monotonic() < deadline, "a worker outlived the killed command"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


# A train command with one training step slowed by ROW_DELAY per lexicon
# line: a chunk reads each block of lines through islice ("ingest"), then
# counts them in one pass over enumerate(block) ("count"), both read from
# the train module's globals. A worker writes "worker" to stderr on its
# first call to the announced function. In phase "handoff" only the
# parent's reading is slow, and the worker announces as it sends its
# result up to the parent.
SLOW_TRAIN_CLI = f"""
import builtins, os, sys, time
from phonotax import chunks, train
from phonotax.cli import main
parent, phase = os.getpid(), sys.argv.pop(1)
step, in_worker, module, announced = {{
    "ingest": ("islice", True, train, "islice"),
    "handoff": ("islice", False, chunks, "_send"),
    "count": ("enumerate", True, train, "enumerate"),
}}[phase]
def slowed(fn):
    def slow(*args, **kwargs):
        for item in fn(*args, **kwargs):
            if in_worker or os.getpid() == parent:
                time.sleep({ROW_DELAY!r})
            yield item
    return slow
def announcing(fn):
    said = []
    def announce(*args, **kwargs):
        if os.getpid() != parent and not said:
            said.append(os.write(2, b"worker\\n"))
        return fn(*args, **kwargs)
    return announce
setattr(train, step, slowed(getattr(train, step, None) or getattr(builtins, step)))
setattr(module, announced, announcing(getattr(module, announced)))
sys.exit(main())
"""


def _pipe_buffer() -> int:
    """The bytes a new pipe holds before a write to it blocks."""
    read, write = os.pipe()
    try:
        return fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read)
        os.close(write)


@needs_two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to read process states")
@pytest.mark.parametrize("phase", ["ingest", "handoff", "count"])
def test_a_training_worker_stops_within_a_slice_of_its_parent_dying(lexicon_files, phase):
    # A worker's chunk takes ten slices or more to ingest or count, so a
    # worker that went on to the end would run far past the limit; one
    # that has finished its chunk must not outlive the parent it sends to.
    # The command runs on two CPUs, so in two processes.
    assert ROWS_PER_PROCESS >= 10 * chunks.ROWS_PER_SLICE
    limit = 3 * chunks.ROWS_PER_SLICE * ROW_DELAY
    if phase == "handoff":
        # the worker's result outgrows the pipe, so the worker blocks in its
        # write until its parent, still ingesting, reads or dies
        lexicon = random_lexicon(random.Random(19), 6 * ROWS_PER_PROCESS)
        (lexicon_files / "lexicon.tsv").write_text(lexicon, encoding="utf-8")
        lines = lexicon.splitlines()
        cut = len(lines) // 2
        result = train._train_chunk(lines[cut:], cut, load_inventory(INVENTORY_TEXT))
        assert len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) > _pipe_buffer()
    two_cpus = set(sorted(os.sched_getaffinity(0))[:2])
    proc = subprocess.Popen([sys.executable, "-c", SLOW_TRAIN_CLI, phase, *_train_argv(lexicon_files)],
                            env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, two_cpus))
    group = proc.pid
    try:
        assert proc.stderr.readline() == b"worker\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-phase
        proc.wait(timeout=10)
        start = time.monotonic()
        while _running_in_group(group):
            assert time.monotonic() - start < limit, f"a worker kept on in phase {phase} after its parent died"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()
