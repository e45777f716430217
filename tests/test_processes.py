"""The batch commands over several processes: the same bytes, and no worker left behind.

``chunks.run_chunks`` cuts a command's input lines into contiguous
chunks, works on the first in the calling process and forks a worker for
each of the others. ``score`` scores each chunk's stimuli; ``evaluate``
scores them the same way, then correlates the scores of all chunks with
the judgments; ``train`` reads each chunk's lexicon lines once, and the
parent splits the medial parts of all chunks under their united word
onsets. Each test of the layer's contract runs over all three commands:

- one to four processes give the same bytes, pinned to one CPU or not;
- an input below the threshold never forks;
- a failure on either side writes nothing and reaps every worker, and a
  failure in the parent kills the workers before it reaches the caller;
- a killed or interrupted command leaves no worker running.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import fcntl
import functools
import importlib
import io
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from phonotax import chunks, cli, train
from phonotax.chunks import ROWS_PER_PROCESS
from phonotax.cli import main
from phonotax.errors import EmptyCorpus, PhonotaxError, UnsupportedStressPattern
from phonotax.phonology import load_inventory
from phonotax.score import score_batch
from phonotax.train import extract_paths, ingest_lexicon, load_model, save_model, train_model

from conftest import INVENTORY_TEXT
from oracles import random_lexicon, random_transcription_text

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.fork, CPU affinity masks and at least two CPUs")
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to read process states")

COMMANDS = ["score", "evaluate", "train"]
# the input file each command cuts among its processes
INPUT = {"score": "stimuli.tsv", "evaluate": "stimuli.tsv", "train": "lexicon.tsv"}
# The step through which a command's chunk takes its rows, one at a time,
# looked up in its module's globals when called. A stimulus chunk is read
# by stimulus_rows; a lexicon chunk is read a block at a time through
# islice ("ingest"), then each block is counted in one pass over
# enumerate(block) ("train", the count).
STEPS = {"score": "score.stimulus_rows", "evaluate": "score.stimulus_rows",
         "train": "train.enumerate", "ingest": "train.islice"}
# the command each phase of training runs; any other phase is a command
COMMAND = {"ingest": "train", "handoff": "train"}
# fields that break a row: an unknown symbol, a stress digit out of range or
# on a consonant, a vowel that takes a word past two syllables, a boundary
_BREAKERS = ["q", "æ7", "k1", "ɪ1", "+"]
# stimulus lines that hold no row: comments, one after a tab, and blank lines
_DEAD_STIMULI = ["# comment", "\t# a comment after a tab", "", "   "]
# lexicon lines that retain no entry: a comment, a blank line, a line
# without a tab, and an entry with an unknown symbol
_DEAD = ["# comment", "   ", "w", "w\tk q æ1"]
# entries that ingest keeps but training cannot cut: weak-weak, and a
# compound with a weak half
_UNSUPPORTED = ["ə0 z ə0", "k æ1 + t ə0"]


def _rows(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """Oracle words, compounds among them, about a quarter with a breaking field spliced in."""
    rows = []
    for i in range(n):
        fields = random_transcription_text(rng).split()
        if rng.random() < 0.25:
            fields.insert(rng.randint(0, len(fields)), rng.choice(_BREAKERS))
        rows.append((f"w{i}", " ".join(fields)))
    return rows


def _stimuli_lines(rng: random.Random, rows: list[tuple[str, str]]) -> list[str]:
    """The rows as stimulus lines, with about as many lines that hold no row spliced in."""
    lines = [f"{word_id}\t{raw}" for word_id, raw in rows]
    for _ in range(len(rows) + 1):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_DEAD_STIMULI))
    return lines


def _lexicon(rng: random.Random, n: int) -> str:
    """A lexicon document: n oracle lines, and as many again that retain nothing, before or after them.

    The n lines are all dead, all unsupported, or mixed: oracle words with
    dead lines, unsupported entries and breaking fields spliced in. With
    two or more chunks, one chunk keeps no entry.
    """
    kind = rng.choice(["mixed", "unsupported", "dead"])
    lines = []
    for i in range(0 if kind == "dead" else n):
        roll = rng.random()
        if roll < 0.2:
            lines.append(rng.choice(_DEAD))
            continue
        text = rng.choice(_UNSUPPORTED) if kind == "unsupported" or roll < 0.25 else random_transcription_text(rng)
        fields = text.split()
        if rng.random() < 0.2:
            fields.insert(rng.randint(0, len(fields)), rng.choice(_BREAKERS))
        lines.append(f"w{i}\t{' '.join(fields)}")
    dead = [rng.choice(_DEAD) for _ in range(max(n, 1))]
    return "\n".join(dead + lines if rng.random() < 0.5 else lines + dead) + "\n"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@functools.cache
def _inputs() -> dict[str, str]:
    """A model, the inventory it was trained on, and stimuli and a lexicon above the threshold."""
    rng = random.Random(15)
    model = train_model(random_lexicon(rng, 300), load_inventory(INVENTORY_TEXT)).model
    rows = _rows(rng, 2 * ROWS_PER_PROCESS + 7)
    return {"inventory.tsv": INVENTORY_TEXT, "model.tsv": save_model(model),
            "stimuli.tsv": "".join(f"{word_id}\t{raw}\n" for word_id, raw in rows),
            "lexicon.tsv": random_lexicon(random.Random(19), 2 * ROWS_PER_PROCESS + 7)}


@pytest.fixture()
def files(tmp_path):
    """The inputs of all three commands, in a directory of their own."""
    for name, text in _inputs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def _resize(files: Path, command: str, n: int) -> None:
    """Cut the command's input file to its first n lines, or repeat its lines up to n."""
    path = files / INPUT[command]
    lines = path.read_text("utf-8").splitlines(keepends=True)
    path.write_text("".join((lines * (n // len(lines) + 1))[:n]), encoding="utf-8")


def _argv(command: str, files: Path, *judgments: str) -> list[str]:
    """The command over the inputs in a directory, writing to its ``out``; evaluate may take a judgments file."""
    inputs = [INPUT[command]] if command == "train" else ["model.tsv", INPUT[command], *judgments]
    return [command, *(str(files / name) for name in inputs),
            "--inventory", str(files / "inventory.tsv"), "--out", str(files / "out")]


def _take_outputs(files: Path) -> dict[str, bytes]:
    """The files a command wrote to the directory's ``out``, which is then removed."""
    out = files / "out"
    written = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    return written


def _outcome(command: str, files: Path, *judgments: str):
    """What the command gives, run in this process: exit code, stdout, stderr and the files it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(command, files, *judgments))
    return code, out.getvalue(), err.getvalue(), _take_outputs(files)


def _trained(document: str):
    """What train_model gives on a document: the model text and the report, or the error."""
    try:
        result = train_model(document, load_inventory(INVENTORY_TEXT))
    except PhonotaxError as err:
        return type(err).__name__, str(err)
    return save_model(result.model), result.skipped, result.retained, result.unsupported


def _one_to_four(run: Callable):
    """What ``run()`` gives with run_chunks forced to one process, after the same came for two, three and four."""
    outcomes = []
    for processes in (1, 2, 3, 4):
        with mock.patch.object(chunks, "_processes", lambda rows: processes):
            outcomes.append(run())
    assert outcomes[1:] == outcomes[:1] * 3
    _assert_no_child_left()
    return outcomes[0]


@needs_fork
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(0, 30))
def test_a_command_gives_the_same_bytes_for_one_to_four_processes(command, seed, n):
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    judgments = []
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        (files / "inventory.tsv").write_text(INVENTORY_TEXT, encoding="utf-8")
        if command == "train":
            document = _lexicon(rng, n)
        else:
            model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
            (files / "model.tsv").write_text(save_model(model), encoding="utf-8")
            rows = _rows(rng, n)
            document = "".join(line + "\n" for line in _stimuli_lines(rng, rows))
            if command == "evaluate" and rng.random() < 0.5:  # votes for most ids, and for one the stimuli lack
                judgments = ["votes.csv"]
                (files / "votes.csv").write_text("word_id,votes_against\n" + "".join(
                    f"{word_id},{rng.randint(0, 12)}\n" for word_id, _ in rows + [("extra", "")]
                    if rng.random() < 0.9), encoding="utf-8")
        (files / INPUT[command]).write_text(document, encoding="utf-8")
        code, stdout, stderr, written = _one_to_four(lambda: _outcome(command, files, *judgments))

    # the one-process outcome, against one score_batch call, or ingest and path extraction, on the whole input
    if command == "score":
        batch = score_batch(load_model(save_model(model)), rows, inventory)  # the model as the command reads it
        assert stdout == "\t".join(cli.SCORE_COLUMNS) + "\n" + cli._score_lines(batch)
        assert (code, written) == (0, {"scores.tsv": stdout.encode("utf-8")})
        assert stderr == ("" if rows else "warning: stimuli file holds no rows\n")
    elif command == "evaluate":  # it warns of the failed rows in input order
        failed = [row for row in score_batch(model, rows, inventory) if row.report is None]
        warnings = "".join(f"  {row.word_id}: {row.error}\n" for row in failed)
        if failed:
            warnings = f"warning: {len(failed)} stimuli failed to score and are excluded\n" + warnings
        assert stderr.startswith(warnings)
        assert (code == 0) == (stderr == warnings) == bool(written)
    else:
        library = _one_to_four(lambda: _trained(document))
        try:
            ingest = ingest_lexicon(document, inventory)
        except EmptyCorpus:
            assert library == ("EmptyCorpus", "no usable lexicon entries")
            assert (code, stdout, stderr, written) == (2, "", "error: no usable lexicon entries\n", {})
            return
        unsupported = []
        for entry in ingest.entries:
            try:
                extract_paths(entry)
            except UnsupportedStressPattern:
                unsupported.append((entry.lineno, entry.orthography))
        if len(unsupported) == len(ingest.entries):
            assert library == ("EmptyCorpus", "no paths to tabulate")
            assert (code, stdout, written) == (2, "", {})
            return
        model_text, skipped, retained, trained_unsupported = library
        assert (skipped, retained, trained_unsupported) == (ingest.skipped, len(ingest.entries), unsupported)
        assert (code, stderr, written) == (0, "", {"model.tsv": model_text.encode("utf-8")})
        assert stdout.startswith(f"lexicon entries: retained {retained}, skipped {len(skipped)}, ")


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
def test_score_and_evaluate_read_lines_without_rows_on_the_cuts_alike(files, kind):
    rng = random.Random(24)
    if kind == "rows":
        stimuli = _dead_on_the_cuts(_rows(rng, 40))
    else:
        stimuli = "".join(f"{rng.choice(_DEAD_STIMULI)}\n" for _ in range(40)) + "# the end\n"
    (files / "stimuli.tsv").write_text(stimuli, encoding="utf-8")
    code, stdout, stderr, written = _one_to_four(lambda: _outcome("score", files))
    _one_to_four(lambda: _outcome("evaluate", files))
    assert (code, written) == (0, {"scores.tsv": stdout.encode("utf-8")})
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


@pytest.mark.parametrize("command", COMMANDS)
def test_an_input_below_the_threshold_never_forks(files, monkeypatch, command):
    _resize(files, command, 2 * ROWS_PER_PROCESS - 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("fork called"), raising=False)
    code, stdout, _, written = _outcome(command, files)
    assert code == 0 and written
    if command == "score":
        assert stdout.count("\n") == 2 * ROWS_PER_PROCESS
    elif command == "train":
        assert stdout.startswith(f"lexicon entries: retained {2 * ROWS_PER_PROCESS - 1}, ")


@needs_fork
def test_train_model_forks_like_the_command(files, monkeypatch):
    # a library call on a lexicon above the threshold is cut as `phonotax train` cuts it
    document = (files / "lexicon.tsv").read_text("utf-8")
    with mock.patch.object(chunks, "_processes", lambda rows: 1):
        one_process = _trained(document)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    assert _trained(document) == one_process
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("failing", ["worker", "parent"])
@pytest.mark.parametrize("phase", STEPS)
def test_a_failure_on_either_side_writes_nothing_and_reaps_every_worker(files, monkeypatch, capfd, phase, failing):
    parent = os.getpid()
    module, name = STEPS[phase].split(".")
    module = importlib.import_module(f"phonotax.{module}")
    real = getattr(module, name, None) or getattr(builtins, name)

    def failing_step(*args, **kwargs):
        if (os.getpid() == parent) == (failing == "parent"):
            raise PhonotaxError(f"{failing} fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing_step, raising=False)
    monkeypatch.setattr(chunks, "_processes", lambda rows: 3)
    code, stdout, stderr, written = _outcome(COMMAND.get(phase, phase), files)
    assert (stdout, written) == ("", {})
    _assert_no_child_left()
    if failing == "worker":
        # the first failed worker stops the command; the other may be killed before it reports
        assert code == 1 and "exited with status 1" in stderr
        assert "PhonotaxError: worker fault" in capfd.readouterr().err
    else:
        assert (code, stderr) == (2, "error: parent fault\n")


# Each row a slowed step yields takes ROW_DELAY seconds longer.
ROW_DELAY = 0.001
# A command in a fresh interpreter, set up by the dict literal in its first
# argument. Keys:
#   processes  run_chunks cuts this many chunks, whatever _processes says
#   slow       a step of STEPS, slowed in every process, or with
#   in         "parent", in the parent only
#   fail       the parent's first row through the step raises instead
#   say        a line written to stderr, once: "forked" by the parent as its
#              first fork returns; or by a worker, "worker" as it takes its
#              first row through the step, "sent" as it starts to send its
#              result up, its chunk done
#   interrupt  SIGINT reaches each process the moment a fork returns in it
LAUNCHER = f"""
import ast, builtins, importlib, os, signal, sys, time
from phonotax import chunks
from phonotax.cli import main
from phonotax.errors import PhonotaxError
opts, parent, said = ast.literal_eval(sys.argv.pop(1)), os.getpid(), []
if "processes" in opts:
    chunks._processes = lambda rows: opts["processes"]
def say(word):
    if opts.get("say") == word and not said:
        said.append(os.write(2, word.encode() + b"\\n"))
if "slow" in opts:
    module, name = opts["slow"].split(".")
    module = importlib.import_module("phonotax." + module)
    step = getattr(module, name, None) or getattr(builtins, name)
    def slowed(*args, **kwargs):
        in_parent = os.getpid() == parent
        if in_parent and opts.get("fail"):
            raise PhonotaxError("parent fault")
        for item in step(*args, **kwargs):
            if not in_parent:
                say("worker")
            if in_parent or opts.get("in") != "parent":
                time.sleep({ROW_DELAY!r})
            yield item
    setattr(module, name, slowed)
send = chunks._send
def sending(pipe, value):
    say("sent")
    send(pipe, value)
chunks._send = sending
if hasattr(os, "fork"):
    fork = os.fork
    def forking():
        pid = fork()
        if pid:
            say("forked")
        if opts.get("interrupt"):
            os.kill(os.getpid(), signal.SIGINT)
        return pid
    os.fork = forking
sys.exit(main())
"""


@contextlib.contextmanager
def _launched(argv: list[str], opts: dict | None = None, cpus: set[int] | None = None,
              stdout: int = subprocess.DEVNULL) -> Iterator[subprocess.Popen]:
    """The command, run by LAUNCHER in a process group of its own, its stderr piped.

    SIGINT acts in it even where the test runner ignores it, and ``cpus``
    pins it. On leaving, the group is killed and the command reaped.
    """
    def set_up() -> None:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)

    proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, repr(opts or {}), *argv], env=ENV, stdout=stdout,
                            stderr=subprocess.PIPE, start_new_session=True, preexec_fn=set_up)
    try:
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()


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
@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_is_byte_identical_pinned_to_one_cpu_and_unpinned(files, command):
    assert chunks._processes(2 * ROWS_PER_PROCESS + 7) >= 2  # unpinned, the command forks
    outputs = []
    for cpus in ({min(os.sched_getaffinity(0))}, None):
        with _launched(_argv(command, files), cpus=cpus, stdout=subprocess.PIPE) as proc:
            stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outputs.append((stdout, stderr, _take_outputs(files)))
    assert outputs[0] == outputs[1]


def _pipe_buffer() -> int:
    """The bytes a new pipe holds before a write to it blocks."""
    read, write = os.pipe()
    try:
        return fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read)
        os.close(write)


@needs_fork
@needs_proc
@pytest.mark.parametrize("phase", [*STEPS, "handoff"])
def test_a_worker_stops_within_a_slice_of_its_parent_dying(files, phase):
    # A worker's chunk takes ten slices or more, so a worker that went on
    # to the end would run far past the limit; one that has finished its
    # chunk must not outlive the parent it sends to. Nothing in a command's
    # work checks for its parent: run_chunks guards the rows it hands out.
    # An exited worker stays a zombie until its new parent reaps it, so it
    # counts as stopped.
    assert ROWS_PER_PROCESS >= 10 * chunks.ROWS_PER_SLICE
    limit = 3 * chunks.ROWS_PER_SLICE * ROW_DELAY
    opts = {"processes": 2, "slow": STEPS.get(phase), "say": "worker"}
    if phase == "handoff":
        # the worker's result outgrows the pipe, so the worker blocks in its
        # write until its parent, still ingesting, reads or dies
        lexicon = random_lexicon(random.Random(19), 6 * ROWS_PER_PROCESS)
        (files / "lexicon.tsv").write_text(lexicon, encoding="utf-8")
        lines = lexicon.splitlines()
        cut = len(lines) // 2
        result = train._train_chunk(lines[cut:], cut, load_inventory(INVENTORY_TEXT))
        assert len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) > _pipe_buffer()
        opts.update({"slow": STEPS["ingest"], "in": "parent", "say": "sent"})
    with _launched(_argv(COMMAND.get(phase, phase), files), opts) as proc:
        assert proc.stderr.readline() == f"{opts['say']}\n".encode()
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-phase
        proc.wait(timeout=10)
        start = time.monotonic()
        while _running_in_group(proc.pid):
            assert time.monotonic() - start < limit, f"a worker kept on in phase {phase} after its parent died"
            time.sleep(0.01)


@needs_two_cpus
@pytest.mark.parametrize("command", COMMANDS)
def test_a_killed_command_leaves_no_worker_running(files, command):
    # the command as it runs on this host, with the processes its CPUs give and no step slowed
    with _launched(_argv(command, files), {"say": "forked"}) as proc:
        assert proc.stderr.readline() == b"forked\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-command
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _group_running(proc.pid):
            assert time.monotonic() < deadline, "a worker outlived the killed command"
            time.sleep(0.05)


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
@needs_proc
def test_every_worker_is_guarded_by_run_chunks():
    # run_chunks hands a worker its rows already guarded, so work that walks
    # them plainly still stops within a slice of its parent's death
    assert ROWS_PER_PROCESS >= 10 * chunks.ROWS_PER_SLICE
    limit = 3 * chunks.ROWS_PER_SLICE * ROW_DELAY
    proc = subprocess.Popen([sys.executable, "-c", UNCHECKED_CHUNKS], env=ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert proc.stderr.readline() == b"worker\n"
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone, mid-chunk
        proc.wait(timeout=10)
        start = time.monotonic()
        while _running_in_group(proc.pid):
            assert time.monotonic() - start < limit, "a worker kept working after its parent died"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


@needs_fork
@needs_proc
@pytest.mark.parametrize("phase", STEPS)
def test_a_failing_parent_kills_its_workers_before_they_finish(files, phase):
    # Each of two workers holds ROWS_PER_PROCESS rows, slowed by ROW_DELAY a
    # row, and says "sent" once it has worked through them. The parent's own
    # chunk fails at its first row, so the workers must be killed, not waited for.
    command = COMMAND.get(phase, phase)
    _resize(files, command, 3 * ROWS_PER_PROCESS)
    with _launched(_argv(command, files), {"processes": 3, "slow": STEPS[phase], "fail": True, "say": "sent"}) as proc:
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"error: parent fault\n")
        assert _running_in_group(proc.pid) == []
    assert not (files / "out").exists()


def _assert_interrupted(proc: subprocess.Popen, out: Path) -> None:
    """The command must end with one line and exit code 130, leaving no process and no output."""
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (130, b"error: interrupted\n")
    assert _running_in_group(proc.pid) == []
    assert not out.exists()


@needs_fork
@needs_proc
@pytest.mark.parametrize("command", COMMANDS)
def test_an_interrupted_command_ends_with_one_line_and_no_worker(files, command):
    with _launched(_argv(command, files), {"processes": 2, "slow": STEPS[command], "say": "worker"}) as proc:
        assert proc.stderr.readline() == b"worker\n"
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does
        _assert_interrupted(proc, files / "out")


@needs_fork
@needs_proc
@pytest.mark.parametrize("command", COMMANDS)
def test_an_interrupt_as_a_worker_is_forked_ends_with_one_line_and_no_worker(files, command):
    # SIGINT reaches the command and its worker before either has recorded or guarded the other
    with _launched(_argv(command, files), {"processes": 2, "interrupt": True}) as proc:
        _assert_interrupted(proc, files / "out")


@needs_proc
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_an_interrupt_while_reading_input_ends_with_one_line(files):
    stimuli = files / "stimuli.tsv"
    stimuli.unlink()
    os.mkfifo(stimuli)
    with _launched(_argv("score", files)) as proc:
        deadline = time.monotonic() + 30
        while True:
            try:  # opens once the command has the pipe open to read; the command then waits for lines
                writer = os.open(stimuli, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as err:
                if err.errno != errno.ENXIO:
                    raise
                assert proc.poll() is None, "the command ended before it read its input"
                assert time.monotonic() < deadline, "the command never opened its input"
                time.sleep(0.01)
        try:
            os.killpg(proc.pid, signal.SIGINT)
            _assert_interrupted(proc, files / "out")
        finally:
            os.close(writer)
