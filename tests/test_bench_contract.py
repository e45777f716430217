"""What the benchmark's traced run needs from the package.

``bench/tracing.py`` wraps package functions by name and counts the
parses of every forest ``parse_all`` returns. These tests import the
benchmark's modules as they are and run the traced child on a small
generated input, so a change that breaks the traced run fails here.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from phonotax.errors import PhonotaxError  # noqa: E402
from phonotax.parse import parse_all  # noqa: E402
from phonotax.phonology import load_inventory, tokenize  # noqa: E402
from phonotax.score import parse_stimuli  # noqa: E402
from phonotax.train import load_model  # noqa: E402

SEED = 5


def test_every_wrapped_function_exists():
    for module, function in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(f"phonotax.{module}"), function, None)), (
            module, function)


def test_traced_run_counts_every_parse(tmp_path):
    inventory = gen.read_inventory(run.INVENTORY.read_text("utf-8"))
    lexicon, stimuli, votes = tmp_path / "lexicon.tsv", tmp_path / "stimuli.tsv", tmp_path / "votes.csv"
    gen.write_lexicon(lexicon, inventory, SEED, n=3_000)
    gen.write_stimuli(stimuli, inventory, SEED, wide=False, n=400)
    rng = random.Random(f"votes-{SEED}")
    planted = gen.read_planted(stimuli)
    votes.write_text("\n".join(["word_id,votes_against"] + [
        f"{word_id},{rng.randint(0, 12)}" for word_id, _ in check.read_rows(stimuli.read_text("utf-8"))
        if word_id not in planted
    ]) + "\n", encoding="utf-8")
    out = tmp_path / "traced"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), str(lexicon), str(stimuli), str(votes),
                    str(out)], env=env, check=True, timeout=120, capture_output=True)
    trace = json.loads((out / "trace.json").read_text("utf-8"))

    rows = (out / "scores.tsv").read_text("utf-8").splitlines()[1:]
    assert trace["words_parsed"] == sum(1 for row in rows if not row.split("\t")[6]) > 0
    model = load_model((out / "model.tsv").read_text("utf-8"))
    inv = load_inventory(run.INVENTORY.read_text("utf-8"))
    parses = 0
    for _, raw in parse_stimuli(stimuli.read_text("utf-8")):
        try:
            parses += len(parse_all(tokenize(raw, inv), model))
        except PhonotaxError:
            continue
    assert trace["parses_total"] == parses
