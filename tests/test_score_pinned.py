"""Byte-exact `score` output on generated stimuli of both benchmark shapes.

The digests were captured from the per-parse forest that built and
ranked every parse of every word, before scoring kept only the winner.
Any change to parsing, ranking, tie-breaking or row rendering that
alters a single byte of `score` stdout fails here. The inputs come from
``bench/gen.py`` at a fixed seed: a 3k-line lexicon, then 2k stimuli in
the lexicon's shape mix (planted error rows included) and 2k wide
disyllables (about 6.4 parses per word).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from phonotax.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

INVENTORY = Path(__file__).resolve().parents[1] / "src" / "phonotax" / "data" / "inventory_ipa.tsv"
SEED = 7
STDOUT_SHA256 = {
    "mix": "3b91a3cd01b4c34ecf383f0e63ffca946288657b4ba2b89464b0ccc3d82308e9",
    "wide": "25f20840f2713720ddaa1849c1ff319f9a82f6201129eb0c271c398a6410449a",
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("score_pinned")
    inventory = gen.read_inventory(INVENTORY.read_text("utf-8"))
    lexicon = work / "lexicon.tsv"
    gen.write_lexicon(lexicon, inventory, SEED, n=3_000)
    assert main(["train", str(lexicon), "--out", str(work)]) == 0
    stimuli = {}
    for shape in STDOUT_SHA256:
        stimuli[shape] = work / f"stimuli-{shape}.tsv"
        gen.write_stimuli(stimuli[shape], inventory, SEED, wide=shape == "wide", n=2_000)
    return work / "model.tsv", stimuli


@pytest.mark.parametrize("shape", sorted(STDOUT_SHA256))
def test_score_output_is_pinned(trained, capsys, shape):
    model, stimuli = trained
    capsys.readouterr()
    assert main(["score", str(model), str(stimuli[shape])]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 2_001
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == STDOUT_SHA256[shape]
