"""Byte-exact `train` output on a toy lexicon, for every policy and GT mode.

The expected stdout and model digests were captured from an earlier,
independently structured training path; any change to ingest,
syllabification, path extraction, counting or smoothing that alters a
single byte fails here. The lexicon touches every ingest branch: a
secondary stress next to a primary (folded to weak) and one that is not,
a compound, a weak monosyllable, both kinds of unsupported entry, and
each skip reason. Its medial clusters split differently under the two
policies.
"""

from __future__ import annotations

import hashlib

import pytest

from phonotax.cli import main

from conftest import INVENTORY_TEXT

LEXICON = """\
# toy lexicon: every branch of ingest and training
cat\tk æ1 t
at\tæ1 t
sit\ts ɪ1 t
rat\tr æ1 t
still\ts t ɪ1 l
stack\ts t æ1 k
trap\tt r æ1 p
dull\td ʌ1 l
sandal\ts æ1 n d ə0 l
candle\tk æ1 n d ə0 l
master\tm æ1 s t ə0
mister\tm ɪ1 s t ə0
petrol\tp e1 t r ə0 l
matron\tm e1 t r ə0 n
insect\tɪ1 n s e2 k t
bandit\tb æ1 n d ɪ2 t
upend\tʌ2 p e1 n d
pastime\tp æ2 s t aɪ0 m
ago\tə0 g ə1
mountain\tm aɪ1 n t e1 n
busboy\tb ʌ1 s + b ɔɪ1
bagpipe\tb æ1 g + p aɪ1 p
a\tə0
to\tt ə0
ofa\tə0 z ə0
xcomp\tk æ1 + t ə0
banana\tb ə0 n æ1 n ə0
junk\tq æ1 t
missing\tk æ n ə
noline
boundary\tk + æ1
baddigit\tk æ3 t
cdigit\tk1 æ1 t
twice\tk æ1 + t + æ1
"""

# identical for every policy and GT mode: cell totals do not depend on the split
STDOUT = """\
lexicon entries: retained 26, skipped 8, downgraded 3
skip reasons: BadStressDigit 2, MalformedLine 1, MissingStress 1, NoNucleus 1, \
OutOfScope 1, TooManyBoundaries 1, UnknownSymbol 1
unsupported stress patterns: 2 entries left untrained
trained entries: 24
path instances: 76
word onsets: 11
per-cell totals:
  Osi 10  Osf 3  Osif 12  Owi 2  Owf 9  Owif 2
  Rsi 10  Rsf 3  Rsif 12  Rwi 2  Rwf 9  Rwif 2
"""

MODEL_SHA256 = {
    ("max-onset", "simple"): "c4768b88f2a0c4ae0b31428e05c7d40cd4c947b479f85b6da17886b47f0318c1",
    ("max-onset", "full"): "40e774741a9d74af3098bf80db6d92c59ae90100a2dc469c2ca3627906d1b0ac",
    ("always-split-cc", "simple"): "c4fbbddfbdd8df09442543c4bcb4a7831f684d2164060b910e84cbaf85640853",
    ("always-split-cc", "full"): "2ed054cae44ee999d4572a502f931d30280848c9488118b72ed07bf5c32316cf",
}


@pytest.mark.parametrize("policy, gt", sorted(MODEL_SHA256))
def test_train_output_is_pinned(tmp_path, capsys, policy, gt):
    inventory = tmp_path / "inventory.tsv"
    inventory.write_text(INVENTORY_TEXT, encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(LEXICON, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["train", str(lexicon), "--inventory", str(inventory),
               "--medial-split", policy, "--gt", gt, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    body, model_line = captured.out.rsplit("model: ", 1)
    assert body == STDOUT
    assert model_line == f"{out / 'model.tsv'}\n"
    model = (out / "model.tsv").read_bytes()
    assert hashlib.sha256(model).hexdigest() == MODEL_SHA256[policy, gt]
