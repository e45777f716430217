"""The README's Python examples run as written."""

from __future__ import annotations

import random
import re
from importlib import resources
from pathlib import Path

from oracles import random_lexicon

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs_in_order(tmp_path, monkeypatch):
    # the blocks read inventory.tsv and lexicon.tsv from the working directory
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.MULTILINE | re.DOTALL)
    assert blocks
    packaged = resources.files("phonotax").joinpath("data/inventory_ipa.tsv").read_text("utf-8")
    (tmp_path / "inventory.tsv").write_text(packaged, encoding="utf-8")
    (tmp_path / "lexicon.tsv").write_text(random_lexicon(random.Random(0), 200), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
