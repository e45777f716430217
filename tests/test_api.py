from __future__ import annotations

import phonotax


def test_every_exported_name_resolves():
    for name in phonotax.__all__:
        assert hasattr(phonotax, name), name
    namespace: dict = {}
    exec("from phonotax import *", namespace)
    assert set(phonotax.__all__) <= set(namespace)
    assert namespace["LABELS"] is phonotax.grammar.LABELS
