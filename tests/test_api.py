from __future__ import annotations

import ast
import sys
from pathlib import Path

import phonotax


def test_every_exported_name_resolves():
    for name in phonotax.__all__:
        assert hasattr(phonotax, name), name
    namespace: dict = {}
    exec("from phonotax import *", namespace)
    assert set(phonotax.__all__) <= set(namespace)
    assert namespace["LABELS"] is phonotax.grammar.LABELS


def test_the_package_imports_only_the_standard_library():
    # the package has no runtime dependencies: every absolute import names
    # a standard-library module or the package itself
    modules = sorted(Path(phonotax.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "phonotax", f"{path.name} imports {name}"
