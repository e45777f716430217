from __future__ import annotations

import ast
import os
import subprocess
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


def _absolute_imports() -> list[tuple[str, str]]:
    """(module file name, imported name) for every absolute import in the package's modules."""
    modules = sorted(Path(phonotax.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    imports = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imports.append((path.name, node.module))
    return imports


def test_the_package_imports_only_the_standard_library():
    # the package has no runtime dependencies: every absolute import names
    # a standard-library module or the package itself
    for module, name in _absolute_imports():
        top = name.partition(".")[0]
        assert top in sys.stdlib_module_names or top == "phonotax", f"{module} imports {name}"


def test_no_module_imports_enum():
    # closed vocabularies, such as stress letters and split policies, are checked strings
    assert [(module, name) for module, name in _absolute_imports() if name == "enum"] == []


def test_importing_the_command_line_leaves_dataclasses_and_inspect_out():
    # a fresh interpreter without site hooks: only the package's own imports count
    src = str(Path(phonotax.__file__).resolve().parents[1])
    code = "import sys, phonotax.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "[]\n"


def test_importing_the_package_loads_no_submodule():
    # each export loads its module when it is first read, so the bare package loads none
    src = str(Path(phonotax.__file__).resolve().parents[1])
    code = "import sys, phonotax; print(sorted(m for m in sys.modules if 'phonotax' in m or m == 'hashlib'))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "['phonotax']\n"


# the package's modules, each above every one it may import
LAYERS = ("errors", "chunks", "phonology", "syllabify", "grammar", "train", "parse", "score", "stats", "plot",
          "mitton", "cli")


def test_every_module_imports_only_modules_below_it():
    # every relative import counts, inside a function or a TYPE_CHECKING block too
    modules = {path.stem: path for path in Path(phonotax.__file__).parent.glob("*.py")}
    assert sorted(modules) == sorted(["__init__", *LAYERS])
    for module in LAYERS:
        path = modules[module]
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1 and node.module is not None, f"{module}: line {node.lineno}"
                assert LAYERS.index(node.module) < LAYERS.index(module), f"{module} imports {node.module}"
    # and no module reaches round the order by an absolute import of the package
    assert [(module, name) for module, name in _absolute_imports() if name.startswith("phonotax")] == []


def test_no_module_cuts_lines_with_splitlines():
    # a line ends only where phonology.split_lines cuts it; a docstring may still name str.splitlines
    for path in sorted(Path(phonotax.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "splitlines", f"{path.name} line {node.lineno} reads .splitlines"


def test_importing_the_statistics_loads_only_the_errors():
    # stats reads a word's scores by position, so it needs nothing that trains or scores
    src = str(Path(phonotax.__file__).resolve().parents[1])
    code = "import sys, phonotax.stats; print(sorted(m for m in sys.modules if m.startswith('phonotax.')))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "['phonotax.errors', 'phonotax.stats']\n"


def test_train_leaves_the_scorer_and_the_parser_unrun(tmp_path):
    # the command line puts score and parse in sys.modules to run when first read: train never reads them
    src = str(Path(phonotax.__file__).resolve().parents[1])
    (tmp_path / "lexicon.tsv").write_text("cat\tk æ1 t\n", encoding="utf-8")
    (tmp_path / "stimuli.tsv").write_text("w1\tk æ1 t\n", encoding="utf-8")
    code = ("import sys, types; from phonotax.cli import main; main(sys.argv[1:]); "
            "print(sorted(n for n in ('phonotax.parse', 'phonotax.score') if type(sys.modules[n]) is types.ModuleType))")
    for argv, ran in ((["train", "lexicon.tsv", "--out", "out"], "[]"),
                      (["score", "out/model.tsv", "stimuli.tsv"], "['phonotax.parse', 'phonotax.score']")):
        proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
                              cwd=tmp_path, capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == ran
