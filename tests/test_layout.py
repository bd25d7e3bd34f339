"""Layout guards: code in ``src/promkit`` that only tests call belongs in
``tests/``, and only ``experiments`` names the experiments.

Every module-level function and class of the package must be named at
least twice across the package's modules (``__init__.py`` aside, since its
re-exports are no use), the demos and the benchmark: once where it is
defined, and once where something uses it.  A use is a name, an attribute,
an import, or a string that spells it (the benchmark traces functions by
module and name).
"""
import ast
from collections import Counter
from pathlib import Path

from promkit import experiments

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "promkit"


def modules():
    return ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))


def uses(tree) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
    return out


def test_every_package_definition_has_a_use_outside_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules()}
    defined = {(path.name, node.name) for path, tree in trees.items()
               if path.parent == PACKAGE for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    named = Counter(name for _, name in defined)
    for tree in trees.values():
        named.update(uses(tree))
    assert defined, "no definitions found"
    unused = sorted(f"{module}: {name}" for module, name in defined if named[name] < 2)
    assert not unused, f"defined in src/promkit but used only by tests: {unused}"


def test_config_and_cli_name_no_experiment():
    """Each experiment describes itself in ``experiments.EXPERIMENTS``, so
    ``config`` and ``cli`` name none of them, as a string or as a keyword.
    ``config`` keys its own circuit-file reader ``custom``, which is not in
    that table."""
    names = set(experiments.EXPERIMENTS)
    for path in (PACKAGE / "config.py", PACKAGE / "cli.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        found |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
        assert not found & names, f"{path.name} names {sorted(found & names)}"


def test_oracle_shares_no_code_with_what_it_checks():
    """The exact oracle referees the sampler and the mitigation, so from the
    package it imports only the engine's kernels, the bit helpers and the
    circuit types."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("promkit")):
            module = (node.module or "").removeprefix("promkit").lstrip(".")
            imported |= {module} if module else {alias.name for alias in node.names}
    assert imported and imported <= {"engine", "bits", "circuits"}, sorted(imported)
