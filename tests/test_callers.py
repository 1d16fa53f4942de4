"""Every function, class and method of the package has a caller in the package."""

import ast
from pathlib import Path

import sparseloc

# only tests and bench/spans.py call it; it goes with the dict path of SparseSet sites
_CALLERLESS = {"disorder.sample_potential"}


def _definitions(node, prefix):
    """(qualified name, name) of every function and class below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child.name
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_has_a_caller_in_the_package():
    defined, used = [], set()
    for path in sorted(Path(sparseloc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(q, name) for q, name in _definitions(tree, path.stem)
                    if not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name.split(".")[-1], node.asname))
    assert {q for q, name in defined if name not in used} == _CALLERLESS
