"""Every function, class and method of the package has a caller in the package,
every field of its classes is read in the package, and every name a function
binds is read in that function."""

import ast
from pathlib import Path

import sparseloc

# only tests and bench/spans.py call it; it goes with the dict path of SparseSet sites
_CALLERLESS = {"disorder.sample_potential"}
# its fields are written whole by dataclasses.asdict into manifest.json
_UNREAD = {"experiments.RunManifest"}


def _definitions(node, prefix):
    """(qualified name, name) of every function and class below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child.name
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def _modules():
    """(module name, parsed tree) of every module of the package."""
    for path in sorted(Path(sparseloc.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_has_a_caller_in_the_package():
    defined, used = [], set()
    for stem, tree in _modules():
        defined += [(q, name) for q, name in _definitions(tree, stem)
                    if not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name.split(".")[-1], node.asname))
    assert {q for q, name in defined if name not in used} == _CALLERLESS


def test_every_field_is_read_in_the_package():
    """An annotated class field counts as read when its name is loaded as an
    attribute or passed as a keyword argument somewhere in the package."""
    fields, read = [], set()
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields += [(f"{stem}.{node.name}", item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword):
                read.add(node.arg)
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert {u.rpartition(".")[0] for u in unread} == _UNREAD, ", ".join(unread)


def test_every_bound_name_is_read_where_it_is_bound():
    """A name assigned (or caught with ``except ... as``) in a function or
    lambda is loaded somewhere in that function; names starting with ``_``
    are the way to bind a value on purpose and not read it."""
    unread = []
    for stem, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            bound, loaded = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    bound.add(node.name)
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{stem}.{name}:{fn.lineno} {v}" for v in sorted(bound - loaded)
                       if not v.startswith("_")]
    assert unread == []
