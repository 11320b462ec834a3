"""README.md's Python examples name only what the package has.

Each ```python block is parsed with ``ast``, never run: examples need
a trace file, a server or minutes of simulation. What must hold is
that every ``from repro... import`` name and every attribute chain
rooted at an imported ``repro`` name (``repro.GridSpec``,
``GridSpec.from_json``) resolves, so an example cannot outlive an API
it calls.
"""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _blocks():
    text = README.read_text()
    return [
        (text[: match.start()].count("\n") + 1, match[1])
        for match in PYTHON_BLOCK.finditer(text)
    ]


def _bindings(tree, unresolved):
    """Name -> object for every name a block binds by importing repro;
    an imported name the module lacks goes to ``unresolved``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                module = importlib.import_module(alias.name)
                if alias.asname:
                    bound[alias.asname] = module
                else:
                    bound["repro"] = importlib.import_module("repro")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] != "repro":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    unresolved.append(f"from {node.module} import {alias.name}")
                    continue
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def _chains(tree):
    """Every outermost ``name.attr.attr`` chain as (name, [attrs])."""
    attributes = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    inner = {id(n.value) for n in attributes}
    for node in attributes:
        if id(node) in inner:
            continue
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            yield node.id, attrs


def test_readme_example_names_resolve():
    blocks = _blocks()
    assert len(blocks) >= 5
    unresolved = []
    for line, code in blocks:
        tree = ast.parse(code, filename=f"README.md:{line}")
        bound = _bindings(tree, unresolved)
        for name, attrs in _chains(tree):
            if name not in bound:
                continue
            target = bound[name]
            for depth, attr in enumerate(attrs):
                if not hasattr(target, attr):
                    dotted = ".".join([name, *attrs[: depth + 1]])
                    unresolved.append(f"README.md:{line}: {dotted}")
                    break
                target = getattr(target, attr)
    assert not unresolved, unresolved
