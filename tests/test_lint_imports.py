"""No module-level import goes unused (pyflakes' F401), stdlib ``ast`` only.

A name is used if a ``Name`` node reads it or a one-line string names it
(``__all__`` entries, quoted annotations).  ``from __future__`` and
``# noqa`` lines are exempt.  The paths are the ones CI lints.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("src", "tests", "benchmarks", "examples")


def _used(tree) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        text = node.value if isinstance(node, ast.Constant) else None
        if isinstance(text, str) and "\n" not in text:
            try:
                used |= _used(ast.parse(text.strip(), mode="eval"))
            except SyntaxError:
                pass
    return used


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(p for top in PATHS for p in (ROOT / top).rglob("*.py")):
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        used = _used(tree)
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "noqa" not in lines[node.lineno - 1]):
                bound = (a.asname or a.name.split(".")[0] for a in node.names)
                unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                           for name in bound if name not in used | {"*"}]
    assert unused == []
