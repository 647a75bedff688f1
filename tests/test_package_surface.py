"""Every function, class and method defined in `src/dulaclin` is on a path that
the package's own code reaches: a name that only the tests use belongs in
`tests/`.

The scan is syntactic.  A definition counts as referenced when an `ast.Name`
or `ast.Attribute` somewhere in `src/` spells its name, leaving out its own
body and the modules' `__all__` lists.  It iterates, so a name referenced
only from code that is itself unreferenced is reported too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dulaclin"

# dispatched by name or called by the standard library, not spelled in src/
EXEMPT = {"main", "_Parser.error"}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _definitions(tree, module):
    """(qualified name, bare name, node) of the top-level functions and
    classes of a module and of the methods of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _exempt(qualname: str, name: str) -> bool:
    short = qualname.split(".", 1)[1]
    return (name.startswith("__") and name.endswith("__")) or name.startswith("cmd_") \
        or short in EXEMPT


def _occurrences(node, enclosing, defs, out):
    """Append (spelled name, enclosing definitions) for each Name and
    Attribute node under `node`; `__all__` assignments spell nothing."""
    if _is_all(node):
        return
    if id(node) in defs:
        enclosing = enclosing | {id(node)}
    if isinstance(node, ast.Name):
        out.append((node.id, enclosing))
    elif isinstance(node, ast.Attribute):
        out.append((node.attr, enclosing))
    for child in ast.iter_child_nodes(node):
        _occurrences(child, enclosing, defs, out)


def unreached_names(src: Path = SRC) -> list:
    """Qualified names of the definitions under `src` that no code reaches."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    defs = [d for m, t in trees.items() for d in _definitions(t, m)
            if not _exempt(d[0], d[1])]
    occurrences = []
    for tree in trees.values():
        _occurrences(tree, frozenset(), {id(node) for _, _, node in defs}, occurrences)
    flagged = {}
    while True:
        # a definition's own body never counts for it; a flagged body counts for nothing
        dead = set(flagged.values())
        new = {q: id(node) for q, name, node in defs if q not in flagged
               and not any(n == name and not (inside & dead) and id(node) not in inside
                           for n, inside in occurrences)}
        if not new:
            return sorted(flagged)
        flagged.update(new)


def test_every_definition_is_reached_from_src():
    assert unreached_names() == []


def test_the_scan_follows_chains(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['used', 'only_tests']\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def only_tests():\n    return chained()\n"
        "def chained():\n    return chained()\n"
        "class Box:\n"
        "    def __init__(self):\n        self.kept()\n"
        "    def kept(self):\n        pass\n"
        "    def dropped(self):\n        pass\n"
        "def cmd_run(args):\n    return used()\n"
        "def main():\n    return Box()\n")
    assert unreached_names(tmp_path) == ["a.Box.dropped", "a.chained", "a.only_tests"]
