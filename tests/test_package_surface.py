"""Every function, class and method defined in `src/dulaclin` is on a path that
the package's own code reaches, and every field a class in it stores is read
there: a name that only the tests use belongs in `tests/`, and a field that
nothing reads is not stored.

Both scans are syntactic.  A definition counts as referenced when an
`ast.Name` or `ast.Attribute` somewhere in `src/` spells its name, leaving out
its own body and the modules' `__all__` lists.  It iterates, so a name
referenced only from code that is itself unreferenced is reported too.

A stored field is an annotated name in a class body (a dataclass field), a
`__slots__` entry or a `self.<name>` assignment in a method.  It counts as
read when an `ast.Attribute` in `src/` loads its name.  The match is by
attribute name alone, whatever the object, so a field escapes when another
object's attribute shares its name: a report's `seed` field was once taken
as read because the CLI reads `args.seed`.

The benchmark's tracer, `perfbench/tracer.py`, wraps package functions by
module and attribute name; every name it lists must resolve, or the traced
benchmark stops with an `AttributeError`.  The list is read from the file's
syntax tree, so the file is neither edited nor imported.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dulaclin"

# dispatched by name or called by the standard library, not spelled in src/
EXEMPT = {"main", "_Parser.error"}

# stored for callers outside src/
EXEMPT_FIELDS = {
    "KoenigsResult.converged",       # read by the acceptance criteria
    "KoenigsResult.joj_violations",  # read by the acceptance criteria
    "MapCheckReport.violations",     # part of the report's pinned repr
    "NotConverged.max_n",            # exception payload for callers
    "ParseError.position",           # exception payload for callers
}


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


def _stored_fields(cls):
    """The names a class stores: annotated names of its body, its `__slots__`
    entries and the attributes its methods assign on `self`."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
            yield from (c.value for c in ast.walk(item.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.attr


def unread_fields(src: Path = SRC, exempt=EXEMPT_FIELDS) -> list:
    """Qualified names of the fields stored by classes under `src` whose
    name no attribute load in `src` spells, but for the `exempt` ones."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({f"{module}.{cls.name}.{name}"
                   for module, tree in trees.items() for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for name in _stored_fields(cls)
                   if name not in read and f"{cls.name}.{name}" not in exempt})


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


def test_every_stored_field_is_read_in_src():
    assert unread_fields() == []


def test_every_exempt_field_is_stored_and_unread():
    assert {q.split(".", 1)[1] for q in unread_fields(exempt=())} == EXEMPT_FIELDS


def test_a_write_only_field_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n    kept: int\n    dropped: int\n"
        "class Slotted:\n    __slots__ = ('used', 'unused')\n"
        "class Plain:\n"
        "    def __init__(self):\n        self.read = 1\n        self.written = 2\n"
        "        self.count = 0\n"
        "    def bump(self):\n        self.count += 1\n"
        "def use(r, s, p):\n    return r.kept + s.used + p.read\n")
    assert unread_fields(tmp_path) == ["a.Plain.count", "a.Plain.written",
                                       "a.Record.dropped", "a.Slotted.unused"]


def trace_targets(tracer: Path = ROOT / "perfbench" / "tracer.py") -> list:
    """The (span name, module, attribute) entries of the tracer's TARGETS list."""
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {tracer}")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    for _, module, attr in targets:
        owner = importlib.import_module(f"dulaclin.{module}")
        if "." in attr:  # a method, wrapped where its class defines it
            cls_name, attr = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(attr)), (module, cls_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_the_package_binds_only_its_version():
    # each name has one import path, its submodule's
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            bound |= {t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                      and isinstance(t.ctx, ast.Store)}
    assert bound == {"__version__"}
