"""Every public name of the package has a caller.

A name is public when its module lists it in ``__all__`` (a module without
``__all__`` exports its top-level functions and classes that do not start
with an underscore).  It counts as used when an identifier of that name
appears in the acceptance suite, whose calls define the library's outside
surface, or in a top-level statement of ``src/`` other than its own
definition and the definitions of unused names.  The package ``__init__``
only re-exports, so it is no use.  Helpers that only tests need belong in
``tests/oracles.py``.  Every private helper that an exempt name calls
must be reachable from a ``cli.cmd_*`` function in the call graph by
name: an exemption cannot outlive the code it shares with a command.

The same scan catches the dead code a linter would flag: every
name a module imports is used in that module, and every module-level
private name is referenced somewhere in ``src/`` beyond its definition.
A dataclass in ``src/`` carries no field that nothing reads: each field
name is read as an attribute somewhere in ``src/`` or the tests.
"""
import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "renewalsim"
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")

# public names that nothing in src/ calls, each with its reason
EXEMPT = {
    # two lines over _gre_grid and _gre, which verify's mollification
    # check runs (reshetnyak_harness): the one-measure entry point to the
    # same formula, not a second implementation of it
    ("entropy", "gre_functional"),
    # the tests' Simpson oracle; benchmark/spans.py imports its module
    ("quadrature", "composite_simpson"),
}


# imported names that their module does not use, each with its reason
UNUSED_IMPORTS = {
    # benchmark/tests patches the span wrapper of integrate at this call site
    ("cli", "integrate"),
}


def _sources() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in SRC.glob("*.py") if path.name != "__init__.py"}


def _identifiers(tree) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _public(module, tree) -> list:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")]


def test_every_public_name_is_used():
    trees = _sources()
    # (name the statement defines, identifiers it uses) per top-level statement
    uses = [(getattr(stmt, "name", None), _identifiers(stmt))
            for tree in trees.values() for stmt in tree.body]
    acceptance = _identifiers(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    public = {}
    for stem, tree in trees.items():
        if stem != "__main__":
            module = importlib.import_module(f"renewalsim.{stem}")
            for name in _public(module, tree):
                assert hasattr(module, name), f"{stem}.__all__ names a missing {name!r}"
                if (stem, name) not in EXEMPT and name not in acceptance:
                    public[name] = stem
    # a name whose only callers are themselves unused is unused too
    unused = set()
    while True:
        found = {name for name in public.keys() - unused
                 if not any(name in ids for defined, ids in uses
                            if defined != name and defined not in unused)}
        if not found:
            break
        unused |= found
    assert sorted(f"{public[name]}.{name}" for name in unused) == []
    for stem, name in EXEMPT:
        assert hasattr(importlib.import_module(f"renewalsim.{stem}"), name), (stem, name)


def _call_graph(trees) -> dict:
    """Each top-level function or class name -> the top-level ones its body names.

    Edges go by name, so a helper passed as a value counts as called, and
    the body includes nested closures and methods.
    """
    graph = {}
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                graph.setdefault(stmt.name, set()).update(_identifiers(stmt))
    return {name: (ids & graph.keys()) - {name} for name, ids in graph.items()}


def test_exempt_names_call_only_what_a_command_runs():
    # an exemption's reason is that a command runs the same code: every
    # private helper an exempt name calls must be reachable from a cli.cmd_*
    trees = _sources()
    graph = _call_graph(trees)
    todo = [stmt.name for stmt in trees["cli"].body
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_")]
    reached = set(todo)
    while todo:
        new = graph[todo.pop()] - reached
        reached |= new
        todo += new
    assert {"cmd_run", "cmd_verify", "reshetnyak_harness"} <= reached
    stale = sorted(f"{stem}.{name} -> {helper}" for stem, name in EXEMPT
                   for helper in graph[name]
                   if helper.startswith("_") and helper not in reached)
    assert stale == []


def _imported(tree) -> list:
    """Every name an import statement of the module binds (``__future__`` aside)."""
    return [alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def _defined(stmt) -> list:
    """The names a top-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_import_is_used():
    unused = sorted((stem, name) for stem, tree in _sources().items()
                    for name in _imported(tree) if name not in _identifiers(tree))
    assert unused == sorted(UNUSED_IMPORTS)


def test_every_private_name_is_used():
    trees = _sources()
    uses = [(stmt, _identifiers(stmt)) for tree in trees.values() for stmt in tree.body]
    orphans = [f"{stem}.{name}" for stem, tree in trees.items() for stmt in tree.body
               for name in _defined(stmt)
               if name.startswith("_") and not name.startswith("__")
               and not any(name in ids for other, ids in uses if other is not stmt)]
    assert orphans == []


def _reads(path) -> set:
    """Every attribute name the file reads (``obj.name`` in a load)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    tests = pathlib.Path(__file__).parent
    read = set().union(*(_reads(p) for p in [*SRC.glob("*.py"), *tests.glob("*.py")]))
    fields = [(stem, cls.name, stmt.target.id) for stem, tree in _sources().items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert fields
    assert sorted(f"{stem}.{cls}.{name}" for stem, cls, name in fields
                  if name not in read) == []
