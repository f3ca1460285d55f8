"""Every public name of the package has a caller in the program.

The program is `src/beaconlab/` plus the benchmark in `perfbench/`. A public
top-level function, class or module constant of a `beaconlab` module, or a
public method of one of its classes, must be referenced somewhere in the
program outside its own definition and outside `__init__.py`, whose exports
are no use. A reference is a `Name` read, an `Attribute`, or a part of a
dotted string in `perfbench` (the tracer names the methods it wraps as
"Class.method"). Tests do not count: a name only they call is behaviour the
program never runs. Names are matched by spelling, not by what they resolve
to, so the check can pass a name it should not; it never fails one that has
a caller.

Each module of the package also reads every name it imports. A read is a
`Name` load, or a name inside a string that parses as an expression: an
annotation naming a class imported under `TYPE_CHECKING`, or an entry of
`__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beaconlab"

# The events reader's callers are the golden and storage tests, which read a
# run's events.jsonl back. ROADMAP direction 3 gives it a program caller: a
# counting sink fed from the file must reproduce the run's event counters.
EXEMPT = {"storage.read_events_jsonl"}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each public definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _is_public(node.name):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and _is_public(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _is_public(target.id):
                    yield f"{module}.{target.id}", target.id, node


def _references(tree: ast.AST, dotted_strings: bool):
    """(name, node) of each reference in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "." in node.value and all(p.isidentifier() for p in node.value.split(".")):
            for part in node.value.split("."):
                yield part, node


def _inside(node: ast.AST, definition: ast.AST) -> bool:
    return definition.lineno <= node.lineno <= definition.end_lineno


def unreferenced() -> list[str]:
    sources = {path: ast.parse(path.read_text(encoding="utf-8")) for path in
               sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")}
    definitions = [
        (path, qualified, name, node)
        for path, tree in sources.items() if path.parent == PACKAGE and path.name != "__init__.py"
        for qualified, name, node in _definitions(path.stem, tree)
    ]
    references: dict[str, list] = {}
    for path, tree in sources.items():
        if path.name == "__init__.py":
            continue
        for name, node in _references(tree, dotted_strings=path.parent != PACKAGE):
            references.setdefault(name, []).append((path, node))
    return sorted(
        qualified for path, qualified, name, definition in definitions
        if not any(
            not (where == path and _inside(node, definition))
            for where, node in references.get(name, ())
        )
    )


def test_every_public_name_has_a_caller_in_the_program():
    assert [name for name in unreferenced() if name not in EXEMPT] == []


def test_the_exempt_names_still_have_no_caller():
    # once one has a caller, it leaves EXEMPT
    assert EXEMPT <= set(unreferenced())


def _imported(tree: ast.Module):
    """Each name an import statement of the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports() -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        out += [f"{path.stem}.{name}" for name in _imported(tree) if name not in read]
    return sorted(out)


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []
