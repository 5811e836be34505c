"""The benchmark wraps package entry points by name (perfbench/spans.py); a
renamed or removed one would make its layer read zero, so tier-1 resolves
them all. Any other import that nothing reads is dead code, and so is a
module-level name that nothing in src/ reads."""

import ast
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.resolve()  # raises MissingEntryPoint naming the lost entry point


def test_every_unused_import_is_a_benchmark_entry_point():
    # A module may import a name it never uses only so that a span can wrap
    # it there; any other unused import is dead code.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(module, name) for module, name, _, _ in spans.ENTRY_POINTS}
    unused = []
    for path in sorted((SPANS.parents[1] / "src" / "sfonline").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"sfonline.{path.stem}"
        unused += [(module, name) for name in sorted(imported - used)
                   if (module, name) not in wrapped]
    assert unused == []


def test_every_module_level_name_is_read_in_src():
    # A module-level assignment, def or class that no code in src/ reads is
    # dead; importing it (as __init__.py re-exports a name) counts as a read.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SPANS.parents[1] / "src" / "sfonline").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(module, name) for name in names
                       if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert unread == []
