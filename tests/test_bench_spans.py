"""The benchmark wraps package entry points by name (perfbench/spans.py); a
renamed or removed one would make its layer read zero, so tier-1 resolves
them all."""

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
