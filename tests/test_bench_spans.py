"""The benchmark wraps package entry points by name (perfbench/spans.py); a
renamed or removed one would make its layer read zero, so tier-1 resolves
them all."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.resolve()  # raises MissingEntryPoint naming the lost entry point
