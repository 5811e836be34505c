"""bench/scaling.py runs outside the suite, so a renamed call in it would
break only the next scaling record; tier-1 measures one tiny cell per kind."""

import importlib.util
import pathlib
import statistics

import pytest

from sfonline.metric import GENERATOR_KINDS

SCALING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "scaling.py"


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_scaling_measures_a_cell(tmp_path, kind):
    spec = importlib.util.spec_from_file_location("scaling", SCALING)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    # measure raises SystemExit when a certify row FAILs or a repeat differs.
    cell = scaling.measure(kind, 4, tmp_path)
    for phase in scaling.PHASES:
        assert cell[phase] > 0
        runs = cell[phase[:-2] + "_runs_s"]
        assert len(runs) == scaling.REPEATS
        assert cell[phase] == statistics.median(runs)
        assert 0 <= cell[phase[:-2] + "_iqr_rel"] <= (max(runs) - min(runs)) / cell[phase]
    assert cell["kind"] == kind and cell["n"] == 4
    assert len(cell["rows_sha256"]) == 64
