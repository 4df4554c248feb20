"""Job entrypoints: compile, expose main(), and the worked-example job
reproduces §II's measures."""
import importlib.util
import py_compile
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
ALL_JOBS = [
    "table1_example.py",
    "table2a_po.py",
    "table2b_oaei.py",
    "table3_ablation.py",
    "table4_importance.py",
    "table5_utilize.py",
    "population_stats.py",
]


@pytest.mark.parametrize("name", ALL_JOBS)
def test_job_compiles(name):
    py_compile.compile(str(JOBS / name), doraise=True)


def _load(name: str):
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), JOBS / name)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(JOBS))


@pytest.mark.parametrize("name", ALL_JOBS)
def test_job_exposes_main(name):
    assert callable(_load(name).main)


def test_table1_logic_matches_paper():
    """The Table I job's measures (the extraction kernel's functions)
    are §II's worked example."""
    _, entries, m = _load("table1_example.py").example()
    assert len(entries) == 4  # step 1 is superseded by step 3
    assert m["P"] == 0.75 and m["R"] == 0.75
    assert m["res"] == 1.0 and m["res_pval"] > 0.05
