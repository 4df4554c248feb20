"""The bench-scale PO experiment that the Table IIa, Table III, Table IV
and §IV-F benchmarks share (``benchmarks/_config.py``, as the jobs'
``--fast``). The Table IIa benchmark times its build and leaves it in
``built``; the ``exp`` fixture hands that one on, or builds it when the
Table IIa benchmark did not run."""
import pytest

from jobs._common import po_experiment


@pytest.fixture(scope="session")
def built() -> dict:
    return {}


@pytest.fixture(scope="session")
def exp(spark, built):
    if "exp" not in built:
        built["exp"] = po_experiment(spark, fast=True)
    return built["exp"]
