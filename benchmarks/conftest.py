"""The bench-scale PO experiment that the Table III, Table IV and §IV-F
benchmarks share (``benchmarks/_config.py``, as the jobs' ``--fast``)."""
import pytest

from jobs._common import po_experiment


@pytest.fixture(scope="session")
def exp(spark):
    return po_experiment(spark, fast=True)
