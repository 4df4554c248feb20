"""Benchmark inputs: the bench-scale PO cohort and the seeds of a run.

Scale comes from ``benchmarks/_config.py`` (36 PO matchers, k=3,
n_perm=30, grid=16, ``BENCH_NN``). Every run works on the same cohort,
``build_cohort("PO", 36, seed=COHORT_SEED)``, and the same fold split, so
each run does the same amount of work: with a cohort drawn per seed, the
MExI_70 training rows of fold 0 ranged from 122 to 173 and the timings
followed them. The workload seed drives what does not change the size of
the work: the permutation seed of the measures and the seeds of the
networks and classifiers.

The cohort is fixed only when the interpreter's hash seed is fixed too:
``make_task`` seeds its generator with ``hash(kind)``
(``src/repro/humansim/schema_gen.py``, line 107), and ``str`` hashes
change with ``PYTHONHASHSEED``. ``run.py`` therefore starts every worker
with ``PYTHONHASHSEED=HASH_SEED``, and every run records
:func:`cohort_digest` so that a changed cohort shows.

``python3 perfbench/inputs.py`` prints the digest of the cohort under the
current interpreter's hash seed.
"""
from __future__ import annotations

import hashlib

import pandas as pd

WARMUP_MATCHERS = 3  # the extract warm-up runs on the cohort's first matchers
EARLY_LIMIT = 15  # §IV-F early identification: first N decisions per matcher


COHORT_SEED = 0  # build_cohort's default seed
SPLIT_SEED = 0  # k-fold split of identify
HASH_SEED = "0"  # PYTHONHASHSEED of every worker


def run_seed(seed: int) -> int:
    """Seed of the program's randomised steps for a workload seed."""
    return seed % 2**31


def cohort_digest(cohort) -> str:
    """Stable digest of every frame of a cohort and of its reference match."""
    h = hashlib.sha256()
    frames = [cohort.decisions, cohort.mouse, cohort.warmup_decisions, cohort.matchers,
              cohort.reference_df(), cohort.warmup_reference_df()]
    for df in frames:
        h.update(pd.util.hash_pandas_object(df, index=True).to_numpy().tobytes())
        h.update(",".join(map(str, df.columns)).encode())
    return h.hexdigest()[:16]


def build(n_matchers: int | None = None):
    """The benchmark cohort; with ``n_matchers``, its first matchers only."""
    from benchmarks._config import BENCH_N_MATCHERS
    from repro.humansim import build_cohort

    return build_cohort("PO", n_matchers=n_matchers or BENCH_N_MATCHERS, seed=COHORT_SEED)


if __name__ == "__main__":
    print(cohort_digest(build()))
