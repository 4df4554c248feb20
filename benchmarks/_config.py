"""Shared reduced-scale configuration for the per-table benchmarks and
the jobs' ``--fast`` runs.

Benchmarks exercise the same code paths as the full jobs at a smaller
cohort / network scale so a full benchmark run stays in minutes. The
full-scale numbers in EXPERIMENTS.md come from
``scripts/run_all_experiments.py``.
"""
from __future__ import annotations

from repro.core.mexi import NNParams

BENCH_NN = NNParams(
    lstm_hidden=16, lstm_dense=16, lstm_epochs=6,
    cnn_filters=4, cnn_epochs=8,
)
BENCH_N_MATCHERS = 36
BENCH_K = 3
BENCH_N_PERM = 30
BENCH_GRID = 16
BENCH_OAEI_N = 12  # Table IIb's OAEI cohort
