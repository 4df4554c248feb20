"""Seed-fixed benchmark inputs.

Run from the checkout root: ``python3 -m pytest perfbench/test_inputs.py``.
Each test starts fresh interpreters, because the hash seed is fixed at
interpreter start.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, child_env  # noqa: E402


def digest(tmp_path: Path, hash_seed: str | None = None) -> str:
    """Digest of the benchmark cohort, built in a fresh interpreter with a
    worker's environment."""
    env = child_env(tmp_path)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run([sys.executable, str(HERE / "inputs.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.strip()


def test_fresh_processes_build_the_same_cohort(tmp_path):
    assert digest(tmp_path) == digest(tmp_path)


@pytest.mark.xfail(strict=True, reason="make_task seeds its generator with hash(kind) "
                   "(src/repro/humansim/schema_gen.py:107), which depends on PYTHONHASHSEED")
def test_cohort_does_not_depend_on_hash_seed(tmp_path):
    assert digest(tmp_path, hash_seed="1") == digest(tmp_path, hash_seed="2")
