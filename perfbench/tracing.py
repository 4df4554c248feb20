"""Benchmark-side tracing: spans around calls into the program's layers.

Nothing here edits the program. :class:`Tracer` swaps module attributes
and class methods for timed wrappers while a traced pass runs and puts
the originals back afterwards. Spans stay in memory until the run ends.
Spark work is tied to the span that launched it through ``setJobGroup``.
Spark is lazy, so jobs often run after the tagged call has returned.
For that reason each extraction segment lasts from its tagged call until
the next tagged call, or until the operation ends. :func:`read_event_log`
reads Spark's own event log after the session stops.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path

# The extraction functions that ``core.mexi.prepare`` calls, under the
# segment name each one opens. ``matcher_measures`` is called twice per
# ``prepare``: first on the cohort, then on the warm-up phase. The
# ``history_to_matrix`` call of ``prepare`` itself opens "matrix_entries".
EXTRACT_CALLS = {
    "expand_submatchers": "submatchers",
    "matcher_measures": "measures",
    "aggregated_features": "features",
    "decision_sequences": "sequences",
    "heatmap_counts": "heatmaps",
}
EXTRACT_SEGMENTS = (
    "submatchers", "measures", "features", "sequences", "heatmaps",
    "matrix_entries", "warmup_measures",
)
# Modules that import ``history_to_matrix`` by name; calls through any of
# them are counted.
MATRIX_MODULES = ("repro.core.measures", "repro.core.predictors", "repro.core.mexi",
                  "repro.core.utilize")
ML_CLASSES = {
    "lstm": ("repro.ml.lstm", "LSTMClassifier"),
    "cnn": ("repro.ml.cnn", "CNNClassifier"),
    "forest": ("repro.ml.forest", "RandomForest"),
    "logreg": ("repro.ml.logreg", "LogisticRegression"),
}
MEXI_CALLS = {"build_transform_stage": "stage", "fit_from_stage": "fit"}


class Tracer:
    """In-memory spans plus Spark job groups for one traced pass."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[dict] = []
        self.counts: Counter = Counter()  # history_to_matrix calls per operation
        self._patches: list[tuple[object, str, object]] = []
        self._op: dict | None = None
        self._segment: dict | None = None

    # -- spans -------------------------------------------------------------
    def _span(self, name: str, start: float, end: float, **extra) -> None:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": self._op["name"] if self._op else None, **extra})

    def _group(self, segment: str) -> None:
        op = self._op["name"] if self._op else "idle"
        self.sc.setJobGroup(f"{op}|{segment}", f"perfbench {op} {segment}")

    @contextlib.contextmanager
    def op(self, name: str):
        """One benchmark operation; its Spark jobs carry group ``name|-``."""
        self._op = {"name": name, "start": time.perf_counter(), "segments": Counter()}
        self._group("-")
        try:
            yield
        finally:
            self._close_segment()
            end = time.perf_counter()
            op, self._op = self._op, None
            self.spans.append({"name": op["name"], "start": op["start"], "end": end,
                               "parent": None})
            self._group("-")

    def _close_segment(self) -> None:
        if self._segment is not None:
            seg, self._segment = self._segment, None
            self._span(f"extract.{seg['tag']}", seg["start"], time.perf_counter(),
                       group=seg["group"])

    def segment(self, tag: str) -> None:
        """Close the open extraction segment and open ``tag``."""
        if self._op is None:
            return
        self._close_segment()
        n = self._op["segments"][tag]
        self._op["segments"][tag] += 1
        group_tag = tag if n == 0 else f"{tag}#{n}"
        self._segment = {"tag": tag, "start": time.perf_counter(),
                         "group": f"{self._op['name']}|{group_tag}"}
        self.sc.setJobGroup(self._segment["group"], f"perfbench {tag}")

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import importlib

        mexi = importlib.import_module("repro.core.mexi")
        for fname, tag in EXTRACT_CALLS.items():
            self._patch(mexi, fname, self._segment_wrapper(getattr(mexi, fname), tag))
        for modname in MATRIX_MODULES:
            mod = importlib.import_module(modname)
            self._patch(mod, "history_to_matrix",
                        self._matrix_wrapper(mod.history_to_matrix, modname == "repro.core.mexi"))
        for fname, short in MEXI_CALLS.items():
            self._patch(mexi, fname, self._timed(getattr(mexi, fname), f"mexi.{short}"))
        self._patch(mexi.MExIModel, "predict", self._timed(mexi.MExIModel.predict, "mexi.predict"))
        for short, (modname, cname) in ML_CLASSES.items():
            cls = getattr(importlib.import_module(modname), cname)
            self._patch(cls, "fit", self._timed(cls.fit, f"ml.{short}_fit"))
            self._patch(cls, "predict_proba",
                        self._timed(cls.predict_proba, f"ml.{short}_predict_proba"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._span(name, start, time.perf_counter())
        return wrapper

    def _segment_wrapper(self, fn, tag: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seg = tag
            if tag == "measures" and self._op and self._op["segments"]["measures"]:
                seg = "warmup_measures"
            self.segment(seg)
            return fn(*args, **kwargs)
        return wrapper

    def _matrix_wrapper(self, fn, opens_segment: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens_segment:
                self.segment("matrix_entries")
            seg = self._segment["tag"] if self._segment else None
            if self._op is not None and seg != "warmup_measures":
                self.counts[f"matrix_calls:{self._op['name']}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- summaries ---------------------------------------------------------
    def total(self, name: str, parent_prefix: str = "") -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and (s["parent"] or "").startswith(parent_prefix))

    def dump(self, t0: float) -> list[dict]:
        return [{**s, "start": round(s["start"] - t0, 6), "end": round(s["end"] - t0, 6)}
                for s in self.spans]


def read_event_log(log_dir: Path) -> dict:
    """Jobs, stages and tasks from Spark's JSON event log, keyed by job group."""
    jobs: dict[int, str] = {}
    job_stages: dict[int, list[int]] = {}
    completed: set[int] = set()
    tasks: list[dict] = []
    for path in sorted(log_dir.glob("*")):
        if not path.is_file():
            continue
        with open(path) as fh:
            for line in fh:
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    props = ev.get("Properties") or {}
                    jobs[ev["Job ID"]] = props.get("spark.jobGroup.id") or "idle|-"
                    job_stages[ev["Job ID"]] = ev.get("Stage IDs", [])
                elif kind == "SparkListenerStageCompleted":
                    completed.add(ev["Stage Info"]["Stage ID"])
                elif kind == "SparkListenerTaskEnd":
                    m = ev.get("Task Metrics") or {}
                    sr = m.get("Shuffle Read Metrics") or {}
                    sw = m.get("Shuffle Write Metrics") or {}
                    inp = m.get("Input Metrics") or {}
                    tasks.append({
                        "stage": ev["Stage ID"],
                        "run_ms": m.get("Executor Run Time", 0),
                        "cpu_ns": m.get("Executor CPU Time", 0),
                        "gc_ms": m.get("JVM GC Time", 0),
                        "records_in": inp.get("Records Read", 0) + sr.get("Total Records Read", 0),
                        "shuffle_read_b": sr.get("Remote Bytes Read", 0) + sr.get("Local Bytes Read", 0),
                        "shuffle_write_b": sw.get("Shuffle Bytes Written", 0),
                    })
    return {"jobs": jobs, "job_stages": job_stages, "completed": completed, "tasks": tasks}


def spark_summary(log: dict, group_prefix: str) -> dict:
    """Totals over the jobs whose group starts with ``group_prefix``."""
    job_ids = [j for j, g in log["jobs"].items() if g.startswith(group_prefix)]
    stages = {s for j in job_ids for s in log["job_stages"][j]} & log["completed"]
    tasks = [t for t in log["tasks"] if t["stage"] in stages]
    return {
        "jobs": len(job_ids),
        "stages": len(stages),
        "tasks": len(tasks),
        "empty_tasks": sum(1 for t in tasks if t["records_in"] == 0),
        "run_s": sum(t["run_ms"] for t in tasks) / 1e3,
        "cpu_s": sum(t["cpu_ns"] for t in tasks) / 1e9,
        "gc_s": sum(t["gc_ms"] for t in tasks) / 1e3,
        "shuffle_read_mb": sum(t["shuffle_read_b"] for t in tasks) / 2**20,
        "shuffle_write_mb": sum(t["shuffle_write_b"] for t in tasks) / 2**20,
    }


def jobs_in_group(log: dict, group: str) -> int:
    return sum(1 for g in log["jobs"].values() if g == group)
