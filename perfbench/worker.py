"""One benchmark run in a fresh process. ``run.py`` starts it with the
environment the run needs; it is not meant to be started by hand.

The run sets up (Spark session, cohort, the workload's inputs, an untimed
warm-up), then times whole passes over the workload's fixed operations
for at least ``--seconds``. With ``--trace 1`` it times one more pass
with :class:`tracing.Tracer` installed and reports per-layer metrics.
The last line of standard output is the result as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import tracing

ALL_SETS = ("LRSM", "Mou", "Beh", "Seq", "Spa")
VARIANTS = {"MExI_none": "none", "MExI_50": "50", "MExI_70": "70"}


class Run:
    """Operation accounting and timing for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_log: list[tuple[str, float]] = []  # (operation, seconds), in order
        self.tracer: tracing.Tracer | None = None
        self.prefix = ""

    def op(self, name: str, fn, check=None):
        """Run ``fn`` as one operation. Returns (result, seconds); the
        result is None when ``fn`` raised. Checks run outside the timing."""
        self.attempted += 1
        span = self.tracer.op(self.prefix + name) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception:
            self._fail(name, traceback.format_exc(limit=4))
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.op_log.append((self.prefix + name, elapsed))
        try:
            problems = check(out) if check else []
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self._fail(name, "; ".join(problems))
        return out, elapsed

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self._fail(name, "; ".join(problems))

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{name}: {why}")
        print(f"[perfbench] FAILED {name}: {why}", file=sys.stderr, flush=True)


def start_spark(app: str):
    from jobs._common import get_spark

    return get_spark(app)


def truth_for(data, train_ids, ids):
    """Ground truth of ``ids`` with thresholds from ``train_ids`` (§IV-B1)."""
    from repro.core.measures import attach_labels, cognitive_thresholds

    meas = data.measures
    d_res, d_cal = cognitive_thresholds(meas[meas["matcher_id"].isin(train_ids)])
    lab = attach_labels(meas, delta_res=d_res, delta_cal=d_cal)
    return lab[lab["matcher_id"].isin(ids)][["matcher_id", *checks.LABELS]]


# ---------------------------------------------------------------- workloads
class Workload:
    """A workload sets up once, then runs timed passes (``one_pass``
    returns each operation's seconds); ``traced_extra`` runs after the
    traced pass."""

    def __init__(self, run: Run, spark, cohort, seed: int) -> None:
        from benchmarks import _config as cfg

        self.run, self.spark, self.cohort, self.seed, self.cfg = run, spark, cohort, seed, cfg

    def traced_extra(self) -> dict:
        return {}


class Extract(Workload):
    """Spark: ``prepare`` with the MExI_50 ∪ MExI_70 sub-matcher windows,
    then the §IV-F fused match over fixed expert selections."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.selections: dict[str, list[str]] = {}
        self.fused: dict[str, dict] = {}

    def _prepare(self, cohort=None, **kw):
        from repro.core import mexi

        return mexi.prepare(self.spark, cohort or self.cohort, n_perm=self.cfg.BENCH_N_PERM,
                            grid=self.cfg.BENCH_GRID, seed=self.seed, **kw)

    def setup(self) -> None:
        """Warm-up on a few matchers of the cohort: the first ``prepare``
        in a process pays the cold costs whatever its input, and the one
        after it is still slower and more variable (JIT), so the timed
        ``prepare`` is the third call in the process."""
        from repro.core.measures import matcher_measures

        run = self.run
        small = inputs.build(inputs.WARMUP_MATCHERS)
        for _ in range(2):
            run.op("warmup.prepare", lambda: self._prepare(small), checks.prepared)
        run.op("table1", lambda: matcher_measures(
            self.spark, self.spark.createDataFrame(checks.TABLE1_HISTORY),
            self.spark.createDataFrame(checks.TABLE1_REFERENCE), n_perm=400).toPandas(),
            checks.table1)

    @staticmethod
    def selections_for(data) -> dict[str, list[str]]:
        """Expert selections that need no learning (§IV-F): every matcher,
        and the half of the matchers with the highest measured P."""
        ranked = data.measures.sort_values(["P", "matcher_id"], ascending=[False, True])
        top = ranked["matcher_id"].head(len(ranked) // 2)
        return {"no_filter": list(data.full_ids), "top_half_P": sorted(top)}

    def _fused(self, name: str, data):
        from repro.core import utilize

        return utilize.fused_match(self.spark, data, self.selections[name])

    def one_pass(self) -> dict[str, float]:
        from repro.core.utilize import performance_table

        run, times = self.run, {}
        data, times["prepare"] = run.op("prepare", self._prepare, checks.prepared)
        if not self.selections:
            self.selections = self.selections_for(data)
        for name in self.selections:
            self.fused[name], times[f"fused_match.{name}"] = run.op(
                f"fused_match.{name}", lambda n=name: self._fused(n, data), checks.fused)
        _, times["performance_table"] = run.op(
            "performance_table", lambda: performance_table(data, self.selections),
            lambda t: checks.performance(t, data.measures))
        self.data = data
        return times

    def traced_extra(self) -> dict:
        """Early-identification ``prepare`` (§IV-F), timed in the traced
        run only; its jobs and time go to the ``utilize.*`` metrics."""
        limit = inputs.EARLY_LIMIT
        _, secs = self.run.op("early_prepare", lambda: self._prepare(
            sub_sizes=[], decision_limit=limit), lambda d: checks.early(d, limit))
        return {"early_prepare_s": secs}

    def quality(self) -> dict:
        return {f"fused.{name}": {k: f[k] for k in ("P", "R", "n_pairs")} if f else None
                for name, f in self.fused.items()} | {
            "selected": {k: len(v) for k, v in self.selections.items()}}


class Identify(Workload):
    """Driver: the MExI_none/50/70 cells of fold 0 of the k-fold split, on
    a bundle prepared in setup."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.preds: dict[str, object] = {}
        self.winners: dict[str, dict] = {}

    def setup(self) -> None:
        from repro.core import mexi
        from repro.core.evaluate import kfold_ids

        self.data, _ = self.run.op("bundle.prepare", lambda: mexi.prepare(
            self.spark, self.cohort, n_perm=self.cfg.BENCH_N_PERM, grid=self.cfg.BENCH_GRID,
            seed=self.seed), checks.prepared)
        self.train, self.test = kfold_ids(self.data.full_ids, k=self.cfg.BENCH_K,
                                          seed=inputs.SPLIT_SEED)[0]
        self.first, _ = self._cell("MExI_none")  # warm-up

    def _cell(self, variant: str):
        from repro.core import mexi

        fold_seed = self.seed + 1000  # as the experiments seed fold 0

        def cell():
            stage = mexi.build_transform_stage(self.data, self.train,
                                               submatcher=VARIANTS[variant],
                                               nn=self.cfg.BENCH_NN, seed=fold_seed)
            model = mexi.fit_from_stage(stage, ALL_SETS, seed=fold_seed)
            return model, model.predict(self.test)

        out, secs = self.run.op(f"cell.{variant}", cell,
                                lambda o: checks.predictions(o[1], self.test))
        if out is not None:
            model, self.preds[variant] = out
            self.winners[variant] = {
                lab: {"clf": type(getattr(c, "clf", c)).__name__,
                      "threshold": getattr(c, "threshold", None)}
                for lab, c in model.classifiers.items()}
        return out, secs

    def one_pass(self) -> dict[str, float]:
        times = {}
        for variant in VARIANTS:
            out, times[variant] = self._cell(variant)
            if variant == "MExI_none" and out and self.first:
                self.run.check("repeat.MExI_none", checks.same_predictions(self.first[1], out[1]))
        return times

    def quality(self) -> dict:
        from repro.core.evaluate import accuracy_row

        truth = truth_for(self.data, self.train, self.test)
        return {f"A_ML.{v}": accuracy_row(truth, p)["A_ML"] for v, p in self.preds.items()} | {
            "winners": self.winners}


WORKLOADS = {"extract": Extract, "identify": Identify}


# ---------------------------------------------------------------- run
def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_frac", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed_passes(work, seconds: float) -> list[dict[str, float]]:
    """Whole passes until ``seconds`` have gone by; the operation times of
    each pass."""
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(work.one_pass())
    return passes


def local1_pass(spark, cohort, seed: int) -> float:
    """One ``prepare`` on ``local[1]``: stop the session and time one call
    in a new single-slot session of the same JVM, whose JIT is warm."""
    from benchmarks import _config as cfg
    from repro.core import mexi

    jvm = spark.sparkContext._jvm
    spark.stop()
    jvm.System.setProperty("spark.master", "local[1]")
    jvm.System.setProperty("spark.eventLog.enabled", "false")
    one = start_spark("perfbench-local1")
    try:
        start = time.perf_counter()
        mexi.prepare(one, cohort, n_perm=cfg.BENCH_N_PERM, grid=cfg.BENCH_GRID, seed=seed)
        return time.perf_counter() - start
    finally:
        one.stop()


def layer_metrics(name, work, tracer, log, pass_wall, untraced_wall, slots, cohort,
                  cohort_s, extra) -> dict[str, float]:
    t = "T:"
    spark = tracing.spark_summary(log, t)
    m = {
        "humansim.cohort_s": cohort_s,
        "humansim.decisions": len(cohort.decisions),
        "humansim.mouse_events": len(cohort.mouse),
        "spark.jobs": spark["jobs"],
        "spark.stages": spark["stages"],
        "spark.tasks": spark["tasks"],
        "spark.empty_task_frac": spark["empty_tasks"] / spark["tasks"] if spark["tasks"] else 0.0,
        "spark.executor_run_s": spark["run_s"],
        "spark.executor_cpu_s": spark["cpu_s"],
        "spark.gc_s": spark["gc_s"],
        "spark.busy_frac": spark["run_s"] / (pass_wall * slots),
        "spark.shuffle_read_mb": spark["shuffle_read_mb"],
        "spark.shuffle_write_mb": spark["shuffle_write_mb"],
        "spark.jvm_peak_rss_mb": extra.pop("jvm_peak_rss_mb"),
        "spark.local1_wall_s": extra.pop("local1_wall_s", 0.0),
    }
    prep = t + "prepare"
    for seg in tracing.EXTRACT_SEGMENTS:
        m[f"extract.{seg}_s"] = tracer.total(f"extract.{seg}", prep)
        m[f"extract.{seg}_jobs"] = tracing.jobs_in_group(log, f"{prep}|{seg}")
    m["extract.matrix_calls"] = tracer.counts[f"matrix_calls:{prep}"]
    data = getattr(work, "data", None) if name == "extract" else None
    m["extract.ids_out"] = len(data.features) if data is not None else 0
    m["extract.decision_rows"] = (
        int(data.sequences["confs"].map(len).sum()) if data is not None else 0)
    for short in ("stage", "fit", "predict"):
        m[f"mexi.{short}_s"] = tracer.total(f"mexi.{short}", t)
    for short in tracing.ML_CLASSES:
        m[f"ml.{short}_fit_s"] = tracer.total(f"ml.{short}_fit", t)
        m[f"ml.{short}_fits"] = sum(
            1 for s in tracer.spans
            if s["name"] == f"ml.{short}_fit" and (s["parent"] or "").startswith(t))
    m["ml.predict_proba_s"] = sum(
        tracer.total(f"ml.{short}_predict_proba", t) for short in tracing.ML_CLASSES)
    fused = [s for s in tracer.spans if s["name"].startswith(t + "fused_match.")]
    m["utilize.early_prepare_s"] = extra.pop("early_prepare_s", 0.0)
    m["utilize.early_prepare_jobs"] = sum(
        1 for g in log["jobs"].values() if g.startswith("X:early_prepare|"))
    m["utilize.fused_match_s"] = sum(s["end"] - s["start"] for s in fused)
    m["utilize.fused_match_jobs"] = sum(
        1 for g in log["jobs"].values() if g.startswith(t + "fused_match."))
    m["utilize.selected_ids"] = sum(len(v) for v in getattr(work, "selections", {}).values())
    m["trace.overhead_frac"] = pass_wall / untraced_wall - 1.0
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--slots", type=int, required=True)
    ap.add_argument("--event-log", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    run = Run()
    spark = start_spark("perfbench")
    cohort, cohort_s = run.op("cohort", inputs.build)
    digest = inputs.cohort_digest(cohort)
    print(json.dumps({"cohort_digest": digest, "seed": args.seed,
                      "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}), flush=True)
    seed = inputs.run_seed(args.seed)
    work = WORKLOADS[args.workload](run, spark, cohort, seed)
    work.setup()
    setup_s = time.monotonic() - args.t0

    passes = timed_passes(work, args.seconds)
    op_s = {name: min(p[name] for p in passes) for name in passes[0]}
    wall_s = sum(op_s.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"workload": args.workload, "seed": args.seed, "cohort_digest": digest,
              "passes": passes, "wall_s": wall_s, "setup_s": setup_s}

    if args.trace:
        tracer = run.tracer = tracing.Tracer(spark.sparkContext)
        run.prefix = "T:"
        tracer.install()
        try:
            traced_wall = sum(work.one_pass().values())
            run.prefix = "X:"  # outside the pass: not in the spark.* totals
            extra = work.traced_extra()
        finally:
            tracer.uninstall()
            run.tracer, run.prefix = None, ""
        extra["jvm_peak_rss_mb"] = vm_hwm_mb(spark.sparkContext._gateway.proc.pid)
        if args.workload == "extract":
            extra["local1_wall_s"] = local1_pass(spark, cohort, seed)
        else:
            spark.stop()
        log = tracing.read_event_log(args.event_log)
        untraced_wall = statistics.median(sum(p.values()) for p in passes)
        metrics = layer_metrics(args.workload, work, tracer, log, traced_wall, untraced_wall,
                                args.slots, cohort, cohort_s, extra)
        record["quality"] = work.quality()
        record["spans"] = tracer.dump(args.t0 - (time.monotonic() - time.perf_counter()))
    else:
        spark.stop()
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "driver_rss_mb": rss_mb}

    record["problems"] = run.problems
    record["op_log"] = run.op_log
    record["metrics"] = metrics
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
