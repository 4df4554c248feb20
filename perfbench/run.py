"""Benchmark entry point.

    python3 perfbench/run.py --workload {extract,identify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout. Each run starts ``worker.py`` in
a fresh interpreter with a fixed hash seed, so its inputs depend on
``--seed`` alone, waits for it and for every process it started, and
prints the worker's result as the last line of standard output. Scratch
files (Spark local dirs, event logs, per-run records) go under
``.perfbench/`` in the checkout. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("extract", "identify")
# The program the benchmark drives; without it the run fails.
REQUIRED = ("src/repro/core/mexi.py", "jobs/_common.py", "benchmarks/_config.py")
TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from inputs import HASH_SEED  # noqa: E402


def child_env(tmp: Path) -> dict[str, str]:
    """Environment of a worker: a fixed hash seed, the program's Spark
    settings left to the program, and scratch files inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS", "SPARK_MASTER")}
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        TMPDIR=str(tmp),
        SPARK_LOCAL_DIRS=str(tmp),
    )
    return env


def submit_args(slots: int, tmp: Path, event_log: Path | None) -> str:
    """``PYSPARK_SUBMIT_ARGS``: the master, the driver heap that
    ``jobs/_common.get_spark`` would ask for, and the benchmark's own
    settings. ``get_spark`` adds the program's session settings."""
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
    }
    if event_log is not None:
        conf["spark.eventLog.enabled"] = "true"
        conf["spark.eventLog.dir"] = event_log.as_uri()
        # one plain JSON-lines file, which tracing.read_event_log parses
        conf["spark.eventLog.compress"] = "false"
        conf["spark.eventLog.rolling.enabled"] = "false"
    java = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    confs = " ".join(f"--conf {shlex.quote(f'{k}={v}')}" for k, v in conf.items())
    heap = os.environ.get("SPARK_DRIVER_MEM", "8g")  # as in jobs/_common.py
    return (f"--master local[{slots}] --driver-memory {heap} "
            f"--driver-java-options {java} {confs} pyspark-shell")


def reap(pgid: int) -> None:
    """Stop whatever is left in the worker's process group and wait for it."""
    for sig, wait_s in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 10.0)):
        deadline = time.monotonic() + wait_s
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        os.killpg(pgid, sig)
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description="MExI benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a source checkout; missing {missing}", file=sys.stderr)
        return 2

    slots = len(os.sched_getaffinity(0))
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = WORK / f"{name}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    event_log = run_dir / "eventlog" if args.trace else None
    if event_log:
        event_log.mkdir()
    env = child_env(tmp)
    env["PYSPARK_SUBMIT_ARGS"] = submit_args(slots, tmp, event_log)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slots", str(slots), "--out", str(WORK / "records" / f"{name}.json"),
           "--t0", repr(time.monotonic())]
    if event_log:
        cmd += ["--event-log", str(event_log)]
    # A terminated run still stops its worker (the finally clause below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(proc.pid)
        proc.wait()
        print(f"perfbench: worker timed out after {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        reap(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
