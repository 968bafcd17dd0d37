#!/usr/bin/env python3
"""Run one pinned beliefrev workload and print its metrics.

    python3 perfbench/run.py --workload suite_n2 --seed 1 --seconds 30 --trace 0

Run it from the repository root; beliefrev is imported from ``src/``.  Each
pass spawns a fresh interpreter (worker.py) that imports ``beliefrev.cli`` and
runs the workload's CLI jobs in-process one after another: a closed loop with
a single client.  Passes repeat while the next one still fits in
``--seconds``, and every job's output is checked against golden digests or
seed-independent invariants.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the passes.  Pass times are normalized to a reference host
speed (hostspeed.py).  Set-up-only interpreters are spawned before each pass
so that ``setup_s`` is a median of many start-ups.  With
``--trace 1`` traced and untraced passes alternate and the metrics are the
per-layer ones.  The last line of standard output is a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record (stamp,
raw per-pass values, spans) goes to ``perfbench/results/``.  The exit code is
0 only when every job's output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import normalize
from workloads import WORKLOADS, Job, check_output, items, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

READY_TIMEOUT_S = 60
JOB_TIMEOUT_S = 60  # the slowest pinned job takes about 8 s on a 2-core host
SETUPS_PER_PASS = 4  # set-up-only spawns before each untraced pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Worker:
    """A worker.py process whose stdout messages are read with a timeout."""

    def __init__(self, jobs: list[Job], trace: bool):
        spec = json.dumps({"jobs": [list(job.argv) for job in jobs], "trace": trace})
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), spec],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            start_new_session=True,  # one process group, so a kill also stops pool workers
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self, timeout: float) -> dict | None:
        """The next message, or None if the worker ended without sending it.

        Raises queue.Empty when nothing arrives within ``timeout`` seconds.
        """
        line = self._lines.get(timeout=timeout)
        return None if line is None else json.loads(line)

    def close(self) -> None:
        """Wait for the worker to end, killing its process group if it does not."""
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reader.join()
        self.proc.stdout.close()

    def kill(self) -> None:
        """Kill the worker and any pool processes it started, and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group has already exited
            pass
        self.proc.wait()


def setup_only() -> float | None:
    """Seconds from spawning a worker until beliefrev.cli is imported, or None."""
    worker = Worker([], False)
    try:
        ready = worker.receive(READY_TIMEOUT_S)
    except queue.Empty:
        ready = None
        worker.kill()
    setup_s = time.perf_counter() - worker.spawned
    worker.close()
    return setup_s if ready else None


def run_pass(jobs: list[Job], traced: bool, seed: int, golden: dict) -> dict:
    """Run every job once in a fresh worker and check each one's output."""
    worker = Worker(jobs, traced)
    record = {"traced": traced, "setup_s": None, "job_wall_s": [], "exits": [],
              "errors": [], "items": 0, "done": None}
    try:
        if worker.receive(READY_TIMEOUT_S) is None:
            raise EOFError("worker ended before beliefrev.cli was imported")
        record["setup_s"] = time.perf_counter() - worker.spawned
        for job in jobs:
            result = worker.receive(JOB_TIMEOUT_S)
            if result is None:
                raise EOFError("worker ended during the job")
            error = check_output(job, seed, golden, result)
            record["job_wall_s"].append(result["wall_s"])
            record["exits"].append(result["exit"])
            record["errors"].append(error)
            if error is None:
                record["items"] += items(job, result["report"])
            else:
                stderr = result.get("stderr", "").strip()
                print(f"FAILED {job.key}: {error}" + (f" ({stderr})" if stderr else ""),
                      file=sys.stderr)
        record["done"] = worker.receive(JOB_TIMEOUT_S)
    except (queue.Empty, EOFError, ValueError) as exc:  # ValueError: a garbled message
        reason = "timeout" if isinstance(exc, queue.Empty) else str(exc) or repr(exc)
        missing = len(jobs) - len(record["errors"])
        record["errors"] += [f"not completed: {reason}"] * missing
        if missing:
            print(f"FAILED {jobs[-missing].key}: {reason}", file=sys.stderr)
        worker.kill()
    worker.close()
    record["wall_s"] = sum(record["job_wall_s"])
    record["complete"] = record["done"] is not None and len(record["job_wall_s"]) == len(jobs)
    return record


def measure(jobs: list[Job], seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Run passes until the next would overrun ``seconds``; raw values only."""
    start = time.perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    longest = 0.0
    while True:
        began = time.perf_counter()
        if not trace:
            setups += [s for s in (setup_only() for _ in range(SETUPS_PER_PASS)) if s is not None]
        traced = trace and sum(p["traced"] for p in passes) * 2 < len(passes)
        record = run_pass(jobs, traced, seed, golden)
        passes.append(record)
        if not record["complete"]:
            break
        longest = max(longest, time.perf_counter() - began)
        kinds = {p["traced"] for p in passes}
        if kinds == {trace, False} and time.perf_counter() - start + longest > seconds:
            break
    return {"passes": passes, "setup_s": setups}


def summarize(raw: dict, jobs: list[Job], trace: bool) -> tuple[int, int, dict]:
    """(attempted, failed, metric values) from the raw record of a run."""
    passes = raw["passes"]
    attempted = len(jobs) * len(passes)
    failed = sum(e is not None for p in passes for e in p["errors"])
    done = [p for p in passes if p["complete"]]
    for p in done:
        p["normalized_wall_s"] = normalize(p["wall_s"], p["done"]["bursts_s"])
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    if not trace:
        if not untraced:
            return attempted, failed, {}
        return attempted, failed, {
            "wall_s": statistics.median([p["normalized_wall_s"] for p in untraced]),
            "items_per_s": statistics.median([p["items"] / p["normalized_wall_s"] for p in untraced]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": statistics.median([p["done"]["peak_rss_mb"] for p in untraced]),
        }
    if not traced or not untraced:
        return attempted, failed, {}
    layers = {
        key: statistics.median([p["done"]["layers"][key] for p in traced])
        for key in traced[0]["done"]["layers"]
    }
    layers["cli.jobs_failed"] = sum(e is not None for p in passes if p["traced"] for e in p["errors"])
    layers["trace.overhead_ratio"] = (
        statistics.median([p["normalized_wall_s"] for p in traced])
        / statistics.median([p["normalized_wall_s"] for p in untraced]))
    return attempted, failed, layers


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(workload: str, jobs: list[Job], seed: int, seconds: float, trace: bool,
           golden: dict) -> dict:
    """Measure, check and summarize one run; write its record to results/."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    load_before = os.getloadavg()
    raw = measure(jobs, seed, seconds, trace, golden)
    attempted, failed, values = summarize(raw, jobs, trace)
    correct = failed == 0 and set(values) >= set(names)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    spans = [{"pass": i, **s} for i, p in enumerate(raw["passes"]) if p["done"]
             for s in p["done"].pop("spans", [])]
    if spans:
        (RESULTS / f"{stem}_spans.json").write_text(json.dumps(spans) + "\n")
    record = {
        "stamp": {
            "commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "seed": seed, "seconds": seconds, "workload": workload,
        },
        "jobs": [job.key for job in jobs],
        "raw": raw,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "beliefrev" / "cli.py").is_file():
        print(f"error: no beliefrev sources under {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](args.seed)
    record = report(args.workload, jobs, args.seed, args.seconds, bool(args.trace),
                    load_golden())
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
