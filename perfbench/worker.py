"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py '{"jobs": [[...argv...], ...], "trace": false}'

Imports ``beliefrev.cli`` (found through PYTHONPATH), reports that it is
ready, then drives ``beliefrev.cli.run(argv)`` in-process for each job in
order.  Every message is one JSON object on its own line of standard output:
``ready``, one ``job`` message per job with its exit code, stdout digest
and parsed report, and a final ``done`` message with the peak RSS, the
host-speed bursts timed during the pass (hostspeed.py), and, for a
traced pass, the spans and per-layer metrics.
"""

import json
import sys
import time

_start = time.perf_counter()
import beliefrev.cli  # noqa: E402  (timed: this import is the set-up being measured)

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from hostspeed import Sampler  # noqa: E402
from workloads import digest  # noqa: E402


BOUNDARY_BURSTS = 3  # host-speed bursts timed before the first job and after each job


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _run_job(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = beliefrev.cli.run(argv)
    except Exception:  # a crash fails this job; the pass goes on
        return {"exit": None, "error": traceback.format_exc(),
                "wall_s": time.perf_counter() - start}
    wall_s = time.perf_counter() - start
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    return {"exit": code, "wall_s": wall_s, "sha256": digest(text),
            "bytes": len(text.encode()), "report": report, "stderr": err.getvalue()}


def main() -> None:
    spec = json.loads(sys.argv[1])
    _send({"ready": True, "import_s": IMPORT_S})
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    bytes_out = 0
    sampler = Sampler()
    sampler.sample(BOUNDARY_BURSTS)
    try:
        for i, argv in enumerate(spec["jobs"]):
            if tracer is not None:
                tracer.job = i
            with sampler:
                result = _run_job(argv)
            result["wall_s"] -= sampler.spent
            sampler.spent = 0.0
            sampler.sample(BOUNDARY_BURSTS)
            bytes_out += result.get("bytes", 0)
            _send({"job": i, **result})
    finally:
        if tracer is not None:
            tracer.restore()
    done = {"done": True, "bursts_s": sampler.bursts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        done["spans"] = tracer.spans
        done["layers"] = {"cli.import_s": IMPORT_S, "reporting.bytes_out": bytes_out,
                          **tracer.metrics()}
    _send(done)


if __name__ == "__main__":
    main()
