#!/usr/bin/env python3
"""Record golden.json: each pinned job's exit code and stdout sha256.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run from the repository root on the commit whose output is the reference.
Seeded jobs are recorded at workloads.PINNED_SEED.
"""

import contextlib
import io
import json

from beliefrev.cli import run
from workloads import GOLDEN_PATH, PINNED_SEED, WORKLOADS, digest


def main() -> None:
    golden = {}
    for build in WORKLOADS.values():
        for job in build(PINNED_SEED):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(list(job.argv))
            golden[job.key] = {"exit": code, "sha256": digest(out.getvalue())}
            print(code, golden[job.key]["sha256"][:12], job.key)
    GOLDEN_PATH.write_text(json.dumps({"pinned_seed": PINNED_SEED, "jobs": golden}, indent=1) + "\n")


if __name__ == "__main__":
    main()
