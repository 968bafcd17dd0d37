"""The pinned workloads of the beliefrev benchmark and the checks on their output.

A workload is a list of CLI jobs (all ``--format json``) that one pass runs in
order, in one fresh interpreter.  Only sampled jobs depend on the seed, and
they receive it only as ``--seed``.  README.md says why each workload was
chosen and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Golden digests of the seeded jobs were recorded at this seed; at any other
# seed those jobs are checked by seed-independent invariants only.
PINNED_SEED = 0

# Number of weak orders on 2**n valuations, for n = 1, 2, 3.
WEAK_ORDERS = {1: 3, 2: 75, 3: 545835}

# Claim statuses that make a harness command exit 1.
ADVERSE_CLAIMS = ("inconsistent-with-theorem", "skipped")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    seeded: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def option(self, name: str, default: str | None = None) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default


def _json(*argv: str, seeded: bool = False) -> Job:
    return Job(tuple(argv) + ("--format", "json"), seeded)


def suite_n2(seed: int) -> list[Job]:
    return [
        _json("check", "--atoms", "p,q", "--op", op, "--cop", cop,
              "--postulate", "all", "--jobs", "1")
        for op, cop in (("natural", "natural-con"), ("reverse", "drastic"))
    ]


def sample_n3(seed: int) -> list[Job]:
    def check(pid: str, samples: int, job_seed: int) -> Job:
        return _json("check", "--atoms", "p,q,r", "--op", "natural", "--cop", "natural-con",
                     "--postulate", pid, "--mode", "sample", "--samples", str(samples),
                     "--seed", str(job_seed), "--jobs", "1", seeded=job_seed == seed)

    # R6 at 300 samples keeps more than 65,536 distinct revision keys, so it
    # overflows the natural_revision LRU; PR5 on the same states straight
    # after is a cyclic scan larger than the cache and misses every key.
    # CORE's cost per state varies tenfold, so a few seeded states would
    # swing the pass time by up to 20% between seeds: its states are pinned.
    return [check("R6", 300, seed), check("PR5", 100, seed), check("CORE", 6, PINNED_SEED)]


def harness_n2(seed: int) -> list[Job]:
    jobs = [
        _json("theorem1", "--atoms", "p,q", "--op", op, "--cop", "natural-con", "--jobs", "2")
        for op in ("natural", "flatten", "lex", "reverse")
    ]
    jobs += [_json(cmd, "--atoms", "p,q", "--jobs", "2") for cmd in ("observation1", "corollary1")]
    jobs += [
        _json("hansson", "--atoms", "p,q", "--cop", cop, "--jobs", "2")
        for cop in ("natural-con", "drastic")
    ]
    return jobs


def enumerate_n3(seed: int) -> list[Job]:
    return [
        _json("enumerate", "--atoms", "p,q,r"),
        _json("enumerate", "--atoms", "p,q,r", "--mode", "sample", "--samples", "200000",
              "--seed", str(seed), seeded=True),
    ]


WORKLOADS = {
    "suite_n2": suite_n2,
    "sample_n3": sample_n3,
    "harness_n2": harness_n2,
    "enumerate_n3": enumerate_n3,
}


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())["jobs"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def items(job: Job, report: dict) -> int:
    """Work a job did, read from its report: postulate instances for check,
    states for enumerate, verified claims for the harness commands."""
    command = job.argv[0]
    if command == "check":
        return sum(r["checked"] for r in report["results"])
    if command == "enumerate":
        return report["generated"] if "generated" in report else report["samples"]
    return len(report["claims"])


def check_output(job: Job, seed: int, golden: dict[str, dict], result: dict) -> str | None:
    """Why a finished job's output is wrong, or None when it is right."""
    if result.get("error"):
        return "crashed: " + result["error"].strip().splitlines()[-1]
    code = result["exit"]
    if not job.seeded or seed == PINNED_SEED:
        want = golden.get(job.key)
        if want is None:
            return "no golden digest recorded"
        if code != want["exit"]:
            return f"exit {code}, golden {want['exit']}"
        if result["sha256"] != want["sha256"]:
            return "stdout differs from the golden digest"
    report = result.get("report")
    if report is None:
        return "stdout is not a JSON report"
    return _invariant_error(job, code, report)


def _invariant_error(job: Job, code: int, report: dict) -> str | None:
    command = job.argv[0]
    n = len(job.option("--atoms").split(","))
    if command == "check":
        inputs = 2 ** 2 ** n - 1
        samples = int(job.option("--samples", "0"))
        for r in report["results"]:
            if r["holds"] + r["vacuous"] + r["fails"] != r["checked"]:
                return f"{r['postulate']}: holds + vacuous + fails != checked"
            if job.option("--mode") == "sample" and r["checked"] not in (
                samples * inputs, samples * inputs * inputs
            ):
                return f"{r['postulate']}: checked {r['checked']} for {samples} samples"
        expected = 1 if any(r["fails"] for r in report["results"]) else 0
    elif command == "enumerate":
        if job.option("--mode") == "sample":
            samples = int(job.option("--samples"))
            if report["samples"] != samples or not 1 <= report["distinct"] <= samples:
                return f"sampled {report['samples']} states ({report['distinct']} distinct)"
        elif not report["generated"] == report["expected"] == WEAK_ORDERS[n]:
            return f"enumerated {report['generated']} states, expected {WEAK_ORDERS[n]}"
        expected = 0
    else:
        if not report["claims"]:
            return "harness report has no claims"
        expected = 1 if any(c["status"] in ADVERSE_CLAIMS for c in report["claims"]) else 0
    if code != expected:
        return f"exit {code}, report implies {expected}"
    return None
