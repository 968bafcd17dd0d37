"""Self-tests of the benchmark, on tiny jobs that finish in seconds.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Job, check_output, digest  # noqa: E402

from beliefrev import cli, logic, operators, postulates, reporting, states, theorems  # noqa: E402

SEED = 7


def _json(*argv, seeded=False):
    return Job(tuple(argv) + ("--format", "json"), seeded)


# One tiny job per layer the workloads exercise: sampled and exhaustive
# checks (with failures and PR5's logic round trip), a harness with a
# process pool, and both kinds of enumeration.
TINY = [
    _json("check", "--atoms", "p,q", "--op", "reverse", "--cop", "drastic", "--postulate", "R1",
          "--mode", "sample", "--samples", "3", "--seed", str(SEED), "--jobs", "1", seeded=True),
    _json("check", "--atoms", "p,q", "--postulate", "PR5", "--mode", "sample", "--samples", "2",
          "--seed", str(SEED), "--jobs", "1", seeded=True),
    _json("check", "--atoms", "p", "--postulate", "all", "--jobs", "1"),
    _json("theorem1", "--atoms", "p", "--op", "reverse", "--jobs", "2"),
    _json("enumerate", "--atoms", "p,q"),
    _json("enumerate", "--atoms", "p,q", "--mode", "sample", "--samples", "50",
          "--seed", str(SEED), seeded=True),
]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _golden(jobs):
    golden = {}
    for job in jobs:
        code, text = _run_cli(job.argv)
        golden[job.key] = {"exit": code, "sha256": digest(text)}
    return golden


def test_benchmark_json_names_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tiny_run_emits_every_metric_with_its_unit():
    spec = run.load_spec()
    golden = _golden(TINY)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.report("tiny", TINY, SEED, 0, trace, golden)["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(TINY)
        want = {m["name"]: m["unit"] for m in spec[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_golden_digest_fails_the_run():
    job = TINY[2]
    golden = _golden([job])
    golden[job.key]["sha256"] = "0" * 64
    result = run.report("tiny", [job], SEED, 0, False, golden)["result"]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_invariants_catch_a_wrong_count_at_an_unpinned_seed():
    job = TINY[0]
    code, text = _run_cli(job.argv)
    report = json.loads(text)
    report["results"][0]["holds"] += 1
    message = {"exit": code, "sha256": digest(text), "report": report}
    assert check_output(job, SEED, {}, message) is not None


def test_traced_pass_restores_every_wrapped_attribute():
    modules = (cli, logic, operators, postulates, reporting, states, theorems)
    tables = (operators.REVISION_OPERATORS, operators.CONTRACTION_OPERATORS)
    before = [dict(vars(m)) for m in modules] + [dict(t) for t in tables]

    tracer = tracing.Tracer()
    tracer.install()
    wrapped = tracer.wrapped()
    assert wrapped
    for owner, key, original in wrapped:
        current = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert current is not original
    for i, job in enumerate(TINY[:3]):
        tracer.job = i
        _run_cli(job.argv)
    tracer.restore()

    for owner, key, original in wrapped:
        current = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert current is original
    after = [dict(vars(m)) for m in modules] + [dict(t) for t in tables]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items())
    metrics = tracer.metrics()
    assert metrics["postulates.instances"] > 0
    assert metrics["logic.models_calls"] > 0


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 0, "name": "cli.run", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "theorems.verify_theorem1", "parent": 0, "start": 1.0, "end": 9.0},
        {"id": 2, "name": "postulates.run_suite", "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 3, "name": "postulates.search_counterexample", "parent": 1, "start": 5.0, "end": 8.0},
    ]
    assert dict(tracing.self_times(spans)) == {"cli": 2.0, "theorems": 2.0, "postulates": 6.0}
