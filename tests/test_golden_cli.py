"""Golden gate: CLI output bytes and the operator table stay fixed.

``golden_cli.json`` holds, for a fixed argv set, the exit code and the sha256
of standard output (argv naming ``{state}`` run against a state file written
from the worked example's initial ordering), plus one sha256 over the full output table of all six
operators, one over every n=2 verdict (status, note and trace) of the R, S, C
and CORE postulates, one over every n=2 verdict of the AGM postulates
PC1-PC8 and PR1-PR8, and the state streams: one over the exhaustive
enumeration at n = 1, 2 and 3 and one per seeded sample, and one sha256 per
published report schema.  A refactor that keeps behaviour keeps every digest.
After an intended change of behaviour, re-record from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import jsonschema
import pytest

from beliefrev.cli import _build_parser, run
from beliefrev.logic import Signature, WorldSet
from beliefrev.operators import ABSURD, CONTRACTION_OPERATORS, REVISION_OPERATORS, make_pair
from beliefrev.postulates import Instance, check_instance, iter_instances
from beliefrev.reporting import GEORGE_REPORT_SCHEMA, SUITE_REPORT_SCHEMA, THEOREM_REPORT_SCHEMA
from beliefrev.states import enumerate_states, normalize, sample_states, state_to_text
from beliefrev.theorems import GEORGE_ATOMS, GEORGE_INITIAL

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
N2 = Signature(("p", "q"))
N3 = Signature(("p", "q", "r"))
STREAM_SIGS = (Signature(("p",)), N2, N3)
SAMPLE_COUNT = 20000
SAMPLE_SEEDS = (0, 1, 2)
STATE = "{state}"  # argv placeholder for the path of the initial state file


def _argvs() -> list[tuple[str, ...]]:
    pq = ("--atoms", "p,q")
    argvs = [
        ("check", *pq, "--op", "natural", "--cop", "natural-con", "--postulate", "all",
         "--format", "json"),
    ]
    for fmt in ("json", "text"):
        argvs.append(("check", *pq, "--op", "reverse", "--cop", "drastic",
                      "--postulate", "all", "--format", fmt))
    argvs += [("theorem1", *pq, "--op", op, "--format", "json")
              for op in ("natural", "flatten", "lex", "reverse")]
    argvs += [(cmd, *pq, "--op", op, "--format", "json")
              for cmd in ("corollary1", "observation1") for op in ("natural", "reverse")]
    argvs += [("hansson", *pq, "--cop", cop, "--format", "json")
              for cop in ("natural-con", "drastic")]
    argvs += [("check", "--atoms", "p,q,r", "--postulate", pid, "--mode", "sample",
               "--samples", samples, "--seed", "3", "--format", "json")
              for pid, samples in (("R6", "20"), ("C2", "1"), ("CORE", "3"))]
    # the extensionality rows rebuild every input through its DNF: all 256
    # world sets at three atoms, and all 65,536 at four
    argvs += [("check", "--atoms", "p,q,r", "--postulate", pid, "--mode", "sample",
               "--samples", "20", "--seed", "3", "--format", "json") for pid in ("PC5", "PR5")]
    argvs.append(("check", "--atoms", "a,b,c,d", "--postulate", "PR5", "--mode", "sample",
                  "--samples", "1", "--seed", "0", "--format", "json"))
    # a sampled two-input walk over four shapes that ends at a counterexample
    argvs += [("check", "--atoms", "p,q,r", "--op", "flatten", "--postulate", "C2", "--mode",
               "sample", "--samples", "4", "--seed", "3", "--format", fmt)
              for fmt in ("json", "text")]
    argvs += [("george", "--op", op, "--format", "json") for op in ("natural", "flatten")]
    argvs.append(("theorem1", "--atoms", "p,q,r", "--format", "json"))  # gated: exit 2
    argvs += [(cmd, *pq, "--op", "reverse", "--format", "text")
              for cmd in ("theorem1", "corollary1", "observation1")]
    argvs += [("hansson", *pq, "--cop", cop, "--format", "text")
              for cop in ("natural-con", "drastic")]
    # the AGM precondition fails under drastic contraction: every claim of
    # theorem1 and observation1 is skipped
    argvs += [(cmd, *pq, "--cop", "drastic", "--format", fmt)
              for cmd in ("theorem1", "observation1") for fmt in ("json", "text")]
    # corollary1's preconditions (S1, S2) only revise, so under drastic
    # contraction it runs and reports violations: this pins its witness bytes
    argvs += [("corollary1", *pq, "--cop", "drastic", "--format", fmt) for fmt in ("json", "text")]
    argvs += [
        ("george", "--op", "flatten", "--format", "text"),
        ("models", "--atoms", "r,g,s", "!r & (g | s)", "--format", "text"),
        ("enumerate", *pq, "--format", "text"),
        ("enumerate", *pq, "--mode", "sample", "--samples", "100", "--seed", "4",
         "--format", "text"),
    ]
    argvs += [("enumerate", "--atoms", "p,q,r", "--format", fmt) for fmt in ("json", "text")]
    argvs.append(("enumerate", "--atoms", "p,q,r", "--mode", "sample", "--samples", "20000",
                  "--seed", "3", "--format", "json"))
    # sampled counts at n=1 (the smallest block of rows) and n=4 (one
    # compaction per state)
    argvs += [
        ("enumerate", "--atoms", "p", "--mode", "sample", "--samples", "50", "--seed", "2",
         "--format", "json"),
        ("enumerate", "--atoms", "a,b,c,d", "--mode", "sample", "--samples", "2000",
         "--seed", "1", "--format", "json"),
    ]
    for fmt in ("json", "text"):
        argvs += [
            ("revise", "--state", STATE, "--op", "natural", "!(r|g|s)", "--format", fmt),
            ("contract", "--state", STATE, "--cop", "drastic", "r", "--format", fmt),
            ("seq", "--state", STATE, "--op", "flatten", "--cop", "natural-con",
             "--steps", "revise:!(r|g|s); contract:g; revise:false", "--format", fmt),
        ]
    argvs.append(("revise", "--state", STATE, "--op", "lex", "false", "--format", "text"))
    return argvs


ARGVS = _argvs()


def _output(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and standard output of one CLI run."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp, "initial.txt")
        state.write_text(state_to_text(normalize(Signature(GEORGE_ATOMS), GEORGE_INITIAL)))
        argv = [str(state) if a == STATE else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    return code, out.getvalue()


def _entry(code: int, out: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


def operator_table_digest() -> str:
    """sha256 over (state ranks, input mask, output ranks or ABSURD) for all
    six operators: every n=2 state by all 16 masks, then 100 seeded n=3
    states by all 256 masks, the empty input included."""
    n2 = Signature(("p", "q"))
    n3 = Signature(("p", "q", "r"))
    rng = random.Random(20020101)
    states = list(enumerate_states(n2)) + [
        normalize(n3, [rng.randrange(8) for _ in range(8)]) for _ in range(100)
    ]
    digest = hashlib.sha256()
    for op in (*REVISION_OPERATORS.values(), *CONTRACTION_OPERATORS.values()):
        for s in states:
            for mask in range(s.sig.full_mask + 1):
                out = op(s, WorldSet(s.sig, mask))
                shown = "ABSURD" if out is ABSURD else out.ranks
                digest.update(f"{op.name} {s.ranks} {mask} {shown}\n".encode())
    return digest.hexdigest()


def _verdict_rows() -> list[tuple[tuple[str, str], tuple[str, ...]]]:
    recovery = tuple(f"R{i}" for i in range(1, 10))
    rows = [((rev, con), recovery)
            for rev in REVISION_OPERATORS for con in CONTRACTION_OPERATORS]
    # S and C revise only, so one contraction suffices for them
    rows += [((rev, "natural-con"), ("S1", "S2", "C1", "C2", "C3", "C4"))
             for rev in REVISION_OPERATORS]
    rows += [(("natural", con), ("CORE",)) for con in CONTRACTION_OPERATORS]
    return rows


def _agm_rows() -> list[tuple[tuple[str, str], tuple[str, ...]]]:
    # PC rows only contract and PR rows only revise, so one partner suffices
    rows = [(("natural", con), tuple(f"PC{i}" for i in range(1, 9)))
            for con in CONTRACTION_OPERATORS]
    rows += [((rev, "natural-con"), tuple(f"PR{i}" for i in range(1, 9)))
             for rev in REVISION_OPERATORS]
    return rows


def _row_cases(rows, states) -> Iterator[tuple]:
    for names, pids in rows:
        pair = make_pair(*names)
        for pid in pids:
            for inst in iter_instances(pid, N2, states):
                yield names, pair, pid, inst


def _digest(cases: Iterable[tuple]) -> tuple[int, str]:
    """Count and sha256 of (pair, pid, state ranks, a mask, b mask, status,
    note, [(label, ranks or ABSURD)]) over (names, pair, pid, instance) cases."""
    digest = hashlib.sha256()
    count = 0
    for names, pair, pid, inst in cases:
        v = check_instance(pid, pair, inst)
        trace = [(label, "ABSURD" if out is ABSURD else out.ranks) for label, out in v.trace]
        bmask = None if inst.b is None else inst.b.mask
        digest.update(f"{names} {pid} {inst.state.ranks} {inst.a.mask} {bmask} "
                      f"{v.status} {v.note!r} {trace}\n".encode())
        count += 1
    return count, digest.hexdigest()


def verdict_table_digest() -> tuple[int, str]:
    """Every n=2 instance of R1-R9 for all eight operator pairs, S1/S2/C1-C4
    for each revision and CORE for each contraction."""
    return _digest(_row_cases(_verdict_rows(), list(enumerate_states(N2))))


def agm_table_digest() -> tuple[int, str]:
    """Every n=2 instance of PC1-PC8 for each contraction and PR1-PR8 for
    each revision, then PR6 on the empty input for every state and revision."""
    states = list(enumerate_states(N2))
    bottom = (((rev, "natural-con"), make_pair(rev, "natural-con"), "PR6",
               Instance(s, WorldSet.empty(N2)))
              for rev in REVISION_OPERATORS for s in states)
    return _digest(chain(_row_cases(_agm_rows(), states), bottom))


def _rank_digest(stream) -> tuple[int, str]:
    """Count and sha256 of the rank vectors of a state stream, in order."""
    digest = hashlib.sha256()
    count = 0
    for s in stream:
        digest.update(bytes(s.ranks))
        count += 1
    return count, digest.hexdigest()


def state_stream_digests() -> dict:
    """sha256 over the rank vectors of every exhaustive stream at n = 1, 2
    and 3 in one digest (545,835 states at n=3), and one sha256 per
    sample_states(sig, 20000, seed) for n = 2 and 3 at seeds 0, 1 and 2."""
    total = 0
    digest = hashlib.sha256()
    for sig in STREAM_SIGS:
        count, part = _rank_digest(enumerate_states(sig))
        digest.update(f"n={sig.n} {count} {part}\n".encode())
        total += count
    samples = {}
    for sig in (N2, N3):
        for seed in SAMPLE_SEEDS:
            count, part = _rank_digest(sample_states(sig, SAMPLE_COUNT, seed))
            assert count == SAMPLE_COUNT
            samples[f"n={sig.n} seed={seed}"] = part
    return {"enumerate": {"count": total, "sha256": digest.hexdigest()}, "sample": samples}


SCHEMAS = {
    "suite": SUITE_REPORT_SCHEMA,
    "theorem": THEOREM_REPORT_SCHEMA,
    "george": GEORGE_REPORT_SCHEMA,
}
# the schema of each report command's JSON output (exit 2 prints no report)
COMMAND_SCHEMAS = {
    "check": SUITE_REPORT_SCHEMA,
    **dict.fromkeys(("theorem1", "corollary1", "observation1", "hansson"), THEOREM_REPORT_SCHEMA),
    "george": GEORGE_REPORT_SCHEMA,
}


def _sorted_required(node):
    """A copy of a schema with every ``required`` list sorted: the order in
    which required keys are listed does not change the contract."""
    if isinstance(node, dict):
        return {key: sorted(value) if key == "required" else _sorted_required(value)
                for key, value in node.items()}
    if isinstance(node, list):
        return [_sorted_required(item) for item in node]
    return node


def schema_digests() -> dict[str, str]:
    """One sha256 per published report schema over its sorted-key JSON."""
    return {name: hashlib.sha256(json.dumps(_sorted_required(schema), sort_keys=True)
                                 .encode()).hexdigest()
            for name, schema in SCHEMAS.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_cli_output_matches_golden(golden, argv):
    code, out = _output(argv)
    assert _entry(code, out) == golden["cli"][" ".join(argv)]
    # every JSON report of the same run also meets its published schema
    schema = COMMAND_SCHEMAS.get(argv[0])
    if schema is not None and argv[-1] == "json" and code != 2:
        jsonschema.validate(json.loads(out), schema)


def test_every_command_has_golden_argv(golden):
    """A new subcommand cannot bypass the byte gate, and no golden entry is stale."""
    (commands,) = [action.choices for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands) == {argv[0] for argv in ARGVS}
    assert set(golden["cli"]) == {" ".join(argv) for argv in ARGVS}


def test_operator_table_matches_golden(golden):
    assert operator_table_digest() == golden["operator_table"]


def test_verdict_table_matches_golden(golden):
    count, digest = verdict_table_digest()
    assert {"count": count, "sha256": digest} == golden["verdict_table"]


def test_agm_table_matches_golden(golden):
    count, digest = agm_table_digest()
    assert {"count": count, "sha256": digest} == golden["agm_table"]


def test_state_streams_match_golden(golden):
    assert state_stream_digests() == golden["state_streams"]


def test_schemas_match_golden(golden):
    assert schema_digests() == golden["schemas"]


def record() -> None:
    golden = {
        "cli": {" ".join(argv): _entry(*_output(argv)) for argv in ARGVS},
        "operator_table": operator_table_digest(),
    }
    for key, table in (("verdict_table", verdict_table_digest),
                       ("agm_table", agm_table_digest)):
        count, digest = table()
        golden[key] = {"count": count, "sha256": digest}
    golden["state_streams"] = state_stream_digests()
    golden["schemas"] = schema_digests()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
