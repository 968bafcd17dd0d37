"""Golden gate: CLI output bytes and the operator table stay fixed.

``golden_cli.json`` holds, for a fixed argv set, the exit code and the sha256
of standard output, plus one sha256 over the full output table of all six
operators.  A refactor that keeps behaviour keeps every digest.  After an
intended change of behaviour, re-record from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from beliefrev.cli import run
from beliefrev.logic import Signature, WorldSet
from beliefrev.operators import ABSURD, CONTRACTION_OPERATORS, REVISION_OPERATORS
from beliefrev.states import enumerate_states, normalize

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")


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
    argvs += [("george", "--op", op, "--format", "json") for op in ("natural", "flatten")]
    argvs.append(("theorem1", "--atoms", "p,q,r", "--format", "json"))  # gated: exit 2
    return argvs


ARGVS = _argvs()


def _run(argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_cli_output_matches_golden(golden, argv):
    assert _run(argv) == golden["cli"][" ".join(argv)]


def test_operator_table_matches_golden(golden):
    assert operator_table_digest() == golden["operator_table"]


def record() -> None:
    golden = {
        "cli": {" ".join(argv): _run(argv) for argv in ARGVS},
        "operator_table": operator_table_digest(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
