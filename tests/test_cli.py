import json
import time

import jsonschema
import pytest

from beliefrev import cli, postulates, states
from beliefrev.cli import main
from beliefrev.logic import MAX_FORMULA_DEPTH, Signature
from beliefrev.reporting import (
    GEORGE_REPORT_SCHEMA,
    SUITE_REPORT_SCHEMA,
    THEOREM_REPORT_SCHEMA,
)
from beliefrev.states import normalize, state_to_text
from beliefrev.theorems import GEORGE_ATOMS, GEORGE_INITIAL


@pytest.fixture
def state_file(tmp_path):
    sig = Signature(GEORGE_ATOMS)
    path = tmp_path / "initial.txt"
    path.write_text(state_to_text(normalize(sig, GEORGE_INITIAL)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# --- the three pinned invocations -------------------------------------------------


def test_george_natural_json(capsys):
    code, payload, _ = run_json(capsys, "george", "--op", "natural", "--format", "json")
    assert code == 0
    assert payload["ok"] is True
    assert payload["stages"][-1]["belief"] == ["010", "011"]
    jsonschema.validate(payload, GEORGE_REPORT_SCHEMA)


def test_check_r7_exits_one_with_record(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--atoms", "p,q", "--op", "natural", "--cop", "natural-con",
        "--postulate", "R7", "--mode", "exhaustive", "--format", "json",
    )
    assert code == 1
    jsonschema.validate(payload, SUITE_REPORT_SCHEMA)
    result = payload["results"][0]
    assert result["postulate"] == "R7"
    assert result["fails"] > 0
    cex = result["counterexample"]
    assert cex["state"].startswith("atoms: p q")
    assert cex["inputs"]["a"]
    assert all("belief" in entry for entry in cex["verdict"]["trace"])


def _key_paths(node, path=()):
    """The path of every object key in a JSON value, at every depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from _key_paths(value, (*path, key))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _key_paths(item, (*path, index))


def test_suite_schema_requires_every_key(capsys):
    """Every key of a report is required: deleting any one, at any depth, of
    a failing suite report with counterexamples makes it invalid."""
    _, payload, _ = run_json(capsys, "check", "--atoms", "p,q", "--op", "reverse",
                             "--cop", "drastic", "--postulate", "all", "--format", "json")
    validator = jsonschema.Draft7Validator(SUITE_REPORT_SCHEMA)
    validator.validate(payload)
    paths = list(_key_paths(payload))
    assert any(path[-1] == "b" for path in paths) and any(path[-1] == "trace" for path in paths)
    loose = []
    for *parents, key in paths:
        owner = payload
        for step in parents:
            owner = owner[step]
        value = owner.pop(key)
        if validator.is_valid(payload):  # no ValidationError without this key
            loose.append((*parents, key))
        owner[key] = value
    assert loose == []


def test_seq_flatten_final_belief(capsys, state_file):
    code, payload, _ = run_json(
        capsys, "seq", "--state", state_file, "--op", "flatten",
        "--steps", "revise:!(r|g|s); revise:!r&(g|s)", "--format", "json",
    )
    assert code == 0
    assert payload["final_belief"] == ["001", "010", "011"]


def test_seq_with_contraction_step(capsys, state_file):
    code, payload, _ = run_json(
        capsys, "seq", "--state", state_file, "--cop", "natural-con",
        "--steps", "contract:r", "--format", "json",
    )
    assert code == 0
    assert payload["final_belief"] == ["010", "011", "100", "101", "110", "111"]


def test_seq_revise_by_false_then_recover(capsys, state_file):
    code, payload, _ = run_json(
        capsys, "seq", "--state", state_file,
        "--steps", "revise:false; revise:r", "--format", "json",
    )
    assert code == 0
    assert payload["trace"][1]["absurd"] is True
    assert payload["final_belief"] == ["100", "101", "110", "111"]


# --- simple commands ------------------------------------------------------------


def test_models_command(capsys):
    code, out, _ = run_cli(capsys, "models", "--atoms", "r,g,s", "r | g | s")
    assert code == 0
    assert out.strip() == "models: 001 010 011 100 101 110 111"


def test_revise_command_text(capsys, state_file):
    code, out, _ = run_cli(capsys, "revise", "--state", state_file, "--op", "natural",
                           "!(r|g|s)")
    assert code == 0
    assert "001: 3" in out
    assert "belief set: 000" in out


def test_revise_by_false_reports_absurd(capsys, state_file):
    code, out, _ = run_cli(capsys, "revise", "--state", state_file, "false")
    assert code == 0
    assert "absurd" in out


def test_contract_command(capsys, state_file):
    code, payload, _ = run_json(capsys, "contract", "--state", state_file,
                                "--cop", "natural-con", "r", "--format", "json")
    assert code == 0
    assert payload["result"]["belief"] == ["010", "011", "100", "101", "110", "111"]


def test_enumerate_command(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--atoms", "p,q", "--format", "json")
    assert code == 0
    assert payload["generated"] == 75 and payload["expected"] == 75


def test_enumerate_sample_mode(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--atoms", "p,q", "--mode", "sample",
                                "--samples", "100", "--seed", "4", "--format", "json")
    assert code == 0
    assert payload["samples"] == 100 and 1 <= payload["distinct"] <= 75


@pytest.mark.parametrize("argv", [
    ("enumerate", "--atoms", "p,q"),
    ("enumerate", "--atoms", "p,q,r", "--mode", "sample", "--samples", "500", "--seed", "2"),
    ("enumerate", "--atoms", "a,b,c,d,e,f,g,h", "--mode", "sample", "--samples", "3"),
], ids=["exhaustive", "sample", "sample-n8"])
def test_enumerate_builds_no_state(capsys, monkeypatch, argv):
    # enumerate counts the streams' rank vectors; no RankedState is built
    built = []
    init = states.RankedState.__init__

    def counted(self, sig, ranks):
        built.append(ranks)
        init(self, sig, ranks)

    monkeypatch.setattr(states.RankedState, "__init__", counted)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert built == []
    # the counter does see the state layer
    next(iter(states.enumerate_states(Signature(("p",)))))
    assert built == [(0, 0)]


@pytest.mark.parametrize("argv", [
    ("enumerate", "--atoms", "p,q", "--mode", "sample", "--samples", "10"),
    ("check", "--atoms", "p,q", "--postulate", "R1", "--mode", "sample", "--samples", "10"),
], ids=["enumerate", "check"])
def test_negative_seed_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-5")
    assert code == 2
    assert out == ""
    assert "seed must be a natural number" in err


# --- harness commands ----------------------------------------------------------------


def test_theorem1_natural_exit_zero(capsys):
    code, payload, _ = run_json(capsys, "theorem1", "--atoms", "p,q",
                                "--op", "natural", "--format", "json")
    assert code == 0
    jsonschema.validate(payload, THEOREM_REPORT_SCHEMA)
    assert payload["ok"] is True


def test_theorem1_reverse_exit_zero_with_witnesses(capsys):
    code, payload, _ = run_json(capsys, "theorem1", "--atoms", "p,q",
                                "--op", "reverse", "--format", "json")
    assert code == 0
    assert any(claim["witnesses"] for claim in payload["claims"])
    jsonschema.validate(payload, THEOREM_REPORT_SCHEMA)


def test_theorem1_drastic_pair_exit_one(capsys):
    code, payload, _ = run_json(capsys, "theorem1", "--atoms", "p,q",
                                "--cop", "drastic", "--format", "json")
    assert code == 1
    assert all(claim["status"] == "skipped" for claim in payload["claims"])


def test_corollary1_command(capsys):
    code, payload, _ = run_json(capsys, "corollary1", "--atoms", "p,q", "--format", "json")
    assert code == 0
    assert "0 violations" in payload["claims"][0]["detail"]


def test_observation1_command(capsys):
    code, payload, _ = run_json(capsys, "observation1", "--atoms", "p,q", "--format", "json")
    assert code == 0
    jsonschema.validate(payload, THEOREM_REPORT_SCHEMA)
    assert len(payload["claims"]) == 7


def test_hansson_commands(capsys):
    code, payload, _ = run_json(capsys, "hansson", "--atoms", "p,q", "--format", "json")
    assert code == 0
    code, payload, _ = run_json(capsys, "hansson", "--atoms", "p,q", "--cop", "drastic",
                                "--format", "json")
    assert code == 0  # implication vacuously consistent; witnesses still reported
    assert {w["postulate"] for c in payload["claims"] for w in c["witnesses"]} == {"CORE", "PC6"}


# --- determinism and verdict consistency ------------------------------------------------


def test_jobs_do_not_change_output(capsys, monkeypatch):
    # jobs is capped at the CPU count, so a 1-CPU host would compare jobs=1
    # with itself
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    args = ("check", "--atoms", "p,q", "--postulate", "R7", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args, "--jobs", "2")
    assert first == second


@pytest.mark.parametrize("command, pair", [
    ("theorem1", ("--op", "reverse")),
    ("theorem1", ()),
    ("corollary1", ("--op", "reverse")),
    ("corollary1", ()),
    # the one harness case whose claim witness must survive the chunk merge
    ("corollary1", ("--cop", "drastic")),
    ("observation1", ("--op", "reverse")),
    ("observation1", ()),
    ("hansson", ("--cop", "natural-con")),
    ("hansson", ("--cop", "drastic")),
], ids=lambda p: p if isinstance(p, str) else (p[-1] if p else "default"))
def test_jobs_do_not_change_theorem_output(capsys, monkeypatch, command, pair):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    args = (command, "--atoms", "p,q", *pair, "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args, "--jobs", "2")
    assert first == second


def _statuses(payload: dict) -> list[tuple[str, str]]:
    """(name, status) of each suite result or harness claim in a JSON report."""
    if "claims" in payload:
        return [(c["claim"], c["status"]) for c in payload["claims"]]
    return [(r["postulate"], "ok" if r["fails"] == 0 else "FAIL") for r in payload["results"]]


@pytest.mark.parametrize("argv, code", [
    (("check", "--postulate", "PC6"), 0),
    (("theorem1", "--op", "reverse"), 0),
    (("observation1",), 0),
    (("corollary1", "--op", "reverse"), 1),
    (("hansson", "--cop", "drastic"), 0),
], ids=lambda p: "-".join(a.lstrip("-") for a in p) if isinstance(p, tuple) else str(p))
def test_text_and_json_report_same_verdict(capsys, argv, code):
    args = (*argv, "--atoms", "p,q")
    code_t, text, _ = run_cli(capsys, *args)
    code_j, payload, _ = run_json(capsys, *args, "--format", "json")
    assert code_t == code_j == code
    # one status line, indented by exactly two spaces, per result or claim
    rows = [line.split() for line in text.splitlines()
            if line.startswith("  ") and line[2] != " "]
    statuses = _statuses(payload)
    assert len(rows) == len(statuses)
    for words, (name, status) in zip(rows, statuses):
        assert words[0] == name and status in words


def test_harness_commands_call_the_module_attributes(capsys, monkeypatch):
    """Tracing swaps the harnesses on the cli module, so handlers must look
    them up at call time, not bind them at import."""
    calls = []
    for name in ("verify_theorem1", "verify_hansson"):
        original = getattr(cli, name)

        def recorder(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorder)
    assert main(["theorem1", "--atoms", "p"]) == 0
    assert main(["hansson", "--atoms", "p"]) == 0
    capsys.readouterr()
    assert calls == ["verify_theorem1", "verify_hansson"]


def test_runs_share_one_parser_and_call_the_swapped_harness(capsys, monkeypatch):
    """The parser is built once per process; a harness swapped on the cli
    module after it was built is still the one a command calls."""
    cli._build_parser.cache_clear()
    assert main(["theorem1", "--atoms", "p"]) == 0
    calls = []
    original = cli.verify_theorem1

    def recorder(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_theorem1", recorder)
    assert main(["theorem1", "--atoms", "p"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_repeated_invocations_identical(capsys):
    args = ("george", "--op", "flatten", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# --- error handling ------------------------------------------------------------------


def test_missing_state_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "revise", "--state", "/nonexistent/state.txt", "r")
    assert code == 2
    assert not out
    assert "error:" in err


def test_malformed_formula_exits_two(capsys, state_file):
    code, _, err = run_cli(capsys, "revise", "--state", state_file, "r & & g")
    assert code == 2
    assert "error:" in err


def test_unknown_atom_exits_two(capsys):
    code, _, err = run_cli(capsys, "models", "--atoms", "p,q", "zebra")
    assert code == 2
    assert "zebra" in err


@pytest.mark.parametrize("formula", [
    "!" * 1000 + "p",
    "(" * 200 + "p" + ")" * 200,
    " & ".join(["p"] * 1000),
], ids=["negations", "parentheses", "flat-chain"])
def test_deep_formula_exits_two(capsys, formula):
    code, out, err = run_cli(capsys, "models", "--atoms", "p", formula)
    assert code == 2
    assert not out
    (line,) = err.splitlines()
    assert line.startswith(f"error: formula nested too deeply: more than {MAX_FORMULA_DEPTH}")


def test_constant_atom_name_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "models", "--atoms", "true,q", "true")
    assert code == 2
    assert not out
    assert "reserved atom name 'true'" in err
    path = tmp_path / "reserved.txt"
    path.write_text("atoms: true q\n00: 0\n01: 0\n10: 1\n11: 1\n")
    code, out, err = run_cli(capsys, "revise", "--state", str(path), "true")
    assert code == 2
    assert not out
    assert "bad atoms line: reserved atom name 'true'" in err


def test_oversize_signature_exits_two(capsys):
    atoms = ",".join(f"a{i}" for i in range(17))
    code, _, err = run_cli(capsys, "models", "--atoms", atoms, "a0")
    assert code == 2
    assert "too large" in err


def test_exhaustive_n3_check_requires_flag(capsys):
    # the message names the CLI flag, not the library's allow_large
    for pid in ("PR2", "R1"):
        code, out, err = run_cli(capsys, "check", "--atoms", "r,g,s", "--postulate", pid)
        assert code == 2
        assert out == ""
        assert err == ("error: exhaustive mode over n = 3 atoms is gated; pass --allow-n3 "
                       "(n <= 2 runs by default)\n")


def test_exhaustive_n3_check_counts_every_instance(capsys):
    # all 139,187,925 R7 instances at three atoms, counted from the weights
    # of their 1,672 cell patterns; walking every instance took about 40 s
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "check", "--atoms", "p,q,r", "--postulate", "R7",
                                "--allow-n3", "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 1
    r = payload["results"][0]
    assert (r["checked"], r["holds"], r["vacuous"], r["fails"]) == (
        139187925, 0, 81854143, 57333782)
    assert elapsed < 10.0, elapsed


@pytest.mark.parametrize("command", ["theorem1", "corollary1", "observation1", "hansson"])
def test_exhaustive_n3_harness_is_gated(capsys, command):
    # harnesses have no flag to lift the gate
    code, out, err = run_cli(capsys, command, "--atoms", "p,q,r")
    assert code == 2
    assert out == ""
    assert err == ("error: exhaustive mode over n = 3 atoms is gated: "
                   "exhaustive harnesses run at n <= 2 only\n")


def test_bad_steps_exit_two(capsys, state_file):
    code, _, err = run_cli(capsys, "seq", "--state", state_file, "--steps", "revise!r")
    assert code == 2
    code, _, err = run_cli(capsys, "seq", "--state", state_file, "--steps", "expand:r")
    assert code == 2


def test_usage_error_exits_two(capsys):
    assert main(["check", "--atoms", "p,q"]) == 2  # missing --postulate
    capsys.readouterr()


def test_bad_state_file_contents_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("atoms: p q\n00: 0\n")
    code, _, err = run_cli(capsys, "revise", "--state", str(path), "p")
    assert code == 2
    assert "missing valuation" in err
