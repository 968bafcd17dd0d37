import json

import jsonschema
import pytest

from beliefrev.cli import main
from beliefrev.logic import Signature
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


def test_jobs_do_not_change_output(capsys):
    args = ("check", "--atoms", "p,q", "--postulate", "R7", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args, "--jobs", "2")
    assert first == second


@pytest.mark.parametrize("command, pair", [
    ("theorem1", ("--op", "reverse")),
    ("theorem1", ()),
    ("corollary1", ("--op", "reverse")),
    ("corollary1", ()),
    ("observation1", ("--op", "reverse")),
    ("observation1", ()),
    ("hansson", ("--cop", "natural-con")),
    ("hansson", ("--cop", "drastic")),
], ids=lambda p: p if isinstance(p, str) else (p[-1] if p else "default"))
def test_jobs_do_not_change_theorem_output(capsys, command, pair):
    args = (command, "--atoms", "p,q", *pair, "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args, "--jobs", "2")
    assert first == second


def test_text_and_json_report_same_verdict(capsys):
    code_t, text, _ = run_cli(capsys, "check", "--atoms", "p,q", "--postulate", "PC6")
    code_j, payload, _ = run_json(capsys, "check", "--atoms", "p,q", "--postulate", "PC6",
                                  "--format", "json")
    assert code_t == code_j == 0
    assert "PC6" in text and "ok" in text
    assert payload["results"][0]["fails"] == 0


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


def test_oversize_signature_exits_two(capsys):
    atoms = ",".join(f"a{i}" for i in range(17))
    code, _, err = run_cli(capsys, "models", "--atoms", atoms, "a0")
    assert code == 2
    assert "too large" in err


def test_exhaustive_n3_check_requires_flag(capsys):
    code, _, err = run_cli(capsys, "check", "--atoms", "r,g,s", "--postulate", "PR2")
    assert code == 2
    assert "gated" in err


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
