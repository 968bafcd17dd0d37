"""Report serialization: JSON structures, their schemas, and text rendering.

Text and JSON renderings of a report are derived from the same objects and
carry identical verdicts.  Counterexamples embed the starting state as state
file text plus the input bitstrings and the belief-set bitstrings of every
intermediate state, so they can be replayed from the report alone.
"""

from __future__ import annotations

from typing import Any

from .operators import ABSURD, RevisionOutcome
from .postulates import Counterexample, SuiteReport, Verdict, _bits
from .states import RankedState, belief_set, state_to_text
from .theorems import GeorgeResult, TheoremReport


def outcome_entry(label: str, outcome: RevisionOutcome, sig) -> dict[str, Any]:
    if outcome is ABSURD:
        return {"label": label, "absurd": True, "state": None, "belief": []}
    assert isinstance(outcome, RankedState)
    return {
        "label": label,
        "absurd": False,
        "state": state_to_text(outcome),
        "belief": belief_set(outcome).bitstrings(),
    }


def verdict_json(verdict: Verdict, sig) -> dict[str, Any]:
    return {
        "status": verdict.status,
        "note": verdict.note,
        "trace": [outcome_entry(label, out, sig) for label, out in verdict.trace],
    }


def counterexample_json(cex: Counterexample) -> dict[str, Any]:
    sig = cex.instance.state.sig
    return {
        "postulate": cex.postulate,
        "operators": {"revision": cex.revision, "contraction": cex.contraction},
        "state": state_to_text(cex.instance.state),
        "inputs": {
            "a": cex.instance.a.bitstrings(),
            "b": cex.instance.b.bitstrings() if cex.instance.b is not None else None,
        },
        "verdict": verdict_json(cex.verdict, sig),
    }


def suite_report_json(report: SuiteReport) -> dict[str, Any]:
    return {
        "operator_pair": {"revision": report.revision, "contraction": report.contraction},
        "signature": {"atoms": list(report.sig.atoms)},
        "mode": report.mode,
        "seed": report.seed,
        "samples": report.samples,
        "results": [
            {
                "postulate": r.postulate,
                "checked": r.checked,
                "holds": r.holds,
                "vacuous": r.vacuous,
                "fails": r.fails,
                "counterexample": counterexample_json(r.counterexample)
                if r.counterexample
                else None,
            }
            for r in report.results
        ],
    }


def theorem_report_json(report: TheoremReport) -> dict[str, Any]:
    return {
        "title": report.title,
        "operator_pair": {"revision": report.revision, "contraction": report.contraction},
        "signature": {"atoms": list(report.sig.atoms)},
        "ok": report.ok,
        "claims": [
            {
                "claim": c.claim,
                "operators": {"revision": c.revision, "contraction": c.contraction},
                "postulates": list(c.postulates),
                "direction": c.direction,
                "status": c.status,
                "detail": c.detail,
                "witnesses": [counterexample_json(w) for w in c.witnesses],
            }
            for c in report.claims
        ],
    }


def george_json(result: GeorgeResult) -> dict[str, Any]:
    return {
        "operator": result.operator,
        "signature": {"atoms": list(result.sig.atoms)},
        "ok": result.ok,
        "stages": [
            {
                "label": stage.label,
                "table": {
                    result.sig.bitstring(v): stage.state.ranks[v]
                    for v in result.sig.valuations()
                },
                "belief": belief_set(stage.state).bitstrings(),
                "match": stage.match,
                "diff": list(stage.diff),
                "s1": stage.s1,
                "s2": stage.s2,
            }
            for stage in result.stages
        ],
        "gun_possession_believed": result.gun_believed,
        "gun_possession_expected": result.gun_expected,
        "c2": {
            "status": result.c2_status,
            "expected": result.c2_expected,
            "two_step_belief": result.c2_two_step.bitstrings(),
            "direct_belief": result.c2_direct.bitstrings(),
        },
    }


# --- text rendering ----------------------------------------------------------


def _counterexample_text(cex: Counterexample, indent: str = "    ") -> list[str]:
    lines = [f"{indent}counterexample ({cex.revision}+{cex.contraction}):"]
    state_lines = state_to_text(cex.instance.state).strip().splitlines()
    lines += [f"{indent}  {line}" for line in state_lines]
    lines.append(f"{indent}  input a: {' '.join(cex.instance.a.bitstrings()) or '(empty)'}")
    if cex.instance.b is not None:
        lines.append(f"{indent}  input b: {' '.join(cex.instance.b.bitstrings()) or '(empty)'}")
    for label, outcome in cex.verdict.trace:
        if outcome is ABSURD:
            lines.append(f"{indent}  {label}: absurd")
        else:
            bits = " ".join(belief_set(outcome).bitstrings())
            lines.append(f"{indent}  {label}: belief set {bits}")
    if cex.verdict.note:
        lines.append(f"{indent}  note: {cex.verdict.note}")
    return lines


def suite_report_text(report: SuiteReport) -> str:
    header = (
        f"postulate suite: revision={report.revision} contraction={report.contraction} "
        f"atoms={','.join(report.sig.atoms)} mode={report.mode}"
    )
    if report.mode == "sample":
        header += f" samples={report.samples} seed={report.seed}"
    lines = [header]
    for r in report.results:
        status = "ok" if r.fails == 0 else "FAIL"
        lines.append(
            f"  {r.postulate:5s} {status:4s} checked={r.checked} holds={r.holds} "
            f"vacuous={r.vacuous} fails={r.fails}"
        )
        if r.counterexample:
            lines += _counterexample_text(r.counterexample)
    return "\n".join(lines)


def theorem_report_text(report: TheoremReport) -> str:
    lines = [
        f"{report.title}: revision={report.revision} contraction={report.contraction} "
        f"atoms={','.join(report.sig.atoms)}"
    ]
    for c in report.claims:
        lines.append(f"  {c.claim} [{', '.join(c.postulates)}]: {c.status}")
        lines.append(f"    {c.detail}")
        for w in c.witnesses:
            lines.append(f"    witness for {w.postulate}:")
            lines += _counterexample_text(w, indent="      ")
    return "\n".join(lines)


def george_text(result: GeorgeResult) -> str:
    lines = [f"golden trace: operator={result.operator} ok={result.ok}"]
    for stage in result.stages:
        lines.append(f"  {stage.label}: match={stage.match}")
        for v in result.sig.valuations():
            lines.append(f"    {result.sig.bitstring(v)}: {stage.state.ranks[v]}")
        if stage.diff:
            lines.append("    diff (expected vs actual):")
            lines += [f"      {line}" for line in stage.diff]
        if stage.s1 is not None:
            lines.append(f"    S1={stage.s1} S2={stage.s2}")
        lines.append(f"    belief set: {' '.join(belief_set(stage.state).bitstrings())}")
    lines.append(
        f"  gun possession believed: {result.gun_believed} (expected {result.gun_expected})"
    )
    lines.append(
        f"  C2 verdict: {result.c2_status} (expected {result.c2_expected}); "
        f"two-step {_bits(result.c2_two_step)} vs direct {_bits(result.c2_direct)}"
    )
    return "\n".join(lines)


# --- published JSON schemas ----------------------------------------------------

_COUNTEREXAMPLE_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "postulate": {"type": "string"},
        "operators": {
            "type": "object",
            "properties": {
                "revision": {"type": "string"},
                "contraction": {"type": "string"},
            },
            "required": ["revision", "contraction"],
        },
        "state": {"type": "string"},
        "inputs": {
            "type": "object",
            "properties": {
                "a": {"type": "array", "items": {"type": "string"}},
                "b": {
                    "type": ["array", "null"],
                    "items": {"type": "string"},
                },
            },
            "required": ["a", "b"],
        },
        "verdict": {
            "type": "object",
            "properties": {
                "status": {"enum": ["holds", "fails", "vacuous"]},
                "note": {"type": "string"},
                "trace": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "label": {"type": "string"},
                            "absurd": {"type": "boolean"},
                            "state": {"type": ["string", "null"]},
                            "belief": {"type": "array", "items": {"type": "string"}},
                        },
                        "required": ["label", "absurd", "state", "belief"],
                    },
                },
            },
            "required": ["status", "note", "trace"],
        },
    },
    "required": ["postulate", "operators", "state", "inputs", "verdict"],
}

_ENVELOPE_PROPERTIES = {
    "operator_pair": {
        "type": "object",
        "properties": {
            "revision": {"type": "string"},
            "contraction": {"type": "string"},
        },
        "required": ["revision", "contraction"],
    },
    "signature": {
        "type": "object",
        "properties": {"atoms": {"type": "array", "items": {"type": "string"}}},
        "required": ["atoms"],
    },
}

SUITE_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        **_ENVELOPE_PROPERTIES,
        "mode": {"enum": ["exhaustive", "sample"]},
        "seed": {"type": ["integer", "null"]},
        "samples": {"type": ["integer", "null"]},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "postulate": {"type": "string"},
                    "checked": {"type": "integer"},
                    "holds": {"type": "integer"},
                    "vacuous": {"type": "integer"},
                    "fails": {"type": "integer"},
                    "counterexample": _COUNTEREXAMPLE_SCHEMA,
                },
                "required": ["postulate", "checked", "holds", "vacuous", "fails", "counterexample"],
            },
        },
    },
    "required": ["operator_pair", "signature", "mode", "seed", "samples", "results"],
}

THEOREM_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        **_ENVELOPE_PROPERTIES,
        "title": {"type": "string"},
        "ok": {"type": "boolean"},
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "claim": {"type": "string"},
                    "operators": _ENVELOPE_PROPERTIES["operator_pair"],
                    "postulates": {"type": "array", "items": {"type": "string"}},
                    "direction": {"type": "string"},
                    "status": {"type": "string"},
                    "detail": {"type": "string"},
                    "witnesses": {"type": "array", "items": _COUNTEREXAMPLE_SCHEMA},
                },
                "required": [
                    "claim", "operators", "postulates", "direction",
                    "status", "detail", "witnesses",
                ],
            },
        },
    },
    "required": ["title", "operator_pair", "signature", "ok", "claims"],
}

GEORGE_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "operator": {"type": "string"},
        "signature": _ENVELOPE_PROPERTIES["signature"],
        "ok": {"type": "boolean"},
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "label": {"type": "string"},
                    "table": {"type": "object", "additionalProperties": {"type": "integer"}},
                    "belief": {"type": "array", "items": {"type": "string"}},
                    "match": {"type": "boolean"},
                    "diff": {"type": "array", "items": {"type": "string"}},
                    "s1": {"type": ["boolean", "null"]},
                    "s2": {"type": ["boolean", "null"]},
                },
                "required": ["label", "table", "belief", "match", "diff", "s1", "s2"],
            },
        },
        "gun_possession_believed": {"type": "boolean"},
        "gun_possession_expected": {"type": "boolean"},
        "c2": {
            "type": "object",
            "properties": {
                "status": {"type": "string"},
                "expected": {"type": "string"},
                "two_step_belief": {"type": "array", "items": {"type": "string"}},
                "direct_belief": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["status", "expected", "two_step_belief", "direct_belief"],
        },
    },
    "required": [
        "operator", "signature", "ok", "stages",
        "gun_possession_believed", "gun_possession_expected", "c2",
    ],
}
