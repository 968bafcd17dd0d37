"""Report serialization: JSON structures, their schemas, and text rendering.

Text and JSON renderings of a report are derived from the same objects and
carry identical verdicts.  Every report object carries all of its keys, null
where a key does not apply, and each published schema requires every key it
states.  Counterexamples embed the starting state as state file text plus the
input bitstrings and the belief-set bitstrings of every intermediate state, so
they can be replayed from the report alone.
"""

from __future__ import annotations

from typing import Any, Iterable

from .operators import ABSURD, RevisionOutcome
from .postulates import Counterexample, SuiteReport, _bits
from .states import RankedState, belief_set, state_to_text
from .theorems import GeorgeResult, TheoremReport


def outcome_entry(label: str, outcome: RevisionOutcome) -> dict[str, Any]:
    if outcome is ABSURD:
        return {"label": label, "absurd": True, "state": None, "belief": []}
    assert isinstance(outcome, RankedState)
    return {
        "label": label,
        "absurd": False,
        "state": state_to_text(outcome),
        "belief": belief_set(outcome).bitstrings(),
    }


def counterexample_json(cex: Counterexample) -> dict[str, Any]:
    return {
        "postulate": cex.postulate,
        "operators": {"revision": cex.revision, "contraction": cex.contraction},
        "state": state_to_text(cex.instance.state),
        "inputs": {
            "a": cex.instance.a.bitstrings(),
            "b": cex.instance.b.bitstrings() if cex.instance.b is not None else None,
        },
        "verdict": {
            "status": cex.verdict.status,
            "note": cex.verdict.note,
            "trace": [outcome_entry(label, out) for label, out in cex.verdict.trace],
        },
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


def trace_lines(pairs: Iterable[tuple[str, RevisionOutcome]], indent: str) -> list[str]:
    """One 'label: absurd' or 'label: belief set ...' line per (label, outcome)."""
    return [
        f"{indent}{label}: absurd" if outcome is ABSURD
        else f"{indent}{label}: belief set {' '.join(belief_set(outcome).bitstrings())}"
        for label, outcome in pairs
    ]


def _counterexample_text(cex: Counterexample, indent: str = "    ") -> list[str]:
    lines = [f"{indent}counterexample ({cex.revision}+{cex.contraction}):"]
    state_lines = state_to_text(cex.instance.state).strip().splitlines()
    lines += [f"{indent}  {line}" for line in state_lines]
    lines.append(f"{indent}  input a: {' '.join(cex.instance.a.bitstrings()) or '(empty)'}")
    if cex.instance.b is not None:
        lines.append(f"{indent}  input b: {' '.join(cex.instance.b.bitstrings()) or '(empty)'}")
    lines += trace_lines(cex.verdict.trace, indent + "  ")
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


def _object(types="object", /, **properties) -> dict[str, Any]:
    """An object schema that states each key once and requires every key."""
    return {"type": types, "properties": properties, "required": list(properties)}


def _report_schema(**properties) -> dict[str, Any]:
    return {"$schema": "http://json-schema.org/draft-07/schema#", **_object(**properties)}


_STRING = {"type": "string"}
_STRINGS = {"type": "array", "items": _STRING}
_BOOLEAN = {"type": "boolean"}
_INTEGER = {"type": "integer"}
_OPERATORS = _object(revision=_STRING, contraction=_STRING)
_SIGNATURE = _object(atoms=_STRINGS)

_COUNTEREXAMPLE_SCHEMA = _object(
    ["object", "null"],
    postulate=_STRING,
    operators=_OPERATORS,
    state=_STRING,
    inputs=_object(a=_STRINGS, b={"type": ["array", "null"], "items": _STRING}),
    verdict=_object(
        status={"enum": ["holds", "fails", "vacuous"]},
        note=_STRING,
        trace={"type": "array", "items": _object(
            label=_STRING,
            absurd=_BOOLEAN,
            state={"type": ["string", "null"]},
            belief=_STRINGS,
        )},
    ),
)

SUITE_REPORT_SCHEMA = _report_schema(
    operator_pair=_OPERATORS,
    signature=_SIGNATURE,
    mode={"enum": ["exhaustive", "sample"]},
    seed={"type": ["integer", "null"]},
    samples={"type": ["integer", "null"]},
    results={"type": "array", "items": _object(
        postulate=_STRING,
        checked=_INTEGER,
        holds=_INTEGER,
        vacuous=_INTEGER,
        fails=_INTEGER,
        counterexample=_COUNTEREXAMPLE_SCHEMA,
    )},
)

THEOREM_REPORT_SCHEMA = _report_schema(
    title=_STRING,
    operator_pair=_OPERATORS,
    signature=_SIGNATURE,
    ok=_BOOLEAN,
    claims={"type": "array", "items": _object(
        claim=_STRING,
        operators=_OPERATORS,
        postulates=_STRINGS,
        direction=_STRING,
        status=_STRING,
        detail=_STRING,
        witnesses={"type": "array", "items": _COUNTEREXAMPLE_SCHEMA},
    )},
)

GEORGE_REPORT_SCHEMA = _report_schema(
    operator=_STRING,
    signature=_SIGNATURE,
    ok=_BOOLEAN,
    stages={"type": "array", "items": _object(
        label=_STRING,
        table={"type": "object", "additionalProperties": _INTEGER},
        belief=_STRINGS,
        match=_BOOLEAN,
        diff=_STRINGS,
        s1={"type": ["boolean", "null"]},
        s2={"type": ["boolean", "null"]},
    )},
    gun_possession_believed=_BOOLEAN,
    gun_possession_expected=_BOOLEAN,
    c2=_object(
        status=_STRING,
        expected=_STRING,
        two_step_belief=_STRINGS,
        direct_belief=_STRINGS,
    ),
)
