"""Command-line front end.

Exit codes: 0 when the command succeeded and found nothing adverse, 1 when a
counterexample, claim violation or golden-trace mismatch was found (the
report is still well formed), 2 on usage or input errors.  Reports go to
standard output; diagnostics go to standard error.  Output is deterministic
given the argument vector, regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .logic import Signature, WorldSet, models, parse_formula
from .operators import (
    ABSURD,
    CONTRACTION_OPERATORS,
    REVISION_OPERATORS,
    apply_sequence,
    get_contraction,
    get_revision,
    make_pair,
)
from .postulates import ALL_POSTULATE_IDS, MAX_SEARCH_ATOMS, run_suite
from .reporting import (
    george_json,
    george_text,
    outcome_entry,
    suite_report_json,
    suite_report_text,
    theorem_report_json,
    theorem_report_text,
    trace_lines,
)
from .states import (
    RankedState,
    enumerate_states,
    load_state_file,
    sample_states,
    state_to_text,
)
from .theorems import (
    run_george,
    verify_corollary1,
    verify_hansson,
    verify_observation1,
    verify_theorem1,
)


def _parse_atoms(text: str) -> Signature:
    return Signature(tuple(name.strip() for name in text.split(",") if name.strip()))


def _add_operators(parser: argparse.ArgumentParser, op: bool = True, cop: bool = True) -> None:
    if op:
        parser.add_argument("--op", default="natural", choices=sorted(REVISION_OPERATORS))
    if cop:
        parser.add_argument("--cop", default="natural-con", choices=sorted(CONTRACTION_OPERATORS))


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    """run() builds the parser on every call, so each harness bound here is
    this module's attribute at that moment, as swapped in by a tracer."""
    parser = argparse.ArgumentParser(
        prog="beliefrev",
        description="Iterated belief revision and contraction on ranked epistemic states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, **defaults)
        return p

    p = command("models", "model set of a formula", _cmd_models)
    p.add_argument("--atoms", required=True)
    p.add_argument("formula")

    p = command("revise", "revise a state file by a formula", _cmd_change)
    p.add_argument("--state", required=True)
    _add_operators(p, cop=False)
    p.add_argument("formula")

    p = command("contract", "contract a state file by a formula", _cmd_change)
    p.add_argument("--state", required=True)
    _add_operators(p, op=False)
    p.add_argument("formula")

    p = command("seq", "apply a revise/contract sequence to a state file", _cmd_seq)
    p.add_argument("--state", required=True)
    _add_operators(p)
    p.add_argument("--steps", required=True,
                   help="semicolon-separated items 'revise:FORMULA' / 'contract:FORMULA'")

    p = command("check", "check postulates by counterexample search", _cmd_check)
    p.add_argument("--atoms", required=True)
    _add_operators(p)
    p.add_argument("--postulate", required=True,
                   help="a postulate id or 'all'")
    _add_sampling(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--allow-n3", action="store_true",
        help="allow exhaustive search over three atoms (545835 states)",
    )

    for name, verify, help_text in (
        ("theorem1", verify_theorem1,
         "check the semantic/syntactic equivalences for one operator pair"),
        ("corollary1", verify_corollary1,
         "check revise-then-contract equals contraction on applicable instances"),
        ("observation1", verify_observation1, "check the seven-item recovery-postulate profile"),
        ("hansson", verify_hansson, "check that the plausible postulates enforce recovery"),
    ):
        p = command(name, help_text, _cmd_harness, verify=verify)
        p.add_argument("--atoms", required=True)
        # hansson fixes the natural revision: only the contraction is chosen
        _add_operators(p, op=name != "hansson")
        p.add_argument("--jobs", type=int, default=1)

    p = command("george", "replay the two-revision golden trace", _cmd_george)
    p.add_argument("--op", required=True, choices=("natural", "flatten"))

    p = command("enumerate", "count epistemic states over a signature", _cmd_enumerate)
    p.add_argument("--atoms", required=True)
    _add_sampling(p)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _emit(args, json_payload: dict[str, Any], text: str) -> None:
    if args.format == "json":
        print(json.dumps(json_payload, indent=2))
    else:
        print(text)


def _state_lines(state: RankedState) -> str:
    return state_to_text(state).rstrip("\n")


def _cmd_models(args) -> int:
    sig = _parse_atoms(args.atoms)
    w = models(parse_formula(args.formula, sig), sig)
    payload = {
        "formula": args.formula,
        "signature": {"atoms": list(sig.atoms)},
        "models": w.bitstrings(),
    }
    _emit(args, payload, f"models: {' '.join(w.bitstrings()) or '(none)'}")
    return 0


def _cmd_change(args) -> int:
    revise = args.command == "revise"
    name = args.op if revise else args.cop
    state = load_state_file(args.state)
    a = models(parse_formula(args.formula, state.sig), state.sig)
    outcome = (get_revision if revise else get_contraction)(name)(state, a)
    label = f"{args.command} by {args.formula}"
    entry = outcome_entry(label, outcome)
    payload = {"operator": name, "formula": args.formula, "result": entry}
    if outcome is ABSURD:
        text = f"{label} [{name}]: absurd (no ranked state; belief set inconsistent)"
    else:
        text = (f"{label} [{name}]:\n{_state_lines(outcome)}\n"
                f"belief set: {' '.join(entry['belief'])}")
    _emit(args, payload, text)
    return 0


def _parse_steps(text: str, sig: Signature) -> list[tuple[str, str, WorldSet]]:
    steps = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(f"bad step {item!r}: expected 'revise:FORMULA' or 'contract:FORMULA'")
        kind, formula = (part.strip() for part in item.split(":", 1))
        if kind not in ("revise", "contract"):
            raise ValueError(f"bad step kind {kind!r}: expected 'revise' or 'contract'")
        steps.append((kind, formula, models(parse_formula(formula, sig), sig)))
    return steps


def _cmd_seq(args) -> int:
    state = load_state_file(args.state)
    parsed = _parse_steps(args.steps, state.sig)
    pair = make_pair(args.op, args.cop)
    trace = apply_sequence(pair, state, [(kind, w) for kind, _, w in parsed])
    labels = ["initial"] + [f"{kind} by {formula}" for kind, formula, _ in parsed]
    pairs = list(zip(labels, trace))
    entries = [outcome_entry(label, out) for label, out in pairs]
    payload = {
        "operator_pair": {"revision": args.op, "contraction": args.cop},
        "signature": {"atoms": list(state.sig.atoms)},
        "trace": entries,
        "final_belief": entries[-1]["belief"],
    }
    lines = [f"sequence [{args.op}+{args.cop}]:", *trace_lines(pairs, "  ")]
    final = trace[-1]
    if final is not ABSURD:
        lines.append("final state:")
        lines.append(_state_lines(final))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    sig = _parse_atoms(args.atoms)
    pair = make_pair(args.op, args.cop)
    if args.postulate == "all":
        pids = list(ALL_POSTULATE_IDS)
    else:
        pids = [args.postulate]
    if args.mode == "exhaustive" and sig.n > MAX_SEARCH_ATOMS and not args.allow_n3:
        raise ValueError(f"exhaustive mode over n = {sig.n} atoms is gated; pass --allow-n3 "
                         f"(n <= {MAX_SEARCH_ATOMS} runs by default)")
    report = run_suite(
        pair, sig, pids,
        mode=args.mode, samples=args.samples, seed=args.seed,
        allow_large=args.allow_n3, jobs=args.jobs,
    )
    _emit(args, suite_report_json(report), suite_report_text(report))
    return 1 if report.total_fails else 0


def _cmd_harness(args) -> int:
    sig = _parse_atoms(args.atoms)
    # hansson takes its contraction by name and pairs it with natural revision
    target = make_pair(args.op, args.cop) if "op" in args else args.cop
    report = args.verify(target, sig, jobs=args.jobs)
    _emit(args, theorem_report_json(report), theorem_report_text(report))
    return 0 if report.ok else 1


def _cmd_george(args) -> int:
    result = run_george(args.op)
    _emit(args, george_json(result), george_text(result))
    return 0 if result.ok else 1


def _cmd_enumerate(args) -> int:
    sig = _parse_atoms(args.atoms)
    atoms = ",".join(sig.atoms)
    if args.mode == "exhaustive":
        stream = enumerate_states(sig)
        generated = sum(1 for _ in stream.rank_vectors())
        counts = {"expected": stream.count, "generated": generated}
        text = f"states over atoms {atoms}: {generated} (weak-order count {stream.count})"
    else:
        stream = sample_states(sig, args.samples, args.seed)
        distinct = stream.distinct()
        counts = {"seed": stream.seed, "samples": stream.count, "distinct": distinct}
        text = (f"sampled {stream.count} states over atoms {atoms} "
                f"(seed {stream.seed}): {distinct} distinct")
    payload = {"signature": {"atoms": list(sig.atoms)}, "mode": stream.mode, **counts}
    _emit(args, payload, text)
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    code = run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
