import re

from hypothesis import HealthCheck, settings

# Randomized suites run reproducibly: derandomized example generation, no
# deadline so the exhaustive helpers inside properties never flake.
settings.register_profile(
    "fixed",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")


ACCEPTANCE_TITLES = {
    1: "golden trace, natural revision",
    2: "golden trace, flatten revision",
    3: "C2 discrimination at the worked example",
    4: "AGM suite exhaustive at n=2",
    5: "theorem1 consistency for four operator pairs",
    6: "corollary1 zero violations",
    7: "observation1 profile",
    8: "recovery implication (hansson)",
    9: "enumeration counts 3/75/545835",
    10: "property suites under fixed seeds",
    11: "exhaustive n=3 search within its time bound",
    12: "exhaustive n=3 two-input table within its time bound",
    13: "exhaustive n=3 clean two-input search within its time bound",
}

_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::test_c(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    outcomes: dict[int, str] = {}
    for status, flag in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            m = _ACCEPTANCE_RE.search(getattr(report, "nodeid", ""))
            if not m:
                continue
            criterion = int(m.group(1))
            if flag == "FAIL" or criterion not in outcomes:
                outcomes[criterion] = flag if outcomes.get(criterion) != "FAIL" else "FAIL"
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for criterion in sorted(outcomes):
        title = ACCEPTANCE_TITLES.get(criterion, "")
        terminalreporter.write_line(
            f"  criterion {criterion:2d} ({title}): {outcomes[criterion]}"
        )
