"""Outside-in tracing of beliefrev for the benchmark's traced passes.

``Tracer.install()`` replaces public beliefrev functions, in the namespaces
their callers look them up in, with wrappers that record spans (at layer
boundaries) or aggregate counters (on hot per-instance calls).
``Tracer.restore()`` puts every original object back.  Nothing under ``src/``
is edited.  Counters see only the calling process: work done inside
``--jobs`` pool workers shows up as ``postulates.worker_cpu_s`` alone.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict

from beliefrev import cli, operators, postulates, theorems

REPORT_BUILDERS = ("suite_report_json", "suite_report_text",
                   "theorem_report_json", "theorem_report_text")
HARNESSES = ("verify_theorem1", "verify_corollary1", "verify_observation1", "verify_hansson")
FAMILIES = ("PC", "PR", "R", "S", "C", "CORE")
STREAM_FACTORIES = ("enumerate_states", "sample_states")


def family(pid: str) -> str:
    return pid if pid == "CORE" else pid.rstrip("0123456789")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _operators() -> list:
    return [*operators.REVISION_OPERATORS.values(), *operators.CONTRACTION_OPERATORS.values()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in the layer's spans minus their child spans.

    A span's layer is its name up to the first dot.  Calls run on one thread,
    so child spans never overlap and their durations can simply be summed.
    """
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    in_children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            in_children[s["parent"]] += duration[s["id"]]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += duration[s["id"]] - in_children[s["id"]]
    return out


class Tracer:
    """Spans and counters for one traced pass; install, run jobs, restore."""

    def __init__(self) -> None:
        self.job: int | None = None  # id of the job now running, set by the caller
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.search_keys: set[tuple] = set()
        self.render_jobs: set[int | None] = set()
        self.streams: list = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self._origin = time.perf_counter()
        self._children_cpu0 = 0.0

    # --- install / restore --------------------------------------------------

    def _swap(self, owner, key: str, new) -> None:
        """Replace a module attribute, or an entry when ``owner`` is a dict."""
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def wrapped(self) -> list[tuple]:
        """(owner, key, original) for everything currently replaced."""
        return list(self._saved)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def install(self) -> None:
        self._children_cpu0 = _children_cpu_s()
        self._swap(cli, "run", self._span("cli.run", cli.run))
        for name in REPORT_BUILDERS:
            self._swap(cli, name, self._span(f"reporting.{name}", getattr(cli, name),
                                             on_call=self._rendered))
        for name in HARNESSES:
            self._swap(cli, name, self._span(f"theorems.{name}", getattr(cli, name)))
        self._swap(cli, "run_suite", self._span("postulates.run_suite", cli.run_suite))
        self._swap(theorems, "run_suite", self._span(
            "postulates.run_suite", theorems.run_suite,
            on_call=lambda args: self._count("theorems.suite_calls")))
        self._swap(theorems, "search_counterexample", self._span(
            "postulates.search_counterexample", theorems.search_counterexample,
            on_call=self._searched))
        self._swap(postulates, "check_instance", self._checker(postulates.check_instance, False))
        self._swap(theorems, "check_instance", self._checker(theorems.check_instance, True))
        self._swap(postulates, "models", self._counted("logic.models", postulates.models))
        self._swap(postulates, "dnf_of", self._counted("logic.dnf_of", postulates.dnf_of))
        for table in (operators.REVISION_OPERATORS, operators.CONTRACTION_OPERATORS):
            for name, op in list(table.items()):
                self._swap(table, name, type(op)(name, self._counted(f"operators.{name}", op.fn)))
        for module in (cli, postulates, theorems):
            for name in STREAM_FACTORIES:
                if hasattr(module, name):
                    self._swap(module, name, self._stream_factory(getattr(module, name)))
        self._swap(postulates, "ProcessPoolExecutor", self._pool_class(postulates.ProcessPoolExecutor))

    # --- wrappers -------------------------------------------------------------

    def _count(self, key: str) -> None:
        self.calls[key] += 1

    def _rendered(self, args) -> None:
        self.calls["reporting.renders"] += 1
        self.render_jobs.add(self.job)

    def _searched(self, args) -> None:
        self.calls["theorems.search_calls"] += 1
        pid, ops = args[0], args[1]
        self.search_keys.add((self.job, pid, ops.name))

    def _span(self, name: str, fn, on_call=None):
        clock, origin = time.perf_counter, self._origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span = {
                "id": len(self.spans), "name": name, "job": self.job,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": clock() - origin, "end": None, "jobs": kwargs.get("jobs", 1),
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = clock() - origin
                self._stack.pop()

        return wrapper

    def _counted(self, key: str, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                calls[key] += 1

        return wrapper

    def _checker(self, fn, direct: bool):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter
        families = {pid: family(pid) for pid in postulates.ALL_POSTULATE_IDS}

        @functools.wraps(fn)
        def wrapper(pid, ops, inst):
            start = clock()
            verdict = fn(pid, ops, inst)
            key = families[pid]
            seconds[key] += clock() - start
            calls[key] += 1
            if verdict.status == postulates.VACUOUS:
                calls["postulates.vacuous"] += 1
            if direct:
                calls["theorems.direct_checks"] += 1
            return verdict

        return wrapper

    def _stream_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            self.streams.append(stream)
            return stream

        return wrapper

    def _pool_class(self, base):
        calls = self.calls

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                calls["postulates.pools_started"] += 1
                super().__init__(*args, **kwargs)

        return CountingPool

    # --- per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass; call after restore().

        Re-iterates every state stream the jobs created, alone, to time the
        states layer without its consumers.
        """
        worker_cpu_s = _children_cpu_s() - self._children_cpu0
        calls, seconds = self.calls, self.seconds
        own = self_times(self.spans)

        def per_call_us(key: str) -> float:
            return seconds[key] / calls[key] * 1e6 if calls[key] else 0.0

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        layer_spans = defaultdict(list)
        for s in self.spans:
            layer_spans[s["name"].split(".")[0]].append(s)
        scans = layer_spans["postulates"]
        pooled = sum((s["end"] - s["start"]) * s["jobs"] for s in scans if s["jobs"] > 1)
        renders = calls["reporting.renders"]
        searches = calls["theorems.search_calls"]
        instances = sum(calls[f] for f in FAMILIES)

        out = {
            "cli.self_s": own["cli"],
            "reporting.render_s": sum(s["end"] - s["start"] for s in layer_spans["reporting"]),
            "reporting.render_discard_ratio": ratio(renders - len(self.render_jobs), renders),
            "theorems.self_s": own["theorems"],
            "theorems.suite_calls": calls["theorems.suite_calls"],
            "theorems.search_calls": searches,
            "theorems.direct_checks": calls["theorems.direct_checks"],
            "theorems.search_distinct_ratio": ratio(len(self.search_keys), searches),
            "postulates.scan_s": sum(s["end"] - s["start"] for s in scans),
            "postulates.instances": instances,
            "postulates.vacuous_ratio": ratio(calls["postulates.vacuous"], instances),
            "postulates.pools_started": calls["postulates.pools_started"],
            "postulates.worker_cpu_s": worker_cpu_s,
            "postulates.parallel_efficiency": ratio(worker_cpu_s, pooled),
        }
        for f in FAMILIES:
            out[f"postulates.us_per_instance.{f}"] = per_call_us(f)

        ops = _operators()
        op_keys = [f"operators.{op.name}" for op in ops]
        for op, key in zip(ops, op_keys):
            out[f"operators.calls.{op.name}"] = calls[key]
        op_calls = sum(calls[k] for k in op_keys)
        out["operators.us_per_call"] = ratio(sum(seconds[k] for k in op_keys), op_calls) * 1e6
        infos = [op.fn.cache_info() for op in ops]
        hits = sum(i.hits for i in infos)
        misses = sum(i.misses for i in infos)
        out["operators.cache_hit_ratio"] = ratio(hits, hits + misses)
        out["operators.cache_evictions"] = sum(i.misses - i.currsize for i in infos)
        out["operators.cache_entries"] = sum(i.currsize for i in infos)

        out["logic.models_calls"] = calls["logic.models"]
        out["logic.models_us"] = per_call_us("logic.models")
        out["logic.dnf_of_us"] = per_call_us("logic.dnf_of")

        generated: dict[str, int] = defaultdict(int)
        spent: dict[str, float] = defaultdict(float)
        for stream in self.streams:
            start = time.perf_counter()
            generated[stream.mode] += sum(1 for _ in stream)
            spent[stream.mode] += time.perf_counter() - start
        out["states.enumerate_per_s"] = ratio(generated["exhaustive"], spent["exhaustive"])
        out["states.sample_per_s"] = ratio(generated["sampled"], spent["sampled"])
        out["states.stream_s"] = sum(spent.values())
        return out
