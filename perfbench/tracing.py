"""Per-layer tracing from outside the program.

Wrappers are set on the names each detequiv module calls into (its
call-site bindings), so ``src/`` stays untouched.  A name a later version
no longer has is reported absent instead of failing the run.

Stage calls become spans (name, start, end, parent, call id) kept in memory
and written out at the end.  The two hottest leaves, ``determinant`` and
``principal_minor``, run tens of thousands of times per call; they and the
other per-item helpers only add to counters, so tracing stays cheap enough
not to swamp the stages it measures.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, class or None, attribute, traced name, mode)
BINDINGS = (
    ("detequiv.cli", None, "main", "cli.main", SPAN),
    ("detequiv.cli", None, "recover", "recovery.recover", SPAN),
    ("detequiv.cli", None, "check_equivalence", "equivalence.check_equivalence", SPAN),
    ("detequiv.recovery", None, "check_equivalence", "equivalence.check_equivalence", SPAN),
    ("detequiv.lab", None, "check_equivalence", "equivalence.check_equivalence", SPAN),
    ("detequiv.cli", None, "quick_consequences", "equivalence.quick_consequences", SPAN),
    ("detequiv.recovery", None, "quick_consequences", "equivalence.quick_consequences", SPAN),
    ("detequiv.kernels", None, "determinant", "fields.determinant", TIMED),
    ("detequiv.kernels", "Kernel", "principal_minor", "kernels.principal_minor", COUNT),
    ("detequiv.kernels", "Kernel", "from_doc", "kernels.from_doc", SPAN),
    ("detequiv.kernels", "Kernel", "conjugate", "kernels.conjugate", SPAN),
    ("detequiv.kernels", "Kernel", "transpose", "kernels.transpose", COUNT),
    ("detequiv.cli", None, "check_class_d", "classd.check_class_d", SPAN),
    ("detequiv.recovery", None, "check_class_d", "classd.check_class_d", SPAN),
    ("detequiv.lab", None, "check_class_d", "classd.check_class_d", SPAN),
    ("detequiv.lab", None, "class_d_ok", "classd.class_d_ok", COUNT),
    ("detequiv.classify", "CaseTable", "build", "classify.case_table", SPAN),
    ("detequiv.classify", None, "classify_3cycle", "classify.classify_3cycle", COUNT),
    ("detequiv.recovery", None, "build_cocycle_case1", "recovery.build_cocycle", SPAN),
    ("detequiv.recovery", None, "build_cocycle_case2", "recovery.build_cocycle", SPAN),
    ("detequiv.recovery", None, "verify_cocycle", "recovery.verify_cocycle", SPAN),
    ("detequiv.cli", None, "search_counterexample", "lab.search", SPAN),
    ("detequiv.cli", None, "brute_force_diagonal_similar", "lab.oracle", SPAN),
    ("detequiv.lab", None, "brute_force_diagonal_similar", "lab.oracle", SPAN),
    ("detequiv.cli", None, "gen_instance", "lab.gen", SPAN),
)

# per-layer metric -> (unit, traced names it needs)
METRICS = {
    "equivalence.check_equivalence.ms": ("ms", ["equivalence.check_equivalence"]),
    "equivalence.check_equivalence.calls": ("count", ["equivalence.check_equivalence"]),
    "equivalence.quick_consequences.ms": ("ms", ["equivalence.quick_consequences"]),
    "equivalence.scan_share": ("ratio", ["equivalence.check_equivalence", "recovery.recover"]),
    "fields.determinant.calls": ("count", ["fields.determinant"]),
    "fields.determinant.ms": ("ms", ["fields.determinant"]),
    "kernels.principal_minor.calls": ("count", ["kernels.principal_minor"]),
    "kernels.from_doc.ms": ("ms", ["kernels.from_doc"]),
    "kernels.conjugate.ms": ("ms", ["kernels.conjugate"]),
    "kernels.transpose.calls": ("count", ["kernels.transpose"]),
    "classd.check_class_d.ms": ("ms", ["classd.check_class_d"]),
    "classd.check_class_d.calls": ("count", ["classd.check_class_d"]),
    "classd.class_d_ok.calls": ("count", ["classd.class_d_ok"]),
    "classify.case_table.ms": ("ms", ["classify.case_table"]),
    "classify.classify_3cycle.calls": ("count", ["classify.classify_3cycle"]),
    "recovery.recover.self_ms": ("ms", ["recovery.recover"]),
    "recovery.build_cocycle.ms": ("ms", ["recovery.build_cocycle"]),
    "recovery.build_cocycle.calls": ("count", ["recovery.build_cocycle"]),
    "recovery.verify_cocycle.ms": ("ms", ["recovery.verify_cocycle"]),
    "recovery.flip_retries": ("count", ["recovery.build_cocycle", "recovery.recover"]),
    "cli.main.self_ms": ("ms", ["cli.main"]),
    "lab.search.ms": ("ms", ["lab.search"]),
    "lab.search.survivor_ratio": ("ratio", ["lab.search", "equivalence.check_equivalence"]),
    "lab.oracle.ms": ("ms", ["lab.oracle"]),
    "lab.oracle.calls": ("count", ["lab.oracle"]),
    "lab.gen.ms": ("ms", ["lab.gen"]),
    "lab.gen.accept_ratio": ("ratio", ["lab.gen", "classd.class_d_ok"]),
    "trace.overhead_share": ("ratio", []),
}


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, call id)
        self.stack = []
        self.counts = Counter()
        self.seconds = Counter()
        self.call_id = None
        self.installed = set()
        self.absent = []
        self._restore = []

    def install(self):
        for module, cls, attr, name, mode in BINDINGS:
            owner = sys.modules.get(module)
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            raw = (inspect.getattr_static(owner, attr, None)
                   if owner is not None else None)
            if raw is None:
                self.absent.append(".".join(filter(None, (module, cls, attr))))
                continue
            wrap = {SPAN: self._span, TIMED: self._timed, COUNT: self._count}[mode]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrap(name, raw.__func__))
            else:
                wrapped = wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
            self.installed.add(name)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call_id)
        return wrapper

    def _timed(self, name, fn):
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                counts[name] += 1
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": self.counts,
                                 "seconds": self.seconds}) + "\n")


def layer_metrics(tracer, search_samples, overhead_share):
    """Per-layer metrics from one traced pass; absent names give 0."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def under(index, ancestor):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return parent
            parent = spans[parent][3]
        return None

    total = Counter()
    self_s = Counter()
    calls = Counter(tracer.counts)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_s[name] += end - start - child_s[i]
        calls[name] += 1
    for name, seconds in tracer.seconds.items():
        total[name] += seconds

    scan_s = 0.0
    search_scans = 0
    cocycles_per_recover = Counter()
    for i, span in enumerate(spans):
        if span[0] == "equivalence.check_equivalence":
            if under(i, "recovery.recover") is not None:
                scan_s += span[2] - span[1]
            if under(i, "lab.search") is not None:
                search_scans += 1
        elif span[0] == "recovery.build_cocycle":
            owner = under(i, "recovery.recover")
            if owner is not None:
                cocycles_per_recover[owner] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "equivalence.check_equivalence.ms": total["equivalence.check_equivalence"] * 1e3,
        "equivalence.check_equivalence.calls": calls["equivalence.check_equivalence"],
        "equivalence.quick_consequences.ms": total["equivalence.quick_consequences"] * 1e3,
        "equivalence.scan_share": ratio(scan_s, total["recovery.recover"]),
        "fields.determinant.calls": calls["fields.determinant"],
        "fields.determinant.ms": total["fields.determinant"] * 1e3,
        "kernels.principal_minor.calls": calls["kernels.principal_minor"],
        "kernels.from_doc.ms": total["kernels.from_doc"] * 1e3,
        "kernels.conjugate.ms": total["kernels.conjugate"] * 1e3,
        "kernels.transpose.calls": calls["kernels.transpose"],
        "classd.check_class_d.ms": total["classd.check_class_d"] * 1e3,
        "classd.check_class_d.calls": calls["classd.check_class_d"],
        "classd.class_d_ok.calls": calls["classd.class_d_ok"],
        "classify.case_table.ms": total["classify.case_table"] * 1e3,
        "classify.classify_3cycle.calls": calls["classify.classify_3cycle"],
        "recovery.recover.self_ms": self_s["recovery.recover"] * 1e3,
        "recovery.build_cocycle.ms": total["recovery.build_cocycle"] * 1e3,
        "recovery.build_cocycle.calls": calls["recovery.build_cocycle"],
        "recovery.verify_cocycle.ms": total["recovery.verify_cocycle"] * 1e3,
        "recovery.flip_retries": sum(1 for c in cocycles_per_recover.values() if c > 1),
        "cli.main.self_ms": self_s["cli.main"] * 1e3,
        "lab.search.ms": total["lab.search"] * 1e3,
        "lab.search.survivor_ratio": ratio(search_scans, search_samples),
        "lab.oracle.ms": total["lab.oracle"] * 1e3,
        "lab.oracle.calls": calls["lab.oracle"],
        "lab.gen.ms": total["lab.gen"] * 1e3,
        "lab.gen.accept_ratio": ratio(calls["lab.gen"], calls["classd.class_d_ok"]),
        "trace.overhead_share": overhead_share,
    }
    absent = sorted(metric for metric, (_, needs) in METRICS.items()
                    if any(name not in tracer.installed for name in needs))
    return ({metric: {"value": values[metric], "unit": unit}
             for metric, (unit, _) in METRICS.items()}, absent)
