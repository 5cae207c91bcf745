"""The detequiv benchmark: one workload per run, in this interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gf-large --seed 1 --seconds 25 --trace 0

Set-up imports ``detequiv`` from ``src/`` and writes the workload's inputs
under ``.bench_build/``; it is repeated and its median reported.  Then one
client calls ``detequiv.cli.main(argv)`` in a closed loop, in whole passes
over the workload's schedule, until the calls have used about ``--seconds``
seconds.  Every answer is checked.  With ``--trace 1`` the run instead
alternates plain and traced passes and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
and a file under ``.bench_build/results/``, hold the full report.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import checks
import exact
import tracing
import workloads

SETUP_REPEATS = 9
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Median time of one reading of Reference on the machine the benchmark was
# sized on (a 2-core Xeon VM, Python 3.11); times are scaled to it.
REFERENCE_MS = 0.87
# Call time allowed between two readings of Reference, and the least time
# before and after a call whose readings scale it.
REFERENCE_EVERY_MS = 20.0
WINDOW_S = 0.5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_detequiv(src):
    """Import detequiv afresh from src/, as a new process would."""
    for name in [m for m in sys.modules if m == "detequiv" or m.startswith("detequiv.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("detequiv.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"detequiv came from {cli.__file__}, not {src}")
    return cli


def _write_inputs(calls, directory):
    os.makedirs(directory, exist_ok=True)
    for call in calls:
        for name, doc in call.docs.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)


class Reference:
    """A fixed computation of the benchmark's own, timed between calls.

    Other processes on a shared machine change how fast this one runs, by
    up to a half from one run to the next.  Scaling each call's time by how
    long this computation takes around it takes that change out of the
    metrics.  It uses ``exact``, never detequiv, so no change to the program
    moves it.
    """

    def __init__(self):
        rng = random.Random(0)
        self.prime = [[rng.randrange(workloads.GF_LARGE) for _ in range(7)]
                      for _ in range(7)]
        self.rational = [[exact.Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(4)] for _ in range(4)]

    def _once(self):
        start = time.perf_counter()
        for _ in range(2):
            exact.det(workloads.GF_LARGE, self.prime)
            exact.det(None, self.rational)
        return (time.perf_counter() - start) * 1e3

    def read(self):
        """One reading in ms; the faster of two, so that a single
        interruption does not count."""
        return min(self._once(), self._once())


class Scaler:
    """Scales call times by the readings of Reference taken around them.

    A reading follows every REFERENCE_EVERY_MS of call time.  A call is
    scaled by the mean reading from WINDOW_S before it starts to WINDOW_S
    after it ends, and over a window at least as long as the call itself:
    a long call's own time already averages the machine's speed over that
    long, and a reading is a snapshot of a millisecond or two.
    """

    def __init__(self, reference):
        self.reference = reference
        self.times = []       # perf_counter() of each reading
        self.readings = []    # ms
        self.since_ms = 0.0
        self.read()

    def read(self):
        self.readings.append(self.reference.read())
        self.times.append(time.perf_counter())
        self.since_ms = 0.0

    def ran(self, ms):
        """Count ``ms`` of call time, taking a reading when one is due."""
        self.since_ms += ms
        if self.since_ms >= REFERENCE_EVERY_MS:
            self.read()

    def factor(self, start, end):
        pad = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        return REFERENCE_MS / statistics.fmean(self.readings[lo:hi])


class Client:
    """Makes one CLI call at a time and checks each answer."""

    def __init__(self, cli, calls, directory):
        self.cli = cli
        self.calls = calls
        self.directory = directory
        self.out = os.path.join(directory, "report.json")
        self.reports = {}      # schedule index -> sha256 of its first report
        self.attempted = 0
        self.failures = []

    def call(self, index):
        """Run schedule entry ``index``; return its start and end times."""
        call = self.calls[index]
        argv = [os.path.join(self.directory, a) if a in call.docs else a
                for a in call.args] + ["--out", self.out]
        if os.path.exists(self.out):
            os.remove(self.out)
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught exception is a failed call
                code, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        self.attempted += 1
        problems = [f"uncaught {error}"] if error else self._judge(index, call, code)
        if problems:
            self.failures.append({"index": index, "args": call.args,
                                  "problems": problems})
        return start, end

    def _judge(self, index, call, code):
        report = None
        if os.path.exists(self.out):
            with open(self.out, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            if self.reports.setdefault(index, digest) != digest:
                return ["report differs from an earlier call on the same input"]
            try:
                report = json.loads(raw)
            except ValueError:
                return ["report is not JSON"]
        return checks.check(call, code, report)

    def reports_digest(self):
        text = json.dumps(sorted(self.reports.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def _tail(samples, pct):
    """The ``pct`` percentile, or the highest lower one on TAIL_LADDER with
    at least TAIL_BEYOND samples above it; with the samples beyond it."""
    ordered = sorted(samples)
    for rung in (r for r in TAIL_LADDER if r <= pct):
        if len(ordered) * (1 - rung / 100) >= TAIL_BEYOND:
            pos = (len(ordered) - 1) * rung / 100
            low = int(pos)
            high = min(low + 1, len(ordered) - 1)
            value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
            return value, rung, sum(1 for s in ordered if s > value)
    return max(ordered), 100.0, 0


def _budget(calls):
    """Sampled pairs that the ``search`` calls among ``calls`` screen."""
    return sum(int(c.args[c.args.index("--budget") + 1])
               for c in calls if c.command == "search")


def _timed_loop(client, scaler, seconds):
    """Whole passes over the schedule, as many as come nearest to ``seconds``
    of call time.  Whole passes keep the mix of calls the same in every run,
    wherever the time runs out.

    Returns (schedule index, start, end) per call."""
    runs = []
    busy = 0.0
    passes = 0
    while passes == 0 or busy + busy / passes / 2 < seconds:
        for item in range(len(client.calls)):
            start, end = client.call(item)
            runs.append((item, start, end))
            busy += end - start
            scaler.ran((end - start) * 1e3)
        passes += 1
    scaler.read()
    return runs


def _time_metrics(calls, samples, tail_pct):
    """Time metrics over (schedule index, ms) samples."""
    times = [ms for _, ms in samples]
    pos = [ms for i, ms in samples if calls[i].expect_exit == 0]
    neg = [ms for i, ms in samples if calls[i].expect_exit != 0]
    search = [(calls[i], ms) for i, ms in samples if calls[i].command == "search"]
    # one pass of the schedule at each call's median time, so that a call
    # of seconds that ran on a slow stretch does not set the whole figure
    by_item = {}
    for i, ms in samples:
        by_item.setdefault(i, []).append(ms)
    calls_per_s = len(by_item) / (sum(map(statistics.median, by_item.values())) / 1e3)
    if search:
        samples_per_s = (_budget(c for c, _ in search)
                         / (sum(ms for _, ms in search) / 1e3))
    else:
        samples_per_s = calls_per_s   # one pair screened per call
    tail, pct, beyond = _tail(times, tail_pct)
    metrics = {
        "calls_per_s": (calls_per_s, "1/s"),
        "call_ms_p50": (statistics.median(times), "ms"),
        "call_ms_tail": (tail, "ms"),
        "pos_ms_p50": (statistics.median(pos), "ms"),
        "neg_ms_p50": (statistics.median(neg), "ms"),
        "samples_per_s": (samples_per_s, "1/s"),
    }
    strata = {}
    for i, ms in samples:
        c = calls[i]
        field = "Q" if c.p is None else f"GF({c.p})"
        strata.setdefault(f"{c.command} {c.kind} n={c.n} {field}", []).append(ms)
    extra = {"call_ms_tail_percentile": pct, "call_ms_tail_beyond": beyond,
             "ms_p50_by_stratum": {k: statistics.median(v)
                                   for k, v in sorted(strata.items())}}
    return metrics, extra


def _end_to_end(calls, runs, scaler, setup_s, tail_pct):
    raw = [(i, (end - start) * 1e3) for i, start, end in runs]
    scaled = [(i, (end - start) * 1e3 * scaler.factor(start, end))
              for i, start, end in runs]
    metrics, extra = _time_metrics(calls, scaled, tail_pct)
    raw_metrics, _ = _time_metrics(calls, raw, tail_pct)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update({"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")})
    extra.update({
        "calls_timed": len(runs), "busy_s": sum(ms for _, ms in raw) / 1e3,
        "pos_calls": sum(1 for i, _ in raw if calls[i].expect_exit == 0),
        "neg_calls": sum(1 for i, _ in raw if calls[i].expect_exit != 0),
        "raw_metrics": {k: v for k, (v, _) in raw_metrics.items()},
        "reference_ms_p50": statistics.median(scaler.readings),
    })
    order = ("setup_s", "calls_per_s", "call_ms_p50", "call_ms_tail", "pos_ms_p50",
             "neg_ms_p50", "peak_rss_mb", "samples_per_s")
    return {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in order}, extra


def _traced(client, calls, scaler, seconds):
    """Per-layer metrics from one traced pass over the schedule.

    After a warm-up pass, plain and traced passes alternate until they have
    used ``seconds`` / 2 of call time; the overhead compares their totals.
    The metrics come from the first traced pass alone, so that every count
    repeats exactly.
    """
    def one_pass(tracer=None):
        runs = []
        for i in range(len(calls)):
            if tracer is not None:
                tracer.call_id = i
            runs.append(client.call(i))
            scaler.ran((runs[-1][1] - runs[-1][0]) * 1e3)
        return runs

    one_pass()
    plain, traced, first = [], [], None
    while first is None or sum(end - start for start, end in plain + traced) < seconds / 2:
        plain += one_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced += one_pass(tracer)
        finally:
            tracer.uninstall()
        first = first or tracer
    scaler.read()
    plain_s, traced_s = (sum((end - start) * scaler.factor(start, end) for start, end in runs)
                         for runs in (plain, traced))
    metrics, absent = tracing.layer_metrics(first, _budget(calls), traced_s / plain_s - 1)
    extra = {"plain_s": plain_s, "traced_s": traced_s,
             "traced_passes": len(traced) // len(calls),
             "absent_bindings": first.absent, "absent_metrics": absent,
             "spans": len(first.spans)}
    return metrics, extra, first


def main(argv=None):
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "detequiv", "cli.py")):
        print(f"no detequiv sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    sys.path.insert(0, src)
    # set-up times imports from compiled modules, as a user's installed
    # copy runs, whatever PYTHONDONTWRITEBYTECODE says; they stay in build
    sys.pycache_prefix = os.path.join(build, "pycache")
    sys.dont_write_bytecode = False
    tag = f"{args.workload}-s{args.seed}"
    directory = os.path.join(build, "inputs", tag)

    scaler = Scaler(Reference())
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = _import_detequiv(src)
        calls = workloads.schedule(args.workload, args.seed)
        _write_inputs(calls, directory)
        setup.append((start, time.perf_counter()))
        scaler.read()

    client = Client(cli, calls, directory)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs_sha256": workloads.digest(calls), "schedule_calls": len(calls),
              "setup_s_raw": [end - start for start, end in setup]}
    if args.trace:
        metrics, extra, tracer = _traced(client, calls, scaler, args.seconds)
        os.makedirs(os.path.join(build, "traces"), exist_ok=True)
        tracer.write(os.path.join(build, "traces", f"{tag}.spans.jsonl"))
    else:
        for command in dict.fromkeys(c.command for c in calls):   # warm-up
            client.call(next(i for i, c in enumerate(calls) if c.command == command))
        runs = _timed_loop(client, scaler, args.seconds)
        setup_s = statistics.median((end - start) * scaler.factor(start, end)
                                    for start, end in setup)
        metrics, extra = _end_to_end(calls, runs, scaler, setup_s,
                                     workloads.TAIL_PERCENTILE[args.workload])
    report.update(extra)
    report.update({"reports_sha256": client.reports_digest(),
                   "attempted": client.attempted, "failed": len(client.failures),
                   "failed_share": len(client.failures) / client.attempted,
                   "failures": client.failures[:20], "metrics": metrics})
    os.makedirs(os.path.join(build, "results"), exist_ok=True)
    with open(os.path.join(build, "results", f"{tag}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    print(json.dumps({"correct": not client.failures, "attempted": client.attempted,
                      "failed": len(client.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
