"""Compare two sets of saved benchmark results.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (copies of
``.bench_build/results/`` made on two commits).  For every workload and
end-to-end metric this prints both medians over the seeds, the change as a
share of the base median, and whether it stays within the bound fixed in
``BENCHMARK.json``.  It refuses, with exit code 2, to compare when a
workload and seed present on both sides were run on different inputs.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-t0.json")):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        runs[report["workload"], report["seed"]] = report
    return runs


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(d) for d in argv)
    clashes = sorted(key for key in base.keys() & new.keys()
                     if base[key]["inputs_sha256"] != new[key]["inputs_sha256"])
    if clashes:
        print(f"refusing to compare: inputs differ for {clashes}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"]
                                  for (w, _), r in base.items() if w == workload)
            b = statistics.median(r["metrics"][name]["value"]
                                  for (w, _), r in new.items() if w == workload)
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "REGRESSION"
            print(f"{workload:13s} {name:14s} {a:14.4f} {b:14.4f} {change:+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
