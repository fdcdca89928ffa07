#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as perfbench/run.py appends them (one JSON
object per line). For every workload and every end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles over their
untraced runs, the change in percent, and a verdict:

  better      the change wins at least 9 in 10 run pairs (ties count for
              neither) and its median is better than the base's by more
              than the base's own quartile spread
  unresolved  otherwise, when a side's quartile spread is wider than
              the bound, so the bound cannot be resolved; better instead
              if every change run beats every base run
  worse       otherwise, when the change's median is worse than the
              base's by more than the metric's bound
  unchanged   otherwise

After each workload's rows it prints the largest host steal share
(/proc/stat) of any run on each side, and flags a side above
STEAL_FLAG: runs that lost that much of the host to other guests
spread wider, which is the usual cause of an unresolved verdict.

Exits 1 when any pairing is worse.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace", 0) != 0:
                continue
            runs.setdefault(r["workload"], []).append(r)
    return runs


# Share of host CPU time stolen by other guests above which a side's
# runs are flagged; on a quiet host it stays under 3%.
STEAL_FLAG = 0.05


def max_steal(runs):
    return max(r.get("runs", {}).get("host_steal_share", 0.0) for r in runs)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, change, better_is, bound):
    sign = 1.0 if better_is == "lower" else -1.0
    worse_by = lambda b, c: sign * (c - b)  # > 0 when c is worse than b
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if worse_by(b, c) < 0)
    if wins >= 0.9 * len(pairs) and -worse_by(bm, cm) > (b3 - b1):
        return "better"
    if (b3 - b1) / abs(bm) > bound or (c3 - c1) / abs(cm) > bound:
        if all(worse_by(b, c) < 0 for b in base for c in change):
            return "better"
        return "unresolved"
    if worse_by(bm, cm) / abs(bm) > bound:
        return "worse"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    fmt = "%-20s %-16s %30s %30s %8s  %s"
    print(fmt % ("workload", "metric", "base median [q1, q3]",
                 "change median [q1, q3]", "change", "verdict"))
    any_worse = False
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base or wl not in change:
            print("%-20s (no runs on %s side)" % (wl, "base" if wl not in base else "change"))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[wl] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[wl] if name in r["metrics"]]
            if not b or not c:
                continue
            v = verdict(b, c, m["better"], m["bound"])
            any_worse |= v == "worse"
            bq, cq = quartiles(b), quartiles(c)
            print(fmt % (wl, name,
                         "%.4g [%.4g, %.4g] n=%d" % (bq[1], bq[0], bq[2], len(b)),
                         "%.4g [%.4g, %.4g] n=%d" % (cq[1], cq[0], cq[2], len(c)),
                         "%+.1f%%" % (100.0 * (cq[1] - bq[1]) / abs(bq[1])), v))
        steal = [max_steal(base[wl]), max_steal(change[wl])]
        flag = [side for side, s in zip(("base", "change"), steal)
                if s > STEAL_FLAG]
        print(fmt % (wl, "host_steal_max", "%.1f%%" % (100.0 * steal[0]),
                     "%.1f%%" % (100.0 * steal[1]), "",
                     "high on %s (> %.0f%%)" % (" and ".join(flag),
                                                100.0 * STEAL_FLAG)
                     if flag else ""))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
