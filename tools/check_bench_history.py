#!/usr/bin/env python3
"""Schema check for the committed perf-history files.

A history file is `BENCH_<n>.json` at the repository root (other
`BENCH_*.json` dumps, such as bench_micro's, are not history). Each one
must parse and record, against BENCHMARK.json:

  * `parent` and `change`: objects naming what was compared
    (`commit` and/or `source_digest`);
  * `machine`: an object describing the hardware;
  * `workloads`: every workload named in BENCHMARK.json, each with an
    integer `pairs` >= 1 and a `metrics` object holding every end-to-end
    metric with BENCHMARK.json's `unit` and numeric `parent` and `change`
    medians;
  * `work_counts`: per dataset, integer `memo_hits`, `memo_misses` and
    `treatment_patterns_evaluated`; the optional phase-3, candidate
    cache and Gram-block counts (OPTIONAL_COUNT_FIELDS), where present,
    are integers too.

It checks the shape only and puts no bound on any wall-time figure.
Exit 1 with one line per problem. Usage:

  check_bench_history.py [BENCH_FILE ...]   # default: BENCH_<n>.json in the root
"""

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY_RE = re.compile(r"^BENCH_\d+\.json$")
COUNT_FIELDS = ("memo_hits", "memo_misses", "treatment_patterns_evaluated")
# Recorded from BENCH_23 on: the selection LP's size and pivots (pivots
# plus bound flips) at the default k and theta, and warm-mix's candidate
# cache hits and misses per round of its requests. From BENCH_27 on: the
# Gram blocks a cold run builds and the memo misses they serve.
OPTIONAL_COUNT_FIELDS = ("lp_rows", "lp_columns", "lp_pivots",
                         "warm_mix_candidate_hits_per_round",
                         "warm_mix_candidate_misses_per_round",
                         "gram_builds", "gram_hits")


def is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check(path: Path, spec: dict) -> list:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return ["%s: does not parse: %s" % (path.name, e)]
    if not isinstance(doc, dict):
        return ["%s: top level is not an object" % path.name]
    problems = []

    def need(cond, what):
        if not cond:
            problems.append("%s: %s" % (path.name, what))
        return cond

    for side in ("parent", "change"):
        entry = doc.get(side)
        need(isinstance(entry, dict)
             and any(entry.get(k) for k in ("commit", "source_digest")),
             "`%s` must name a commit or a source_digest" % side)
    need(isinstance(doc.get("machine"), dict) and doc["machine"],
         "`machine` must describe the hardware")

    workloads = doc.get("workloads")
    if need(isinstance(workloads, dict), "`workloads` must be an object"):
        for wl in spec["workloads"]:
            name = wl["name"]
            entry = workloads.get(name)
            if not need(isinstance(entry, dict), "workload %s missing" % name):
                continue
            need(is_count(entry.get("pairs")) and entry["pairs"] >= 1,
                 "%s: `pairs` must be an integer >= 1" % name)
            metrics = entry.get("metrics")
            if not need(isinstance(metrics, dict),
                        "%s: `metrics` must be an object" % name):
                continue
            for metric in spec["end_to_end"]:
                m = metrics.get(metric["name"])
                where = "%s %s" % (name, metric["name"])
                if not need(isinstance(m, dict), where + " missing"):
                    continue
                need(m.get("unit") == metric["unit"],
                     "%s: unit %r, expected %r"
                     % (where, m.get("unit"), metric["unit"]))
                for side in ("parent", "change"):
                    need(is_number(m.get(side)),
                         "%s: `%s` must be a finite number" % (where, side))

    counts = doc.get("work_counts")
    if need(isinstance(counts, dict) and counts,
            "`work_counts` must be a non-empty object"):
        for dataset, entry in counts.items():
            if not need(isinstance(entry, dict),
                        "work_counts %s must be an object" % dataset):
                continue
            for field in COUNT_FIELDS:
                need(is_count(entry.get(field)),
                     "work_counts %s: `%s` must be a count" % (dataset, field))
            for field in OPTIONAL_COUNT_FIELDS:
                need(field not in entry or is_count(entry[field]),
                     "work_counts %s: `%s` must be a count" % (dataset, field))
    return problems


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv:
        files = [Path(a) for a in argv]
    else:
        files = sorted(p for p in ROOT.iterdir() if HISTORY_RE.match(p.name))
    if not files:
        print("check_bench_history: no BENCH_<n>.json history file found")
        return 1
    problems = []
    for path in files:
        problems += check(path, spec)
    for p in problems:
        print(p)
    print("check_bench_history: %d file(s), %d problem(s)"
          % (len(files), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
