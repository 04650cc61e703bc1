#!/usr/bin/env python3
"""Gate the perf trajectory: compare BENCH_*.json against checked-in baselines.

Usage:
    check_bench_regression.py <baseline_dir> <current_dir> [--summary FILE]

Every BENCH_*.json present in <baseline_dir> must exist in <current_dir>;
records are matched by their identity fields (kind/kernel/backend/...).
Metrics fall into two classes:

  * deterministic — simulated cycle counts, instruction counts, native
    trace lengths (trace_ops), cache hit/miss counts and anything derived
    purely from them. These are
    bit-reproducible across machines, so any regression beyond the
    threshold FAILS the job.
  * wall-clock — *_ms, *_us latency percentiles, jobs_per_s, throughput,
    wall/execute speedups. Host-dependent, so regressions only WARN (they
    still land in the trajectory table).

A metric "regresses" when it is worse than baseline by more than
--threshold (default 15%), in the metric's own good direction (cycles:
lower is better; hit rate: higher is better; ...).

Optional-cycles schema: backends without a cycle model report cycle
metrics as JSON null (or omit them). The gate tolerates null-vs-null, but
a deterministic metric that *vanishes* (baseline numeric, current
null/missing) FAILS, and a deterministic lower-is-better metric that
*appears* against a zero baseline FAILS too — a zero baseline must never
mask a real regression or divide the delta into nonsense.

The trajectory table is printed to stdout and appended to --summary when
given (pass $GITHUB_STEP_SUMMARY to surface it in the job summary).
"""

import argparse
import json
import os
import sys

# Fields that identify a record rather than measure it.
ID_KEYS = {"kind", "kernel", "backend", "workers", "jobs", "repeats"}

# (substring, deterministic, higher_is_better) — first match wins.
METRIC_RULES = [
    ("hit_rate", True, True),
    ("cache_hits", True, True),
    ("cache_misses", True, False),
    ("speedup_pct", True, True),   # fig9: derived from cycle counts
    ("cycles", True, False),
    ("busy", True, False),
    ("routed", True, True),        # routed operands replace permutations
    ("instructions", True, False),
    ("trace_ops", True, False),    # native ops a replay dispatches
    # Service soak: admission / divergence counts are deterministic for a
    # fixed (connections, requests, probes) invocation and gate hard;
    # latency percentiles and throughput are wall-clock like every *_ms.
    ("ok_responses", True, True),
    ("divergent", True, False),
    ("transport_failures", True, False),
    ("not_shed", True, False),     # must precede the shed_responses rule
    ("shed_responses", True, False),
    ("occupier_completed", True, True),
    ("jobs_per_s", False, True),
    ("speedup", False, True),      # wall-derived speedups
    ("cold_over_warm", False, True),
    ("_ms", False, False),
    ("_us", False, False),
    ("_rps", False, True),
]


def classify(name):
    for sub, deterministic, higher in METRIC_RULES:
        if sub in name:
            return deterministic, higher
    return False, False  # unknown: warn-only, lower-better


def record_id(rec):
    parts = []
    for key, val in rec.items():
        if key in ID_KEYS or isinstance(val, str):
            parts.append(f"{key}={val}")
    return " ".join(parts) or "<record>"


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def compare_file(name, base, cur, threshold, rows):
    failures = []
    cur_by_id = {}
    for rec in cur.get("records", []):
        cur_by_id.setdefault(record_id(rec), rec)
    for rec in base.get("records", []):
        rid = record_id(rec)
        crec = cur_by_id.get(rid)
        if crec is None:
            failures.append(f"{name}: record '{rid}' missing from current run")
            rows.append((name, rid, "<record>", "-", "missing", "-", "FAIL"))
            continue
        for key, bval in rec.items():
            if key in ID_KEYS or isinstance(bval, str):
                continue
            cval = crec.get(key)
            deterministic, higher = classify(key)
            if not isinstance(bval, (int, float)):
                # Baseline has no measurement (optional metric, e.g. cycle
                # stats on a cycle-less backend): nothing to regress from.
                continue
            if not isinstance(cval, (int, float)):
                # Baseline measured it, current run lost it. For a
                # deterministic metric that is a gate failure, not a skip —
                # silently dropping cycle counts is exactly how a backend
                # mix-up would try to sneak past the gate.
                status = "FAIL" if deterministic else "warn"
                if status == "FAIL":
                    failures.append(
                        f"{name}: {rid} {key} vanished "
                        f"(baseline {bval:g}, current null/missing)")
                rows.append((name, rid, key, f"{bval:g}", "null", "-",
                             status))
                continue
            if bval == 0:
                if cval == 0:
                    status, delta = "ok", "-"
                elif deterministic and not higher:
                    # A lower-is-better metric appearing against a zero
                    # baseline is an unbounded regression, not "new"
                    # (reported through the shared FAIL path below).
                    status, delta = "FAIL", "+inf%"
                else:
                    status, delta = "new", "-"
            else:
                rel = (cval - bval) / abs(bval)
                delta = f"{100.0 * rel:+.1f}%"
                worse = rel < -threshold if higher else rel > threshold
                improved = rel > threshold if higher else rel < -threshold
                if worse:
                    status = "FAIL" if deterministic else "warn"
                elif improved:
                    status = "improved"
                else:
                    status = "ok"
            if status == "FAIL":
                failures.append(
                    f"{name}: {rid} {key} regressed {delta} "
                    f"(baseline {bval:g}, current {cval:g})")
            if status != "ok":
                rows.append((name, rid, key, f"{bval:g}", f"{cval:g}", delta,
                             status))
    return failures


def render(rows):
    lines = ["### Perf trajectory vs checked-in baselines", ""]
    if not rows:
        lines.append("All tracked metrics within threshold of baseline.")
        return "\n".join(lines) + "\n"
    lines.append("| bench | record | metric | baseline | current | delta "
                 "| status |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression threshold (default 0.15)")
    ap.add_argument("--summary", help="markdown file to append the table to")
    args = ap.parse_args()

    baselines = sorted(f for f in os.listdir(args.baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline_dir}")
        return 1

    rows = []
    failures = []
    for name in baselines:
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.exists(cur_path):
            failures.append(f"{name}: not produced by the current run")
            rows.append((name, "-", "-", "-", "missing", "-", "FAIL"))
            continue
        failures += compare_file(name, load(os.path.join(args.baseline_dir,
                                                         name)),
                                 load(cur_path), args.threshold, rows)

    table = render(rows)
    print(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write(table + "\n")

    if failures:
        print("Deterministic perf regressions beyond threshold:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"checked {len(baselines)} bench file(s): "
          "no deterministic regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
