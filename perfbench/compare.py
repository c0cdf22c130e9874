#!/usr/bin/env python3
"""Compare two sets of benchmark reports (perfbench/README.md).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are report files or directories of them, as run.py writes
to .bench_out/reports/.  Runs are compared only when every report on
both sides carries the same host fingerprint (cores, CPU model, compiler,
build type); otherwise the comparison is refused with exit code 2.

For each (workload, trace mode, metric) the script prints both medians,
their quartile spreads and the change, and flags an end-to-end metric
whose NEW median is worse than BASE by more than its BENCHMARK.json
bound (exit code 1).
"""
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_reports(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    reports = []
    for f in files:
        r = json.loads(f.read_text())
        if "host" in r and "result" in r:
            reports.append(r)
    if not reports:
        raise SystemExit(f"compare: no reports under {path}")
    return reports


def hosts(reports):
    return {json.dumps(r["host"], sort_keys=True) for r in reports}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def group(reports):
    out = {}
    for r in reports:
        if r.get("smoke"):
            continue
        for name, m in r["result"]["metrics"].items():
            key = (r["workload"], r["trace"], name)
            out.setdefault(key, []).append(m["value"])
    return out


def compare(base, new, bench):
    """Returns (exit code, report lines)."""
    hb, hn = hosts(base), hosts(new)
    if len(hb) != 1 or hb != hn:
        return 2, ["compare: refusing to compare runs from different hosts:",
                   *sorted(hb | hn)]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    gb, gn = group(base), group(new)
    lines = [f"host {next(iter(hb))}"]
    worse = False
    for key in sorted(set(gb) & set(gn)):
        workload, trace, name = key
        mb, mn = statistics.median(gb[key]), statistics.median(gn[key])
        change = (mn - mb) / mb if mb else 0.0
        flag = ""
        if name in e2e and mb:
            m = e2e[name]
            loss = change if m["better"] == "lower" else -change
            if loss > m["bound"]:
                flag = "  WORSE THAN BOUND"
                worse = True
        lines.append(
            f"{workload:20s} t{trace} {name:32s} base {mb:<12.6g} "
            f"(iqr {spread(gb[key]):.3f}, n={len(gb[key])})  new {mn:<12.6g} "
            f"(iqr {spread(gn[key]):.3f}, n={len(gn[key])})  {change:+.2%}{flag}")
    return (1 if worse else 0), lines


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    code, lines = compare(load_reports(argv[1]), load_reports(argv[2]), bench)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
