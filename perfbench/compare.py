"""Compare two sets of run records (parent and change), one row per workload
per end-to-end metric, with the verdict rule of the choosing-metrics guide
section 8 and the bounds fixed in BENCHMARK.json."""

import glob
import json
import os
import statistics

MIN_PAIRS = 10      # pairs needed before a gain may be claimed
WIN_SHARE = 0.9     # share of pairs the change must win to claim a gain


def load_records(folder):
    """The untraced run records in a folder."""
    out = []
    for f in sorted(glob.glob(os.path.join(folder, "*.json"))):
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            out.append(rec)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better=True):
    """(verdict, share of pairs won by the change) for one metric.

    Pairs are the i-th runs of each side in start order, which alternate
    when the two sides were run alternately.  Ties count for neither side.
    """
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    won = wins / len(pairs)
    gain = sign * (pm - cm)               # positive when the change is better
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    if len(pairs) >= MIN_PAIRS and won >= WIN_SHARE and gain > p3 - p1:
        return "improved", won
    if spread > bound and not all_better:
        return "unresolved", won
    if -gain / pm > bound:
        return "worse", won
    return "no worse", won


def compare(parent_records, change_records, metrics):
    """Rows of (workload, metric, parent quartiles, change quartiles, ratio,
    pairs won, verdict); metrics is BENCHMARK.json's end_to_end list."""
    rows = []
    workloads = sorted({r["workload"] for r in parent_records}
                       & {r["workload"] for r in change_records})
    for wl in workloads:
        ps = sorted((r for r in parent_records if r["workload"] == wl),
                    key=lambda r: r["started"])
        cs = sorted((r for r in change_records if r["workload"] == wl),
                    key=lambda r: r["started"])
        for m in metrics:
            pv = [r["metrics"][m["name"]] for r in ps]
            cv = [r["metrics"][m["name"]] for r in cs]
            v, won = verdict(pv, cv, m["bound"], m["better"] == "lower")
            rows.append((wl, m["name"], m["unit"], quartiles(pv),
                         quartiles(cv), quartiles(cv)[1] / quartiles(pv)[1],
                         won, len(pv), len(cv), v))
    return rows


def format_rows(rows):
    lines = [f"{'workload':<17} {'metric':<14} {'parent q1/med/q3':<30} "
             f"{'change q1/med/q3':<30} {'change/parent':>13} {'won':>5} "
             f"{'runs':>7}  verdict"]
    for wl, name, unit, pq, cq, ratio, won, np_, nc, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q) + f" {unit}"
        lines.append(f"{wl:<17} {name:<14} {fmt(pq):<30} {fmt(cq):<30} "
                     f"{ratio:>13.3f} {won:>5.0%} {f'{np_}/{nc}':>7}  {v}")
    return "\n".join(lines)
