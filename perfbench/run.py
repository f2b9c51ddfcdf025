"""syzkit benchmark: one process, one closed-loop client.

One client runs a workload's fixed op list through `syzkit.cli.main(argv)`
in-process with stdout captured; each op starts after the previous one
returns.  Passes over the op list repeat until the measurement time is used.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --freeze-digests

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  `--trace 1` runs untraced passes for half the time, then traced
passes, and reports the per-layer metrics; it also prints the end-to-end
metrics and the top-span checks.  Every op's output is checked by the oracle
in workloads.py and, on the default seed, against frozen SHA-256 digests.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Each run writes a record to perfbench/results/runs/
and a traced run writes its spans to perfbench/results/traces/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "syzkit")):
    # never measure an installed copy instead of this checkout's source
    sys.exit("perfbench: src/syzkit not found; run from a syzkit checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import syzkit.cli  # noqa: E402

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
RESULTS = os.path.join(HERE, "results")
OP_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0     # ops not started by then are recorded as timeouts
SETUP_REPEATS = 11


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; BaseException so that no handler in
    the program under test swallows it."""


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def call_op(argv, timeout):
    """(exit code or None, stdout, error or None, seconds) of one CLI call."""
    buf = io.StringIO()
    running = [True]

    def alarm(signum, frame):
        if running[0]:
            raise OpTimeout()

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    rc = err = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = syzkit.cli.main(argv)
        running[0] = False
    except OpTimeout:
        err = f"timeout after {timeout:.0f}s"
    except (Exception, SystemExit) as exc:
        err = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        running[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return rc, buf.getvalue(), err, elapsed


class Runner:
    """Runs passes over one op list and judges every op."""

    def __init__(self, ops, digests=None):
        self.ops = ops
        self.digests = digests
        self.t0 = perf_counter()
        self.attempted = 0
        self.failures = []      # (pass, op index, reason)
        self.passes = 0

    def run_pass(self, trace=None):
        """(wall seconds, per-op seconds, (stages kept, attempts))."""
        lat = []
        kept = attempts = 0
        start = perf_counter()
        for i, op in enumerate(self.ops):
            self.attempted += 1
            left = HARD_LIMIT_S - (perf_counter() - self.t0)
            if left <= 0:
                self.failures.append((self.passes, i, "timeout: run limit"))
                lat.append(0.0)
                continue
            if trace is not None:
                trace.op = f"{self.passes}:{i}"
            rc, out, err, dt = call_op(op["argv"], min(OP_TIMEOUT_S, left))
            lat.append(dt)
            problem, report = (err, None) if err else \
                workloads.check(op, rc, out)
            if problem is None and self.digests is not None:
                if hashlib.sha256(out.encode()).hexdigest() != self.digests[i]:
                    problem = "stdout differs from the frozen digest"
            if problem is not None:
                self.failures.append((self.passes, i, problem))
            k, a = workloads.stage_counts(report)
            kept += k
            attempts += a
        self.passes += 1
        return perf_counter() - start, lat, (kept, attempts)

    def run_for(self, budget, traced=False):
        """Passes until the next one would overrun budget (at least one)."""
        walls, lats, counts, spans = [], [], [], []    # lats: one list a pass
        start = perf_counter()
        while True:
            if not traced:
                wall, lat, cnt = self.run_pass()
            else:
                with tracer.Tracer() as t:
                    wall, lat, cnt = self.run_pass(t)
                spans.append(t.spans)
            walls.append(wall)
            lats.append(lat)
            counts.append(cnt)
            used = perf_counter() - start
            if used + statistics.median(walls) > budget or \
                    perf_counter() - self.t0 > HARD_LIMIT_S:
                return walls, lats, counts, spans


def measure_setup(repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter importing syzkit.cli and
    building its parser, after one untimed start that writes bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c",
           "import syzkit.cli as c; c.build_parser()"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)
    times = []
    for _ in range(repeats):
        t = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(perf_counter() - t)
    return statistics.median(times), times


def git_sha():
    """HEAD commit read from .git without running git; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_wall(lats):
    """One pass's wall time from per-op medians across passes: a slow spell
    of the machine during one pass does not move it."""
    return sum(statistics.median(op) for op in zip(*lats))


def end_to_end(lats, setup_s, rss):
    flat = [x for lat in lats for x in lat]
    return {
        "wall_s": pass_wall(lats),
        "latency_p50_s": statistics.median(flat),
        "latency_p90_s": statistics.quantiles(
            flat, n=10, method="inclusive")[-1] if len(flat) > 1 else flat[0],
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def per_layer(names, spans_by_pass, counts, traced_lats, wall_untraced):
    """Medians over the traced passes, and the tracing overhead."""
    names = [n for n in names if n != "trace.overhead_frac"]
    per_pass = [tracer.layer_metrics(spans, *cnt, names)
                for spans, cnt in zip(spans_by_pass, counts)]
    out = {k: statistics.median(p[k] for p in per_pass) for k in names}
    out["trace.overhead_frac"] = pass_wall(traced_lats) / wall_untraced - 1
    return out


def run(workload, seed, seconds, trace, digests=None, ops=None):
    """One benchmark run; returns the run record.  ops replaces the
    workload's op list (the self-test runs one op per workload)."""
    load_before = os.getloadavg()
    started = time.time()
    setup_s, setup_samples = measure_setup()
    ops = ops or workloads.make_ops(workload, seed)
    runner = Runner(ops, digests)
    budget = seconds / 2 if trace else seconds
    walls, lats, _, _ = runner.run_for(budget)
    rss = peak_rss_mb()
    e2e = end_to_end(lats, setup_s, rss)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "started": started,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "ops_per_pass": len(ops), "untraced_passes": len(walls),
        "latency_samples": len(ops) * len(lats),
        "setup_samples": setup_samples,
        "pass_walls": walls, "op_latencies": lats,
        "digests_checked": digests is not None,
    }
    metrics = e2e
    if trace:
        untraced_used = sum(walls)
        t_walls, t_lats, counts, spans = runner.run_for(
            max(seconds - untraced_used, 0), traced=True)
        layers = per_layer([m["name"] for m in load_benchmark()["per_layer"]],
                           spans, counts, t_lats, e2e["wall_s"])
        checks = tracer.top_span_checks(workload, spans[0], t_walls[0])
        record.update({"traced_passes": len(t_walls),
                       "traced_pass_walls": t_walls,
                       "top_span_checks": checks})
        metrics = dict(e2e, **layers)
        os.makedirs(os.path.join(RESULTS, "traces"), exist_ok=True)
        trace_file = os.path.join(
            RESULTS, "traces", f"{workload}-s{seed}-{time.time_ns()}.jsonl")
        tracer.write_trace(trace_file, spans)
        record["trace_file"] = os.path.relpath(trace_file, ROOT)
    record.update({
        "attempted": runner.attempted, "failed": len(runner.failures),
        "fail_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:50],
        "loadavg_after": os.getloadavg(),
        "metrics": metrics,
    })
    os.makedirs(os.path.join(RESULTS, "runs"), exist_ok=True)
    with open(os.path.join(RESULTS, "runs", f"{workload}-s{seed}-t{trace}-"
                           f"{time.time_ns()}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_lines(record, bench):
    """Every metric of the record by name with its unit, then the checks."""
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"ops/pass {record['ops_per_pass']}  untraced passes "
             f"{record['untraced_passes']}  latency samples "
             f"{record['latency_samples']}  fail_frac {record['fail_frac']}"]
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] in record["metrics"]:
            lines.append(f"  {m['name']:<42} {record['metrics'][m['name']]:>14.6g}"
                         f" {m['unit']}")
    for claim, ok, detail in record.get("top_span_checks", []):
        lines.append(f"  check {'PASS' if ok else 'FAIL'}: {claim} ({detail})")
    for p, i, reason in record["failures"]:
        lines.append(f"  failed op {i} in pass {p}: {reason}")
    return lines


def result_line(record, bench):
    names = bench["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in names},
    })


def load_digests(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload)


def freeze_digests():
    """Run every workload's op list once at the default seed and store the
    SHA-256 of each op's stdout; refuses if any op fails the oracle."""
    frozen = {}
    for wl in workloads.WORKLOADS:
        digests = []
        for op in workloads.make_ops(wl, DEFAULT_SEED):
            rc, out, err, _ = call_op(op["argv"], OP_TIMEOUT_S)
            problem = err or workloads.check(op, rc, out)[0]
            if problem:
                raise SystemExit(f"{wl} {op['argv']}: {problem}")
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        frozen[wl] = digests
    with open(DIGESTS, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--freeze-digests", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    bench = load_benchmark()
    if args.compare:
        rows = compare.compare(compare.load_records(args.compare[0]),
                               compare.load_records(args.compare[1]),
                               bench["end_to_end"])
        print(compare.format_rows(rows))
        return 0
    if args.freeze_digests:
        freeze_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    record = run(args.workload, args.seed, seconds, args.trace,
                 load_digests(args.workload, args.seed))
    for line in report_lines(record, bench):
        print(line)
    print(result_line(record, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
