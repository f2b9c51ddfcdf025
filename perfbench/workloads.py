"""Workload op lists and the correctness oracle.

Every op is one documented `syzkit` CLI call, given as an argv list plus the
facts the oracle needs to judge its output.  The op list of a workload is a
pure function of the workload seed; input files are written under
`perfbench/results/inputs/` so that the program only sees generated argv
and files.
"""

import json
import os
import random
from fractions import Fraction

BUILTINS = ("three-points", "collinear-points", "one-point", "empty",
            "line-p3", "twisted-cubic")

# (ambient, default d, degree of Z) of each builtin, known independently
# of the program.
BUILTIN_FACTS = {
    "three-points": (2, 3, 3),
    "collinear-points": (2, 3, 3),
    "one-point": (2, 1, 1),
    "empty": (2, 1, 0),
    "line-p3": (3, 2, 1),
    "twisted-cubic": (3, 2, 3),
}

# builtins-numeric: rounds of all six builtins; 36 ops give >= 100 latency
# samples over the passes of one run.
NUMERIC_ROUNDS = 6

# points-p2: ten reduced 8-point sets in P^2 with d = 3, all resolving at
# m = 2.  One set costs about 1.3 s and varies by about 10% between random
# sets, so ten keep the seed-to-seed spread of a pass near 3%.  Larger sets
# are deferred (see layer_map.json): 9 points vary by 15% between sets and
# 10 points by 35%, which would sit at the latency_p90_s tail, and 11 or 12
# points take 8-13 s each.
POINT_SET_SIZES = (8,) * 10
COORD_RANGE = (-9, 9)

# module-p2: (builtin, d, m, branch).  The first four fit the syzygy
# presentation (dimV <= 12) and run the Fitting certificate; the last four
# take the degreewise kernel-generator branch.
MODULE_CONFIGS = (
    ("empty", 1, 2, "locally-free"),
    ("three-points", 1, 3, "locally-free"),
    ("collinear-points", 1, 3, "locally-free"),
    ("empty", 2, None, "locally-free"),
    ("empty", 1, 4, "inconclusive"),
    ("empty", 2, 2, "inconclusive"),
    ("one-point", 2, 2, "inconclusive"),
    ("one-point", 1, 4, "inconclusive"),
)

# genericity-fp: positive controls (v >= r + n) and all-fail negative
# controls.  Positive controls sample over a prime near 2^30: at the default
# p = 32003 about one positive op in a hundred draws a degenerate section
# space and legitimately reports a failure, while near 2^30 that chance is
# about 3e-5 of it.  Negative controls fail on every trial whatever the
# prime, so they keep the default prime and use fewer trials.
GENERICITY_POSITIVE = ((1, 1, 2), (1, 2, 3), (2, 2, 4), (2, 3, 5), (3, 3, 6))
GENERICITY_NEGATIVE = ((1, 2, 2), (3, 2, 4), (4, 2, 5))
POSITIVE_PRIME = 1073741789
POSITIVE_TRIALS = 100
NEGATIVE_TRIALS = 25

INPUT_DIR = os.path.join("perfbench", "results", "inputs")


def builtins_numeric(seed):
    rng = random.Random(f"builtins-numeric:{seed}")
    ops = []
    for _ in range(NUMERIC_ROUNDS):
        s = str(rng.randrange(10 ** 6))
        for name in BUILTINS:
            ambient, d, degree = BUILTIN_FACTS[name]
            ops.append({"argv": ["resolve", "--builtin", name, "--seed", s],
                        "kind": "resolve", "ambient": ambient, "d": d,
                        "degree": degree, "mode": "numeric"})
    return ops


def random_points(rng, count):
    """count distinct projective points with integer coordinates."""
    lo, hi = COORD_RANGE
    seen = set()
    out = []
    while len(out) < count:
        p = tuple(rng.randint(lo, hi) for _ in range(3))
        if not any(p):
            continue
        lead = next(c for c in p if c)
        key = tuple(Fraction(c, lead) for c in p)
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


def points_p2(seed):
    rng = random.Random(f"points-p2:{seed}")
    folder = os.path.join(INPUT_DIR, f"points-p2-{seed}")
    os.makedirs(folder, exist_ok=True)
    ops = []
    for i, size in enumerate(POINT_SET_SIZES):
        pts = random_points(rng, size)
        path = os.path.join(folder, f"set{i}.txt")
        lines = ["ambient: 2", "d: 3", "points:"]
        lines += [" ".join(str(c) for c in p) for p in pts]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        ops.append({"argv": ["resolve", "--input", path,
                             "--seed", str(rng.randrange(10 ** 6))],
                    "kind": "resolve", "ambient": 2, "d": 3,
                    "degree": size, "mode": "numeric"})
    return ops


def module_p2(seed):
    rng = random.Random(f"module-p2:{seed}")
    ops = []
    for name, d, m, branch in MODULE_CONFIGS:
        argv = ["resolve", "--builtin", name, "--d", str(d),
                "--mode", "module", "--seed", str(rng.randrange(10 ** 6))]
        if m is not None:
            argv += ["--m", str(m)]
        ops.append({"argv": argv, "kind": "resolve", "ambient": 2, "d": d,
                    "degree": BUILTIN_FACTS[name][2], "mode": "module",
                    "branch": branch})
    return ops


def genericity_fp(seed):
    rng = random.Random(f"genericity-fp:{seed}")
    ops = []
    for positive, configs in ((True, GENERICITY_POSITIVE),
                              (False, GENERICITY_NEGATIVE)):
        trials = POSITIVE_TRIALS if positive else NEGATIVE_TRIALS
        for r, n, v in configs:
            argv = ["verify", "genericity", "--r", str(r), "--n", str(n),
                    "--v", str(v), "--trials", str(trials),
                    "--seed", str(rng.randrange(10 ** 6))]
            if positive:
                argv += ["--p", str(POSITIVE_PRIME)]
            ops.append({"argv": argv, "kind": "genericity", "r": r, "n": n,
                        "v": v, "trials": trials, "positive": positive})
    return ops


WORKLOADS = {
    "builtins-numeric": builtins_numeric,
    "points-p2": points_p2,
    "module-p2": module_p2,
    "genericity-fp": genericity_fp,
}


def make_ops(workload, seed):
    return WORKLOADS[workload](seed)


# -- oracle --------------------------------------------------------------------


def check(op, rc, out):
    """(problem, report): problem is None when the output meets every
    invariant the benchmark computes itself for this op."""
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document", None
    if op["kind"] == "genericity":
        return _check_genericity(op, rc, report), report
    return _check_resolve(op, rc, report), report


def _check_genericity(op, rc, rep):
    if op["positive"]:
        want_rc, want_failures, want_met = 0, 0, True
    else:
        want_rc, want_failures, want_met = 1, op["trials"], False
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc} ({rep.get('code')})"
    got = (rep.get("r"), rep.get("n"), rep.get("v"), rep.get("trials"))
    if got != (op["r"], op["n"], op["v"], op["trials"]):
        return f"report echoes (r, n, v, trials) = {got}"
    if rep.get("failures") != want_failures:
        return f"failures {rep.get('failures')}, expected {want_failures}"
    if rep.get("hypothesis_met") is not want_met:
        return f"hypothesis_met {rep.get('hypothesis_met')}"
    if rep.get("pass") is not op["positive"]:
        return f"pass {rep.get('pass')}"
    return None


def _check_resolve(op, rc, rep):
    if rc != 0:
        return f"exit code {rc} ({rep.get('code')})"
    n = op["ambient"]
    if (rep.get("ambient"), rep.get("d"), rep.get("mode")) != \
            (n, op["d"], op["mode"]):
        return "ambient, d or mode differs from the request"
    if rep.get("degree") != op["degree"]:
        return f"degree {rep.get('degree')}, expected {op['degree']}"
    if rep.get("identity_holds") is not True:
        return "identity_holds is not true"
    if rep.get("residual") != ["0"] * (n + 1):
        return f"residual {rep.get('residual')}"
    stages = rep.get("stages", [])
    if len(stages) != n - 1:
        return f"{len(stages)} stages on P^{n}"
    prev_rank = 1      # the rank of I_Z
    for st in stages:
        if st["rank"] != st["dimV"] - prev_rank:
            return f"stage {st['i']} rank {st['rank']} != dimV - {prev_rank}"
        prev_rank = st["rank"]
    if n == 2:
        md = stages[0]["m"] * op["d"]
        want = [1, -md, md * md - op["degree"]]
        if stages[0]["chern"] != want:
            return f"chern {stages[0]['chern']}, expected {want}"
    if "branch" in op:
        flags = stages[0]["flags"]
        if flags.get("locally_free") != op["branch"]:
            return f"locally_free {flags.get('locally_free')}"
        if op["branch"] == "locally-free" and \
                flags.get("locally_free_detail") != str(stages[0]["rank"]):
            return "Fitting certificate rank differs from the stage rank"
    return None


def stage_counts(report):
    """(stages kept, section draws attempted) read from report flags."""
    kept = attempts = 0
    for st in (report or {}).get("stages", []):
        if "attempts" in st.get("flags", {}):
            kept += 1
            attempts += st["flags"]["attempts"]
    return kept, attempts
