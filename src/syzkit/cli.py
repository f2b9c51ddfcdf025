"""Command-line frontend: chain building, verification suites, Butler tables.

JSON output is deterministic (sorted keys, no timestamps, the run config
echoed back), so identical (config, seed) pairs produce byte-identical
reports.  Text output is a human rendering of the same data and is not a
stable interface.  Every failure exits nonzero with a machine-readable
payload {code, message, details?, hint?} on stdout, except an argparse
usage error (an unknown subcommand, suite or builtin, a missing or
malformed option): it exits 2 with usage text on stderr and no payload.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache

from .chow import ChernVector, ChowClass, bezout_h2, c_from_ch, ch_from_c
from .curves import CurveBundleInvariants, butler_kernel_invariants
from .errors import InputError, SyzkitError
from .fields import DEFAULT_PRIME
from .resolver import build_chain, genericity_experiment, uniformity_experiment
from .schemes import (BUILTIN_NAMES, Polarization, builtin_subscheme,
                      parse_subscheme_file)

_HINTS = {
    "threshold": "raise --m (or drop it to let the twist scan pick one)",
    "genericity-failure": "rerun with a different --seed or a larger prime",
}


def _env_prime():
    value = os.environ.get("SYZKIT_PRIME", DEFAULT_PRIME)
    try:
        return int(value)
    except ValueError:
        raise InputError("SYZKIT_PRIME is not an integer", value=value) from None


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    return str(x)


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
    else:
        _emit_text(report)


def _emit_text(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for k, v in report.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {_jsonable(v)}")
    elif isinstance(report, list):
        for v in report:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}{_jsonable(v)}")
    else:
        print(f"{pad}{_jsonable(report)}")


def _load_subscheme(args):
    if args.builtin:
        z, default_d = builtin_subscheme(args.builtin)
        d = args.d if args.d is not None else default_d
        return z, Polarization(z.n, d)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc.strerror}",
                         path=args.input) from None
    except UnicodeDecodeError as exc:
        raise InputError("input file is not UTF-8 text", path=args.input,
                         offset=exc.start) from None
    z, pol = parse_subscheme_file(text)
    if args.d is not None:
        pol = Polarization(pol.n, args.d)
    return z, pol


def cmd_resolve(args):
    z, pol = _load_subscheme(args)
    m_list = args.m if args.m else None
    chain = build_chain(z, pol, mode=args.mode, seed=args.seed, p=args.p,
                        m_list=m_list, policy=args.policy)
    report = chain.report()
    report["config"] = _config_echo(args, command="resolve")
    _emit(report, args.format)
    return 0


def cmd_verify(args):
    for name in ("trials", "points", "r", "n", "v"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise InputError(f"--{name} must be at least 1", **{name: value})
    if args.suite == "whitney":
        report = _whitney_suite(args.trials, args.seed)
    elif args.suite == "genericity":
        if args.r is None or args.n is None or args.v is None:
            raise InputError("genericity needs --r, --n and --v")
        report = genericity_experiment(args.r, args.n, args.v,
                                       trials=args.trials, seed=args.seed,
                                       p=args.p)
        report["pass"] = report["failures"] == 0
    elif args.suite == "uniformity":
        if args.d is None or args.m is None:
            raise InputError("uniformity needs --d and --m")
        report = uniformity_experiment(args.d, args.m,
                                       num_points=args.points,
                                       seed=args.seed, p=args.p)
        report["pass"] = report["identical"]
    elif args.suite == "bezout":
        if args.m1 is None or args.m2 is None:
            raise InputError("bezout needs --m1 and --m2")
        a, b = bezout_h2(args.m1, args.m2)
        report = {"suite": "bezout", "m1": args.m1, "m2": args.m2,
                  "coefficients": [a, b],
                  "identity": f"{a}*({args.m1}^2-1) + {b}*({args.m2}^2-1) = 1",
                  "pass": True}
    else:
        raise InputError(f"unknown verify suite '{args.suite}'",
                         known=["whitney", "genericity", "uniformity", "bezout"])
    report["config"] = _config_echo(args, command="verify")
    _emit(report, args.format)
    return 0 if report["pass"] else 1


def _whitney_suite(trials, seed, n=3):
    """Random exact triples: multiplicativity of total Chern classes under
    direct sum checked through the character map, plus the c <-> ch
    roundtrip, both in exact arithmetic."""
    rng = random.Random(f"whitney:{seed}")
    failures = 0
    for _ in range(trials):
        factors = []
        for _ in range(2):
            rank = rng.randrange(1, 4)
            coeffs = [Fraction(1)] + [Fraction(rng.randrange(-5, 6))
                                      for _ in range(n)]
            factors.append(ChernVector(rank, ChowClass(n, coeffs)))
        ca, cb = factors
        if c_from_ch(ch_from_c(ca)) != ca or c_from_ch(ch_from_c(cb)) != cb:
            failures += 1
            continue
        whitney = c_from_ch(ch_from_c(ca) + ch_from_c(cb))
        if (whitney.rank != ca.rank + cb.rank
                or whitney.total != ca.total * cb.total):
            failures += 1
    return {"suite": "whitney", "trials": trials, "seed": seed,
            "failures": failures, "pass": failures == 0}


def cmd_butler(args):
    e = CurveBundleInvariants(args.g, args.r, args.deg, semistable=True)
    m = butler_kernel_invariants(e)
    report = {
        "input": {"genus": e.genus, "rank": e.rank, "degree": e.degree,
                  "slope": str(e.slope), "h0": e.h0},
        "kernel": {"rank": m.rank, "degree": m.degree,
                   "slope": str(m.slope), "stable_by_butler": m.stable_by_butler},
        "config": _config_echo(args, command="butler"),
    }
    _emit(report, args.format)
    return 0


def _config_echo(args, command):
    keep = ("builtin", "input", "d", "m", "mode", "policy", "p", "seed",
            "format", "suite", "trials", "r", "n", "v", "points",
            "m1", "m2", "g", "deg")
    cfg = {"command": command}
    for k in keep:
        if hasattr(args, k) and getattr(args, k) is not None:
            cfg[k] = getattr(args, k)
    return cfg


@cache
def build_parser():
    """The argument parser, built once per process.  --p defaults to None:
    main reads SYZKIT_PRIME on each call."""
    parser = argparse.ArgumentParser(
        prog="syzkit",
        description="exact evaluation-kernel resolutions of ideal sheaves "
                    "on projective space, with verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int,
                        help="prime for generic sampling (default: env "
                             f"SYZKIT_PRIME, else {DEFAULT_PRIME})")
        sp.add_argument("--seed", default="0", help="seed string")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    rp = sub.add_parser("resolve", help="build a kernel chain and its report")
    src = rp.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_NAMES)
    src.add_argument("--input", help="subscheme description file")
    rp.add_argument("--d", type=int, help="polarization degree (L = O(d))")
    rp.add_argument("--m", type=int, action="append",
                    help="twist per stage; repeat for later stages; "
                         "omit for the automatic scan")
    rp.add_argument("--mode", choices=("numeric", "module"), default="numeric")
    rp.add_argument("--policy", choices=("auto", "curve-sections", "full"),
                    default="auto")
    common(rp)
    rp.set_defaults(func=cmd_resolve)

    vp = sub.add_parser("verify", help="run a named verification suite")
    vp.add_argument("suite",
                    choices=("whitney", "genericity", "uniformity", "bezout"))
    vp.add_argument("--trials", type=int, default=100)
    vp.add_argument("--r", type=int, help="bundle rank (genericity)")
    vp.add_argument("--n", type=int, help="ambient dimension (genericity)")
    vp.add_argument("--v", type=int, help="section-space dimension (genericity)")
    vp.add_argument("--d", type=int, help="polarization degree (uniformity)")
    vp.add_argument("--m", type=int, help="twist (uniformity)")
    vp.add_argument("--points", type=int, default=10,
                    help="sample size (uniformity)")
    vp.add_argument("--m1", type=int, help="first twist (bezout)")
    vp.add_argument("--m2", type=int, help="second twist (bezout)")
    common(vp)
    vp.set_defaults(func=cmd_verify)

    bp = sub.add_parser("butler", help="kernel-bundle invariants on a curve")
    bp.add_argument("--g", type=int, required=True, help="genus")
    bp.add_argument("--r", type=int, required=True, help="rank of E")
    bp.add_argument("--deg", type=int, required=True, help="degree of E")
    common(bp)
    bp.set_defaults(func=cmd_butler)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.p is None:
            args.p = _env_prime()
        return args.func(args)
    except SyzkitError as exc:
        payload = exc.payload()
        if exc.code in _HINTS:
            payload["hint"] = _HINTS[exc.code]
        print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
        return 1


if __name__ == "__main__":
    sys.exit(main())
