"""CLI surface: deterministic JSON reports, error payloads, exit codes."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from syzkit.cli import build_parser, main
from syzkit.fields import QQ
from syzkit.polyring import GradedPoly, PolyRing
from syzkit.schemes import points_ideal


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_resolve_reports_are_byte_identical(capsys):
    args = ("resolve", "--builtin", "one-point", "--d", "1", "--m", "1")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert json.loads(first)["stages"][0]["chern"] == [1, -1, 0]


def test_resolve_three_points_golden(capsys, monkeypatch):
    monkeypatch.delenv("SYZKIT_PRIME", raising=False)
    code, out = run(capsys, "resolve", "--builtin", "three-points")
    assert code == 0
    rep = json.loads(out)
    assert rep["ambient"] == 2
    assert rep["identity_holds"] is True
    s0 = rep["stages"][0]
    assert (s0["m"], s0["dimV"], s0["rank"]) == (2, 18, 17)
    assert s0["chern"] == [1, -6, 33]
    assert s0["slope"] == "-2/17"
    assert rep["config"] == {"command": "resolve", "builtin": "three-points",
                             "mode": "numeric", "policy": "auto", "p": 32003,
                             "seed": "0", "format": "json"}


def test_resolve_chain_on_p3(capsys):
    code, out = run(capsys, "resolve", "--builtin", "line-p3")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["stages"]) == 2
    assert rep["terminal"]["chern"] == [1, -1728, 1485953, -847837886]
    assert rep["residual"] == ["0", "0", "0", "0"]


def test_resolve_module_mode(capsys):
    code, out = run(capsys, "resolve", "--builtin", "one-point", "--d", "1",
                    "--m", "1", "--mode", "module")
    assert code == 0
    rep = json.loads(out)
    assert rep["stages"][0]["flags"]["locally_free"] == "locally-free"


def test_resolve_from_file(capsys, tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("# three reduced points\nambient: 2\nd: 3\npoints:\n"
                    "1 0 0\n0 1 0\n0 0 1\n")
    code, out = run(capsys, "resolve", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["subscheme"] == "custom"
    assert rep["stages"][0]["dimV"] == 18


def test_threshold_exit_and_hint(capsys):
    code, out = run(capsys, "resolve", "--builtin", "three-points", "--m", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["code"] == "threshold"
    assert payload["hint"] == ("raise --m (or drop it to let the twist "
                               "scan pick one)")
    assert payload["details"]["minimal_m"] == "2"


def test_verify_whitney(capsys):
    code, out = run(capsys, "verify", "whitney", "--trials", "25")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["failures"] == 0
    assert rep["trials"] == 25


def test_verify_genericity_pass_and_fail(capsys):
    code, out = run(capsys, "verify", "genericity", "--r", "1", "--n", "2",
                    "--v", "3", "--trials", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["failure_probability_bound"] == "10/32003"
    code, out = run(capsys, "verify", "genericity", "--r", "1", "--n", "2",
                    "--v", "2", "--trials", "10")
    assert code == 1
    assert json.loads(out)["failures"] == 10


def test_verify_genericity_missing_args(capsys):
    code, out = run(capsys, "verify", "genericity")
    assert code == 1
    assert json.loads(out)["code"] == "input"


def test_verify_bezout(capsys):
    code, out = run(capsys, "verify", "bezout", "--m1", "2", "--m2", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["coefficients"] == [12, -1]
    assert rep["identity"] == "12*(2^2-1) + -1*(6^2-1) = 1"
    assert rep["pass"] is True


def test_verify_bezout_gcd_failure(capsys):
    code, out = run(capsys, "verify", "bezout", "--m1", "2", "--m2", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["code"] == "coprimality"
    assert payload["details"]["gcd"] == "3"


def test_verify_uniformity(capsys):
    code, out = run(capsys, "verify", "uniformity", "--d", "3", "--m", "1",
                    "--points", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimV"] == 9
    assert rep["chern"] == [1, -3, 8]
    assert rep["pass"] is True


def test_butler_table(capsys):
    code, out = run(capsys, "butler", "--g", "1", "--r", "1", "--deg", "9")
    assert code == 0
    rep = json.loads(out)
    assert rep["input"]["h0"] == 9
    assert rep["kernel"] == {"rank": 8, "degree": -9, "slope": "-9/8",
                             "stable_by_butler": True}
    assert rep["config"]["command"] == "butler"


def test_butler_boundary_exit(capsys):
    code, out = run(capsys, "butler", "--g", "1", "--r", "1", "--deg", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["code"] == "hypothesis-violation"
    assert payload["details"]["margin"] == "0"
    assert "hint" not in payload


def test_env_prime_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("SYZKIT_PRIME", "101")
    code, out = run(capsys, "verify", "genericity", "--r", "1", "--n", "1",
                    "--v", "2", "--trials", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["p"] == 101
    assert rep["failure_probability_bound"] == "5/101"


def test_env_prime_is_read_on_each_call(capsys, monkeypatch):
    """main builds its parser once per process, and reads SYZKIT_PRIME when
    it is called."""
    echoed = []
    for prime in ("101", "103"):
        monkeypatch.setenv("SYZKIT_PRIME", prime)
        code, out = run(capsys, "butler", "--g", "2", "--r", "3", "--deg", "15")
        assert code == 0
        echoed.append(json.loads(out)["config"]["p"])
    assert echoed == [101, 103]
    assert build_parser() is build_parser()


def test_text_format(capsys):
    code, out = run(capsys, "butler", "--g", "2", "--r", "3", "--deg", "15",
                    "--format", "text")
    assert code == 0
    assert "kernel:" in out
    assert "slope: -5/3" in out


POINTS_HEADER = "ambient: 2\nd: 3\npoints:\n"


@pytest.mark.parametrize("argv, text, prime", [
    (["resolve", "--input", "FILE"], POINTS_HEADER + "1 0 0\n2 0 0\n0 1 0\n", None),
    (["resolve", "--input", "FILE"], "ambient: 2\nd: x\npoints:\n1 0 0\n", None),
    (["resolve", "--input", "FILE"], "ambient: x\nd: 3\npoints:\n1 0 0\n", None),
    (["resolve", "--input", "FILE"], POINTS_HEADER + "1 0 0\n0 1 a\n", None),
    (["resolve", "--input", "FILE"], POINTS_HEADER + "1 0 0\n0 1 1/0\n", None),
    (["resolve", "--input", "FILE"], None, None),
    (["verify", "whitney", "--trials", "5"], None, "abc"),
    (["verify", "whitney", "--trials", "-5"], None, None),
    (["verify", "genericity", "--r", "1", "--n", "2", "--v", "3",
      "--trials", "0"], None, None),
    (["verify", "genericity", "--r", "0", "--n", "2", "--v", "2"], None, None),
    (["verify", "genericity", "--r", "1", "--n", "0", "--v", "2"], None, None),
    (["verify", "genericity", "--r", "1", "--n", "2", "--v", "0"], None, None),
    (["verify", "uniformity", "--d", "3", "--m", "1", "--points", "0"],
     None, None),
], ids=["duplicate-points", "d-not-int", "ambient-not-int", "coord-not-rational",
        "coord-zero-denominator", "missing-file", "env-prime-not-int",
        "negative-trials", "zero-trials", "zero-r", "zero-n", "zero-v",
        "zero-points"])
def test_bad_input_exits_with_input_payload(capsys, monkeypatch, tmp_path,
                                           argv, text, prime):
    path = tmp_path / "z.txt"
    if text is not None:
        path.write_text(text)
    if prime is None:
        monkeypatch.delenv("SYZKIT_PRIME", raising=False)
    else:
        monkeypatch.setenv("SYZKIT_PRIME", prime)
    code, out = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 1
    assert json.loads(out)["code"] == "input"


def test_input_that_is_not_utf8_exits_with_input_payload(capsys, tmp_path):
    path = tmp_path / "z.txt"
    path.write_bytes(b"\xff\xfe" + "ambient: 2\n".encode("utf-16-le"))
    code, out = run(capsys, "resolve", "--input", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["code"] == "input"
    assert payload["message"] == "input file is not UTF-8 text"
    assert payload["details"] == {"offset": "0", "path": str(path)}


def test_zero_denominator_in_ideal_input_exits_with_parse_payload(
        capsys, tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("ambient: 2\nd: 3\nideal:\nx0*x1 - 1/0*x2^2\n")
    code, out = run(capsys, "resolve", "--input", str(path))
    assert code == 1
    assert json.loads(out) == {
        "code": "parse",
        "message": "coefficient 1/0 has a zero denominator in QQ"}


def test_unknown_suite_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])
    with pytest.raises(SystemExit):
        main(["resolve", "--builtin", "dodecahedron"])


def _random_points(seed, n, count):
    """count distinct projective points of P^n with integer coordinates in
    [-9, 9], drawn from the seed."""
    rng = random.Random(seed)
    seen, pts = set(), []
    while len(pts) < count:
        p = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        if not any(p):
            continue
        lead = next(c for c in p if c)
        key = tuple(Fraction(c, lead) for c in p)
        if key not in seen:
            seen.add(key)
            pts.append(p)
    return pts


def _random_point_file(seed, n, d, count):
    """The random points as a subscheme input file."""
    lines = [f"ambient: {n}", f"d: {d}", "points:"]
    lines += [" ".join(str(c) for c in p) for p in _random_points(seed, n, count)]
    return "\n".join(lines) + "\n"


def _random_ideal_file(seed, n, d, count):
    """The reduced Groebner basis of the random points' ideal as an input
    file with an `ideal:` section, which takes the Groebner saturation
    check instead of the point evaluations."""
    ring = PolyRing(QQ, n + 1)
    gb = points_ideal(ring, _random_points(seed, n, count)).gb
    lines = [f"ambient: {n}", f"d: {d}", "ideal:"] + [g.to_str() for g in gb]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,d,count", [(2, 3, 12), (3, 2, 9)],
                         ids=["P2-12-points", "P3-9-points"])
def test_points_resolve_never_evaluates_in_field_arithmetic(
        capsys, monkeypatch, tmp_path, n, d, count):
    """A points file meets its forms only through integer monomial-value
    tables: GradedPoly.evaluate is never reached."""
    def forbidden(self, point):
        raise AssertionError("GradedPoly.evaluate reached")

    monkeypatch.setattr(GradedPoly, "evaluate", forbidden)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.txt").write_text(_random_point_file(1, n, d, count))
    code, out = run(capsys, "resolve", "--input", "z.txt")
    assert code == 0, out
    assert json.loads(out)["identity_holds"] is True


def test_module_mode_rejects_points_in_p3_up_front(capsys, monkeypatch,
                                                   tmp_path):
    """For points Z in P^3, R/(I_Z + f_1) has finite length, so f_2 is a zero
    divisor on it for every seed: a hypothesis violation, not a reseed."""
    import syzkit.resolver as resolver

    def no_stage(*args, **kwargs):
        raise AssertionError("stage 0 was built")

    monkeypatch.setattr(resolver, "_build_kernel_stage", no_stage)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p3-5.txt").write_text(_random_point_file(1, 3, 2, 5))
    code, out = run(capsys, "resolve", "--input", "p3-5.txt", "--mode", "module")
    assert code == 1
    payload = json.loads(out)
    assert payload["code"] == "hypothesis-violation"
    assert "hint" not in payload


# stdout SHA-256 of these resolves, frozen before point schemes were answered
# from their evaluation data (each took about 28 s then)
@pytest.mark.parametrize("name,n,d,count,digest", [
    ("p2-20.txt", 2, 3, 20,
     "a6edea8f65c0539043f2f2f2aaff04a1f2af07be15e2d7ae59d33b41e6a1c672"),
    ("p3-8.txt", 3, 2, 8,
     "96f09a55f27b8dba6f092d553088ca6662d7fcdcbfff4edeb3f856e57e6af6c3"),
], ids=["P2-20-points", "P3-8-points"])
def test_random_point_set_reports_are_frozen(capsys, monkeypatch, tmp_path,
                                             name, n, d, count, digest):
    monkeypatch.delenv("SYZKIT_PRIME", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(_random_point_file(1, n, d, count))
    start = time.perf_counter()
    code, out = run(capsys, "resolve", "--input", name)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 15.0


# stdout SHA-256 of these resolves, frozen before Groebner bases were
# computed in integers: an `ideal:` input saturation-checked in Groebner
# bases (0.8-1.4 s then), and a module-mode Fitting certificate whose
# Buchberger run took 10-14 s
@pytest.mark.parametrize("name,text,argv,digest", [
    ("p2-15-ideal.txt", _random_ideal_file(1, 2, 3, 15), (),
     "1185a6280515e0a2dfb3cbab4dfa553ed09e267efaf0201f455b4943db758dcf"),
    ("p2-5-points.txt",
     "ambient: 2\nd: 2\npoints:\n-2 0 -6\n3 6 -5\n-7 -7 -9\n3 8 0\n-8 -2 7\n",
     ("--mode", "module"),
     "6c3950b63454ea2de110b72147499ce5d56ef5cbea6b99717f74989a701edfb8"),
], ids=["P2-15-points-ideal", "P2-5-points-module"])
def test_groebner_heavy_reports_are_frozen(capsys, monkeypatch, tmp_path,
                                           name, text, argv, digest):
    monkeypatch.delenv("SYZKIT_PRIME", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    start = time.perf_counter()
    code, out = run(capsys, "resolve", "--input", name, *argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 5.0


# stdout SHA-256 of these genericity runs, frozen before the F_p rows were
# packed and before degrees with fewer multiples than columns were skipped
@pytest.mark.parametrize("p,r,n,v,code,digest", [
    (32003, 3, 3, 6, 0,
     "d0c6dcef00241442029feb5e398af3ce6e866d6e5cb55cae72e5ce68773dcc5a"),
    (32003, 3, 2, 4, 1,
     "1c43b53193809aec5f5505a6efb7b3deffbd0341bee018e2fb1d1d12bb534ba3"),
    (32003, 4, 2, 5, 1,
     "c441842cc1563c3984d0ea5f6e5368317cc74bda99442a30f6d210cb68cfba4f"),
    (1073741789, 3, 3, 6, 0,
     "f6399ceaca70bf839d328e9955fc879994c84b2aa544168d3ef7d09bf107840a"),
    (1073741789, 3, 2, 4, 1,
     "522fcd7a85d03e802d0f345ec0cad3eb64e20d477b2d3c66d65819e94cad6a5f"),
    (1073741789, 4, 2, 5, 1,
     "51d5f3490ad747ed39328d76d7b33a4961412b8ec0784e6483a1978aa7619704"),
])
def test_genericity_reports_are_frozen(capsys, p, r, n, v, code, digest):
    rc, out = run(capsys, "verify", "genericity", "--r", str(r), "--n", str(n),
                  "--v", str(v), "--trials", "20", "--seed", "7", "--p", str(p))
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout SHA-256 of the eight seed-0 genericity-fp benchmark runs and of two
# small-prime runs that report failures (15 and 10 of 20), frozen before
# each trial ranked the x0-normal forms instead of the full matrix
@pytest.mark.parametrize("args,code,digest", [
    ("--r 1 --n 1 --v 2 --trials 100 --seed 963322 --p 1073741789", 0,
     "6b778b41fc00856e11a41b373952146e2d03a3d6fb5bcb8cc12060831bce79bc"),
    ("--r 1 --n 2 --v 3 --trials 100 --seed 575837 --p 1073741789", 0,
     "39345a0c8c4a5f76314c1b31b5871b4893b0a79332dbca4d68c1bbd2b5591776"),
    ("--r 2 --n 2 --v 4 --trials 100 --seed 917745 --p 1073741789", 0,
     "caea6b808af66e064ae32f7334a30adf14040ed5d59c020a53336d7ca838b513"),
    ("--r 2 --n 3 --v 5 --trials 100 --seed 381904 --p 1073741789", 0,
     "bab376a6f467ff78126c2edbc104187772e22fb1f4e623d6930a5af69e8f8c54"),
    ("--r 3 --n 3 --v 6 --trials 100 --seed 163217 --p 1073741789", 0,
     "54f1ebafc3881e56efe2c9f4c4205a46f1ead20646d11fb9d274903f589b9237"),
    ("--r 1 --n 2 --v 2 --trials 25 --seed 212563", 1,
     "54e4281db1099e804a667642c1a99ccadeffc9ef7fa14ffcfa32da0d8cc98b02"),
    ("--r 3 --n 2 --v 4 --trials 25 --seed 850820", 1,
     "cb06aba268456f06f1f6a6fd7d8b2a35b212e59e2c21c4862830fc8276ee7ba8"),
    ("--r 4 --n 2 --v 5 --trials 25 --seed 846623", 1,
     "90a451c665c0677759dfa0824bbb5781fa0614b4215e5a5b1c01637e8a967103"),
    ("--r 2 --n 2 --v 4 --trials 20 --seed 0 --p 2", 1,
     "c10cd6441010a65760100c6f19a512bc2b59d2e4d0a5edd9249a04512d339264"),
    ("--r 3 --n 3 --v 6 --trials 20 --seed 0 --p 3", 1,
     "308bada41a5a6accc25a300c7375cd1a163fa6db476ffb14b8062ebdc4004f17"),
])
def test_benchmark_and_small_prime_genericity_reports_are_frozen(
        capsys, monkeypatch, args, code, digest):
    monkeypatch.delenv("SYZKIT_PRIME", raising=False)
    rc, out = run(capsys, "verify", "genericity", *args.split())
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["resolve", "--builtin", "one-point"],
    ["resolve", "--builtin", "three-points"],
    ["verify", "genericity", "--r", "1", "--n", "2", "--v", "3", "--trials", "2"],
    ["verify", "uniformity", "--d", "3", "--m", "1", "--points", "2"],
], ids=["resolve-full-space", "resolve-sampled", "genericity", "uniformity"])
@pytest.mark.parametrize("prime", ["0", "4"])
def test_modulus_that_is_not_prime_is_rejected(capsys, argv, prime):
    code, out = run(capsys, *argv, "--p", prime)
    assert code == 1
    payload = json.loads(out)
    assert payload["code"] == "unsupported-field"
    assert payload["message"] == f"modulus {prime} is not prime"
