"""The reachability ledger: a CLI sweep that drives syzkit.cli.main in one
interpreter under sys.setprofile, and the functions of src/syzkit it never
calls.  Each of those has a reason in UNREACHED; a new unreached function
fails the test until it is deleted or given one, and so does an entry whose
function is gone or now runs.

A function is keyed by its module and qualified name, and found by its
first line as co_firstlineno gives it: the first decorator line of a
decorated function, else the def line."""

import ast
import json
import os
import pathlib
import subprocess
import sys

from test_cli import _random_ideal_file, _random_point_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "syzkit"

BUILTINS = ("three-points", "collinear-points", "one-point", "empty",
            "line-p3", "twisted-cubic")

ACCEPTANCE = "API an acceptance criterion uses"
ORACLE = "test oracle"
MISS = "miss path"
DUNDER = "dunder"
UNIT = "API only unit tests reach"

UNREACHED = {
    # API an acceptance criterion uses: 01 the three-points stage, 03 the
    # cotangent twist with its stability check, 08 the algebraic core
    "chow.ChowClass.h_coeffs": (ACCEPTANCE, "01 reads the Chern classes in H"),
    "groebner.PolyMatrix.columns": (ACCEPTANCE, "03 and 08, module kernels"),
    "groebner.PolyMatrix.transpose": (ACCEPTANCE, "03 and 08, dual modules"),
    "groebner.Vec.scale": (ACCEPTANCE, "08 builds S-pairs by Vec.__sub__"),
    "modtools.GradedModulePresentation._relation_sub": (
        ACCEPTANCE, "08 torsion split"),
    "modtools.GradedModulePresentation.is_zero_module": (
        ACCEPTANCE, "08 torsion split"),
    "modtools._ceil_fraction": (ACCEPTANCE, "03 stability by hoppe_check"),
    "modtools._matrix_kernel_piece_dim": (
        ACCEPTANCE, "03 stability by hoppe_check"),
    "modtools._pairing_matrix": (ACCEPTANCE, "08 torsion split"),
    "modtools.dual_generators": (ACCEPTANCE, "03 and 08, double duals"),
    "modtools.hoppe_check": (ACCEPTANCE, "03 stability"),
    "modtools.kernel_of_matrix": (ACCEPTANCE, "03 and 08, double duals"),
    "modtools.section_dim_double_dual": (ACCEPTANCE, "03 stability"),
    "modtools.torsion_split": (ACCEPTANCE, "08 torsion split"),
    "modtools.wedge_submodule_gens": (ACCEPTANCE, "03 stability"),
    "resolver.KernelStage.slope_l": (ACCEPTANCE, "03 stability"),
    "resolver.hoppe_stage": (ACCEPTANCE, "03 stability of a stage"),
    # test oracles
    "groebner.Ideal.saturate": (ORACLE, "saturation; also acceptance 08"),
    "groebner.normal_form": (ORACLE, "ideal membership; also acceptance 08"),
    "groebner.Ideal.intersect": (ORACLE, "point ideals as intersections"),
    "polyring.graded_piece_dim": (ORACLE, "piece dimensions by rank"),
    "polyring.span_dim": (ORACLE, "graded_piece_dim's rank"),
    "polyring.lex_key": (ORACLE, "lex order: Betti numbers agree with "
                                 "grevlex"),
    # miss paths
    "resolver._gradient_rows": (
        MISS, "exact Jacobian rank where the mod-p screen falls short"),
    # API only unit tests reach: the torsion filtration, the Chow and module
    # helpers around it and a random matrix (ROADMAP item 6 step 2)
    "chow.ChowClass.point": (UNIT, "the class of a point"),
    "chow.KClass.twist": (UNIT, "K-class of a twist"),
    "modtools.filtration_report": (UNIT, "torsion filtration"),
    "modtools.GradedModulePresentation.generic_rank": (
        UNIT, "filtration_report"),
    "modtools.GradedModulePresentation.hilbert_polynomial": (
        UNIT, "filtration_report"),
    "modtools.GradedModulePresentation.kclass": (UNIT, "filtration_report"),
    "modtools.GradedModulePresentation.piece_dim": (UNIT, "M_d"),
    "modtools.GradedModulePresentation.twist": (UNIT, "M(t)"),
    "polyring.GradedPoly.scale": (UNIT, "scalar multiple"),
    "linalg.random_matrix": (UNIT, "seeded F_p matrices of the rank tests"),
    # __repr__ and its string helpers, hashing, equality and arithmetic
    "chow.ChernVector.__repr__": (DUNDER, ""),
    "chow.ChowClass.__hash__": (DUNDER, ""),
    "chow.ChowClass.__neg__": (DUNDER, ""),
    "chow.ChowClass.__repr__": (DUNDER, ""),
    "chow.ChowClass.to_str": (DUNDER, "__repr__"),
    "chow.KClass.__add__": (DUNDER, "also acceptance 08"),
    "chow.KClass.__repr__": (DUNDER, ""),
    "curves.CurveBundleInvariants.__repr__": (DUNDER, ""),
    "fields.PrimeField.__eq__": (DUNDER, ""),
    "fields.PrimeField.__hash__": (DUNDER, ""),
    "fields.PrimeField.__repr__": (DUNDER, ""),
    "fields.RationalField.__eq__": (DUNDER, ""),
    "fields.RationalField.__hash__": (DUNDER, ""),
    "fields.RationalField.__repr__": (DUNDER, ""),
    "groebner.FreeModule.__hash__": (DUNDER, ""),
    "groebner.FreeModule.__repr__": (DUNDER, ""),
    "groebner.Vec.__add__": (DUNDER, "also acceptance 08"),
    "groebner.Vec.__repr__": (DUNDER, ""),
    "groebner.Vec.__sub__": (DUNDER, "also acceptance 08"),
    "linalg.Matrix.__eq__": (DUNDER, ""),
    "linalg.Matrix.__repr__": (DUNDER, ""),
    "modtools.GradedModulePresentation.__repr__": (DUNDER, ""),
    "polyring.GradedPoly.__eq__": (DUNDER, ""),
    "polyring.GradedPoly.__hash__": (DUNDER, ""),
    "polyring.GradedPoly.__repr__": (DUNDER, ""),
    "polyring.GradedPoly.__sub__": (DUNDER, ""),
    "polyring.GradedPoly.sorted_terms": (
        DUNDER, "__repr__; the CLI tests write ideal: files with it"),
    "polyring.GradedPoly.to_str": (
        DUNDER, "__repr__; the CLI tests write ideal: files with it"),
    "polyring.PolyRing.__hash__": (DUNDER, ""),
    "polyring.PolyRing.__repr__": (DUNDER, ""),
    "resolver.GenerationReport.__repr__": (DUNDER, ""),
    "resolver.KernelStage.__repr__": (DUNDER, ""),
    "schemes.Polarization.__repr__": (DUNDER, ""),
    "schemes.SubschemeData.__repr__": (DUNDER, ""),
}

# one interpreter runs every argv through cli.main and prints the exit codes
# and the (file, first line) of every code object called
DRIVER = """
import contextlib, io, json, os, sys
import syzkit.cli
called = set()
def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
codes = []
sys.setprofile(hook)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(syzkit.cli.main(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted({(os.path.realpath(c.co_filename),
                                  c.co_firstlineno) for c in called})]))
"""


def _sweep(tmp):
    """(argv, expected exit code) of every run of the sweep."""
    runs = []
    for name in BUILTINS:
        for extra in ([], ["--p", "101"], ["--mode", "module"],
                      ["--policy", "full"], ["--format", "text"]):
            runs.append((["resolve", "--builtin", name] + extra, 0))
    runs.append((["resolve", "--builtin", "one-point", "--d", "1", "--m", "1",
                  "--mode", "module"], 0))
    files = {"p2.txt": _random_point_file(1, 2, 3, 12),
             "p3.txt": _random_point_file(1, 3, 3, 12),
             "ideal.txt": _random_ideal_file(1, 2, 3, 20),
             "bad.txt": "ambient: 2\nd: 3\nd: 4\npoints:\n1 0 0\n"}
    for name, text in files.items():
        (tmp / name).write_text(text)
    for name in ("p2.txt", "p3.txt", "ideal.txt"):
        for extra in ([], ["--p", "101"], ["--policy", "full"]):
            runs.append((["resolve", "--input", str(tmp / name)] + extra, 0))
    # a zero-dimensional Z in P^3 has no module mode: a hypothesis payload
    runs.append((["resolve", "--input", str(tmp / "p3.txt"), "--mode",
                  "module"], 1))
    runs += [
        (["verify", "whitney", "--trials", "5"], 0),
        (["verify", "genericity", "--r", "2", "--n", "2", "--v", "4",
          "--trials", "10"], 0),
        # v < r + n: the negative control, every trial fails
        (["verify", "genericity", "--r", "1", "--n", "2", "--v", "2",
          "--trials", "5"], 1),
        (["verify", "uniformity", "--d", "3", "--m", "1", "--points", "3"], 0),
        (["verify", "bezout", "--m1", "2", "--m2", "3"], 0),
        (["butler", "--g", "2", "--r", "3", "--deg", "15"], 0),
        (["butler", "--g", "1", "--r", "0", "--deg", "3"], 1),
        (["resolve", "--builtin", "three-points", "--m", "2", "--m", "3"], 1),
        (["resolve", "--input", str(tmp / "bad.txt")], 1),
    ]
    return runs


def _functions():
    """{(real path, first line): module.qualified.name} of every function
    and method in src/syzkit, nested ones included."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        real = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    line = (child.decorator_list[0].lineno
                            if child.decorator_list else child.lineno)
                    out[real, line] = f"{path.stem}.{name}"
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def test_every_function_is_reached_by_the_sweep_or_has_a_reason(tmp_path):
    runs = _sweep(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps([argv for argv, _ in runs])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes, called = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [rc for _, rc in runs]
    called = {(path, line) for path, line in called}
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in called}
    new = sorted(unreached - set(UNREACHED))
    assert not new, f"no sweep run calls {new}: delete them or give a reason"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"allowlisted but gone or now reached: {stale}"
