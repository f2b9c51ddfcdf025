"""The exact certificates must not depend on `assert`: the field,
linear-algebra, polynomial, Groebner, Chow, subscheme, resolver, module and
curve suites, the CLI suite with its frozen report digests, and the
end-to-end acceptance certificates also pass when Python runs with -O."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_certificate_suites_pass_under_python_O():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_fields.py", "tests/test_linalg.py",
         "tests/test_polyring.py",
         "tests/test_groebner.py", "tests/test_chow.py", "tests/test_schemes.py",
         "tests/test_resolver.py", "tests/test_modtools.py",
         "tests/test_curves.py", "tests/test_cli.py",
         "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
