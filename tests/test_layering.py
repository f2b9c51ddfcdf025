"""Import layering of the syzkit modules: each module imports only modules
that come before it in LAYERS, never another module's private names, and
never from inside a function body."""

import ast
import pathlib

import pytest

LAYERS = ("errors", "fields", "linalg", "polyring", "groebner", "chow",
          "curves", "schemes", "modtools", "resolver", "cli")

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "syzkit"


def _trees():
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            out[path.stem] = ast.parse(path.read_text(), filename=str(path))
    return out


def _syzkit_imports(tree):
    """(line, imported module, imported names) for every import of a syzkit
    module, at any depth of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level == 1 and node.module:
                yield node.lineno, node.module, names
            elif node.level == 1:
                for name in names:
                    yield node.lineno, name, []
            elif node.module and node.module.startswith("syzkit."):
                yield node.lineno, node.module.split(".")[1], names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("syzkit."):
                    yield node.lineno, alias.name.split(".")[1], []


def test_every_module_has_a_layer():
    assert set(_trees()) == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_the_layers(module):
    tree = _trees()[module]
    rank = LAYERS.index(module)
    for line, target, names in _syzkit_imports(tree):
        assert LAYERS.index(target) < rank, \
            f"{module}.py:{line} imports {target}, a later layer"
        private = [n for n in names if n.startswith("_")]
        assert not private, f"{module}.py:{line} imports private {private}"


@pytest.mark.parametrize("module", LAYERS)
def test_no_imports_inside_functions(module):
    tree = _trees()[module]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), \
                    f"{module}.py:{node.lineno} imports inside {fn.name}"


def test_no_assert_statements_in_the_package():
    # a certificate must still run under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/syzkit: {found}"


# the helpers that scale to primitive integers; any other caller would be a
# new copy of that scaling
SCALING_HELPERS = {("polyring", "integer_terms"), ("polyring", "integer_powers")}


def _nodes_by_function(tree):
    """(name of the innermost enclosing function or None, node) for every
    node of the tree."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)
            yield inner, child
            yield from visit(child, inner)
    return visit(tree, None)


def test_primitive_integers_is_used_only_by_linalg_and_the_scaling_helpers():
    users = set()
    for module, tree in _trees().items():
        for fn, node in _nodes_by_function(tree):
            if (isinstance(node, ast.Name) and node.id == "primitive_integers"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "primitive_integers"):
                users.add((module, fn))
    assert {u for u in users if u[0] != "linalg"} == SCALING_HELPERS


def test_chow_imports_nothing_from_linalg():
    # K-classes, Hilbert polynomials and Chern characters convert by closed
    # forms; a linear solve between them would be a second route
    found = [f"chow.py:{line}" for line, target, _ in
             _syzkit_imports(_trees()["chow"]) if target == "linalg"]
    assert not found, f"chow imports linalg: {found}"


def test_prime_field_is_named_only_in_fields_and_linalg():
    # F_p certifies ranks and samples: a layer above linalg takes GF(p)
    # values only, so it has no field to branch on
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "PrimeField"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "PrimeField"
                    or isinstance(node, ast.alias)
                    and node.name == "PrimeField"):
                users.add(path.stem)
    assert users == {"fields", "linalg"}
