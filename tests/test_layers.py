"""The layering, read from the source: modular owns the p-adic lift, its
limb arithmetic and its certificate, and imports no other loopsum module;
no module reaches into modular's private names.  The DWBC partition
function has one route, the Izergin-Korepin determinant; the six-vertex
enumeration lives in the tests as its oracle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "loopsum"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def _imports(tree: ast.Module):
    """(loopsum module, imported name or None) for every import of a
    loopsum module, relative or absolute; None for a whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "loopsum":
                    yield alias.name.rpartition(".")[2], None
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "loopsum":
                continue
            module = parts[-1]
            for alias in node.names:
                if module in ("", "loopsum"):
                    yield alias.name, None
                else:
                    yield module, alias.name


def test_modular_imports_no_loopsum_module():
    assert list(_imports(_tree("modular"))) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_from_modular(name):
    private = [what for module, what in _imports(_tree(name))
               if module == "modular" and what is not None and what.startswith("_")]
    assert private == [], f"{name} imports {private} from modular"


@pytest.mark.parametrize("name", ["groundstate", "tmatrix"])
def test_the_lift_is_defined_in_modular_alone(name):
    defined = [node.name for node in ast.walk(_tree(name))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and (node.name.startswith("limbs_")
                    or node.name in ("_lift", "_solve_digit", "kernel_vector"))]
    assert defined == [], f"{name} defines {defined}"


def test_psi_point_calls_one_modular_entry():
    tree = _tree("groundstate")
    functions = {node.name for node in _tree("modular").body if isinstance(node, ast.FunctionDef)}
    from_modular = {what for module, what in _imports(tree)
                    if module == "modular" and what in functions}
    (psi_point,) = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "psi_point"]
    called = [node.func.id for node in ast.walk(psi_point)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in from_modular]
    assert called == ["kernel_vector"]


@pytest.mark.parametrize("name", MODULES)
def test_no_six_vertex_enumeration_in_src(name):
    tree = _tree(name)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    imported = {name for pair in _imports(tree) for name in pair}
    assert not (defined | imported) & {"SixVertexConfig", "dwbc_bruteforce"}


def test_dwbc_oracle_calls_the_determinant():
    (check,) = [node for node in _tree("asm").body
                if isinstance(node, ast.FunctionDef) and node.name == "check_dwbc_oracle"]
    called = {node.func.id for node in ast.walk(check)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "dwbc_partition" in called
