"""The algebra is geometry-free: it knows generators, not orbits."""

import ast
from pathlib import Path

import sft_lab

GEOMETRY = {"indexcalc", "model", "enumerator", "cli"}


def package_imports(module: str):
    """Names of the sft_lab modules ``module`` imports."""
    path = Path(sft_lab.__file__).parent / (module + ".py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "sft_lab":
                continue
            parts = (node.module or "").split(".")[node.level == 0:]
            found.update(parts[:1] if parts and parts[0] else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sft_lab."))
    return found


def test_algebra_imports_no_geometry():
    imports = package_imports("algebra")
    assert not imports & GEOMETRY
    assert imports == {"errors"}
