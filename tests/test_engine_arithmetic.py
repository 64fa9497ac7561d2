"""The engine computes in integers: no module of it reaches for fractions.

The rule stands in ROADMAP.md.  rationals.py is the one place that imports
fractions, a shim kept for perfbench's environment record, the tests and
demo 01; no other module under src/superdelta imports fractions or the shim.
"""

import ast
from pathlib import Path

import superdelta

SRC = Path(superdelta.__file__).parent


def imported_modules(path):
    """Every module an import statement of the file names, relative ones with
    their leading dots, and each name of a "from . import x" as ".x"."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out.add(module)
            if not node.module:
                out.update(module + alias.name for alias in node.names)
    return out


def test_only_the_rationals_shim_imports_fractions():
    modules = {path.name: imported_modules(path) for path in sorted(SRC.glob("*.py"))}
    assert "fractions" in modules.pop("rationals.py")
    assert "coinvariants.py" in modules and "qtz.py" in modules
    for name, imports in modules.items():
        top = {module.lstrip(".").split(".")[0] for module in imports}
        assert "fractions" not in top, name
        assert not {".rationals", "superdelta.rationals"} & imports, name
