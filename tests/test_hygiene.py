"""Source hygiene: no module imports a name it never uses.

No linter is installed, so this scan of the syntax tree is the check.
It looks at module-level imports in `src/layerqg/` and `tests/`;
package `__init__.py` files re-export what they import and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/layerqg", "tests")
               for path in (ROOT / folder).glob("*.py")
               if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "import x.y\nprint(np.pi, d, x.y)\n")
    assert unused_imports(source) == ["c", "os"]


def test_no_unused_imports():
    offenders = {str(path.relative_to(ROOT)): names for path in FILES
                 if (names := unused_imports(path.read_text()))}
    assert not offenders, offenders
