"""Source hygiene: no module imports a name it never uses, and only
`dynamics` imports a thread pool.

No linter is installed, so these scans of the syntax tree are the check.
The unused-import scan looks at module-level imports in `src/layerqg/`
and `tests/`; package `__init__.py` files re-export what they import and
are skipped.  The thread-pool scan looks at every import in every module
of `src/layerqg/`: the package has one way to fan out work,
`dynamics._fan_out`.
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


def imports_module(source, module):
    """Whether any import statement, at any depth, loads `module`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(name == module or name.startswith(module + ".")
               for name in names):
            return True
    return False


def test_scan_flags_thread_pool_imports():
    pool = "concurrent.futures"
    for source in ("import concurrent.futures\n",
                   "import concurrent.futures as cf\n",
                   "from concurrent import futures\n",
                   "from concurrent.futures import ThreadPoolExecutor\n",
                   "def f():\n    import concurrent.futures\n"):
        assert imports_module(source, pool), source
    for source in ("import concurrent\n", "import concurrent_futures\n",
                   "from concurrent import interpreters\n",
                   "from .concurrent import futures\n"):
        assert not imports_module(source, pool), source


def test_only_dynamics_imports_a_thread_pool():
    importers = [path.name
                 for path in sorted((ROOT / "src/layerqg").glob("*.py"))
                 if imports_module(path.read_text(), "concurrent.futures")]
    assert importers == ["dynamics.py"]
