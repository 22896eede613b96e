"""Source hygiene: no module imports a name it never uses, only
`dynamics` imports a thread pool, the package imports exactly the
third-party modules it declares, and the private names that modules
import from their siblings are a known list.

No linter is installed, so these scans of the syntax tree are the check.
The unused-import scan looks at module-level imports in `src/layerqg/`
and `tests/`; package `__init__.py` files re-export what they import and
are skipped.  The thread-pool scan looks at every import in every module
of `src/layerqg/`: the package has one way to fan out work, the batch
pool of `dynamics._run_paths`.  The noise-draw scan lists the names of
`rng` that each module of `src/layerqg/` reads: only `dynamics` opens a
stream (the stepping loop and the seeded initial datum), so every run and
ladder rung draws its noise there, and `cli` reads only the scheme name
for the manifest.  The dependency scan collects the top-level
modules outside the standard library that any module of `src/layerqg/`
imports, deferred imports included, and compares them with the
`dependencies` of `pyproject.toml`.  The private-import scan lists
every `_`-prefixed name a module of `src/layerqg/` imports from a
sibling module, so that a new crossing of a module boundary is a
visible change to this file.
The per-sample scans keep the elliptic solve and the grid reductions
out of `experiments`: its monitor series are observables of the stepping
loop, which read them through `dynamics.ObsContext`, the one per-sample
cache.  No module of `src/layerqg/` reads stored snapshots: every study
streams its samples through the loop.  The transform-table
scan keeps the private tables of `SpectralBasis` inside `spectral`, so
the package has one transform implementation.  The import-graph check
runs a fresh interpreter: importing the CLI loads none of the study
modules, and every name the package exports still resolves.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def loaded_modules(source):
    """Every absolute module name that an import statement, at any depth,
    may load (`from m import a` gives "m" and "m.a")."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def imports_module(source, module):
    """Whether any import statement, at any depth, loads `module`."""
    return any(name == module or name.startswith(module + ".")
               for name in loaded_modules(source))


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


def rng_names(source):
    """Names of the sibling module `rng` that a module reads, at any
    depth: `x.name` for each `from . import rng [as x]`, and each name of
    `from .rng import name`."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update(alias.asname or alias.name
                               for alias in node.names if alias.name == "rng")
            elif node.module == "rng":
                names.update(alias.name for alias in node.names)
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases}


def test_scan_lists_rng_names():
    source = ("from . import __version__, rng as r\nfrom .rng import SCHEME\n"
              "def f():\n    from . import rng\n"
              "    return r.stream(1), rng.x\n")
    assert rng_names(source) == {"SCHEME", "stream", "x"}
    assert rng_names("from numpy import random as rng\nrng.normal()\n"
                     "import rng\nrng.stream\n") == set()


def test_only_dynamics_draws_noise():
    readers = {path.stem: names
               for path in sorted((ROOT / "src/layerqg").glob("*.py"))
               if (names := rng_names(path.read_text()))}
    assert readers == {"cli": {"SCHEME"}, "dynamics": {"stream"}}


def third_party_modules(source):
    """Top-level names of the modules, outside the standard library, that
    an import statement at any depth loads."""
    return {name.partition(".")[0] for name in loaded_modules(source)
            } - sys.stdlib_module_names


def test_scan_lists_third_party_modules():
    source = ("import os.path\nimport numpy as np\nfrom __future__ import "
              "annotations\nfrom . import rng\nfrom .a import b\n"
              "def f():\n    from scipy.stats import ks_2samp\n")
    assert third_party_modules(source) == {"numpy", "scipy"}


def declared_dependencies(text):
    """Distribution names in the `dependencies` list of a pyproject.toml."""
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    return {re.match(r"[\w.-]+", spec)[0].lower().replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', block[1])}


def test_imports_are_the_declared_dependencies():
    # a dependency declared but never imported, or imported but not
    # declared, shows here
    imported = set().union(*(third_party_modules(path.read_text())
                             for path in (ROOT / "src/layerqg").glob("*.py")))
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert imported == declared == {"numpy"}


def private_sibling_imports(source):
    """`_`-prefixed names imported, at any depth, from a sibling module
    (`from .x import _y`), as (x, _y) pairs."""
    return sorted((node.module, alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module
                  for alias in node.names if alias.name.startswith("_"))


def test_scan_flags_private_sibling_imports():
    source = ("from . import __version__, rng\n"
              "from .a import _b, c\nfrom .d import (_e,\n    f)\n"
              "from .g.h import _i\nfrom ..j import _k\n"
              "from numpy import _l\nimport _m\n"
              "def f():\n    from .n import _o\n")
    assert private_sibling_imports(source) == [("a", "_b"), ("d", "_e"),
                                               ("g.h", "_i"), ("n", "_o")]


def test_private_sibling_imports_are_known():
    found = [f"{path.stem}: {module}.{name}"
             for path in sorted((ROOT / "src/layerqg").glob("*.py"))
             for module, name in private_sibling_imports(path.read_text())]
    assert found == ["cli: dynamics._blas_threads",
                     "cli: dynamics._keep_freed_heap",
                     "measures: dynamics._run_paths",
                     "measures: experiments._cumtrapz",
                     "sweeps: dynamics._batches",
                     "sweeps: experiments._trapz"]


def imported_names(source):
    """Every name, at any depth, that an import statement binds or loads
    from a module (`from m import a` gives "a", `import m.n` gives "m.n")."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_scan_lists_imported_names():
    source = ("import os.path\nfrom .a import b as c, d\n"
              "def f():\n    from e import g\n")
    assert imported_names(source) == {"os.path", "b", "d", "g"}


def test_experiments_reads_samples_through_the_context():
    names = imported_names((ROOT / "src/layerqg/experiments.py").read_text())
    assert not names & {"solve_elliptic_coeffs", "grid_peak",
                        "peak_scaled_square", "scaled_lp_norms"}


def attributes_read(source):
    """Every attribute name, at any depth, read or written as `x.name`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def test_scan_lists_attributes():
    assert attributes_read("a.b.c = d.e\nf(g.h)\n") == {"b", "c", "e", "h"}


def test_only_spectral_reads_the_transform_tables():
    # one transform implementation: every other module synthesizes and
    # projects through SpectralBasis.synth, forward and inverse
    tables = {"_synth_x", "_synth_y", "_forward_x", "_trig_x", "_trig_y"}
    readers = [path.name
               for path in sorted((ROOT / "src/layerqg").glob("*.py"))
               if attributes_read(path.read_text()) & tables]
    assert readers == ["spectral.py"]


@pytest.mark.parametrize("path", sorted((ROOT / "src/layerqg").glob("*.py")),
                         ids=lambda path: path.name)
def test_monitors_read_no_snapshots(path):
    # every study streams through the stepping loop; no module replays
    # stored fields
    assert not attributes_read(path.read_text()) & {"q_snapshots",
                                                    "snap_times"}


# The names `layerqg` exports, each from its module on first use.
EXPORTS = """
    AveragedMeasure BlowUpError BrownianIncrements ConfigurationError
    FieldFormatError FieldLengthError LayerCoupling LayerField NoiseSpec
    OperatorEigenpairs RunSettings SamplingError ShapeError SimConfig
    SpectralBasis SweepReport TightnessReport TimeStepError
    TrajectoryRecord UnsupportedExponentError apply_operator build_basis
    eigenpairs galerkin_sweep kb_average log_estimate_monitor lp_envelope
    lp_norm make_noise monitor_observables nonlinear_term ou_factors
    ou_step parse_config parse_observables read_field realize
    run_trajectory sample_path sigma_for_stationary_l2 single_mode_field
    step_eta symmetrize tightness_diagnostic viscosity_sweep w14_monitor
    weak_residual write_field yudovich_stability
""".split()


def test_cli_imports_no_study_module():
    # a subcommand imports the study module it runs when it runs, so
    # importing the CLI loads none of them; the package's exports all
    # resolve from their modules
    script = textwrap.dedent(f"""
        import sys
        import layerqg.cli
        print(sorted(m for m in ("measures", "experiments", "sweeps")
                     if "layerqg." + m in sys.modules))
        import layerqg
        missing = [n for n in {EXPORTS!r} if not hasattr(layerqg, n)]
        print(missing, sorted(set(layerqg.__all__) ^ set({EXPORTS!r})))
        print(layerqg.kb_average.__module__, "kb_average" in dir(layerqg))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[] []",
                                        "layerqg.measures True"]
