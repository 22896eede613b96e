"""Artifact digests: the bytes of every subcommand on one small noisy
nonlinear config, against stored SHA-256 digests.  The `*_pairings`
cases swap the config's observables line for one of `pair` and `pairsq`
labels, so the bytes of the eigenpair pairings are covered too.

digests.json holds, per case, the exit code and the SHA-256 of every
artifact except the manifest (its runtimes vary from run to run), and
the environment that wrote them: the `python`, `numpy`, `blas` and
`blas_version` of `cli._environment()`.  Where those four match, every
digest must match bitwise; elsewhere the test skips and names the first
key that differs, since another NumPy or BLAS may round differently.
The `*_2_batches` cases force the paths into two batches through
`dynamics._BATCH_POINTS`, so the reduction over batches is covered.
The `*_chunk_3` cases force 3-step noise chunks through
`dynamics._CHUNK_POINTS`, so chunks end inside a normals block and a
run's last chunk is short; each stores, and must reproduce, the digests
of the case it forces.

A change that moves a byte rewrites the file deliberately with
`python tests/test_digests.py` and declares which artifacts moved.
`python tests/test_digests.py --diff` runs every case, writes nothing,
and prints each exit code and artifact digest that differs from
digests.json, so a change can show which artifacts moved, or that none
did.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from layerqg import dynamics
from layerqg.cli import _environment, main
from layerqg.runconfig import parse_config, realize
from layerqg.spectral import N_LAYERS

DIGEST_PATH = Path(__file__).with_name("digests.json")
ENV_KEYS = ("python", "numpy", "blas", "blas_version")
CONFIG = ("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=2\nnoise_modes=24\n"
          "dt=0.002\nhorizon=0.1\ninit=lowband:4:3.0:5\n")
OBSERVABLES = "observables=l2,l4,linf,h1,wh1,gradl4\n"
PAIRINGS = ("observables=pair:1.1.0,l2,pairsq:1.1.0,pairsq:1.2.1,"
            "pair:2.2.2,pairsq:3.1.0,pair:1.3.2\n")
SEED = 3

# case -> (argv after the common flags, paths per batch or None[, the
# config's observables line, default OBSERVABLES])
CASES = {
    "run": (["run", "--snap-every", "10"], None),
    "galerkin": (["galerkin", "--n-ladder", "8,12,16", "--snap-every", "5"],
                 None),
    "viscosity": (["viscosity", "--eps-ladder", "0.2,0.1,0.05",
                   "--snap-every", "5"], None),
    "stability": (["stability", "--snap-every", "5"], None),
    "invariant": (["invariant", "--horizons", "0.05,0.1", "--paths", "3"],
                  None),
    "tightness": (["tightness", "--horizon", "0.1"], None),
    "diagnose": (["diagnose", "--snap-every", "2"], None),
    "stability_2_batches": (["stability", "--snap-every", "5"], 2),
    "invariant_2_batches": (["invariant", "--horizons", "0.05,0.1",
                             "--paths", "3"], 2),
    "run_pairings": (["run"], None, PAIRINGS),
    "invariant_pairings": (["invariant", "--horizons", "0.05,0.1",
                            "--paths", "3"], None, PAIRINGS),
    "invariant_pairings_2_batches": (["invariant", "--horizons", "0.05,0.1",
                                      "--paths", "3"], 2, PAIRINGS),
}
# case -> (the case it forces to 3-step noise chunks, the noise columns
# per step: one per path on its own stream, one for paths on stream 0)
CHUNKED = {"tightness_chunk_3": ("tightness", 1),
           "invariant_chunk_3": ("invariant", 3),
           "stability_chunk_3": ("stability", 1)}
CASES.update({case: CASES[base] for case, (base, _) in CHUNKED.items()})


def _environment_keys():
    env = _environment()
    return {key: env[key] for key in ENV_KEYS}


def run_case(case, folder):
    """Exit code and {artifact: SHA-256} of one case run in `folder`."""
    argv, per_batch, *observables = CASES[case]
    folder.mkdir(parents=True, exist_ok=True)
    cfg = folder / "digest.cfg"
    cfg.write_text(CONFIG + (observables or [OBSERVABLES])[0])
    out = folder / "out"
    saved = dynamics._BATCH_POINTS, dynamics._CHUNK_POINTS
    basis = realize(parse_config(cfg)[0], SEED).basis
    if per_batch:
        dynamics._BATCH_POINTS = (per_batch * N_LAYERS
                                  * math.prod(basis.grid_shape))
    if case in CHUNKED:
        dynamics._CHUNK_POINTS = (3 * CHUNKED[case][1] * N_LAYERS
                                  * basis.nx * basis.ny)
    try:
        code = main([argv[0], "--config", str(cfg), "--seed", str(SEED),
                     "--out", str(out), *argv[1:]])
    finally:
        dynamics._BATCH_POINTS, dynamics._CHUNK_POINTS = saved
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())
               if path.name != "manifest.json"}
    return {"exit": code, "artifacts": digests}


@pytest.fixture(scope="module")
def stored():
    data = json.loads(DIGEST_PATH.read_text())
    here = _environment_keys()
    differs = next((key for key in ENV_KEYS
                    if data["environment"][key] != here[key]), None)
    if differs is not None:
        pytest.skip(f"digests were written with {differs}="
                    f"{data['environment'][differs]!r}, this is "
                    f"{here[differs]!r}")
    return data["cases"]


@pytest.mark.parametrize("case", list(CASES))
def test_artifact_digests(stored, case, tmp_path):
    assert run_case(case, tmp_path) == stored[case]


@pytest.mark.parametrize("case", list(CHUNKED))
def test_chunked_case_stores_the_unforced_digests(stored, case):
    assert stored[case] == stored[CHUNKED[case][0]]


def _write_digests():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cases = {case: run_case(case, Path(tmp) / case) for case in CASES}
    DIGEST_PATH.write_text(json.dumps(
        {"environment": _environment_keys(), "cases": cases},
        indent=2, sort_keys=True) + "\n")


def _report_diff():
    """Run every case and write nothing: print each case whose exit code
    and each artifact whose digest differs from digests.json (an artifact
    on one side only counts), then how many differ."""
    import tempfile
    data = json.loads(DIGEST_PATH.read_text())
    here = _environment_keys()
    for key in ENV_KEYS:
        if data["environment"][key] != here[key]:
            print(f"note: digests were written with {key}="
                  f"{data['environment'][key]!r}, this is {here[key]!r}")
    moved, total = 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            got = run_case(case, Path(tmp) / case)
            want = data["cases"].get(case, {"exit": None, "artifacts": {}})
            if got["exit"] != want["exit"]:
                print(f"{case}: exit {want['exit']} -> {got['exit']}")
                moved += 1
            names = sorted(set(got["artifacts"]) | set(want["artifacts"]))
            total += len(names)
            for name in names:
                old, new = (side["artifacts"].get(name, "absent")
                            for side in (want, got))
                if old != new:
                    print(f"{case}/{name}: {old} -> {new}")
                    moved += 1
    print(f"{moved} differ, of {total} artifacts and {len(CASES)} exit codes")


if __name__ == "__main__":
    import sys
    if sys.argv[1:] == ["--diff"]:
        _report_diff()
    else:
        _write_digests()
