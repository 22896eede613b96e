"""Checks of the benchmark itself: python3 -m pytest perfbench

The computed kernel counts must repeat exactly, run to run and seed to
seed, so a later change can be judged on them; a traced target that a
refactor removed must be reported, not crash the run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layerqg.cli as cli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ["spectral.transforms_per_step", "spectral.computed_mb_per_step",
          "noise.normals_per_step"]


def traced_rep(name, seed, work):
    wl = WORKLOADS[name]
    work.mkdir()
    inputs = wl.make(seed, work)
    out = work / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(inputs.argv(wl.command, out, 2))
    finally:
        tracer.uninstall()
    assert code == 0
    assert wl.check(inputs, out) == []
    return tracer, tracer.metrics(1, inputs.steps, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_counts_repeat_exactly(name, tmp_path):
    runs = [traced_rep(name, seed, tmp_path / f"r{i}")[1]
            for i, seed in enumerate((1, 1, 2))]
    for key in COUNTS:
        assert runs[0][key] == runs[1][key] == runs[2][key], key


def test_linear_ensemble_does_no_transforms(tmp_path):
    _, m = traced_rep("ensemble_linear_n12", 3, tmp_path / "r")
    assert m["spectral.transforms_per_step"] == 0
    assert m["coupling.solve_elliptic_coeffs.calls"] == 0
    assert m["noise.normals_per_step"] == WORKLOADS["ensemble_linear_n12"].K
    assert m["dynamics.run_trajectory.calls"] == \
        WORKLOADS["ensemble_linear_n12"].PATHS


def test_removed_target_is_reported_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("spectral", "SpectralBasis.gone", "spectral.gone"),
        ("nosuchmodule", "f", "nosuchmodule.f")])
    tracer, m = traced_rep("tightness_n16", 1, tmp_path / "r")
    assert tracer.missing == ["spectral.gone", "nosuchmodule.f"]
    assert m["spectral.gone.calls"] == 0
    assert m["cli.main.calls"] == 1


def test_self_time_subtracts_union_of_children():
    tracer = tracing.Tracer()
    tracer.spans = [("a", 0.0, 10.0, 1, None, 1),
                    ("b", 1.0, 3.0, 2, 1, 1),     # two pool threads,
                    ("b", 2.0, 5.0, 3, 1, 1),     # overlapping children
                    ("c", 2.5, 3.5, 4, 3, 1)]
    assert tracer.self_times() == [6.0, 2.0, 2.0, 1.0]


def test_pairsq_gate_rejects_half_the_variance(tmp_path):
    wl = WORKLOADS["ensemble_linear_n12"]
    inputs = wl.make(1, tmp_path)
    targets = inputs.expect["targets"]

    def gate(factor):
        out = tmp_path / f"x{factor}"
        out.mkdir()
        rows = "".join(f"15,{label},{factor * t:.17g},{t / 10:.17g}\n"
                       for label, t in targets.items())
        (out / "invariant.csv").write_text(
            "horizon,observable,mean,stderr\n" + rows)
        return wl.check(inputs, out)

    assert gate(1.0) == []
    assert any("over the labels" in p for p in gate(0.5))
    assert len(gate(3.0)) == len(targets) + 1


def test_transport_gate_checks_the_program(tmp_path, monkeypatch):
    import layerqg

    wl = WORKLOADS["run_nonlinear_n64"]
    inputs = wl.make(1, tmp_path)
    out = tmp_path / "out"
    assert cli.main(inputs.argv(wl.command, out, 1)) == 0
    assert wl.check(inputs, out) == []
    zero = layerqg.LayerField.zero

    monkeypatch.setattr(layerqg, "nonlinear_term",
                        lambda q, psi: zero(q.basis))
    assert any("nonlinear_term" in p for p in wl.check(inputs, out))
    monkeypatch.undo()
    monkeypatch.setattr(layerqg, "step_eta", lambda eta, w, c: eta)
    assert any("step_eta" in p for p in wl.check(inputs, out))


def test_benchmark_json_matches_the_code():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()


def test_timings_are_scaled_to_reference_speed():
    from types import SimpleNamespace

    import run
    import speed

    nominal = speed.COMPUTE_NOMINAL
    assert speed.factors(nominal, nominal, nominal) == (1.0, 1.0)
    assert min(speed.compute_times() + speed.fanout_times(2)
               + speed.startup_times()) > 0
    # a machine running at half the reference speed (factor 0.5)
    fake = SimpleNamespace(inputs=SimpleNamespace(steps=100),
                           walls=[(2.0, 0.5)], cpus=[(1.8, 0.5)],
                           ready=[(1.0, 2.0)], rss=100.0)
    metrics = run.end_to_end(fake)
    assert [metrics[name][0] for name, _ in run.END_TO_END] == \
        [100.0, 0.9, 2.0, 100.0]
