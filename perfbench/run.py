#!/usr/bin/env python3
"""layerqg benchmark: four workloads driven through the `layerqg` CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload and seed the benchmark

1. writes the workload's config file from the seed (`workloads.py`);
2. runs the workload once in-process at `--threads 1`: a warm-up whose
   output bytes every later repetition must reproduce, so seed -> bytes
   is checked not to depend on the worker count or on the repetition;
3. measures for S seconds: it repeats `layerqg.cli.main([...])`, timing
   each repetition and checking its output with the workload's gate, and
   at evenly spaced times starts SETUP_PROBES fresh interpreters
   (`probe.py`), each timed from spawn to a ready `Stepper` (`setup_s`).
   The first probe also runs the workload once; its peak resident set
   is `peak_rss_mb`.  Spreading the probes over the window makes every
   median sample the same stretch of time.
4. brackets every set-up probe with two calls of a start-up reference
   kernel, and every repetition with two calls of a compute kernel (a
   workload that runs in the calling thread) or a fan-out kernel (one
   that runs on the CLI's thread pool; `speed.py`), and scales the
   operation's times to the kernel's nominal speed, so that the
   machine's changing speed cancels.  The scaled times are the metrics;
   the raw medians are printed beside them.

A nonzero exit, an exception, a failed gate or changed bytes make an
operation a failure, which is counted and not timed.

With `--trace 0` it reports the end-to-end metrics (medians).  With
`--trace 1` it alternates untraced and traced repetitions for S seconds
(with the probes), and reports the per-layer metrics of `tracing.py`
plus the median tracing overhead of the pairs; the spans go to
.perfbench_out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  BLAS and OpenMP pools are
pinned to one thread; the CLI's fan-out uses min(2, available CPUs).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
MIN_REPS = 3

END_TO_END = [("steps_per_s", "1/s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import layerqg from this checkout's src/, or explain why not."""
    sys.path.insert(0, str(SRC))
    try:
        import layerqg.cli
    except ImportError as err:
        raise SystemExit(f"error: cannot import layerqg from {SRC}: {err}")
    if not Path(layerqg.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: layerqg was imported from "
                         f"{layerqg.cli.__file__}, not from {SRC}")
    return layerqg.cli


def environment(threads):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "fanout_threads": threads, "platform": platform.platform()}


def summary(values):
    """median, first and third quartile of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def invoke(cli, argv):
    """Exit code of one in-process CLI call ("exception" if it raised)."""
    try:
        return cli.main(argv)
    except Exception:   # a crashing invocation is a failure, keep going
        traceback.print_exc()
        return "exception"


class Run:
    """One benchmark run of one workload: its operations and samples."""

    def __init__(self, cli, wl, seed, work, threads):
        self.cli, self.wl, self.work, self.threads = cli, wl, work, threads
        self.inputs = wl.make(seed, work)
        self.attempted = self.failed = 0
        self.reference = None
        # (raw seconds, speed factor) of each untraced repetition's wall
        # and CPU time and of each probe's time to a ready Stepper
        self.walls, self.cpus, self.ready = [], [], []
        self.overheads = []                 # traced / untraced wall - 1
        self.imports, self.rss = [], None
        if wl.fanout:
            self.kind, self.nominal = "fan-out", speed.FANOUT_NOMINAL
        else:
            self.kind, self.nominal = "compute", speed.COMPUTE_NOMINAL
        self.kernels = {self.kind: [], "start-up": []}   # wall seconds

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def verify(self, out):
        """Gate one finished invocation; returns (problems, digest)."""
        try:
            problems = self.wl.check(self.inputs, out)
            digest = hashlib.sha256(
                (out / self.wl.digest_file).read_bytes()).hexdigest()
        except Exception:   # unreadable output is a failed gate, not a crash
            return [traceback.format_exc(limit=2)], None
        if self.reference is not None and digest != self.reference:
            problems.append(f"{self.wl.digest_file} differs from the "
                            f"--threads 1 run")
        return problems, digest

    def warm_up(self):
        """The --threads 1 run whose bytes every repetition must match."""
        out = self.work / "first"
        code = invoke(self.cli, self.inputs.argv(self.wl.command, out, 1))
        problems, digest = self.verify(out) if code == 0 \
            else ([f"exit code {code}"], None)
        self.record("--threads 1 reference run", problems)
        self.reference = None if problems else digest
        return self.reference is not None

    def kernel(self):
        """Wall and CPU time of one call of the repetitions' kernel."""
        times = speed.fanout_times(self.threads) if self.wl.fanout \
            else speed.compute_times()
        self.kernels[self.kind].append(times[0])
        return times

    def scaled_probe(self, index):
        """One probe between two start-up kernel calls."""
        before = speed.startup_times()
        ready = self.probe(index)
        after = speed.startup_times()
        self.kernels["start-up"] += [before[0], after[0]]
        if ready is not None:
            self.ready.append((ready, speed.factors(
                speed.STARTUP_NOMINAL, before, after)[0]))

    def probe(self, index):
        """Time one fresh interpreter to a ready Stepper.

        Returns the seconds from spawn to ready, or None if it failed.
        """
        out = self.work / "probe"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "probe.py"),
               str(self.inputs.config), str(self.inputs.seed)]
        if index == 0:
            cmd += self.inputs.argv(self.wl.command, out, self.threads)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.stdout.close()
        problems = [] if proc.wait() == 0 else \
            [f"probe exit code {proc.returncode}"]
        if line:
            self.imports.append(json.loads(line)["import_s"])
        else:
            problems.append("probe never reached a ready Stepper")
        if index == 0 and not problems:
            problems += self.verify(out)[0]
            try:
                self.rss = json.loads(rest.splitlines()[-1])["peak_rss_mb"]
            except (IndexError, KeyError, ValueError):
                problems.append("probe printed no peak RSS")
        self.record(f"set-up probe {index}", problems)
        return elapsed if line else None

    def repetition(self, tracer=None):
        """Time one in-process run of the workload and gate its output.

        Returns the wall and CPU time, or None if the repetition failed.
        With a tracer, the spans are recorded only while the program runs.
        """
        out = self.work / "rep"
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if tracer is not None:
            tracer.run_id += 1
            tracer.install()
        argv = self.inputs.argv(self.wl.command, out, self.threads)
        try:
            start, cpu_start = time.perf_counter(), time.process_time()
            code = invoke(self.cli, argv)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = [f"exit code {code}"] if code != 0 else \
            self.verify(out)[0]
        self.record(f"{'' if tracer is None else 'traced '}repetition "
                    f"{self.attempted + 1}", problems)
        return None if problems else (wall, cpu)

    def measure(self, seconds, probes, tracer=None):
        """Repeat for `seconds`, starting `probes` probes evenly spaced.

        Each repetition sits between two calls of its kernel (the call
        after one repetition is the call before the next).  With a
        tracer, each untraced repetition is followed by a traced one, so
        the pair's wall-time ratio is taken in the same stretch of
        machine speed.
        """
        start = time.perf_counter()
        done = 0
        before = None
        while True:
            elapsed = time.perf_counter() - start
            if done < probes and elapsed >= done * seconds / probes:
                self.scaled_probe(done)
                done += 1
                before = None
                continue
            timed = len(self.walls if tracer is None else self.overheads)
            if elapsed >= seconds and done == probes and timed >= MIN_REPS:
                return
            if self.failed > 2 * MIN_REPS:
                return
            before = before or self.kernel()
            times = self.repetition()
            after = self.kernel()
            factors = speed.factors(self.nominal, before, after)
            before = after
            if times is None:
                continue
            if tracer is None:
                self.walls.append((times[0], factors[0]))
                self.cpus.append((times[1], factors[1]))
                continue
            traced = self.repetition(tracer)
            before = None
            if traced is not None:
                self.overheads.append(traced[0] / times[0] - 1)


def end_to_end(run):
    """The --trace 0 metrics: (value, unit, note) by name.

    Timings are medians of times scaled to a reference kernel's nominal
    speed (`speed.py`); the note gives the raw median too.
    """
    if not (run.walls and run.ready and run.rss is not None):
        return {}
    steps = run.inputs.steps
    timings = {"steps_per_s": [(steps / w, steps / (w * f))
                               for w, f in run.walls],
               "cpu_s": [(c, c * f) for c, f in run.cpus],
               "setup_s": [(r, r * f) for r, f in run.ready]}
    metrics = {}
    for name, pairs in timings.items():
        raw, scaled = zip(*pairs)
        med, q1, q3 = summary(list(scaled))
        metrics[name] = (med, dict(END_TO_END)[name],
                         f"median of {len(scaled)} at reference speed; "
                         f"quartiles {q1:.6g} .. {q3:.6g}; raw median "
                         f"{statistics.median(raw):.6g}")
    metrics["peak_rss_mb"] = (run.rss, "MB", "one fresh process")
    return metrics


def per_layer(run, seconds):
    """The --trace 1 metrics, from alternating untraced/traced repetitions."""
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    run.measure(seconds, SETUP_PROBES, tracer)
    if not (run.overheads and run.imports):
        return {}
    traced = tracer.run_id
    values = tracer.metrics(traced, run.inputs.steps, run.threads)
    values["trace.overhead_frac"] = statistics.median(run.overheads)
    values["layerqg.import_s"] = statistics.median(run.imports)
    if tracer.missing:
        print(f"{run.wl.name} missing (reported as 0): "
              f"{', '.join(tracer.missing)}")
    tracer.write_spans(OUT / f"spans-{run.wl.name}.csv")
    return {name: (values[name], unit, f"{traced} traced repetitions")
            for name, unit in per_layer_metrics()}


def run_workload(cli, wl, seed, seconds, trace, threads):
    """One benchmark run of one workload; returns (metrics, run)."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        run = Run(cli, wl, seed, work, threads)
        if not run.warm_up():
            return {}, run
        if trace:
            return per_layer(run, seconds), run
        run.measure(seconds, SETUP_PROBES)
        return end_to_end(run), run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    from workloads import WORKLOADS

    threads = min(2, len(os.sched_getaffinity(0)))
    print("env " + json.dumps(environment(threads), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, run = run_workload(cli, WORKLOADS[name], args.seed,
                                    args.seconds, args.trace, threads)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, note) in metrics.items():
            print(f"{name} {metric} {value:.6g} {unit} ({note})")
            result["metrics"][prefix + metric] = {"value": value,
                                                  "unit": unit}
        for kind, walls in run.kernels.items():
            if walls:
                print(f"{name} {kind} kernel {statistics.median(walls):.6g}"
                      f" s (median wall of {len(walls)} calls)")
        print(f"{name} failed_frac {run.failed / max(run.attempted, 1)}"
              f" ({run.failed} of {run.attempted} operations)")
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        result["correct"] &= run.failed == 0 and bool(metrics)
    result["attempted"] = max(result["attempted"], 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
