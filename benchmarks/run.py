"""zenogate benchmark: one closed-loop, single-client run of one workload.

    python3 benchmarks/run.py --workload {sweep,design,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it runs the
same ops untraced and then traced, and reports the per-layer metrics.  Ops
run in whole blocks until at least S seconds of op time are measured.
Output checks run outside the timed region.  The last line of standard
output is the result as one JSON object; the lines before it are a
human-readable table of every metric with its unit and sample count.
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy is imported here or in any child process.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 12   # spread over the run: 3 before it, one after each block, rest after
IMPORT_PROBES = 5
# Nominal times of the two calibration probes (see machine_factor), about
# their fastest on the 2-core Intel Xeon host the benchmark was written on.
NOMINAL_KERNEL_S = 1.2e-3
NOMINAL_PROCESS_S = 0.10

if not (SRC / "zenogate" / "__init__.py").is_file():
    sys.exit(f"error: no zenogate sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import stats  # noqa: E402  (benchmark modules, next to this file)
import tracing  # noqa: E402
import workloads  # noqa: E402
import zenogate  # noqa: E402


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def machine_factor(env: dict | None = None, samples: int = 5) -> float:
    """How much slower than nominal the machine runs right now.

    The host is shared: its speed drifts by 30% over minutes and dips for
    seconds at a time, which moves every timing of a run together.  So a
    fixed probe is timed next to every measurement (median of `samples`),
    and the measurement is divided by the probe's ratio to its nominal time.
    In-process ops are matched by a loop of small NumPy matmuls and
    interpreter work, like the program's own hot path.  Process start-up
    (CLI ops, set-up) is matched, when `env` is given, by a fresh
    interpreter importing NumPy.  Neither probe runs zenogate code.
    """
    times = []
    if env is not None:
        for _ in range(samples):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=ROOT,
                           timeout=60, check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / NOMINAL_PROCESS_S
    m = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]], dtype=complex)
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(300):
            r = np.eye(3, dtype=complex) @ m
            float(abs(r[0, 0]) ** 2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / NOMINAL_KERNEL_S


def setup_probe(env: dict) -> float:
    """Seconds from a fresh interpreter's start until `import zenogate.cli` completes."""
    code = "import time, zenogate.cli; print(time.monotonic())"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) - t0


def import_split_ms(env: dict) -> tuple[float, float]:
    """(numpy, zenogate without numpy) import ms from -X importtime, median of probes."""
    numpy_ms, zeno_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zenogate.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1000.0)
        numpy_ms.append(cumulative["numpy"])
        zeno_ms.append(cumulative["zenogate.cli"] - cumulative["numpy"])
    return statistics.median(numpy_ms), statistics.median(zeno_ms)


def run_record() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS}


class Run:
    """Executes op blocks of one workload and keeps what the metrics need."""

    def __init__(self, workload: str, seed: int, env: dict, tag: str):
        self.workload, self.seed, self.env, self.tag = workload, seed, env, tag
        self._blocks: dict[int, list] = {}
        self.samples: list[tuple[float, float, float]] = []   # (latency s, CPU s, factor)
        self.outcomes: list = []
        self.outputs: list = []   # CLI stdout per op, in outcome order
        self.mismatches = 0       # CLI outputs that differ between identical runs
        self.excursion_ops = 0    # ops with a probability rounded outside [0, 1]
        self.first_errors: list[str] = []

    def block(self, b: int) -> list:
        if b not in self._blocks:
            self._blocks[b] = workloads.make_block(self.workload, self.seed, b,
                                                   str(WORKDIR / self.tag))
        return self._blocks[b]

    def execute(self, op):
        if self.workload == "sweep":
            return workloads.sweep_execute(op)
        if self.workload == "design":
            return workloads.design_execute(op)
        return workloads.cli_subprocess(op, self.env, str(ROOT))

    def check(self, op, result):
        if self.workload == "sweep":
            return workloads.sweep_check(op, result)
        if self.workload == "design":
            return workloads.design_check(op, result)
        return workloads.cli_check(op, result)

    def _cpu(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
        r = resource.getrusage(who)
        return r.ru_utime + r.ru_stime

    def _factor(self) -> float:
        if self.workload == "cli":
            return machine_factor(self.env, 1)
        return machine_factor(samples=3)

    def measure(self, budget_s: float | None = None, blocks: int | None = None,
                execute=None, tracer=None, between=None, probe=True) -> tuple[int, list[float]]:
        """Run whole blocks until budget_s of op time (or `blocks` blocks) are done.

        Returns (blocks run, per-op latencies).  Each op's output is checked
        outside its timed region.  The machine factor is probed before the
        first op and after every op (unless `probe` is false); an op's factor
        is the geometric mean of the probes on either side of it.  between()
        is called after each block.
        """
        execute = execute or self.execute
        lat: list[float] = []
        b = 0
        before = self._factor() if probe else 1.0
        while (blocks is None and sum(lat) < budget_s) or (blocks is not None and b < blocks):
            for op in self.block(b):
                c0 = self._cpu()
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = execute(op)
                    else:
                        result = tracer.run_op(len(self.outcomes), execute, op)
                    error = None
                except Exception as exc:  # an op that raises counts as failed
                    error = exc
                t1 = time.perf_counter()
                cpu = self._cpu() - c0
                lat.append(t1 - t0)
                if error is None:
                    outcome = self.check(op, result)
                else:
                    outcome = workloads.Outcome("failed", detail=f"{type(error).__name__}: {error}")
                self.outcomes.append(outcome)
                if self.workload == "cli":
                    self.outputs.append(None if error else result[1])
                after = self._factor() if probe else 1.0
                self.samples.append((t1 - t0, cpu, math.sqrt(before * after)))
                before = after
            b += 1
            if between is not None:
                between()
        return b, lat

    def finish_checks(self) -> tuple[int, int, int]:
        """Run the deferred reference checks; (attempted, failed, refused).

        An op whose output differs from an identical run counts as failed.
        """
        failed, refused = self.mismatches, 0
        self.excursion_ops = sum(o.excursions > 0 for o in self.outcomes)
        for outcome in self.outcomes:
            if outcome.status in ("ok", "refused"):
                for check, args in outcome.deferred:
                    if not check(*args):
                        outcome.status, outcome.detail = "failed", f"reference check {check.__name__}"
                        break
            if outcome.status == "failed":
                failed += 1
                if len(self.first_errors) < 5:
                    self.first_errors.append(outcome.detail)
            refused += outcome.status == "refused"
        return len(self.outcomes), failed, refused

    def rerun_differences(self, sample: int = 4) -> int:
        """Re-run a seeded sample of the CLI ops run so far; count outputs that
        differ byte for byte from the first run."""
        ops = [op for b in sorted(self._blocks) for op in self._blocks[b]]
        rng = workloads.block_rng(self.workload, self.seed, -1)
        return sum(workloads.cli_subprocess(ops[i], self.env, str(ROOT))[1] != self.outputs[i]
                   for i in rng.sample(range(len(ops)), min(sample, len(ops))))


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; every timing is divided by its machine factor."""
    lat_ms = [t * 1e3 / f for t, _, f in run.samples]
    n = len(lat_ms)
    op_s = sum(lat_ms) / 1e3
    raw_s = sum(t for t, _, _ in run.samples)
    tail, pct, beyond = stats.tail_percentile(lat_ms)
    who = resource.RUSAGE_CHILDREN if run.workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median([s / f for s, f in setup]), "s",
                    f"n={len(setup)} probes, median; raw median "
                    f"{statistics.median([s for s, _ in setup]):.4f} s"),
        "ops_per_s": (n / op_s, "1/s", f"n={n} ops; raw {n / raw_s:.4g}/s over {raw_s:.2f} s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms", f"n={n}; raw "
                           f"{statistics.median([t * 1e3 for t, _, _ in run.samples]):.4g} ms"),
        "latency_tail_ms": (tail, "ms", f"p{pct:.2f}, n={n}, {beyond} beyond"),
        "cpu_s_per_op": (sum(c / f for _, c, f in run.samples) / n, "s", f"n={n}, user+sys"
                         + (" of the CLI children" if run.workload == "cli" else "")),
        "peak_rss_mb": (rss_mb, "MB", "max over CLI children" if run.workload == "cli"
                        else "workload process"),
    }


def per_layer(tracer, totals, untraced_s: float, traced_s: float,
              import_ms: tuple[float, float], process_overhead_ms: float) -> dict:
    ops = totals.ops
    calls, self_s, total_s = totals.calls, totals.self_s, totals.total_s

    def per_op_calls(name):
        return (calls[name] / ops, "count", f"per op, n={ops} ops")

    def per_op_ms(seconds):
        return (seconds * 1e3 / ops, "ms", f"self time per op, n={ops} ops")

    ee_calls = calls["gate.exact_errors"]
    mk_calls = calls["optimizer.min_kappa"]
    rps_s = total_s["enhancement.random_phase_sum"]
    return {
        "numerics.mat_power.calls": per_op_calls("numerics.mat_power"),
        "numerics.mat_power.self_ms": per_op_ms(self_s["numerics.mat_power"]),
        "numerics.mat_power.matmuls": (tracer.matmuls / ops, "count", "per op, computed from N"),
        "numerics.mat_power.flops": (tracer.flops / ops, "flop",
                                     "per op, computed from N and matrix size"),
        "numerics.mat_power.bytes": (tracer.bytes / ops, "B",
                                     "per op, computed from N and matrix size"),
        "numerics.convert.calls": per_op_calls("numerics.convert"),
        "numerics.convert.self_ms": per_op_ms(self_s["numerics.convert"]),
        "gate.segment_matrix.calls": per_op_calls("gate.segment_matrix"),
        "gate.segment_matrix.self_ms": per_op_ms(self_s["gate.segment_matrix"]),
        "gate.exact_errors.calls": per_op_calls("gate.exact_errors"),
        "gate.exact_errors.self_ms": per_op_ms(self_s["gate.exact_errors"]),
        "gate.exact_errors.us_per_call": (total_s["gate.exact_errors"] * 1e6 / ee_calls
                                          if ee_calls else 0.0, "us",
                                          f"inclusive, n={ee_calls} calls"),
        "optimizer.exact_max_error.calls": per_op_calls("optimizer.exact_max_error"),
        "optimizer.min_kappa.calls": per_op_calls("optimizer.min_kappa"),
        "optimizer.minimized_max_error.calls": per_op_calls("optimizer.minimized_max_error"),
        "optimizer.min_kappa.feasible_frac": (
            (mk_calls - totals.raised["optimizer.min_kappa"]) / mk_calls if mk_calls else 0.0,
            "1", f"n={mk_calls} calls"),
        "optimizer.self_ms": per_op_ms(totals.layer_self_s("optimizer")),
        "absorber.self_ms": per_op_ms(totals.layer_self_s("absorber")),
        "enhancement.random_phase_sum.self_ms": per_op_ms(self_s["enhancement.random_phase_sum"]),
        "enhancement.random_phase_sum.trials_per_s": (tracer.trials / rps_s if rps_s else 0.0,
                                                      "1/s", f"{tracer.trials} trials"),
        "cli.import_numpy_ms": (import_ms[0], "ms", f"-X importtime, median of {IMPORT_PROBES}"),
        "cli.import_zenogate_ms": (import_ms[1], "ms",
                                   f"-X importtime without numpy, median of {IMPORT_PROBES}"),
        "cli.process_overhead_ms": (process_overhead_ms, "ms",
                                    "subprocess wall minus in-process cli.main, mean per op"),
        "cli.run.self_ms": per_op_ms(self_s["cli.run"]),
        "cli.emit.self_ms": per_op_ms(self_s["cli.emit"]),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "1",
                                f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s - 1"),
        "trace.uncovered_frac": (totals.uncovered_s / totals.op_s, "1",
                                 "share of traced op time outside zenogate spans"),
    }


def untraced_run(run: Run, seconds: float, env: dict) -> dict:
    """End-to-end metrics, with set-up probes spread over the run."""
    setup = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append((setup_probe(env), machine_factor(env, 1)))

    for _ in range(3):
        probe()
    run.measure(budget_s=seconds, between=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    metrics = end_to_end(run, setup)
    if run.workload == "cli":
        run.mismatches += run.rerun_differences()
    return metrics


def traced_run(run: Run, seconds: float, env: dict) -> dict:
    """Untraced then traced pass over the same blocks; per-layer metrics."""
    tracer = tracing.Tracer()
    overhead_ms = 0.0
    if run.workload == "cli":
        # subprocess pass, then the same ops in process untraced and traced
        blocks, sub_lat = run.measure(budget_s=seconds / 2, probe=False)
        _, plain_lat = run.measure(blocks=blocks, execute=workloads.cli_inprocess, probe=False)
        overhead_ms = sum(a - b for a, b in zip(sub_lat, plain_lat)) * 1e3 / len(sub_lat)
    else:
        blocks, plain_lat = run.measure(budget_s=seconds / 3, probe=False)
    execute = workloads.cli_inprocess if run.workload == "cli" else None
    tracer.patch()
    try:
        _, traced_lat = run.measure(blocks=blocks, execute=execute, tracer=tracer, probe=False)
    finally:
        tracer.unpatch()
    if run.workload == "cli":
        # the same argv and seed give byte-identical output in and out of process
        k = len(sub_lat)
        run.mismatches += sum(len({run.outputs[i], run.outputs[i + k], run.outputs[i + 2 * k]}) != 1
                              for i in range(k))
    totals = tracing.LayerTotals()
    op_starts = [i for i, nid in enumerate(tracer.name_id) if tracer.names[nid] == tracing.OP_SPAN]
    for lo, hi in zip(op_starts, op_starts[1:] + [len(tracer.start)]):
        totals.add(tracer, lo, hi)   # every op's spans are contiguous
    tracer.save(WORKDIR / f"spans-{run.workload}.npz")
    return per_layer(tracer, totals, sum(plain_lat), sum(traced_lat), import_split_ms(env),
                     overhead_ms)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(zenogate.__file__).resolve().parent != SRC / "zenogate":
        sys.stderr.write(f"error: zenogate imported from {zenogate.__file__}, not {SRC}\n")
        return 2

    env = child_env()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    (WORKDIR / tag).mkdir(parents=True, exist_ok=True)
    try:
        record = run_record()
        run = Run(args.workload, args.seed, env, tag)
        if args.workload != "cli":
            # let NumPy and the interpreter finish lazy set-up before timing
            workloads.sweep_execute(workloads.Op("curve", {"kappa": 1e3, "segments": 10,
                                                           "samples": 20, "branches": 3}))
        if args.trace == 0:
            metrics = untraced_run(run, args.seconds, env)
        else:
            metrics = traced_run(run, args.seconds, env)
        attempted, failed, refused = run.finish_checks()
    finally:
        shutil.rmtree(WORKDIR / tag, ignore_errors=True)
    if args.trace == 1:
        metrics["failed_frac"] = (failed / attempted, "1", f"n={attempted} ops")
        metrics["refused_frac"] = (refused / attempted, "1",
                                   f"n={attempted} ops; documented refusals, checked truthful")

    print(f"# zenogate benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# run record: " + json.dumps(record, sort_keys=True))
    print(f"# ops attempted={attempted} failed={failed} refused={refused}; ops with a "
          f"probability rounded outside [0, 1] by <= {workloads.ref.TOL:g}: {run.excursion_ops}")
    if args.trace == 0:
        factors = sorted(f for _, _, f in run.samples)
        print(f"# machine factor (timings are divided by it): median "
              f"{statistics.median(factors):.3f}, range {factors[0]:.3f}-{factors[-1]:.3f} "
              f"over {len(factors)} ops")
    for detail in run.first_errors:
        print(f"# failure: {detail}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name:<44} {value:>16.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
