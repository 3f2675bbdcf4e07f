"""Benchmark for trivolve: seeded workloads driven through ``trivolve.cli.main``.

    python3 bench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark writes the workload's
spec files from the seed, then runs its op list as one closed-loop
caller in this process: each op is a ``cli.main([...])`` call, the next
starts when the previous returns.  With ``--trace 0`` it repeats whole
passes over the op list until ``--seconds`` is spent and reports the
end-to-end metrics.  With ``--trace 1`` it runs each op three times in
a row (memory-sampled, untraced, traced) and reports the per-layer
metrics.  Every report is checked by the oracle, and every run of an op
must reproduce its first run byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics ``BENCHMARK.json``
lists for the trace mode).  The lines before it print every metric
measured, with its unit.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread: the large contractions are single-threaded einsum loops
# anyway, and a second BLAS thread on a shared two-CPU host adds spin-wait
# noise to the small solves; set before numpy is imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import machine  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate, by_layer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
COMMAND_METRICS = ("check", "decompose", "factor", "extend", "arens", "tim")

# known program defects: ops tagged with one of these fail today and are
# counted in ``failed``, but do not make the run incorrect (see README).
# missing_source: a map whose source names a missing file exits 0, because
# serialization.load_map falls back to the default algebra
KNOWN_DEFECTS = {"missing_source"}


@dataclass
class OpResult:
    op: workloads.Op
    code: int | None
    seconds: float
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    results: list[OpResult]

    @property
    def wall(self) -> float:
        """Time spent inside ``cli.main``; the oracle's checks are excluded."""
        return sum(r.seconds for r in self.results)

    @property
    def correct(self) -> int:
        return sum(not r.problems for r in self.results)


def load_cli():
    """Import ``trivolve.cli`` from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "trivolve" / "__init__.py").is_file():
        print(f"error: no trivolve package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    from trivolve import cli

    if Path(cli.__file__).resolve().parent != (src / "trivolve").resolve():
        print(f"error: imported trivolve from {cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return cli


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters running the set-up probe.

    Called after ``TRIVOLVE_SEED`` is cleared, which the probes inherit.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the measurement
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT,
                              stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(f"error: set-up probe exited {proc.returncode}", file=sys.stderr)
            sys.exit(2)
    return times


def run_op(cli, op) -> tuple[int | None, str, float, str | None]:
    """One closed-loop call: (exit code, report text, seconds, escaped exception)."""
    buffer = io.StringIO()
    escaped = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op.argv + ["--format", "json"])
    except SystemExit as exc:  # argparse exits 2 on bad arguments
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # an escaping exception is a failed op, not a failed run
        code, escaped = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return code, buffer.getvalue(), seconds, escaped


def checked_op(cli, op, reference: str | None = None) -> OpResult:
    """Run one op; check its report with the oracle and against ``reference``."""
    code, text, seconds, escaped = run_op(cli, op)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if escaped is not None:
        problems = [f"exception escaped cli.main: {escaped}"]
    else:
        problems = oracle.check_report(op, code, text)
    if reference is not None and digest != reference:
        problems.append("report differs from the first run of this op")
    return OpResult(op, code, seconds, digest, problems)


def run_pass(cli, ops, reference: list[str] | None = None) -> Pass:
    return Pass([checked_op(cli, op, reference[i] if reference else None)
                 for i, op in enumerate(ops)])


def run_traced(cli, ops) -> tuple[list[Pass], Tracer, Tracer]:
    """Run each op three times in a row: sampled, untraced, traced.

    The memory-sampled run goes first and takes any first-call costs.
    The untraced and traced runs follow back to back, so they see the
    same host load, and their difference measures the tracer.
    """
    sized = frozenset(name for name, kinds in FUNCTION_METRICS.items() if "peak_mb" in kinds)
    tracer, sampler = Tracer(), Tracer(memory=sized)
    sampled, untraced, traced = [], [], []
    for op in ops:
        with sampler:
            sampled.append(checked_op(cli, op))
        untraced.append(checked_op(cli, op, sampled[-1].digest))
        with tracer:
            traced.append(checked_op(cli, op, sampled[-1].digest))
    return [Pass(untraced), Pass(traced), Pass(sampled)], tracer, sampler


def tail_percentiles(samples: list[float]) -> dict[int, float]:
    """p90 and p99 of the samples, each only when ten samples lie beyond it."""
    ordered = sorted(samples)
    out = {}
    for q in (90, 99):
        index = int(len(ordered) * q / 100)
        if len(ordered) - index - 1 >= 10:
            out[q] = ordered[index]
    return out


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    results = [r for p in passes for r in p.results]
    latencies = [r.seconds for r in results]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "ops_per_s": (statistics.median(p.correct / p.wall for p in passes), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (sum(bool(r.problems) for r in results) / len(results), "ratio"),
    }
    for q, value in tail_percentiles(latencies).items():
        metrics[f"op_p{q}_s"] = (value, "s")
    suite = [r.seconds for r in results if r.op.command == "suite"]
    if suite:
        metrics["suite_s"] = (statistics.median(suite), "s")
    for command in COMMAND_METRICS:
        sums = [sum(r.seconds for r in p.results if r.op.command == command) for p in passes]
        if any(sums):
            metrics[f"{command}_s"] = (statistics.median(sums), "s")
    return metrics


# per-layer metrics beyond "<module>.calls" and "<module>.self_s"
FUNCTION_METRICS = {
    "algebra.make_algebra": ("calls", "self_s", "peak_mb"),
    "algebra.induced_subalgebra": ("calls", "self_s"),
    "starmap.classify_multiplicativity": ("calls", "self_s", "peak_mb"),
    "trivolution.classify_star_map": ("calls", "self_s", "calls_per_op"),
    "trivolution.make_trivolution": ("calls",),
    "trivolution.canonical_decomposition": ("self_s",),
    "trivolution.factor_through_involution": ("self_s",),
    "starmap.map_norm": ("calls", "self_s"),
    "starmap.kernel_image": ("calls", "self_s"),
    "algebra.Subspace": ("calls", "self_s"),
    "linalg.echelon_rows": ("calls", "self_s"),
    "algebra.left_mult_matrix": ("calls",),
    "algebra.right_mult_matrix": ("calls",),
    "linalg.reduce_vector": ("calls", "self_s"),
    "duality.check_introverted": ("self_s",),
    "duality.extend_involution": ("self_s",),
    "duality.find_characters": ("self_s",),
    "duality.tim_obstruction_check": ("self_s",),
    "duality.arens_products": ("calls", "self_s"),
    "duality.tim_set": ("calls", "self_s"),
    "duality.dual_quotient_rep": ("calls",),
    "unitization.verify_extension": ("calls", "self_s", "calls_per_solution"),
    "unitization.find_type1_solutions": ("self_s",),
    "linalg.solve_exact": ("calls", "self_s"),
    "linalg.column_space_and_nullspace": ("calls", "self_s"),
    "linalg.svd_rank": ("calls",),
    "serialization.load_algebra": ("self_s",),
    "serialization.dumps_report": ("self_s",),
    "spectra.verify_spectral_inclusion": ("self_s",),
    "instances.instance_battery": ("self_s",),
}
LAYERS = ("cli", "serialization", "suite", "instances", "trivolution", "unitization",
          "duality", "spectra", "starmap", "algebra", "linalg")
UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB",
         "calls_per_op": "ratio", "calls_per_solution": "ratio"}


def per_layer(timed: Pass, functions: dict, memory: dict, untraced: Pass
              ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced runs; ``peak_mb`` from the sampled
    runs, since ``tracemalloc`` slows the calls it watches."""
    layers = by_layer(functions)
    metrics = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
    solutions = 0
    for r in timed.results:
        if r.op.command == "extend" and not r.problems:
            solutions += r.op.expect["type_I"] + r.op.expect["type_II"]
    empty = {"calls": 0, "self_s": 0.0, "peak_mb": 0.0}
    for name, kinds in FUNCTION_METRICS.items():
        entry = functions.get(name, empty)
        for kind in kinds:
            if kind == "calls_per_op":
                value = entry["calls"] / len(timed.results)
            elif kind == "calls_per_solution":
                value = entry["calls"] / solutions if solutions else 0.0
            elif kind == "peak_mb":
                value = memory.get(name, empty)["peak_mb"]
            else:
                value = entry[kind]
            metrics[f"{name}.{kind}"] = (value, UNITS[kind])
    metrics["trace.overhead_s"] = (timed.wall - untraced.wall, "s")
    return metrics


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("TRIVOLVE_SEED", None)
    cli = load_cli()
    declared = declared_metrics(args.trace)
    info = machine.machine_info()
    setup = measure_setup()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ops = workloads.build(args.workload, args.seed, work)
        machine.warm_blas()
        if args.trace == 0:
            passes = [run_pass(cli, ops)]
            reference = [r.digest for r in passes[0].results]
            while sum(p.wall for p in passes) < args.seconds:
                passes.append(run_pass(cli, ops, reference))
            metrics = end_to_end(passes, setup)
        else:
            passes, tracer, sampler = run_traced(cli, ops)
            untraced, traced, _ = passes
            tracer.write(out / f"{stem}-spans.jsonl.gz")
            metrics = per_layer(traced, aggregate(tracer.spans), aggregate(sampler.spans),
                                untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    results = [r for p in passes for r in p.results]
    failures = [r for r in results if r.problems]
    unexpected = [r for r in failures if r.op.defect not in KNOWN_DEFECTS]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops/pass {len(ops)}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<48} {value:>14.6g} {unit}")
    seen = set()
    for r in failures:
        key = (r.op.label, tuple(r.problems))
        if key not in seen:
            seen.add(key)
            tag = f" [known defect: {r.op.defect}]" if r.op.defect in KNOWN_DEFECTS else ""
            print(f"  FAILED {r.op.label}{tag}: {'; '.join(r.problems)}")

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": info, "passes": len(passes), "ops_per_pass": len(ops),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               "failures": sorted({f"{r.op.label}: {'; '.join(r.problems)}" for r in failures})}
    (out / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    line = {"correct": not unexpected, "attempted": len(results), "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in declared}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
