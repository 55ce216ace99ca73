"""End-to-end benchmark of the AutoComm compiler, one closed-loop client.

For each program of a workload, one pass runs the public API the way a
command-line user does:

1. ``from_qasm`` on generated QASM text, then ``compile_autocomm`` with
   the cache off, after ``clear_commutation_cache()`` so that every
   compile pays what a fresh process pays;
2. ``compile_fingerprint`` plus ``CompileCache.store`` into a fresh cache
   directory, then ``compile_autocomm`` served from that warm cache;
3. ``verify_program``;
4. a seeded ``run_monte_carlo`` with ``p_epr < 1`` in this process.

Every pass checks its outputs: the verifier finds nothing, deterministic
replay matches the analytical latency (``validate_schedule``), and the
cache served a hit whose canonical bytes equal the fresh compile's.  A
failed check is counted, never raised; replay stays outside every timing.

Passes repeat until ``--seconds`` have elapsed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes,
prints the per-layer metrics of the traced ones and writes the spans to
``.perfbench/``.  The last line of standard output is one JSON object.

Usage, from the repository root::

    python3 perfbench/run.py --workload qft-dense --seed 1 --seconds 45 \\
        --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: Start of this interpreter's set-up, before the program is imported.
_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

#: Fresh-process set-ups whose median is ``setup_s``.
SETUP_PROBES = 7
#: In-process set-ups of the traced run (for ``hardware.topology_s``).
TRACED_SETUPS = 3
#: Correctness checks per program and pass: verify, replay, cache.
CHECKS_PER_PROGRAM = 3

#: ``name -> unit`` of the ``--trace 0`` metrics.
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "cache_fill_s": "s",
    "cache_hit_s": "s",
    "verify_s": "s",
    "mc_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "total_comm": "count",
    "total_epr_pairs": "count",
    "program_latency": "CX",
    "mc_latency_mean": "CX",
}

#: ``name -> unit`` of the ``--trace 1`` metrics.
PER_LAYER = {
    "ir.parse_s": "s",
    "ir.decompose_s": "s",
    "ir.commutation_hit_ratio": "share",
    "partition.oee_s": "s",
    "core.aggregation_s": "s",
    "core.aggregation_items": "count",
    "core.assignment_s": "s",
    "core.plan_s": "s",
    "core.schedule_execute_s": "s",
    "core.schedule_candidates": "count",
    "persist.fingerprint_s": "s",
    "persist.encode_s": "s",
    "persist.decode_s": "s",
    "persist.artifact_bytes": "bytes",
    "verify.checks_s": "s",
    "verify.checks_run": "count",
    "verify.diagnostics": "count",
    "sim.plan_s": "s",
    "sim.trial_s": "s",
    "sim.epr_attempts_per_trial": "count",
    "hardware.topology_s": "s",
    "trace.overhead_s": "s",
}

#: ``per-layer metric -> (span name, step, divisor)`` of the summed self
#: times; the divisor turns a pass total into a per-operation time.
_LAYER_TIMES = {
    "ir.parse_s": ("ir.parse", "step.compile", "compile_reps"),
    "ir.decompose_s": ("ir.decompose", "step.compile", "compile_reps"),
    "partition.oee_s": ("partition.oee", "step.compile", "compile_reps"),
    "core.aggregation_s": ("core.aggregation", "step.compile",
                           "compile_reps"),
    "core.assignment_s": ("core.assignment", "step.compile",
                          "compile_reps"),
    "core.plan_s": ("core.plan", "step.compile", "compile_reps"),
    "core.schedule_execute_s": ("core.scheduling", "step.compile",
                                "compile_reps"),
    "persist.fingerprint_s": ("persist.fingerprint", "step.fill",
                              "fill_reps"),
    "persist.encode_s": ("persist.encode", "step.fill", "fill_reps"),
    "persist.decode_s": ("persist.decode", "step.hit", "hit_reps"),
    "verify.checks_s": ("step.verify", "step.verify", "verify_reps"),
    "sim.plan_s": ("sim.plan", "step.mc", None),
}

#: ``per-layer metric -> (span name, step)`` counted per compile.
_LAYER_COUNTS = {
    "core.schedule_candidates": ("core.plan", "step.compile"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no program to run)."""


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise BenchmarkError(f"cannot import repro from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise BenchmarkError(f"repro imported from {repro.__file__}, "
                             f"not from {src}")


# ---------------------------------------------------------------- one pass

@dataclass
class ProgramResult:
    label: str
    compile_s: List[float] = field(default_factory=list)
    fill_s: List[float] = field(default_factory=list)
    hit_s: List[float] = field(default_factory=list)
    verify_s: List[float] = field(default_factory=list)
    #: Seconds of each Monte-Carlo call, ``mc_trials`` trials each.
    mc_s: List[float] = field(default_factory=list)
    mc_trials: int = 0
    total_comm: float = 0.0
    total_epr_pairs: float = 0.0
    program_latency: float = 0.0
    mc_latency_mean: float = 0.0
    epr_attempts: int = 0
    commutation: Dict[str, int] = field(default_factory=dict)
    aggregation_items: int = 0
    artifact_bytes: int = 0
    checks_run: int = 0
    diagnostics: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass
class Pass:
    programs: List[ProgramResult]
    failed: int
    wall_s: float
    traced: bool

    @property
    def complete(self) -> bool:
        return not self.failed


class Stopwatch:
    seconds = 0.0


@contextmanager
def timed(recorder, name: str):
    """Time the block; under a recorder, also record it as a step span."""
    watch = Stopwatch()
    with (recorder.span(name) if recorder is not None else nullcontext()):
        start = time.perf_counter()
        try:
            yield watch
        finally:
            watch.seconds = time.perf_counter() - start


def run_program(item, workload, mc_seed: int, workdir: Path, recorder,
                tamper=None) -> ProgramResult:
    """One closed-loop request: compile, cache, verify and simulate.

    ``tamper``, when given, is called with the path of the stored cache
    artifact before the cache is read back (the self-test plants failures
    through it).
    """
    from repro.core import pipeline
    from repro.ir import qasm
    from repro.ir.commutation import (clear_commutation_cache,
                                      commutation_cache_stats)
    from repro.persist import codec, fingerprint
    from repro.persist.cache import CompileCache
    from repro.sim import SimulationConfig, run_monte_carlo, validate_schedule
    from repro.verify import verify_program
    from workloads import P_EPR

    result = ProgramResult(item.label)
    for _ in range(workload.compile_reps):
        gc.collect()
        clear_commutation_cache()
        with timed(recorder, "step.compile") as watch:
            circuit = qasm.from_qasm(item.qasm)
            program = pipeline.compile_autocomm(circuit, item.network,
                                                config=item.config,
                                                cache=False)
        result.compile_s.append(watch.seconds)
    result.commutation = commutation_cache_stats()
    result.aggregation_items = len(program.aggregation.items)
    metrics = program.metrics
    result.total_comm = metrics.total_comm
    result.total_epr_pairs = metrics.total_epr_pairs
    result.program_latency = metrics.latency

    gc.collect()
    for _ in range(workload.fill_reps):
        cache = CompileCache(tempfile.mkdtemp(dir=workdir))
        with timed(recorder, "step.fill") as watch:
            key = fingerprint.compile_fingerprint(circuit, item.network,
                                                  config=item.config)
            cache.store(key, program)
        result.fill_s.append(watch.seconds)
    if tamper is not None:
        tamper(cache.path_for(key))
    gc.collect()
    for _ in range(workload.hit_reps):
        with timed(recorder, "step.hit") as watch:
            served = pipeline.compile_autocomm(circuit, item.network,
                                               config=item.config,
                                               cache=cache)
        result.hit_s.append(watch.seconds)
    counters = cache.counters()
    expected = codec.dumps_program(program, spans=False)
    result.artifact_bytes = len(expected)
    if counters["hits"] != workload.hit_reps or counters["corrupt"]:
        result.failures.append(f"cache: counters {counters}, expected "
                               f"{workload.hit_reps} clean hits")
    elif codec.dumps_program(served, spans=False) != expected:
        result.failures.append("cache: served bytes differ from the "
                               "fresh compile's")

    gc.collect()
    for _ in range(workload.verify_reps):
        with timed(recorder, "step.verify") as watch:
            report = verify_program(program)
        result.verify_s.append(watch.seconds)
    result.checks_run = len(report.checks_run)
    result.diagnostics = len(report.diagnostics)
    if not report.clean:
        result.failures.append("verify: " + report.render())

    with timed(recorder, "step.check"):
        replay = validate_schedule(program)
    if not replay.matches:
        result.failures.append("replay: " + replay.describe())

    gc.collect()
    latencies = []
    for call in range(workload.mc_calls):
        config = SimulationConfig(p_epr=P_EPR, seed=mc_seed + call,
                                  trials=workload.mc_trials, workers=1)
        with timed(recorder, "step.mc") as watch:
            monte_carlo = run_monte_carlo(program, config)
        result.mc_s.append(watch.seconds)
        latencies.extend(monte_carlo.latencies)
        result.epr_attempts += sum(monte_carlo.epr_attempts)
    result.mc_trials = workload.mc_trials
    result.mc_latency_mean = statistics.fmean(latencies)
    return result


def run_pass(prepared, workload, mc_seed: int, workdir: Path, recorder,
             index: int, tamper=None) -> Pass:
    """Run every program of the workload once; count failed checks."""
    start = time.perf_counter()
    programs = []
    failed = 0
    for offset, item in enumerate(prepared):
        if recorder is not None:
            recorder.run = f"pass{index}/{item.label}"
        try:
            result = run_program(item, workload, mc_seed + 1000 * offset,
                                 workdir, recorder, tamper)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += CHECKS_PER_PROGRAM
            continue
        for failure in result.failures:
            print(f"perfbench: check failed on {item.label}: {failure}",
                  file=sys.stderr)
        failed += len(result.failures)
        programs.append(result)
    return Pass(programs, failed, time.perf_counter() - start,
                recorder is not None)


# ------------------------------------------------------------------ set-up

def setup_probe(workload_name: str, seed: int, scale: str) -> float:
    """Seconds from this file's start, before the program is imported, to
    generated inputs."""
    _load_program()
    from workloads import WORKLOADS, prepare
    prepare(WORKLOADS[workload_name], seed, scale)
    return time.perf_counter() - _T0


def probe_setups(args) -> List[float]:
    """``SETUP_PROBES`` set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(completed.stdout.splitlines()[-1])
                       ["setup_s"])
    return samples


# ----------------------------------------------------------------- metrics

def tail_percentile(samples: List[float]):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _samples(passes: List[Pass], attribute: str) -> List[float]:
    """One sample per repetition of a step: its time summed over programs."""
    return [sum(reps) for one in passes
            for reps in zip(*(getattr(p, attribute) for p in one.programs))]


def end_to_end(passes: List[Pass], setups: List[float]):
    """``(metrics, samples)``: medians, and the samples behind timings."""
    passes = [p for p in passes if p.complete]
    samples = {
        "setup_s": setups,
        "compile_s": _samples(passes, "compile_s"),
        "cache_fill_s": _samples(passes, "fill_s"),
        "cache_hit_s": _samples(passes, "hit_s"),
        "verify_s": _samples(passes, "verify_s"),
        "mc_trials_per_s": [sum(p.mc_trials for p in one.programs) / seconds
                            for one in passes
                            for seconds in _samples([one], "mc_s")],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    last = passes[-1].programs if passes else []
    for name in ("total_comm", "total_epr_pairs", "program_latency",
                 "mc_latency_mean"):
        metrics[name] = float(sum(getattr(p, name) for p in last))
    return metrics, samples


def per_layer(passes: List[Pass], recorder, workload,
              topology_s: List[float]):
    """``(metrics, samples)`` of the traced passes, from spans and results."""
    from tracing import self_times, step_of

    spans = recorder.spans
    own = self_times(spans)
    # (pass, span name, step) -> summed self time and number of spans.
    totals: Dict[tuple, float] = defaultdict(float)
    counts: Dict[tuple, int] = defaultdict(int)
    for span in spans:
        if span.run.startswith("pass"):
            key = (span.run.split("/")[0], span.name, step_of(spans, span))
            totals[key] += own[span.id]
            counts[key] += 1

    traced = [p for p in passes if p.traced and p.complete]
    untraced = [p for p in passes if not p.traced and p.complete]
    runs = [f"pass{index}" for index, p in enumerate(passes)
            if p.traced and p.complete]
    samples: Dict[str, List[float]] = {}
    for name, (span_name, step, divisor) in _LAYER_TIMES.items():
        scale = getattr(workload, divisor) if divisor else 1
        samples[name] = [totals[(run, span_name, step)] / scale
                         for run in runs]
    samples["sim.trial_s"] = [
        totals[(run, "sim.trial", "step.mc")]
        / max(1, counts[(run, "sim.trial", "step.mc")]) for run in runs]
    samples["hardware.topology_s"] = topology_s
    metrics = {name: _median(values) for name, values in samples.items()}
    for name, (span_name, step) in _LAYER_COUNTS.items():
        metrics[name] = _median([counts[(run, span_name, step)]
                                 / workload.compile_reps for run in runs])

    last = traced[-1].programs if traced else []
    hits = sum(p.commutation.get("hits", 0) for p in last)
    misses = sum(p.commutation.get("misses", 0) for p in last)
    trials = sum(p.mc_trials * len(p.mc_s) for p in last)
    metrics.update({
        "ir.commutation_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "core.aggregation_items": sum(p.aggregation_items for p in last),
        "persist.artifact_bytes": sum(p.artifact_bytes for p in last),
        "verify.checks_run": sum(p.checks_run for p in last),
        "verify.diagnostics": sum(p.diagnostics for p in last),
        "sim.epr_attempts_per_trial": (sum(p.epr_attempts for p in last)
                                       / trials if trials else 0.0),
        "trace.overhead_s": (_median([p.wall_s for p in traced])
                             - _median([p.wall_s for p in untraced])),
    })
    return metrics, samples


def _print_table(metrics, units, samples) -> None:
    for name, unit in units.items():
        line = f"{name:<30} {metrics[name]:>16.6g} {unit}"
        values = samples.get(name)
        if values:
            line += f"  (median of n={len(values)}"
            tail = tail_percentile(values)
            if tail is not None:
                line += f", p{tail[0]} {tail[1]:.6g}"
            line += ")"
        print(line)


# -------------------------------------------------------------------- main

def measure(args) -> int:
    _load_program()
    from tracing import SpanRecorder
    from workloads import WORKLOADS, derive_seeds, prepare

    workload = WORKLOADS[args.workload]
    _, mc_seed = derive_seeds(args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    recorder = SpanRecorder() if args.trace else None
    topology_s: List[float] = []
    passes: List[Pass] = []
    try:
        if recorder is None:
            prepared = prepare(workload, args.seed, args.scale)
            setups = probe_setups(args)
        else:
            setups = []
            with recorder.installed():
                for index in range(TRACED_SETUPS):
                    recorder.run = f"setup{index}"
                    first = len(recorder.spans)
                    prepared = prepare(workload, args.seed, args.scale)
                    topology_s.append(sum(
                        s.duration for s in recorder.spans[first:]
                        if s.name == "hardware.topology"))

        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(prepared, workload, mc_seed, workdir,
                                   None, len(passes)))
            if recorder is not None:
                # The same pass again, traced: the difference between the
                # two is the tracing overhead.
                with recorder.installed():
                    passes.append(run_pass(prepared, workload, mc_seed,
                                           workdir, recorder, len(passes)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = CHECKS_PER_PROGRAM * len(prepared) * len(passes)
    failed = sum(p.failed for p in passes)
    if recorder is None:
        units = END_TO_END
        metrics, samples = end_to_end(passes, setups)
    else:
        units = PER_LAYER
        metrics, samples = per_layer(passes, recorder, workload, topology_s)
        recorder.write(WORK_DIR / f"spans-{args.workload}-seed{args.seed}"
                                  ".jsonl")
    complete = sum(p.complete for p in passes)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(passes)} passes ({complete} complete), "
          f"{attempted} checks, error_rate {failed / attempted:.6g}")
    _print_table(metrics, units, samples)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("qft-dense", "uccsd-deep", "sparse-remap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload,
                                                     args.seed, args.scale)}))
            return 0
        return measure(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
