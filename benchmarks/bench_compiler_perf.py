"""Compiler perf-regression benchmark (the ``BENCH_compiler.json`` trajectory).

Times the optimized AutoComm passes (indexed aggregation + cached
commutation + memoised plan construction) against the preserved
pre-optimization reference pipeline (``repro.core.*_reference``) on the
benchmark suite, asserts that both produce identical results, and emits a
machine-readable report.  The committed ``BENCH_compiler.json`` at the
repository root is the perf trajectory: CI re-runs this benchmark at
``small`` scale and fails when a config's speedup regresses by more than
2x against that baseline.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_compiler_perf.py \
        --scale medium --families QFT,BV --output BENCH_compiler.json

or through pytest (``pytest benchmarks/bench_compiler_perf.py``), which
writes ``benchmarks/results/compiler_perf.txt`` as the other harnesses do.

Timing protocol: per configuration the three passes (aggregation,
assignment, scheduling) run ``--repeat`` times per implementation with cold
commutation caches (cleared before every run) on a shared decomposed
circuit and OEE mapping; the median wall time is reported.  Scope
deliberately excludes decomposition and partitioning, which are identical
byte-for-byte in both paths.

The report also carries ``aggregation_scaling``: absolute aggregation wall
time and burst-plan build time (``plan_schedule``: TP-chain fusion plus the
commutation-aware dependency graph) for QFT-40/70/100 on a ring with 10
qubits per node (median of ``--repeat`` cold-cache runs) and the exponent
of a least-squares fit of log time against log qubits for each.
``--before REPORT`` copies another report's ``aggregation_scaling`` into
this one as its ``before`` block, so the committed file holds the rows of
the code before a change next to the rows after it.  To record the before
rows, run this script with ``PYTHONPATH`` pointing at the older tree's
``src``.

``slot_search_scaling`` does the same for comm-qubit slot search, which
both list schedulers lean on: UCCSD-6/8/10 on a 4-node line, with the
per-trial time of a seeded ``p_epr = 0.5`` Monte-Carlo run and the time of
the analytical schedule execution (plans already built), each the median of
``--repeat`` runs, and both fitted exponents against the communication
count.  ``--before`` copies this section's ``before`` block too.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow standalone runs without PYTHONPATH=src
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        try:
            import repro  # noqa: F401
        except ImportError:
            sys.path.insert(0, src)

from _harness import BENCH_SCALES, emit
from repro.circuits import (BenchmarkSpec, paper_configurations, qft_circuit,
                            scaled_configurations, uccsd_circuit)
from repro.core import (
    aggregate_communications,
    aggregate_communications_reference,
    assign_communications,
    assign_communications_reference,
    compile_autocomm,
    plan_schedule,
    schedule_communications,
    schedule_communications_reference,
)
from repro.hardware import apply_topology, uniform_network
from repro.ir import Gate, clear_commutation_cache, decompose_to_cx
from repro.partition import oee_partition
from repro.sim import SimulationConfig, run_monte_carlo

DEFAULT_FAMILIES = ("QFT", "BV")
DEFAULT_REPEAT = 5
#: CI fails when a config's measured speedup drops below baseline / this.
REGRESSION_FACTOR = 2.0
#: QFT widths of the aggregation scaling rows (10 qubits per node, ring).
SCALING_QUBITS = (40, 70, 100)
QUBITS_PER_NODE = 10
#: UCCSD widths of the slot-search scaling rows (4-node line).
SLOT_SCALING_QUBITS = (6, 8, 10)
SLOT_SCALING_NODES = 4
#: Seeded Monte-Carlo run timed per ``slot_search_scaling`` sample.
SLOT_SCALING_MC = SimulationConfig(p_epr=0.5, seed=3, trials=3,
                                   record_trace=False, record_metrics=False)
#: Report sections whose ``before`` block ``--before`` fills in.
SCALING_SECTIONS = ("aggregation_scaling", "slot_search_scaling")


def _compile_optimized(circuit, mapping, network):
    aggregation = aggregate_communications(circuit, mapping)
    assignment = assign_communications(aggregation)
    schedule = schedule_communications(assignment, network)
    return assignment, schedule


def _compile_reference(circuit, mapping, network):
    aggregation = aggregate_communications_reference(circuit, mapping)
    assignment = assign_communications_reference(aggregation)
    schedule = schedule_communications_reference(assignment, network)
    return assignment, schedule


def _result_fingerprint(assignment, schedule) -> tuple:
    return (assignment.cost, len(assignment.blocks),
            tuple(sorted((s.value, n) for s, n
                         in assignment.scheme_histogram.items())),
            round(schedule.latency, 9), schedule.mode,
            schedule.num_comm_ops, schedule.num_fused_chains)


def _bench_config(spec: BenchmarkSpec, repeat: int) -> Dict[str, object]:
    circuit, network = spec.build()
    decomposed = decompose_to_cx(circuit)
    mapping = oee_partition(decomposed, network).mapping

    timings: Dict[str, List[float]] = {"optimized": [], "reference": []}
    fingerprints = {}
    for label, runner in (("optimized", _compile_optimized),
                          ("reference", _compile_reference)):
        for _ in range(repeat):
            clear_commutation_cache()
            begin = time.perf_counter()
            assignment, schedule = runner(decomposed, mapping, network)
            timings[label].append(time.perf_counter() - begin)
        fingerprints[label] = _result_fingerprint(assignment, schedule)

    optimized_s = statistics.median(timings["optimized"])
    reference_s = statistics.median(timings["reference"])
    return {
        "name": spec.name,
        "family": spec.family,
        "gates": len(decomposed),
        "optimized_ms": round(optimized_s * 1e3, 3),
        "reference_ms": round(reference_s * 1e3, 3),
        "speedup": round(reference_s / optimized_s, 2),
        "results_equal": fingerprints["optimized"] == fingerprints["reference"],
    }


def fitted_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Slope of the least-squares line through ``(log size, log time)``."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in times]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    return (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            / sum((x - mean_x) ** 2 for x in xs))


def aggregation_scaling(repeat: int,
                        sizes: Sequence[int] = SCALING_QUBITS
                        ) -> Dict[str, object]:
    """Absolute aggregation and burst-plan time for QFT on a ring, and the
    fitted exponent of each."""
    rows = []
    for num_qubits in sizes:
        nodes = -(-num_qubits // QUBITS_PER_NODE)
        circuit = decompose_to_cx(qft_circuit(num_qubits))
        network = apply_topology(uniform_network(nodes, QUBITS_PER_NODE),
                                 "ring")
        mapping = oee_partition(circuit, network).mapping
        samples = []
        plan_samples = []
        for _ in range(repeat):
            clear_commutation_cache()
            begin = time.perf_counter()
            result = aggregate_communications(circuit, mapping)
            samples.append(time.perf_counter() - begin)
            # A fresh assignment each time: plans are memoised on it.
            assignment = assign_communications(result)
            clear_commutation_cache()
            begin = time.perf_counter()
            plan_schedule(assignment, burst=True)
            plan_samples.append(time.perf_counter() - begin)
        rows.append({"name": f"QFT-{num_qubits}-{nodes}-ring",
                     "qubits": num_qubits, "nodes": nodes,
                     "gates": len(circuit), "items": len(result.items),
                     "aggregation_ms": round(
                         statistics.median(samples) * 1e3, 3),
                     "plan_ms": round(
                         statistics.median(plan_samples) * 1e3, 3)})
    qubits = [row["qubits"] for row in rows]
    exponent = fitted_exponent(qubits,
                               [row["aggregation_ms"] for row in rows])
    plan_exponent = fitted_exponent(qubits, [row["plan_ms"] for row in rows])
    return {"topology": "ring", "qubits_per_node": QUBITS_PER_NODE,
            "rows": rows, "exponent": round(exponent, 2),
            "plan_exponent": round(plan_exponent, 2)}


def _median_ms(repeat: int, run) -> float:
    samples = []
    for _ in range(repeat):
        begin = time.perf_counter()
        run()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples) * 1e3


def slot_search_scaling(repeat: int) -> Dict[str, object]:
    """Per-trial Monte-Carlo and schedule-execute time for UCCSD on a line."""
    rows = []
    for num_qubits in SLOT_SCALING_QUBITS:
        nodes = SLOT_SCALING_NODES
        network = apply_topology(
            uniform_network(nodes, -(-num_qubits // nodes)), "line")
        program = compile_autocomm(uccsd_circuit(num_qubits), network)
        assignment = program.assignment
        mc_ms = _median_ms(repeat, lambda: run_monte_carlo(
            program, SLOT_SCALING_MC)) / SLOT_SCALING_MC.trials
        # The compile above memoised both plans and their op profiles on the
        # assignment, so this times the two list-scheduling executions only.
        execute_ms = _median_ms(repeat, lambda: schedule_communications(
            assignment, network))
        rows.append({"name": f"UCCSD-{num_qubits}-{nodes}-line",
                     "qubits": num_qubits, "nodes": nodes,
                     "comm": program.metrics.total_comm,
                     "mc_trial_ms": round(mc_ms, 3),
                     "schedule_execute_ms": round(execute_ms, 3)})
    comms = [row["comm"] for row in rows]
    return {"topology": "line", "nodes": SLOT_SCALING_NODES,
            "mc_trials": SLOT_SCALING_MC.trials, "p_epr": SLOT_SCALING_MC.p_epr,
            "rows": rows,
            "mc_trial_exponent": round(fitted_exponent(
                comms, [row["mc_trial_ms"] for row in rows]), 2),
            "schedule_execute_exponent": round(fitted_exponent(
                comms, [row["schedule_execute_ms"] for row in rows]), 2)}


def _microbench_gate_qubit_set() -> Dict[str, float]:
    """Satellite micro-benchmark: cached ``Gate.qubit_set`` vs re-building."""
    gate = Gate("cx", (3, 17))
    iterations = 200_000
    begin = time.perf_counter()
    for _ in range(iterations):
        gate.qubit_set
    cached_ns = (time.perf_counter() - begin) / iterations * 1e9
    begin = time.perf_counter()
    for _ in range(iterations):
        set(gate.qubits)
    rebuild_ns = (time.perf_counter() - begin) / iterations * 1e9
    return {"qubit_set_ns": round(cached_ns, 1),
            "set_qubits_ns": round(rebuild_ns, 1),
            "speedup": round(rebuild_ns / cached_ns, 2)}


def run_bench(scale: str, families: Sequence[str] = DEFAULT_FAMILIES,
              repeat: int = DEFAULT_REPEAT) -> Dict[str, object]:
    if scale == "paper":
        specs = paper_configurations()
    else:
        specs = scaled_configurations(scale)
    wanted = {family.upper() for family in families}
    specs = [spec for spec in specs if spec.family in wanted]
    if not specs:
        raise ValueError(f"no benchmark configurations for families {families}")

    configs = [_bench_config(spec, repeat) for spec in specs]
    speedups = sorted(config["speedup"] for config in configs)
    per_family = {
        family: round(statistics.median(
            [c["speedup"] for c in configs if c["family"] == family]), 2)
        for family in sorted({c["family"] for c in configs})
    }
    return {
        "bench": "compiler_perf",
        "schema": 3,
        "scale": scale,
        "repeat": repeat,
        "configs": configs,
        "median_speedup": round(statistics.median(speedups), 2),
        "median_speedup_by_family": per_family,
        "all_results_equal": all(c["results_equal"] for c in configs),
        "micro": {"gate_qubit_set": _microbench_gate_qubit_set()},
        "aggregation_scaling": aggregation_scaling(repeat),
        "slot_search_scaling": slot_search_scaling(repeat),
    }


def check_regression(report: Dict[str, object],
                     baseline: Dict[str, object]) -> List[str]:
    """Compare a fresh report against the committed baseline.

    Speedups (reference time / optimized time) are machine-independent, so
    they are the regression signal: a config fails when its speedup fell
    below ``baseline_speedup / REGRESSION_FACTOR``.
    """
    failures = []
    baseline_configs = {c["name"]: c for c in baseline.get("configs", [])}
    for config in report["configs"]:
        if not config["results_equal"]:
            failures.append(f"{config['name']}: optimized and reference "
                            "pipelines disagree")
        base = baseline_configs.get(config["name"])
        if base is None:
            continue
        floor = base["speedup"] / REGRESSION_FACTOR
        if config["speedup"] < floor:
            failures.append(
                f"{config['name']}: speedup {config['speedup']}x fell below "
                f"{floor:.1f}x (baseline {base['speedup']}x / "
                f"{REGRESSION_FACTOR})")
    return failures


def _emit_report(report: Dict[str, object]) -> None:
    rows = [dict(config) for config in report["configs"]]
    note = (f"median speedup {report['median_speedup']}x over "
            f"{len(rows)} configs; by family: "
            f"{report['median_speedup_by_family']}; "
            f"gate.qubit_set micro: {report['micro']['gate_qubit_set']}")
    emit("compiler_perf", rows,
         columns=["name", "gates", "optimized_ms", "reference_ms",
                  "speedup", "results_equal"],
         note=note)
    scaling = report["aggregation_scaling"]
    emit("compiler_aggregation_scaling", scaling["rows"],
         columns=["name", "gates", "items", "aggregation_ms", "plan_ms"],
         note=f"fitted exponents (log time vs log qubits): aggregation "
              f"{scaling['exponent']}, burst plan "
              f"{scaling['plan_exponent']}")
    slots = report["slot_search_scaling"]
    emit("compiler_slot_search_scaling", slots["rows"],
         columns=["name", "comm", "mc_trial_ms", "schedule_execute_ms"],
         note=f"fitted exponents vs communication count: Monte-Carlo per "
              f"trial {slots['mc_trial_exponent']}, schedule execute "
              f"{slots['schedule_execute_exponent']}")


def test_bench_compiler_perf():
    """Pytest entry point (uses the REPRO_BENCH_SCALE protocol)."""
    from _harness import bench_scale

    report = run_bench(bench_scale())
    _emit_report(report)
    assert report["all_results_equal"], \
        "optimized and reference compile pipelines disagree"


def test_fitted_exponent_recovers_power_law():
    sizes = [40, 70, 100]
    assert abs(fitted_exponent(sizes, [2.5 * n ** 4 for n in sizes]) - 4) \
        < 1e-9


def test_bench_scale_is_validated(monkeypatch):
    """Unknown REPRO_BENCH_SCALE values fail loudly with the allowed set."""
    import pytest

    from _harness import bench_scale

    monkeypatch.setenv("REPRO_BENCH_SCALE", "enormous")
    with pytest.raises(ValueError, match="small, medium, paper"):
        bench_scale()
    for scale in BENCH_SCALES:
        monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
        assert bench_scale() == scale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compiler perf-regression benchmark")
    parser.add_argument("--scale", choices=BENCH_SCALES, default="small")
    parser.add_argument("--families", default=",".join(DEFAULT_FAMILIES),
                        help="comma-separated benchmark families "
                             f"(default {','.join(DEFAULT_FAMILIES)})")
    parser.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here "
                             "(e.g. BENCH_compiler.json)")
    parser.add_argument("--before", type=Path, default=None,
                        help="report whose aggregation_scaling and "
                             "slot_search_scaling become this report's "
                             "before blocks")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_compiler.json to check for "
                             ">2x speedup regressions (exit 1 on failure)")
    args = parser.parse_args(argv)

    families = [f for f in args.families.split(",") if f]
    report = run_bench(args.scale, families=families, repeat=args.repeat)
    if args.before is not None:
        previous = json.loads(args.before.read_text())
        for section in SCALING_SECTIONS:
            if section in previous:
                before = previous[section]
                before.pop("before", None)
                report[section]["before"] = before
    _emit_report(report)

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if not report["all_results_equal"]:
        print("FAIL: optimized and reference pipelines disagree",
              file=sys.stderr)
        return 1
    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            return 1
        baseline = json.loads(args.baseline.read_text())
        if baseline.get("scale") != report["scale"]:
            print(f"note: baseline scale {baseline.get('scale')!r} differs "
                  f"from run scale {report['scale']!r}; comparing by config "
                  "name only")
        failures = check_regression(report, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("regression check against baseline: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
