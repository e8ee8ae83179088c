"""Bench harness for dreglex: named, seeded workloads driven through the
public CLI entry point ``dreglex.cli.main(argv)``, in process.

    python3 bench/run.py --workload paper|hilbert-lex|oracle
                         [--seed N] [--seconds S] [--trace 0|1]

One process, one thread, one caller in a closed loop: ops run one after
another, whole passes over the workload's op list, until the next pass would
end past ``--seconds`` (at least one pass).  Every op's exit code and stdout
digest are checked against the references in pool.json; exit 0 with other
output fails the run.  The op list, its input files and the per-op results
are written under bench/runs/<workload>-seed<N>/ for replay.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the per-layer wrappers of tracing.py and
reports the per-layer metrics.  The last stdout line is one JSON object.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 21
WORKLOADS = ("paper", "hilbert-lex", "oracle")
E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def import_program():
    """Import dreglex and dreglex.cli afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "dreglex" or n.startswith("dreglex.")]:
        del sys.modules[name]
    importlib.import_module("dreglex")
    return importlib.import_module("dreglex.cli")


def set_up(workload: str, seed: int, rundir: Path):
    """The timed set-up: import the program and materialise the inputs."""
    cli = import_program()
    pool = json.loads((HERE / "pool.json").read_text(encoding="utf-8"))
    slots = pool["workloads"][workload]
    ops = harness.materialise(harness.select_ops(slots, workload, seed), rundir)
    return cli, ops


class Phase:
    """Per-op samples and outcomes of whole passes over the op list."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = {op["id"]: [] for op in ops}
        self.outputs: dict[str, tuple[int, str]] = {}
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.snapshots: list[dict] = []
        self.passes = 0

    def op_times_ms(self) -> list[float]:
        """Each op's fastest repetition.  On a shared machine interference
        only ever adds time, so the minimum is the steady estimate of what
        the op costs (as timeit reports it)."""
        return [min(self.samples[op["id"]]) / 1e6 for op in self.ops]

    def ops_per_s(self) -> float:
        return len(self.ops) / (sum(self.op_times_ms()) / 1e3)


def run_pass(cli, phase: Phase, tracer=None) -> None:
    """One pass over the op list, recording every op's time and outcome."""
    for op in phase.ops:
        gc.collect()  # each op starts from a clean heap, as a fresh CLI process would
        code, out, elapsed, err = harness.run_op(cli.main, op["full_argv"])
        phase.samples[op["id"]].append(elapsed)
        phase.attempted += 1
        result = harness.outcome(op, code, out)
        if result == "failed":
            phase.failed += 1
        elif result == "wrong":
            phase.wrong.append(op["id"])
        phase.outputs.setdefault(op["id"], (code, harness.digest(out)))
    phase.passes += 1
    if tracer is not None:
        phase.snapshots.append(tracer.take())


def run_phase(cli, ops, budget_s: float) -> Phase:
    """Whole untraced passes until the next one would end past the budget."""
    phase = Phase(ops)
    start = time.perf_counter_ns()
    while True:
        pass_start = time.perf_counter_ns()
        run_pass(cli, phase)
        now = time.perf_counter_ns()
        if (now - start) + (now - pass_start) > budget_s * 1e9:
            return phase


def run_traced(cli, ops, budget_s: float):
    """Untraced and traced passes in turn, so that drift in the machine's
    speed during the run weighs on both alike."""
    untraced, traced, tracer = Phase(ops), Phase(ops), tracing.Tracer()
    start = time.perf_counter_ns()
    while True:
        pair_start = time.perf_counter_ns()
        run_pass(cli, untraced)
        inst = tracing.install(tracer)
        try:
            run_pass(cli, traced, tracer)
        finally:
            inst.uninstall()
        now = time.perf_counter_ns()
        if (now - start) + (now - pair_start) > budget_s * 1e9:
            return untraced, traced, inst


def end_to_end(phase: Phase, setups_ns: list[int]) -> tuple[dict, list[str]]:
    times = phase.op_times_ms()
    count = len(times)
    p = harness.tail_percentile(count)
    fail = harness.fail_ratio(phase.attempted, phase.failed)
    values = {
        "ops_per_s": phase.ops_per_s(),
        "latency_p50_ms": harness.median(times),
        "latency_tail_ms": harness.percentile(times, p),
        "success_ratio": 1.0 - fail,
        "setup_s": harness.median(setups_ns) / 1e9,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = sum(len(s) for s in phase.samples.values())
    notes = {
        "ops_per_s": f"{count} ops / sum of per-op times; {phase.passes} passes, {samples} samples",
        "latency_p50_ms": f"median over {count} ops of each op's fastest CPU time in {phase.passes} passes",
        "latency_tail_ms": f"p{p:g} of the same {count} per-op times ({count * (100 - p) / 100:g} ops beyond)",
        "success_ratio": f"1 - fail_ratio; fail_ratio = {phase.failed}/{phase.attempted} = {fail:.6g}",
        "setup_s": f"median CPU time of {len(setups_ns)} set-ups (import dreglex, dreglex.cli; materialise inputs)",
        "peak_rss_mib": "ru_maxrss of this process",
    }
    lines = [f"{name:<17} {values[name]:>12.6g} {E2E_UNITS[name]:<5}  {notes[name]}" for name in E2E_UNITS]
    lines.insert(4, f"{'fail_ratio':<17} {fail:>12.6g} {'ratio':<5}  ops exiting non-zero / ops attempted")
    return values, lines


def per_layer(traced: Phase, untraced: Phase, inst, workload: str) -> tuple[dict, list[str]]:
    absent = inst.absent_groups()
    per_pass = [tracing.layer_metrics(s, absent) for s in traced.snapshots]
    values, lines = {}, []
    for name, unit, _ in tracing.METRICS:
        seen = [m[name] for m in per_pass]
        if seen[0] is None:
            values[name] = 0
            lines.append(f"{name:<36} {'absent':>14}")
            continue
        values[name] = harness.median(seen)
        note = "" if unit != "count" or len(set(seen)) == 1 else "  (differs between passes)"
        lines.append(f"{name:<36} {values[name]:>14.6g} {unit}{note}")
    values["trace.overhead_ratio"] = untraced.ops_per_s() / traced.ops_per_s()
    lines.append(f"{'trace.overhead_ratio':<36} {values['trace.overhead_ratio']:>14.6g} ratio"
                 "  untraced ops_per_s / traced ops_per_s")
    absent_targets = sorted(t for t, s in inst.status.items() if s == "absent")
    if absent_targets:
        lines.append("absent wrap targets: " + ", ".join(absent_targets))
    total = {"self_ns": {}}
    for snap in traced.snapshots:
        for group, ns in snap["self_ns"].items():
            total["self_ns"][group] = total["self_ns"].get(group, 0) + ns
    shares = tracing.module_shares(total)
    lines.append(f"self-time share by module on {workload} (reported, not gated): "
                 + ", ".join(f"{m} {share:.1%}" for m, share in shares.items()))
    for metric, where in (("koszul.koszul_betti.calls", "hilbert-lex"), ("monomials.lex_prefix.calls", "oracle")):
        if workload == where:
            lines.append(f"structural zero (reported, not gated): {metric} = {values[metric]:g}"
                         + (" as expected" if values[metric] == 0 else " - NOT ZERO"))
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dreglex bench harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dreglex" / "cli.py").is_file():
        print(f"error: no dreglex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    rundir = Path("bench/runs") / f"{args.workload}-seed{args.seed}"

    setups = []
    for _ in range(SETUP_REPEATS):
        start = harness.cpu_ns()
        cli, ops = set_up(args.workload, args.seed, rundir)
        setups.append(harness.cpu_ns() - start)
    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "dreglex").resolve():
        print(f"error: imported dreglex from {cli.__file__}, not from src/", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()

    header = (f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
              "closed loop, 1 caller, in process")
    if args.trace:
        untraced, traced, inst = run_traced(cli, ops, args.seconds)
        phases = [untraced, traced]
        metrics, lines = per_layer(traced, untraced, inst, args.workload)
        units = {name: unit for name, unit, _ in tracing.METRICS} | {"trace.overhead_ratio": "ratio"}
        header += f"  {traced.passes} traced passes, each after an untraced one"
    else:
        phase = run_phase(cli, ops, args.seconds)
        phases = [phase]
        metrics, lines = end_to_end(phase, setups)
        units = E2E_UNITS

    wrong = sorted({op_id for ph in phases for op_id in ph.wrong})
    diverged = [op["id"] for op in ops if len({ph.outputs[op["id"]] for ph in phases}) > 1]
    correct = not wrong and not diverged
    for op_id in wrong:
        print(f"WRONG OUTPUT: {op_id} (expected sha256 {next(o['sha256'] for o in ops if o['id'] == op_id)})",
              file=sys.stderr)
    for op_id in diverged:
        print(f"TRACED OUTPUT DIFFERS FROM UNTRACED: {op_id}", file=sys.stderr)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "correct": correct,
        "metrics": metrics,
        "ops": [{"id": op["id"], "argv": op["full_argv"], "exit": phases[-1].outputs[op["id"]][0],
                 "sha256": phases[-1].outputs[op["id"]][1],
                 "samples_ms": [ns / 1e6 for ns in phases[-1].samples[op["id"]]]} for op in ops],
    }
    name = "result-trace.json" if args.trace else "result.json"
    (rundir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(header)
    print("\n".join(lines))
    print(f"correct {str(correct).lower()}  (exit code and stdout sha256 of every op against pool.json)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
