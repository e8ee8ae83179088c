"""Self-tests of the bench harness.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# -- self time ----------------------------------------------------------------------


def test_self_time_with_back_to_back_and_nested_children():
    # A [0, 100] has children B [10, 20] and C [20, 30] back to back, and
    # D [40, 60], which itself holds E [45, 50]
    t = tracing.Tracer(clock=fake_clock(0, 10, 20, 20, 30, 40, 45, 50, 60, 100))
    a = t.enter("a", "a")
    b = t.enter("b", "b")
    t.exit(b)
    c = t.enter("c", "c")
    t.exit(c)
    d = t.enter("d", "d")
    e = t.enter("e", "e")
    t.exit(e)
    t.exit(d)
    t.exit(a)
    snap = t.take()
    assert snap["self_ns"] == {"a": 60, "b": 10, "c": 10, "d": 15, "e": 5}
    assert snap["calls"] == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}
    assert sum(snap["self_ns"].values()) == 100  # self times partition the root span


def test_self_time_of_recursive_span_in_same_group():
    t = tracing.Tracer(clock=fake_clock(0, 5, 15, 20))
    outer = t.enter("g", "f")
    inner = t.enter("g", "f")
    t.exit(inner)
    t.exit(outer)
    assert t.take()["self_ns"] == {"g": 20}


def test_covered_ns_merges_overlaps_and_clips():
    assert tracing.covered_ns([(10, 20), (20, 30)], 0, 100) == 20
    assert tracing.covered_ns([(10, 30), (15, 25), (28, 40)], 0, 100) == 30
    assert tracing.covered_ns([(-5, 10), (90, 120)], 0, 100) == 20
    assert tracing.covered_ns([], 0, 100) == 0


def test_out_of_order_close_is_an_error():
    t = tracing.Tracer(clock=fake_clock(0, 1, 2))
    a = t.enter("a", "a")
    t.enter("b", "b")
    with pytest.raises(RuntimeError):
        t.exit(a)


def test_backend_is_first_betti_child_of_betti_auto():
    t = tracing.Tracer(clock=fake_clock(*range(10)))
    auto = t.enter("dlex.betti_auto", "betti_auto")
    t.exit(t.enter("ideals.predicates", "is_stable"))
    t.exit(t.enter("betti.closed_form", "ahh_betti"))
    t.exit(auto)
    assert t.take()["counts"] == {"dlex.betti_auto.backend_ahh": 1}


# -- statistics ------------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9), (10**6, 99.9),
])
def test_tail_percentile_from_sample_count(count, expected):
    assert harness.tail_percentile(count) == expected


def test_tail_percentile_needs_ten_beyond():
    with pytest.raises(ValueError):
        harness.tail_percentile(19)


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50.5
    assert harness.percentile(values, 90) == pytest.approx(90.1)
    assert harness.percentile([3.0], 99) == 3.0


def test_fail_ratio_arithmetic():
    assert harness.fail_ratio(40, 6) == 0.15
    assert harness.fail_ratio(7, 0) == 0.0
    assert harness.fail_ratio(3, 3) == 1.0
    with pytest.raises(ValueError):
        harness.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        harness.fail_ratio(5, 6)


def test_median():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5


# -- output check ---------------------------------------------------------------------


class FakeCli:
    """Stands in for dreglex.cli: prints a fixed text per verb."""

    def __init__(self, outputs):
        self.outputs = outputs

    def main(self, argv):
        code, text = self.outputs[argv[0]]
        print(text, end="")
        return code


def make_ops(tmp_path):
    ops = [
        {"id": "a", "argv": ["hilb"], "input": {"kind": "ideal", "text": "n=1\nx1\n"},
         "exit": 0, "sha256": harness.digest("1\n")},
        {"id": "b", "argv": ["lex"], "input": None, "exit": 1, "sha256": harness.digest("2\n")},
    ]
    return harness.materialise(ops, tmp_path)


def test_correct_outputs_pass_and_nonzero_exit_counts_as_failed(tmp_path):
    cli = FakeCli({"hilb": (0, "1\n"), "lex": (1, "")})
    phase = run.run_phase(cli, make_ops(tmp_path), budget_s=0)
    assert phase.passes == 1
    assert phase.wrong == []
    assert (phase.attempted, phase.failed) == (2, 1)


def test_corrupted_stdout_fails_the_run(tmp_path):
    cli = FakeCli({"hilb": (0, "1\n "), "lex": (0, "2\n")})
    phase = run.run_phase(cli, make_ops(tmp_path), budget_s=0)
    assert phase.wrong == ["a"]
    assert phase.failed == 0


def test_crash_is_a_failed_op_not_a_harness_error():
    def main(argv):
        raise ZeroDivisionError

    code, out, _, err = harness.run_op(main, ["x"])
    assert code == 1 and out == "" and "ZeroDivisionError" in err


# -- seed and replay -------------------------------------------------------------------


def load_pool():
    return json.loads((BENCH / "pool.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_op_list(workload, tmp_path):
    slots = load_pool()["workloads"][workload]
    first = harness.materialise(harness.select_ops(slots, workload, 1), tmp_path / "one")
    second = harness.materialise(harness.select_ops(slots, workload, 1), tmp_path / "two")
    assert [op["argv"] for op in first] == [op["argv"] for op in second]
    for op in first:
        if op["input"] is not None:
            a = tmp_path / "one" / "inputs" / Path(op["full_argv"][-1]).name
            b = tmp_path / "two" / "inputs" / Path(op["full_argv"][-1]).name
            assert a.read_bytes() == b.read_bytes()
    other = harness.select_ops(slots, workload, 2)
    assert [op["id"] for op in other] != [op["id"] for op in first]
    assert len(first) >= 40  # enough ops for a tail percentile above the median


def test_every_variant_has_a_reference():
    for slots in load_pool()["workloads"].values():
        for slot in slots:
            for variant in slot["variants"]:
                assert len(variant["sha256"]) == 64 and isinstance(variant["exit"], int)


# -- trace wrappers ---------------------------------------------------------------------


def test_install_rebinds_every_importer_and_uninstall_restores():
    import dreglex.areas
    import dreglex.cli
    import dreglex.dlex
    import dreglex.ideals
    import dreglex.monomials

    original = dreglex.monomials.lex_prefix
    inst = tracing.install(tracing.Tracer())
    try:
        wrapped = dreglex.monomials.lex_prefix
        assert wrapped is not original
        for module in (dreglex.ideals, dreglex.dlex, dreglex.areas):
            assert module.lex_prefix is wrapped
        assert inst.absent_groups() == set()
        # no dreglex module keeps a reference to an unwrapped target
        for name, module in sys.modules.items():
            if name.startswith("dreglex"):
                assert all(v is not original for v in vars(module).values())
    finally:
        inst.uninstall()
    assert dreglex.monomials.lex_prefix is original
    assert dreglex.ideals.lex_prefix is original


def test_missing_target_is_absent_not_an_error():
    import dreglex.ideals  # noqa: F401

    groups = {"ideals.gone": ["ideals:_no_such_helper", "ideals:MonomialIdeal._nor_this"]}
    inst = tracing.install(tracing.Tracer(), groups=groups)
    assert inst.status == {"ideals:_no_such_helper": "absent", "ideals:MonomialIdeal._nor_this": "absent"}
    assert inst.absent_groups() == {"ideals.gone"}
    assert inst.patches == []
    metrics = tracing.layer_metrics({"calls": {}, "self_ns": {}, "counts": {}}, {"ideals.lexify"})
    assert metrics["ideals.lexify.self_ms"] is None


def test_traced_cli_output_matches_untraced_and_counts(tmp_path):
    import dreglex.cli

    path = tmp_path / "s5.ideal"
    path.write_text("n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx2^2\nx2*x3^3\nx3^4\n")
    argv = ["lex", str(path)]
    plain = harness.run_op(dreglex.cli.main, argv)
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        traced = harness.run_op(dreglex.cli.main, argv)
    finally:
        inst.uninstall()
    assert traced[:2] == plain[:2] and plain[0] == 0
    snap = tracer.take()
    metrics = tracing.layer_metrics(snap, set())
    assert metrics["cli.main.self_ms"] > 0
    assert metrics["monomials.lex_prefix.calls"] > 0
    assert 0 < metrics["ideals.lexify.useful_ratio"] < 1
    assert metrics["koszul.koszul_betti.calls"] == 0
    shares = tracing.module_shares(snap)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.METRICS] + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
