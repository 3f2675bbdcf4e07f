"""Tests of the benchmark itself: generator, oracle, op loop and tracer.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json

import numpy as np
import pytest

import oracle
import run
import workloads
from tracer import Tracer, aggregate, by_layer


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["battery", "derive"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.build(workload, 7, tmp_path / "a")
    again = workloads.build(workload, 7, tmp_path / "b")
    other = workloads.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [op.label for op in first] == [op.label for op in again]
    assert [[a.replace("/a/", "/b/") for a in op.argv] for op in first] == \
        [op.argv for op in again]
    assert len(first) == len(other)


def test_battery_mix(tmp_path):
    ops = workloads.build("battery", 0, tmp_path)
    commands = {op.command for op in ops}
    assert commands == {"suite", "check", "decompose", "factor", "hom", "extend",
                        "spectra", "arens", "tim", "search"}
    bad = [op for op in ops if op.label.startswith("bad:")]
    assert len(bad) == 7
    assert 0.04 <= len(bad) / len(ops) <= 0.06


def _op(tmp_path, command):
    ops = workloads.build("battery", 3, tmp_path)
    return next(op for op in ops if op.command == command and op.label.endswith(" F4"))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def test_oracle_accepts_a_real_report_and_flags_a_tampered_one(tmp_path, cli):
    op = _op(tmp_path, "decompose")
    code, text, _, escaped = run.run_op(cli, op)
    assert escaped is None and code == 0
    assert oracle.check_report(op, code, text) == []

    report = json.loads(text)
    report["decomposition"]["p"][0][0][0] += 0.5
    problems = oracle.check_report(op, code, json.dumps(report))
    assert any(p.startswith("p:") for p in problems)

    report = json.loads(text)
    report["classification"] = "involution" if op.expect["kind"] != "involution" else "not_star"
    assert oracle.check_report(op, code, json.dumps(report))


class _FlakyCli:
    """Stands in for ``trivolve.cli``: one op raises, one exits wrongly."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("boom")
        if self.calls == 2:
            return 1
        return self.real.main(argv)


def test_wrong_exit_and_escaped_exception_fail_the_op_not_the_run(tmp_path, cli):
    op = _op(tmp_path, "check")
    flaky = _FlakyCli(cli)
    result = run.run_pass(flaky, [op, op, op])
    assert flaky.calls == 3
    first, second, third = result.results
    assert first.code is None and "exception escaped" in first.problems[0]
    assert second.problems == ["exit code 1, expected 0"]
    assert third.problems == []
    assert result.correct == 1


def test_self_time_on_a_synthetic_nested_call():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def middle():
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap("m.middle", middle)

    def outer():
        traced_middle()
        traced_leaf()

    tracer.wrap("n.outer", outer)()
    # clock readings: outer 0..9, middle 1..6, leaves 2..3, 4..5 and 7..8
    stats = aggregate(tracer.spans)
    assert stats["m.leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0, "peak_mb": 0.0}
    assert stats["m.middle"]["total_s"] == 5.0 and stats["m.middle"]["self_s"] == 3.0
    assert stats["n.outer"]["total_s"] == 9.0 and stats["n.outer"]["self_s"] == 3.0
    assert by_layer(stats) == {"m": {"calls": 4, "self_s": 6.0},
                               "n": {"calls": 1, "self_s": 3.0}}


def test_memory_sampling_sees_numpy_buffers():
    tracer = Tracer(memory=frozenset({"m.alloc"}))

    def alloc():
        block = np.ones(4 << 20)  # 32 MiB
        return float(block[0])

    tracer.wrap("m.alloc", alloc)()
    assert aggregate(tracer.spans)["m.alloc"]["peak_mb"] >= 32.0


def test_traced_and_untraced_runs_write_identical_reports(tmp_path, cli):
    import trivolve.algebra
    import trivolve.cli

    ops = [op for op in workloads.build("battery", 4, tmp_path)
           if op.command != "suite" and op.label.endswith(("F4", "Z4", "M2", "V4"))]
    assert {op.command for op in ops} >= {"check", "decompose", "tim", "extend"}
    plain = [run.run_op(cli, op)[1] for op in ops]
    original = trivolve.algebra.make_algebra
    with Tracer(memory=frozenset({"algebra.make_algebra"})) as tracer:
        assert trivolve.algebra.make_algebra is not original
        traced = [run.run_op(cli, op)[1] for op in ops]
    assert trivolve.algebra.make_algebra is original
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "algebra.Subspace", "algebra.make_algebra",
            "trivolution.classify_star_map", "serialization.load_algebra"} <= names
    assert trivolve.cli.main.__module__ == "trivolve.cli"
