"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import math
import re

import pytest

import checks
import run
import spans
import speed

run._import_program()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def test_metric_names_and_units_are_valid_and_unique():
    names = [m[0] for m in run.END_TO_END] + [m[0] for m in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, *_ in run.END_TO_END + run.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    for _, _, better, bound in run.END_TO_END:
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    assert ("setup_s", "s", "lower", max(b for *_, b in run.END_TO_END)) in run.END_TO_END


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == run.PER_LAYER


def test_per_layer_names_the_bodies_verify_fast_runs():
    import workloads

    assert run.VERIFY_BODIES == workloads.VerifyFast.bodies


def test_self_time_subtracts_the_union_of_direct_children():
    rows = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["b", 2.0, 5.0, 0, 1],  # overlaps a: [1, 5] is covered once
        ["c", 8.0, 12.0, 0, 1],  # runs past the parent: only [8, 10] counts
        ["grandchild", 2.5, 2.75, 2, 1],  # covered by b, not by root directly
        ["other", 20.0, 21.0, -1, 2],
    ]
    assert spans.self_times(rows) == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25, 1.0])


def test_summarize_counts_only_the_requested_passes():
    names = ["f", "g"]
    rows = [[0, 0.0, 4.0, -1, 1], [1, 1.0, 2.0, 0, 1], [1, 5.0, 8.0, -1, 2]]
    table = spans.summarize(names, rows, {1})
    assert table == {"f": {"calls": 1, "s": 4.0, "self_s": 3.0},
                     "g": {"calls": 1, "s": 1.0, "self_s": 1.0}}


def test_tracer_records_nested_spans_and_uninstall_restores():
    from symcap import capacity, geometry, verify

    originals = (capacity.c_j, verify.c_j, geometry.Ellipsoid.gauge)
    tracer = spans.Tracer()
    tracer.pass_id = 7
    tracer.install()
    try:
        assert verify.c_j is capacity.c_j is not originals[0]
        body = geometry.ball(4)
        body.boundary_point([1.0, 2.0, 0.0, 0.0])
        capacity.c_j(body)
    finally:
        tracer.uninstall()
    assert (capacity.c_j, verify.c_j, geometry.Ellipsoid.gauge) == originals
    named = [(tracer.names[r[0]], r[3], r[4]) for r in tracer.spans]
    assert ("geometry.boundary_point", -1, 7) in named
    assert ("geometry.gauge", 0, 7) in named  # called inside boundary_point
    assert ("capacity.c_j.exact_spectral", -1, 7) in named


@pytest.mark.parametrize(
    "check, good, bad",
    [
        (checks.clarke_vs_exact, (4.039, 4.0), (3.99, 4.0)),
        (checks.clarke_vs_exact, (4.039, 4.0), (4.1, 4.0)),
        (checks.upper_bound, (3.2, math.pi), (3.1, math.pi)),
        (checks.capacity_ratio, (4.039, 1.0, 2, True), (2.4, 1.0, 2, True)),
        (checks.capacity_ratio, (4.039, 1.0, 2, False), (1.2, 1.0, 2, False)),
        (checks.capacity_ratio, (4.039, 1.0, 2, True), (4.039, 0.0, 2, True)),
        (checks.girth_vs_exact, (2 * math.pi * (1 + 1e-4),), (2 * math.pi * 1.02,)),
        (checks.schaffer, (0.7,), (-0.5,)),
        (checks.schaffer, (0.7, False), (0.7, True)),
        (checks.containment_gap, (1e-12, 3.0), (1e-5, 3.0)),
        (checks.orbit_action, (math.pi * (1 + 1e-6), math.pi), (math.pi * 1.01, math.pi)),
        (checks.boundary_residual, (1e-15,), (1e-6,)),
        (checks.cj_vs_exact, (1.0 + 1e-9, 1.0), (1.001, 1.0)),
        (checks.identical, ("a", "a", "x"), ("a", "b", "x")),
    ],
)
def test_each_check_passes_a_right_value_and_fails_a_wrong_one(check, good, bad):
    assert check(*good) is None
    assert isinstance(check(*bad), str)


def test_nan_fails_every_numeric_check():
    nan = math.nan
    assert checks.clarke_vs_exact(nan, 4.0)
    assert checks.girth_vs_exact(nan)
    assert checks.containment_gap(nan, 1.0)
    assert checks.orbit_action(nan, math.pi)


class _Outcome:
    def __init__(self, residuals, pre, post):
        self.residuals = residuals
        self._pre, self._post = pre, post

    def normalized_pre_length(self):
        return self._pre

    def normalized_post_length(self):
        return self._post


def test_symmetrization_check():
    ok = {"symmetry": 1e-15, "action_additivity": 1e-15, "w_invariance_defect": 1e-3}
    assert checks.symmetrization(_Outcome(ok, 4.0, 3.9)) is None
    assert checks.symmetrization(_Outcome({**ok, "symmetry": 1e-6}, 4.0, 3.9))
    assert checks.symmetrization(_Outcome(ok, 3.9, 4.0))


class _Record:
    def __init__(self, body_id, status):
        self.body_id, self.status = body_id, status


def test_verify_run_check():
    assert checks.verify_run(0, [_Record("a", "ok")]) is None
    assert checks.verify_run(1, [_Record("a", "ok")])
    assert checks.verify_run(0, [_Record("a", "error: ValueError: x")])


def test_an_operation_fails_on_a_reason_or_an_exception():
    import workloads

    outcomes = workloads.Outcomes()
    with outcomes.op("fine") as op:
        op.check(None)
    with outcomes.op("checked") as op:
        op.check("wrong value")
    with outcomes.op("raised"):
        raise ValueError("boom")
    assert (outcomes.attempted, outcomes.failed) == (3, 2)
    assert outcomes.failures == ["checked: wrong value", "raised: ValueError: boom"]


def test_compare_flags_only_changes_beyond_the_bound():
    previous = {"pass_s": {"value": 10.0}, "ok_rate": {"value": 1.0},
                "trace.pass_s": {"value": 10.0}}
    units = {"pass_s": "s", "ok_rate": "ratio", "trace.pass_s": "s"}
    lines = run.compare(previous, {"pass_s": 12.0, "ok_rate": 0.9, "trace.pass_s": 20.0}, units)
    flagged = [line.split()[0] for line in lines if "BEYOND BOUND" in line]
    assert flagged == ["ok_rate"]
    lines = run.compare(previous, {"pass_s": 13.0, "ok_rate": 1.0, "trace.pass_s": 5.0}, units)
    assert [line.split()[0] for line in lines if "BEYOND BOUND" in line] == ["pass_s"]


def test_sampler_times_its_stretch_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as timer:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timer.durations) >= 3  # one at the start, then every 10 ms
    assert 0.3 <= timer.wall < 1.0 and 0.0 < timer.cpu <= timer.wall + 0.01
    assert timer.scaled_wall() == pytest.approx(
        (timer.wall - sum(timer.durations)) / timer.slowdown())


def test_scaled_time_divides_out_the_slowdown():
    timer = speed.Sampler()
    timer.durations = [2 * speed.REF_SECONDS, 4 * speed.REF_SECONDS]
    timer.wall, timer.cpu = 10.0 + 6 * speed.REF_SECONDS, 9.0 + 6 * speed.REF_SECONDS
    assert timer.slowdown() == pytest.approx(3.0)
    assert timer.scaled_wall() == pytest.approx(10.0 / 3.0)
    assert timer.scaled_cpu() == pytest.approx(3.0)
