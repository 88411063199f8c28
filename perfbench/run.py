"""symcap benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verify-fast --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout, never from an installed copy.  A run:

1. times the set-up (import symcap, calibration_self_test, build the
   workload's inputs from the seed) in fresh interpreters, SETUP_PROBES
   times, and reports the median;
2. sets up in this process and repeats identical passes over the inputs
   until the next pass would end after ``--seconds`` (at least two passes);
3. checks every output and that all passes produced identical outputs;
4. prints a table, the change against ``--compare FILE`` if given, and as
   its last line one JSON object {correct, attempted, failed, metrics}.

BLAS runs one thread.  With ``--trace 0`` the set-ups and passes are timed
with ``speed.Sampler``, and their times are reported in seconds at a fixed
reference speed, so that the host's changing load does not move them; the
raw seconds are printed and kept in the result file.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate untraced and traced; the traced passes give the per-layer
metrics, and traced minus untraced pass time is the tracing overhead.  The
full result, with the machine description, goes to ``--out`` (default
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``); a traced run also
writes its spans to ``.perfbench_out/<workload>-seed<seed>-trace1.spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads; the set-up probes inherit it.
# symcap's arrays are small, so a second OpenBLAS thread only spins: with
# two threads on 2 cores, fast-profile verify of the 2-d ball and the cube
# took ~1.9x the wall time and ~3.6x the CPU time it took with one, and was
# far less steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
SETUP_PROBES = 3

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_rate", "ratio", "higher", 0.01),
    ("clarke_excess_max", "ratio", "lower", 0.15),
    ("clarke_geomean", "1", "lower", 0.01),
    ("girth_rel_err_max", "ratio", "lower", 0.1),
]

_GEOMETRY = ("gauge", "gauge_gradient", "support", "support_point", "boundary_point")
_MODULES = ("capacity", "symplectic", "geometry", "girth", "loops", "symmetry",
            "characteristics", "verify")
VERIFY_BODIES = ("l4-ball-d4", "ball-r1-n2")

# name, unit, better
PER_LAYER = (
    [
        ("capacity.clarke_minimize.s", "s", "lower"),
        ("capacity.clarke_minimize.calls", "count", "lower"),
        ("capacity.lbfgs_iterations", "count", "lower"),
        ("capacity.us_per_iteration", "us", "lower"),
        ("capacity.restarts", "count", "lower"),
        ("capacity.restarts_converged", "count", "higher"),
        ("symplectic.apply_j.us_per_call", "us", "lower"),
        ("symplectic.polygon_action.us_per_call", "us", "lower"),
        ("capacity.c_j.exact_vertex_pair.s", "s", "lower"),
        ("capacity.c_j.exact_spectral.s", "s", "lower"),
        ("capacity.c_j.multistart.s", "s", "lower"),
        ("capacity.ellipsoid_ehz_exact.s", "s", "lower"),
        ("girth.symmetric_girth.s", "s", "lower"),
        ("girth.build_boundary_graph.s", "s", "lower"),
        ("girth.search_s", "s", "lower"),
        ("girth.graph_edges", "count", "lower"),
        ("girth.check_schaffer_bound.s", "s", "lower"),
        ("loops.containment_score.smooth.s", "s", "lower"),
        ("loops.containment_score.polytope.s", "s", "lower"),
        ("loops.containment_gap_max", "1", "lower"),
        ("symmetry.symmetrize_central.ms", "ms", "lower"),
        ("symmetry.symmetrize_mfold.ms", "ms", "lower"),
        ("characteristics.integrate_characteristic.steps_per_s", "1/s", "higher"),
        ("characteristics.action_rel_err_max", "ratio", "lower"),
    ]
    + [(f"geometry.{m}.calls", "count", "lower") for m in _GEOMETRY]
    + [(f"geometry.{m}.us_per_call", "us", "lower") for m in _GEOMETRY]
    + [(f"verify.verify_body.s.{b}", "s", "lower") for b in VERIFY_BODIES]
    + [
        ("verify.write_reports.s", "s", "lower"),
        ("capacity.calibration_self_test.s", "s", "lower"),
    ]
    + [(f"{m}.self_s", "s", "lower") for m in _MODULES]
    + [
        ("bench.self_s", "s", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def _import_program():
    """Put the checkout's src/ first on the path and import symcap from it."""
    src = ROOT / "src"
    if not (src / "symcap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symcap sources under {src}")
    sys.path.insert(0, str(src))
    import symcap

    if Path(symcap.__file__).resolve().parent != (src / "symcap").resolve():
        sys.exit(f"perfbench: symcap imported from {symcap.__file__}, not {src}")


def set_up(workload: str, seed: int):
    """The timed set-up: import symcap, self-test, build the inputs."""
    _import_program()
    import workloads
    from symcap import capacity

    capacity.calibration_self_test()
    out_dir = OUT / workload
    return workloads.WORKLOADS[workload](seed, out_dir)


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up (raw, scaled) seconds measured in fresh interpreters, one after
    another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up probe exited {proc.returncode}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def per_layer(tracer, traced, outputs, untraced_s, traced_s):
    """Per-layer metrics, normalized per traced pass."""
    n = len(traced)
    table = spans.summarize(tracer.names, tracer.spans, set(traced))
    setup = spans.summarize(tracer.names, tracer.spans, {"setup"})

    def total(name, key="s", source=table):
        return source.get(name, {}).get(key, 0.0)

    def per_call_us(name):
        calls = total(name, "calls")
        return 1e6 * total(name) / calls if calls else 0.0

    def notes(name):
        return [v for pass_id, v in tracer.notes.get(name, ()) if pass_id in traced]

    clarke = notes("capacity.clarke_minimize")
    iterations = sum(its for its, _, _ in clarke)
    graphs = notes("girth.build_boundary_graph")
    steps = sum(notes("characteristics.integrate_characteristic"))
    flow_s = total("characteristics.integrate_characteristic")
    m = {
        "capacity.clarke_minimize.s": total("capacity.clarke_minimize") / n,
        "capacity.clarke_minimize.calls": total("capacity.clarke_minimize", "calls") / n,
        "capacity.lbfgs_iterations": iterations / n,
        "capacity.us_per_iteration": (
            1e6 * total("capacity.clarke_minimize") / iterations if iterations else 0.0),
        "capacity.restarts": sum(r for _, r, _ in clarke) / n,
        "capacity.restarts_converged": sum(c for _, _, c in clarke) / n,
        "symplectic.apply_j.us_per_call": per_call_us("symplectic.apply_j"),
        "symplectic.polygon_action.us_per_call": per_call_us("symplectic.polygon_action"),
        "girth.graph_edges": sum(graphs) / len(graphs) if graphs else 0.0,
        "girth.search_s": (total("girth.symmetric_girth")
                           - total("girth.build_boundary_graph")) / n,
        "symmetry.symmetrize_central.ms": per_call_us("symmetry.symmetrize_central") / 1e3,
        "symmetry.symmetrize_mfold.ms": per_call_us("symmetry.symmetrize_mfold") / 1e3,
        "characteristics.integrate_characteristic.steps_per_s": (
            steps / flow_s if flow_s else 0.0),
        "capacity.calibration_self_test.s": total("capacity.calibration_self_test",
                                                  source=setup),
        "trace.pass_s": statistics.median(traced_s),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
        "trace.spans": sum(entry["calls"] for entry in table.values()) / n,
    }
    for name in ("capacity.c_j.exact_vertex_pair", "capacity.c_j.exact_spectral",
                 "capacity.c_j.multistart", "capacity.ellipsoid_ehz_exact",
                 "girth.symmetric_girth", "girth.build_boundary_graph",
                 "girth.check_schaffer_bound", "loops.containment_score.smooth",
                 "loops.containment_score.polytope", "verify.write_reports"):
        m[name + ".s"] = total(name) / n
    for body in VERIFY_BODIES:
        m[f"verify.verify_body.s.{body}"] = total(f"verify.verify_body.{body}") / n
    for meth in _GEOMETRY:
        m[f"geometry.{meth}.calls"] = total(f"geometry.{meth}", "calls") / n
        m[f"geometry.{meth}.us_per_call"] = per_call_us(f"geometry.{meth}")
    for module in _MODULES:
        m[f"{module}.self_s"] = sum(
            entry["self_s"] for name, entry in table.items()
            if name.split(".", 1)[0] == module) / n
    top_level = sum(row[2] - row[1] for row in tracer.spans
                    if row[3] < 0 and row[4] in traced)
    m["bench.self_s"] = (sum(traced_s) - top_level) / n
    for name in ("loops.containment_gap_max", "characteristics.action_rel_err_max"):
        m[name] = max(out.layer.get(name, 0.0) for out in outputs)
    return m


def end_to_end(setup_times, scaled, outcomes, first):
    """End-to-end metrics; ``setup_times`` are (raw, scaled) seconds per
    probe and ``scaled`` the passes' (wall, cpu) seconds at reference speed."""
    attempted = max(outcomes.attempted, 1)
    clarke = [v for v in first.clarke if v > 0]
    return {
        "setup_s": statistics.median(t for _, t in setup_times),
        "pass_s": statistics.median(w for w, _ in scaled),
        "cpu_s": statistics.median(c for _, c in scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (attempted - outcomes.failed) / attempted,
        "clarke_excess_max": max(first.clarke_excess, default=math.nan),
        "clarke_geomean": (math.exp(statistics.fmean(math.log(v) for v in clarke))
                           if clarke else math.nan),
        "girth_rel_err_max": max(first.girth_err, default=math.nan),
    }


def compare(previous, metrics, units):
    """Lines giving each metric's change against ``previous``, the metrics of
    an earlier result file, flagging end-to-end changes for the worse beyond
    the metric's bound."""
    spec = {name: (better, bound) for name, _, better, bound in END_TO_END}
    spec.update({name: (better, None) for name, _, better in PER_LAYER})
    lines = []
    for name, value in metrics.items():
        old = previous.get(name, {}).get("value")
        if old is None:
            lines.append(f"  {name:56s} {value:14.6g} (no previous value)")
            continue
        better, bound = spec[name]
        change = (value - old) / abs(old) if old else math.inf * (value != old)
        worse = change > 0 if better == "lower" else change < 0
        flag = ""
        if bound is not None and worse and abs(change) > bound:
            flag = f"  WORSE BEYOND BOUND {bound:.0%}"
        lines.append(f"  {name:56s} {old:14.6g} -> {value:14.6g} "
                     f"{change:+8.2%} {units[name]}{flag}")
    return lines


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="FILE",
                        help="a result file of an earlier run to compare with")
    parser.add_argument("--out", metavar="FILE", help="where to write the result file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    if args.setup_probe:
        with speed.Sampler() as timer:
            set_up(args.workload, args.seed)
        print(json.dumps([timer.wall, timer.scaled_wall()]))
        return 0

    setup_times = probe_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        _import_program()  # the tracer patches the loaded symcap modules
        tracer = spans.Tracer()
        tracer.install()
    bench = set_up(args.workload, args.seed)
    if tracer is not None:
        tracer.uninstall()
    import machine
    import workloads

    outcomes = workloads.Outcomes()
    wall, cpu, outputs, traced = [], [], [], []
    scaled, slowdown = [], []
    start = time.perf_counter()
    while len(wall) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(wall) <= args.seconds):
        k = len(wall)
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.pass_id = k
            tracer.install()
            traced.append(k)
        timer = speed.Sampler() if tracer is None else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with timer or contextlib.nullcontext():
                outputs.append(bench.run_pass(outcomes))
        finally:
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            if on:
                tracer.uninstall()
        note = " (traced)" if on else ""
        if timer is not None:
            scaled.append((timer.scaled_wall(), timer.scaled_cpu()))
            slowdown.append(timer.slowdown())
            note = (f"; {scaled[-1][0]:.3f} s wall, {scaled[-1][1]:.3f} s cpu at "
                    f"reference speed (machine {slowdown[-1]:.3f}x slower)")
        print(f"pass {k}: {wall[-1]:.3f} s wall, {cpu[-1]:.3f} s cpu{note}", flush=True)
    for k, out in enumerate(outputs[1:], start=1):
        with outcomes.op(f"pass {k} equals pass 0") as op:
            op.check(workloads.checks.identical(outputs[0].sha(), out.sha(), "output"))

    if tracer is None:
        metrics = end_to_end(setup_times, scaled, outcomes, outputs[0])
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        untraced_s = [w for k, w in enumerate(wall) if k not in traced]
        traced_s = [wall[k] for k in traced]
        metrics = per_layer(tracer, traced, outputs, untraced_s, traced_s)
        units = {name: unit for name, unit, _ in PER_LAYER}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = Path(args.out) if args.out else OUT / f"{stem}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine.describe(),
        "passes": {"wall_s": wall, "cpu_s": cpu, "traced": traced,
                   "scaled_wall_s": [w for w, _ in scaled],
                   "scaled_cpu_s": [c for _, c in scaled], "slowdown": slowdown},
        "setup_probes_s": [raw for raw, _ in setup_times],
        "setup_probes_scaled_s": [t for _, t in setup_times],
        "failures": outcomes.failures,
    }
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{stem}.spans.json")

    print(f"machine: {json.dumps(record['machine'])}")
    for failure in outcomes.failures:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed {args.seed}: {len(wall)} passes, "
          f"{outcomes.attempted} operations, {outcomes.failed} failed")
    for name in units:
        print(f"  {name:56s} {metrics[name]:14.6g} {units[name]}")
    if scaled:
        print(f"raw medians: set-up {statistics.median(r for r, _ in setup_times):.4g} s, "
              f"pass {statistics.median(wall):.4g} s wall, {statistics.median(cpu):.4g} s cpu; "
              f"machine {statistics.median(slowdown):.3f}x slower than the reference")
    if args.compare:
        previous = json.loads(Path(args.compare).read_text())["metrics"]
        print(f"change against {args.compare}:")
        print("\n".join(compare(previous, metrics, units)))
    print(f"result file: {out_path}")
    print(json.dumps(result), flush=True)
    return 0


WORKLOADS = ("verify-fast", "capacity-symmetric", "boundary-geometry")

if __name__ == "__main__":
    sys.exit(main())
