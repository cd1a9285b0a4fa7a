"""polycheck benchmark: verifier latency against the product it replaces.

    python3 perfbench/run.py --workload dense-mod --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, one closed-loop client: each verifier
call is issued after the previous one returns.  Human-readable report lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every verdict matched ground truth, 1 when one did not, 2 when the
sources are missing or the arguments are bad.  See README.md beside this
file for the workloads and metrics.
"""

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import cases  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3
CAL_PER_POINT = 3  # kernel runs per calibration point of the set-up
# per case and cycle: the true instance twice, then the wrong one once
WRONG_SLOTS = (False, False, True)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verify_per_s", "1/s"),
    ("cli_latency_s", "s"),
    ("lib_latency_s", "s"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name in spans.COUNTED_NAMES]
    out += [(name, "count") for name in spans.EXTRA_COUNTS]
    out += [(f"ref.{m}", "s") for m in cases.CASE_METRICS]
    out += [(f"speedup.{m}", "ratio") for m in cases.CASE_METRICS]
    out.append(("trace.overhead", "ratio"))
    return out


# Host speed on a shared machine drifts by up to 1.5x within a minute, which
# swamps any bound on a raw time.  So the timed loop runs a fixed kernel of the
# benchmark's own (a modular Horner scan over 8192 61-bit values, the shape of
# the verifiers' evaluation scans) between consecutive calls, and divides each
# call's wall time by the mean of the kernel times just before and after it.
# Times are then reported for a host on which the kernel takes CAL_NOMINAL_S.
# The kernel does not depend on the program under test.
CAL_NOMINAL_S = 0.0025
_CAL_Q = 2**61 - 1
_CAL_DATA = tuple(random.Random("perfbench-calibration").randrange(_CAL_Q) for _ in range(8192))


def calibrate():
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0
    for c in _CAL_DATA:
        acc = (acc * 0x1D5C3A9E6B7F201 + c) % _CAL_Q
    return time.perf_counter() - t0


class SourcesMissing(RuntimeError):
    pass


def load_polycheck():
    """Import polycheck from the checkout's src/, never from elsewhere.
    Returns the package and the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "polycheck", "__init__.py")):
        raise SourcesMissing(f"no polycheck sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    pc = importlib.import_module("polycheck")
    importlib.import_module("polycheck.cli")
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(pc.__file__))) != SRC:
        raise SourcesMissing(f"polycheck was imported from {pc.__file__}, not {SRC}")
    return pc, import_s


@dataclass
class Bench:
    pc: object
    cases: list  # [(Case, [Instance, ...])]
    ref: dict  # case metric -> median reference-product time over set-ups
    setup_s: float  # import plus the median set-up, in nominal-host seconds


def set_up(workload, seed, file_dir, tiny=False):
    """Import the package, then generate every case's inputs, ground truth
    and CLI files SETUP_REPEATS times; the last set-up is the one measured.
    Each case's build is timed between two calibration points."""
    pc, import_s = load_polycheck()
    per_case = cases.INSTANCES[workload]
    cal = [_cal_point()]
    setups = []
    refs = {}
    for _ in range(SETUP_REPEATS):
        built = []
        nominal = 0.0
        for case in cases.cases(workload, tiny):
            t0 = time.perf_counter()
            insts = [cases.build(pc, workload, seed, case, i, file_dir) for i in range(per_case)]
            wall = time.perf_counter() - t0
            cal.append(_cal_point())
            nominal += wall * 2 * CAL_NOMINAL_S / (cal[-2] + cal[-1])
            built.append((case, insts))
            refs.setdefault(case.metric, []).extend(inst.ref_s for inst in insts)
        setups.append(nominal)
    setup_s = import_s * CAL_NOMINAL_S / cal[0] + statistics.median(setups)
    ref = {m: statistics.median(r) for m, r in refs.items()}
    return Bench(pc, built, ref, setup_s)


def _cal_point():
    return statistics.median(calibrate() for _ in range(CAL_PER_POINT))


@dataclass
class Stats:
    calls: list = field(default_factory=list)  # (case metric, wrong, ok, wall_s)
    cal: list = field(default_factory=list)  # kernel times between calls, if taken
    errors: list = field(default_factory=list)

    @property
    def failed(self):
        return sum(1 for _, _, ok, _ in self.calls if not ok)

    def nominal(self):
        """Each call's wall time, scaled by the kernel times around it."""
        cal = self.cal
        return [
            wall * 2 * CAL_NOMINAL_S / (cal[i] + cal[i + 1])
            for i, (_, _, _, wall) in enumerate(self.calls)
        ]

    def latency(self, times=None):
        """Median time of the accepted true-instance calls, per case."""
        times = times or [wall for _, _, _, wall in self.calls]
        per_case = {}
        for (metric, wrong, ok, _), t in zip(self.calls, times):
            per_case.setdefault(metric, [])
            if ok and not wrong:
                per_case[metric].append(t)
        return {m: statistics.median(ts) if ts else math.nan for m, ts in per_case.items()}


def run_cycle(bench, cycle, stats, tracer=None, calibrated=False):
    """Each case's true instance twice and its wrong instance once,
    interleaved across cases, with verifier seeds 3c, 3c+1 and 3c+2 in
    cycle c.  The true calls walk through the case's instances in turn."""
    pc = bench.pc
    counter = pc.rings.POLY_MUL_OPS
    for slot, wrong in enumerate(WRONG_SLOTS):
        for case, insts in bench.cases:
            inst = insts[(cycle if wrong else 2 * cycle + slot) % len(insts)]
            if calibrated:
                stats.cal.append(calibrate())
            if tracer is not None:
                tracer.call_id = len(stats.calls)
                ops = counter.count
            t0 = time.perf_counter()
            try:
                verdict = cases.call(pc, inst, wrong, len(WRONG_SLOTS) * cycle + slot)
            except Exception:
                verdict = None
                stats.errors.append(traceback.format_exc())
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.counts["rings.poly_mul_ops"] += counter.count - ops
            stats.calls.append((case.metric, wrong, verdict is (not wrong), wall))


def _gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(bench, cycles):
    """Untraced closed loop over `cycles` cycles.  Returns the stats, the
    per-case nominal latencies and the metrics."""
    stats = Stats()
    for cycle in range(cycles):
        run_cycle(bench, cycle, stats, calibrated=True)
    stats.cal.append(calibrate())
    nominal = stats.nominal()
    lat = stats.latency(nominal)
    kinds = {case.metric: case.cli for case, _ in bench.cases}
    values = {
        "setup_s": bench.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verify_per_s": len(nominal) / sum(nominal),
        "cli_latency_s": _gmean([lat[m] for m, cli in kinds.items() if cli]),
        "lib_latency_s": _gmean([lat[m] for m, cli in kinds.items() if not cli]),
    }
    return stats, lat, values


def measure_traced(bench, passes, spans_path=None):
    """Alternate an untraced and a traced pass of cycle 0, `passes` times.
    Counts and self times are per traced pass.  Returns the stats of both
    kinds of pass and the metrics."""
    tracer = spans.Tracer()
    plain = Stats()
    traced = Stats()
    for _ in range(passes):
        run_cycle(bench, 0, plain)
        with tracer.installed(bench.pc):
            run_cycle(bench, 0, traced, tracer)
    if spans_path:
        tracer.write(spans_path)
    lat = plain.latency()
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.calls"] = calls.get(name, 0) / passes
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for name in spans.COUNTED_NAMES:
        values[f"{name}.calls"] = tracer.counts[f"{name}.calls"] / passes
    for name in spans.EXTRA_COUNTS:
        values[name] = tracer.counts[name] / passes
    for m in cases.CASE_METRICS:
        # 0 marks a case the workload does not run
        ref = bench.ref.get(m, 0.0)
        values[f"ref.{m}"] = ref
        values[f"speedup.{m}"] = ref / lat[m] if m in lat else 0.0
    busy = [sum(wall for _, _, _, wall in s.calls) for s in (plain, traced)]
    values["trace.overhead"] = busy[1] / busy[0]
    return plain, traced, values


def _host_lines():
    return [
        f"# host: python {platform.python_version()} ({platform.python_implementation()}), "
        f"nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}",
        "# load: one process, one thread, one closed-loop client "
        "(each call issued after the previous one returns)",
    ]


def _case_lines(bench, stats):
    """Raw wall times of each case against its reference product."""
    lat = stats.latency()
    samples = {}
    for metric, wrong, ok, _ in stats.calls:
        samples[metric] = samples.get(metric, 0) + (ok and not wrong)
    lines = ["# case metric        wall_s      samples  ref_product_s  speedup"]
    for case, _ in bench.cases:
        m = case.metric
        speedup = bench.ref[m] / lat[m]
        flag = "  BELOW 1x: slower than the product it checks" if speedup < 1 else ""
        lines.append(
            f"{m:<20} {lat[m]:.6f} s  {samples[m]:>4}     {bench.ref[m]:.6f} s"
            f"     {speedup:.3f}x{flag}"
        )
    return lines


def run(workload, seed, seconds, trace, tiny=False, out_dir=OUT_DIR):
    """Set up, measure and return (result JSON object, report lines)."""
    os.makedirs(out_dir, exist_ok=True)
    file_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    lines = [f"# polycheck benchmark: workload={workload} seed={seed} "
             f"seconds={seconds} trace={trace}"] + _host_lines()
    try:
        bench = set_up(workload, seed, file_dir, tiny)
        cycle_s = cases.CYCLE_S[workload]
        if trace:
            path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
            passes = max(1, round(seconds / (2 * cycle_s)))
            plain, traced, values = measure_traced(bench, passes, path)
            units = dict(per_layer_units())
            lines += _case_lines(bench, plain)
            lines.append(f"# spans written to {path}")
            runs = [plain, traced]
        else:
            cycles = max(1, round(seconds / cycle_s))
            stats, lat, values = measure(bench, cycles)
            units = dict(END_TO_END)
            lines += _case_lines(bench, stats)
            lines.append(f"# {cycles} cycles took {sum(stats.nominal()):.3f} nominal-host s; "
                         f"calibration kernel: median {statistics.median(stats.cal) * 1e3:.4f} ms "
                         f"over {len(stats.cal)} runs, nominal {CAL_NOMINAL_S * 1e3} ms")
            lines += [f"{m} {t} s" for m, t in lat.items()]
            runs = [stats]
    finally:
        shutil.rmtree(file_dir, ignore_errors=True)
    attempted = sum(len(s.calls) for s in runs)
    failed = sum(s.failed for s in runs)
    lines.append(f"fail_frac {failed / attempted} ratio")
    lines += [f"{name} {values[name]} {unit}" for name, unit in units.items()]
    lines += [f"# error: {err}" for s in runs for err in s.errors[:3]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
