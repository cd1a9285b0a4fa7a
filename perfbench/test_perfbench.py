"""Self-tests of the benchmark, on tiny instances (run with pytest)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = sorted(cases.WORKLOADS)
TINY_SECONDS = 0.001  # rounds to no cycle, so each run makes the minimum of one


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced tiny runs, cached by (workload, seed)."""
    out = tmp_path_factory.mktemp("traced")
    done = {}

    def get(workload, seed, key=0):
        if (workload, seed, key) not in done:
            done[workload, seed, key] = run.run(workload, seed, TINY_SECONDS, 1, True, str(out))[0]
        return done[workload, seed, key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_tiny_run_reports_every_end_to_end_metric_and_no_failure(workload, seed, tmp_path):
    result, lines = run.run(workload, seed, TINY_SECONDS, 0, True, str(tmp_path))
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] == len(run.WRONG_SLOTS) * len(cases.cases(workload, True))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_frac 0.0 ratio" in lines
    for case in cases.cases(workload, True):
        assert any(line.startswith(f"{case.metric} ") and line.endswith(" s") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, traced):
    result = traced(workload, 0)
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.overhead"] > 0
    for case in cases.cases(workload, True):
        assert values[f"ref.{case.metric}"] > 0
        assert values[f"speedup.{case.metric}"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_exactly_on_one_seed(workload, traced):
    def counts(result):
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if name.endswith(".calls") or name in spans.EXTRA_COUNTS
        }

    first, again, other = traced(workload, 0), traced(workload, 0, key=1), traced(workload, 3)
    assert counts(first) == counts(again)
    assert any(counts(first).values())
    assert set(other["metrics"]) == set(first["metrics"])


def test_other_seed_gives_other_instances(tmp_path):
    pc, _ = run.load_polycheck()
    case = cases.cases("dense-prod", True)[1]
    a = cases.build(pc, "dense-prod", 0, case, 0, str(tmp_path))
    b = cases.build(pc, "dense-prod", 0, case, 0, str(tmp_path))
    c = cases.build(pc, "dense-prod", 1, case, 0, str(tmp_path))
    assert (a.F, a.G, a.Hw) == (b.F, b.G, b.Hw)
    assert a.F != c.F


def test_wrong_instance_differs_from_truth_in_one_coefficient(tmp_path):
    pc, _ = run.load_polycheck()

    def terms(X):
        return dict((X.to_sparse() if isinstance(X, pc.DensePoly) else X).terms)

    for workload in WORKLOADS:
        for case in cases.cases(workload, True):
            inst = cases.build(pc, workload, 0, case, 1, str(tmp_path))
            truth = pc.mul_oracle(inst.F, inst.G)
            if inst.P is not None:
                truth = pc.mod_reduce(truth, inst.P)
            assert inst.H == truth
            h, hw = terms(inst.H), terms(inst.Hw)
            assert len([e for e in h.keys() | hw.keys() if h.get(e) != hw.get(e)]) == 1


def _stub(pc, verdict):
    def verifier(F, G, H, cfg=None, *rest):
        return pc.VerifyReport(verdict, 0.0, 0, [], "stub", 0)

    return verifier


def test_stub_accepting_a_wrong_instance_raises_fail_frac(tmp_path, monkeypatch):
    bench = run.set_up("dense-prod", 0, str(tmp_path), tiny=True)
    monkeypatch.setattr(bench.pc.prodverify, "verify_product_kronecker", _stub(bench.pc, True))
    stats, _, _ = run.measure(bench, 1)
    assert stats.failed == 1 and len(stats.calls) == 12


def test_rejecting_a_true_instance_makes_the_run_incorrect(tmp_path, monkeypatch):
    pc, _ = run.load_polycheck()
    monkeypatch.setattr(pc.prodverify, "verify_product_kronecker", _stub(pc, False))
    result, lines = run.run("dense-prod", 0, TINY_SECONDS, 0, True, str(tmp_path))
    assert not result["correct"] and result["failed"] == 2
    assert f"fail_frac {2 / 12} ratio" in lines


def test_exception_counts_as_failure_and_tracing_restores_names(tmp_path, monkeypatch):
    pc, _ = run.load_polycheck()
    before = {(m, a): getattr(getattr(pc, m), a) for m, a, _ in spans.SPANNED + spans.COUNTED}

    def broken(*args, **kwargs):
        raise ZeroDivisionError("stub")

    monkeypatch.setattr(pc.modeval, "eval_mod_binomial_dense", broken)
    before["modeval", "eval_mod_binomial_dense"] = broken
    result, lines = run.run("dense-prod", 0, TINY_SECONDS, 1, True, str(tmp_path))
    assert result["failed"] == 6  # prod_nomul_s, in both passes
    assert any("ZeroDivisionError" in line for line in lines)
    after = {(m, a): getattr(getattr(pc, m), a) for m, a, _ in spans.SPANNED + spans.COUNTED}
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_names_after_a_successful_run(traced):
    pc, _ = run.load_polycheck()
    before = {(m, a): getattr(getattr(pc, m), a) for m, a, _ in spans.SPANNED + spans.COUNTED}
    traced("dense-mod", 0)
    assert all(not hasattr(v, "__wrapped__") for v in before.values())
    after = {(m, a): getattr(getattr(pc, m), a) for m, a, _ in spans.SPANNED + spans.COUNTED}
    assert all(after[k] is v for k, v in before.items())


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 50, 60, 0, 0],
                    ["b", 52, 58, 2, 0]]
    got = tracer.self_times()
    assert got == {"a": 60 / 1e9, "b": 36 / 1e9, "c": 4 / 1e9}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
