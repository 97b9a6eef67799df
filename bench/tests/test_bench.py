"""Tests of the benchmark itself: python -m pytest bench/tests"""

import json
import os
import signal
import sys

import pytest

import tracing
import worker
import workloads
from quatlift import fixture as fx
from quatlift import linalg, polys, quatcore, yoshida

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def lift300():
    return fx.golden_lift(300)


def test_wrong_expected_eigenvalue_is_a_failure(lift300):
    checks = workloads.Checks()
    workloads.check_hecke_eigenvalues(checks, lift300, {2: -5, 3: -7})
    assert checks.attempted == 2
    assert checks.failed == 1
    bad = [r for r in checks.results if not r["ok"]]
    assert bad[0]["name"] == "T(3) eigenvalue -7"
    assert "got Fraction(-8, 1)" in bad[0]["detail"]


def test_exception_is_a_failure_not_a_crash(lift300):
    checks = workloads.Checks()
    workloads.check_hecke_eigenvalues(checks, lift300, {17: 1})  # 17 divides the level
    assert (checks.attempted, checks.failed) == (1, 1)
    assert checks.results[0]["detail"].startswith("ValueError")


def test_digest_mismatch_is_a_failure():
    checks = workloads.Checks()
    digests = {}
    workloads.check_digest(checks, digests, {"k": "aa"}, "k", "bb")
    workloads.check_digest(checks, digests, {}, "missing", "cc")
    assert checks.failed == 2
    assert digests == {"k": "bb", "missing": "cc"}


def _patched_objects():
    return {
        "quatcore.short_vectors_upto": quatcore.short_vectors_upto,
        "yoshida.short_vectors_upto": yoshida.short_vectors_upto,
        "quatcore.short_vectors": quatcore.short_vectors,
        "linalg.rref": linalg.rref,
        "fixture.golden_lift": fx.golden_lift,
        "ThetaEngine.__init__": yoshida.ThetaEngine.__dict__["__init__"],
        "Poly.eval": polys.Poly.__dict__["eval"],
    }


def test_wrappers_restore_patched_functions():
    before = _patched_objects()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert quatcore.short_vectors_upto is not before["quatcore.short_vectors_upto"]
        assert yoshida.short_vectors_upto is quatcore.short_vectors_upto
        assert yoshida.ThetaEngine.__dict__["__init__"] is not before["ThetaEngine.__init__"]
    assert _patched_objects() == before

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("workload failed")
    assert _patched_objects() == before


def test_traced_output_matches_and_self_times_partition(lift300):
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = fx.golden_lift(300)
    assert workloads.expansion_digest(traced) == workloads.expansion_digest(lift300)
    totals = tracer.totals()
    assert totals["calls:fixture.golden_lift"] == 1
    assert totals["calls:yoshida.engine"] == 2
    assert totals["calls:quatcore.enum"] == 2
    assert totals["counter:yoshida.engine_keys"] == 2
    root = tracer.spans[0]
    self_sum = sum(v for k, v in totals.items() if k.startswith("self_s:"))
    assert self_sum == pytest.approx(root[tracing.END] - root[tracing.START], rel=1e-6)


def test_layer_definitions_match_benchmark_json():
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["metrics"]
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [{k: d[k] for k in ("name", "unit", "better")} for d in layers] == bench["per_layer"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    run = sys.modules.get("run") or __import__("run")
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    workload_names = set(workloads.WORKLOADS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for d in layers:
        for target in d["moves"] + d.get("must_not_regress", []):
            wl, metric = target.split(".", 1)
            assert wl in workload_names and metric in e2e, target


def test_level34_order():
    order = workloads.level34_order()
    assert order.level == 34
    assert order.is_order()[0]


def test_speed_probe_rescales_wall_time_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    probe = worker.SpeedProbe()
    with probe:
        sum(i * i for i in range(200_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 2

    probe.durations = [worker.PROBE_REF_S / 2, worker.PROBE_REF_S / 2]  # twice as fast
    assert probe.ref_seconds(10.0 + worker.PROBE_REF_S) == pytest.approx(20.0)
