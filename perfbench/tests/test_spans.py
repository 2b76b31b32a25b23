"""Span arithmetic and wrapper installation of the benchmark tracer."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
from spans import TARGETS, Tracer, metric_specs, self_times


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx(
        [3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # Children [1, 5] and [3, 6] cover [1, 6] of the parent [0, 8].
    starts = [0.0, 1.0, 3.0]
    ends = [8.0, 5.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    starts = [0.0, 2.0]
    ends = [4.0, 7.0]
    parents = [-1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([2.0, 5.0])


def test_span_context_records_parents_and_self_times():
    tracer = Tracer()
    with tracer.span("suites.outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["suites.outer", "inner", "inner", "leaf"]
    assert tracer.parents == [-1, 0, 0, 2]
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(selfs) == pytest.approx(total, abs=1e-9)
    assert all(s >= 0 for s in selfs)


@pytest.fixture
def installed():
    import scipy.sparse.linalg  # noqa: F401
    import fermicert.cli  # noqa: F401  (loads every package module)

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_install_rebinds_every_copy_of_a_name(installed):
    import fermicert.definetti
    import fermicert.invariance
    import fermicert.suites

    wrapped = fermicert.invariance.check_invariance
    original = wrapped.__wrapped__
    assert fermicert.suites.check_invariance is wrapped
    assert fermicert.definetti.check_invariance is wrapped
    for name, module in list(sys.modules.items()):
        if name == "fermicert" or name.startswith("fermicert."):
            assert all(v is not original for v in vars(module).values()), name


def test_install_leaves_no_target_unwrapped(installed):
    import importlib

    for layer, module_name, qualname in TARGETS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert hasattr(owner, "__wrapped__"), f"{layer}.{qualname}"


def test_uninstall_restores_the_originals():
    import fermicert.definetti
    import fermicert.suites

    before = (fermicert.suites.check_invariance, np.linalg.eigh,
              fermicert.algebra.OperatorExpansion.multiply)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = (fermicert.suites.check_invariance, np.linalg.eigh,
             fermicert.algebra.OperatorExpansion.multiply)
    assert before == after


def test_calls_from_the_package_are_traced_with_parents(installed):
    from fermicert.invariance import MuFamilyParams, mu_family_state

    np.linalg.eigvalsh(np.eye(2))          # not a package call: not recorded
    mu_family_state(MuFamilyParams(3, 1, 0.5))
    names = [installed.names[i] for i in installed.span_name]
    assert names[0] == "invariance.mu_family_state"
    assert "fock.to_matrix" in names
    assert names.count("linalg.eigvalsh") == 1
    eig = names.index("linalg.eigvalsh")
    assert installed.parents[eig] == 0
    metrics = installed.metrics(wall_s=1.0)
    assert metrics["invariance.mu_family_state.calls"] == 1
    assert metrics["fock.to_matrix.dim_sum"] == 8


def test_metrics_cover_every_spec(installed):
    from fermicert.invariance import MuFamilyParams, mu_family_state

    with installed.span("suites.check-invariance"):
        mu_family_state(MuFamilyParams(3, 1, 0.5))
    metrics = installed.metrics(wall_s=1.0)
    metrics.update({"run.cpu_s": 0.0, "run.trace_overhead_s": 0.0})
    assert {name for name, _, _ in metric_specs()} == set(metrics)


def test_benchmark_json_lists_the_per_layer_metrics():
    path = Path(spans.__file__).resolve().parent.parent / "BENCHMARK.json"
    declared = json.loads(path.read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == \
        [tuple(spec) for spec in metric_specs()]
