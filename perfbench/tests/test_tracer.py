"""Tracer hygiene: wrappers come off after a traced run, an untraced run
installs none, and the traced run's self times account for its wall time.

    python3 -m pytest -q perfbench/tests
"""

import json
import os

import pytest

import tracer
import workloads

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "BENCHMARK.json")


def _bound():
    return [owner.__dict__[attr] for owner, attr, *_ in tracer.TARGETS]


ORIGINALS = _bound()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    t = tracer.Tracer()
    result = workloads.Runner("pgd-eval", 1, 0, t, str(tmp_path_factory.mktemp("out"))).run()
    return t, result


def test_traced_run_restores_every_wrapped_attribute(traced):
    t, result = traced
    assert not result.failures
    assert not t.installed
    assert all(now is orig for now, orig in zip(_bound(), ORIGINALS))


def test_traced_run_restores_attributes_when_an_op_raises(tmp_path, monkeypatch):
    def boom(self):
        raise RuntimeError("op failed")

    monkeypatch.setattr(workloads.PgdEval, "op", boom)
    with pytest.raises(RuntimeError):
        workloads.Runner("pgd-eval", 1, 0, tracer.Tracer(), str(tmp_path)).run()
    assert all(now is orig for now, orig in zip(_bound(), ORIGINALS))


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    seen = []
    op = workloads.PgdEval.op

    def spy(self):
        seen.append(_bound())
        return op(self)

    monkeypatch.setattr(workloads.PgdEval, "op", spy)
    result = workloads.Runner("pgd-eval", 1, 0, None, str(tmp_path)).run()
    assert not result.failures and seen
    assert all(now is orig for snapshot in seen for now, orig in zip(snapshot, ORIGINALS))


def test_self_times_add_up_to_wall_time(traced):
    t, result = traced
    coverage = result.layers["trace.self_time_coverage"][0]
    assert 0.9 <= coverage <= 1.1
    assert min(t.self_times()) > -1e-6
    # the wrapped layers, not the benchmark's own code, take the op's time
    assert result.layers["trace.attributed_share"][0] > 0.9


def test_benchmark_json_names_every_reported_metric(traced):
    _, result = traced
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == list(result.layers)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in result.layers.values()]
    e2e = workloads.end_to_end(result, 0.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in e2e.values()]
