"""The checkers catch wrong outputs, the float realization reproduces the
pinned closed forms, the trace leaves the program as it found it, and the
metric names agree with BENCHMARK.json."""

import inspect
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import cli_session
import identities
import products
import run
import spectral_lab
import tracing
from qheis import algebra, lie, ratfun
from qheis.algebra import Element
from realize import Realization
from taskdeck import WrongOutput

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _perturbed(z: Element) -> Element:
    """z with one coefficient moved by q."""
    if z.is_zero():
        return algebra.I
    bw, c = next(iter(z.terms.items()))
    return Element({**z.terms, bw: c + ratfun.RF_Q})


def test_perturbed_product_is_rejected():
    task = next(t for t in products.Workload().deck(random.Random(1), 0) if t.kind == "multiply")
    z = task.run()
    task.check(z)
    with pytest.raises(WrongOutput):
        task.check(_perturbed(z))


def test_perturbed_products_raise_the_error_rate(monkeypatch):
    original = algebra.multiply
    monkeypatch.setattr(algebra, "multiply", lambda x, y, rules=algebra.COMPLETED: _perturbed(original(x, y, rules)))
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    r = run.Run(products.Workload(), seed=3, seconds=0.2, trace=False)
    r.measure()
    metrics = r.end_to_end(setup_s=1.0)
    # the product checker itself rejects the output, not a failed call
    assert any("multiply differs from multiply_cascade" in f for f in r.failures)
    assert not any("TypeError" in f for f in r.failures)
    assert metrics["success_rate"] < 1.0


def test_a_run_without_enough_samples_is_refused(monkeypatch):
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    monkeypatch.setattr(run, "MIN_SAMPLES", 10**9)
    monkeypatch.setattr(run, "MAX_MEASURE_S", 0.5)
    r = run.Run(products.Workload(), seed=1, seconds=0.1, trace=False)
    with pytest.raises(SystemExit) as exit_info:
        r.measure()
    assert exit_info.value.code == 2


def test_wrong_exit_code_raises_the_error_rate(monkeypatch):
    workload = cli_session.Workload(ROOT, run.child_env())
    deck = workload.deck(random.Random(2), 0)
    task = next(t for t in deck if t.kind == "exit-2")
    # the command that actually runs is a valid one, so it exits with 0
    monkeypatch.setattr(workload, "command_line", lambda argv: [sys.executable, "-m", "qheis.cli", "normalize", "A"])
    r = run.Run(workload, seed=2, seconds=0.0, trace=False)
    for i in range(2):
        r.probe.sample()
        r.plain.append(r.execute(task, i, traced=False))
    r.probe.sample()
    assert not any(ok for _t0, _dt, ok in r.plain)
    assert "exit code 0, expected 2" in r.failures[0]
    assert r.end_to_end(setup_s=1.0)["success_rate"] == 0.0


@pytest.mark.parametrize("l", [1, 2, 3])
def test_realization_reproduces_shift_power_norms(l):
    real = Realization(Fraction(1, 2))
    value = np.linalg.svd(real.matrix(Element.monomial(l, 0, 0), 200), compute_uv=False)[0]
    assert abs(value - 2.0 ** (l / 2)) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
def test_realization_reproduces_the_diagonal(k):
    m = Realization(Fraction(1, 2)).matrix(Element.monomial(0, k, 0), 50)
    assert np.max(np.abs(np.diag(m) - [0.5 ** (k * n) for n in range(50)])) < 1e-12
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0


def _bindings():
    """Every attribute the tracer may rebind, as it is now."""
    seen = {}
    for owner, attr, _layer, _opts in tracing.TARGETS:
        if inspect.isclass(owner):
            seen[(id(owner), attr)] = inspect.getattr_static(owner, attr)
        else:
            for m in tracing.qheis_modules() + [owner]:
                if hasattr(m, attr):
                    seen[(id(m), attr)] = getattr(m, attr)
    return seen


def test_trace_wrappers_restore_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lie.multiply is algebra.multiply
        assert algebra.multiply is not before[(id(algebra), "multiply")]
        tracer.tag = "task"
        lie.bracket(algebra.A, algebra.B)
        tracer.tag = "oracle"
        algebra.multiply_cascade(algebra.A, algebra.B)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.counters[("task", "algebra.products")] == 2
    assert ("task", "ratfun") in tracer.entries
    assert ("oracle", "algebra") in tracer.self_s
    assert ("task", "algebra.products") not in {k for k in tracer.counters if k[0] == "oracle"}


@pytest.mark.parametrize("workload", [identities.Workload(), products.Workload(), spectral_lab.Workload()])
def test_one_deck_passes_its_checks(workload):
    for task in workload.deck(random.Random(11), 0):
        task.check(task.run())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _k, _key in run.PER_LAYER]


def test_refuses_a_directory_without_the_program():
    bare = os.path.join(run.RESULTS, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "random-products", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
