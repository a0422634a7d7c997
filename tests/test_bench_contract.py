"""What the benchmark's per-layer tracer (`perfbench/tracer.py`) needs of
the library: each function it wraps is a callable of its layer's module,
and each attribute its observers read exists.  A missing one makes that
metric null in a `--trace 1` result.  And what the benchmark's jobs
(`perfbench/workloads.py`) are meant to measure: each job's argv is read
by the CLI's argv table, not by argparse."""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ptsskit.bisim import branching_bisim, prob_branching_bisim
from ptsskit.cli import _read_argv, main
from ptsskit.engine import DomainBound, export_pts, load_pts, reachable_pts, stable_model
from ptsskit.lp import feasible
from ptsskit.parser import parse_spec, parse_term
from ptsskit.terms import match
from tests.conftest import CORPUS, RUNNING_SPEC

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # as dataclasses need
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")


@pytest.mark.parametrize("span, func, recursive", tracer.TARGETS)
def test_every_traced_function_is_a_callable_of_its_layer(span, func, recursive):
    module = importlib.import_module(f"ptsskit.{span.split('.')[0]}")
    assert callable(getattr(module, func, None))


def test_every_observer_reads_a_real_result():
    spec = parse_spec(RUNNING_SPEC)
    roots = tuple(parse_term(t, spec.signature) for t in ("+(a.delta(0),b.delta(0))", "tau.delta(a.delta(0))"))
    bound = DomainBound(roots)
    pts = reachable_pts(spec, bound)
    results = {
        "terms.match": ((roots[0], roots[0]), match(roots[0], roots[0])),
        "engine.stable_model": ((spec, bound), stable_model(spec, bound)),
        "engine.reachable_pts": ((spec, bound), pts),
        "engine.load_pts": ((export_pts(pts),), load_pts(export_pts(pts))),
        "lp.feasible": (([{0: 1}], [1]), feasible([{0: 1}], [1])),
        "bisim.branching_bisim": ((pts,), branching_bisim(pts)),
        "bisim.prob_branching_bisim": ((pts,), prob_branching_bisim(pts)),
    }
    assert set(results) == set(tracer.OBSERVERS)
    for span, (args, result) in results.items():
        counts = tracer.OBSERVERS[span](args, result)
        assert counts and all(isinstance(v, (bool, int)) for v in counts.values()), span


def test_a_traced_pts_job_reports_every_per_layer_metric():
    t = tracer.Tracer()
    t.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["pts", str(CORPUS / "running.ptss"), "--root", "+(a.delta(0),tau.delta(b.delta(0)))"]) == 0
    finally:
        t.uninstall()
    metrics = t.metrics()
    assert [m for m, v in metrics.items() if v is None] == []
    assert metrics["engine.stable_model.iterations"] > 0 and metrics["engine.pts_states"] == 3


@pytest.mark.parametrize("workload", ["chains", "bisim", "corpus"])
def test_the_benchmark_jobs_take_the_fast_readers(workload):
    workloads = load("workloads")
    for seed in (7, 11):
        groups = [g for gs in workloads.WORKLOADS[workload].catalogue(seed).values() for g in gs]
        assert [job.argv for g in groups for job in g.jobs if _read_argv(job.argv) is None] == []
