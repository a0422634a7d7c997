"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ptsskit.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import per_layer_units  # noqa: E402

ROOT = HERE.parent


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out):
            code = ptsskit.cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _plan_text(plan: list[list[W.Group]], seed: int) -> list:
    return [
        [(j.key, j.argv, sorted(g.files.items())) for g in groups for j in g.jobs]
        + [j.key for j in W.round_jobs(groups, seed, i)]
        for i, groups in enumerate(plan)
    ]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_draw_is_deterministic_for_a_seed(name):
    wl = W.WORKLOADS[name]
    assert _plan_text(W.draw(wl, 7, 3), 7) == _plan_text(W.draw(wl, 7, 3), 7)
    assert _plan_text(W.draw(wl, 7, 3), 7) != _plan_text(W.draw(wl, 8, 3), 8)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_catalogue_job_has_a_recorded_digest(name):
    digests = W.load_digests()
    for groups in W.WORKLOADS[name].catalogue(0).values():
        for g in groups:
            assert all(digests.get(j.key) for j in g.jobs), g.key


def test_chains_check_accepts_the_program_and_rejects_a_dropped_transition():
    root = W.chain_root(random.Random(3), 5)
    code, out = _cli(["pts", "corpus/running.ptss", "--root", root, "--max-depth", "64"])
    check = W.check_chains(root)
    assert check(code, out) is None
    lines = out.splitlines()
    dropped = [ln for ln in lines if ln.startswith("trans ")][-1]
    assert check(code, "\n".join(ln for ln in lines if ln != dropped)) is not None
    assert check(3, out) is not None


def _bisim_outputs(group: W.Group) -> dict[str, tuple[W.Job, int, str]]:
    W.write_inputs([group])
    return {j.key: (j, *_cli(j.argv)) for j in group.jobs}


def test_bisim_checks_reject_a_flipped_verdict_and_a_merged_class():
    group = W.bisim_catalogue(0)["pbx"][0]
    outputs = _bisim_outputs(group)
    for job, code, out in outputs.values():
        assert job.check(code, out) is None
        data = json.loads(out)
        flipped = dict(data, related=not data["related"])
        assert job.check(code, json.dumps(flipped)) is not None
        merged = dict(data, classes=[sum(data["classes"], [])])
        assert job.check(code, json.dumps(merged)) is not None
    assert group.check({k: out for k, (_, _, out) in outputs.items()}) is None
    pb_yes, br_yes = f"{group.key}/pb-yes", f"{group.key}/br-yes"
    coarse = json.loads(outputs[pb_yes][2])
    split = dict(coarse, classes=[[s] for block in coarse["classes"] for s in block])
    swapped = {pb_yes: json.dumps(split), br_yes: outputs[br_yes][2]}
    assert group.check(swapped) is not None


def test_bisim_planted_pair_needs_a_witness():
    group = W.bisim_catalogue(0)["br"][0]
    for job, code, out in _bisim_outputs(group).values():
        assert job.check(code, out) is None
        data = json.loads(out)
        if not data["related"]:
            del data["witness"]
            assert job.check(code, json.dumps(data)) is not None


def test_corpus_check_rejects_a_failed_expectation():
    (group,) = [g for g in W.corpus_catalogue(0)["light"] if g.key.endswith("running.ptss")]
    W.write_inputs([group])
    (job,) = group.jobs
    code, out = _cli(job.argv)
    assert job.check(code, out) is None
    data = json.loads(out)
    data["files"][0]["expectations"][0]["actual"] = "wrong"
    assert job.check(code, json.dumps(data)) is not None


def test_scaling_cancels_a_slowdown_that_hits_job_and_probes_alike():
    assert speed.Speedometer([0.5, 0.5]).scaled(0.5) == pytest.approx(0.25)
    slow = speed.Speedometer([0.25, 0.25]).scaled(1.0)
    assert slow == pytest.approx(speed.Speedometer([1.0, 1.0]).scaled(0.25))
    meter = speed.Speedometer()
    meter.probe()
    with meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.TICK_S:
            pass
    assert len(meter.speeds) >= 3 and all(v > 0 for v in meter.speeds)
    assert 0 < meter.spent < 3 * speed.TICK_S


def test_every_job_is_scaled_by_the_probes_around_it(monkeypatch):
    monkeypatch.chdir(ROOT)
    plan = W.draw(W.CHAINS, 3, 1, smoke=True)
    outcomes = run.run_rounds(ptsskit.cli, plan, 3, W.load_digests(), deadline=float("inf"))
    assert len(outcomes) == 2
    for o in outcomes:
        assert o.error is None and o.wall_s > 0 and o.seconds > 0


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_a_wrong_answer_moves_failed_frac(monkeypatch, capsys):
    original = ptsskit.cli.main

    def flipped(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = original(argv)
        sys.stdout.write(out.getvalue().replace('"related": true', '"related": false'))
        return code

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(ptsskit.cli, "main", flipped)
    assert run.main(["--workload", "bisim", "--seed", "1", "--seconds", "1", "--smoke"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def _smoke(name: str, trace: int, hashseed: str = "0") -> tuple[str, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, _last_json(proc.stdout)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(name):
    _, result = _smoke(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_output_and_counts_do_not_depend_on_the_hash_seed():
    def counts_and_sha(hashseed):
        text, result = _smoke("chains", 1, hashseed)
        sha = [w for w in text.split() if w.startswith("outputs_sha256=")]
        counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
        return sha, counts

    first = counts_and_sha("0")
    assert first[1]["terms.match.calls"] > 0
    assert first == counts_and_sha("1")


def test_trace_reports_every_per_layer_metric():
    _, result = _smoke("bisim", 1)
    assert list(result["metrics"]) == list(per_layer_units())
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["lp.feasible.calls"] > 0 and values["bisim.lift_check.calls"] > 0
    assert values["cli.main.self_s"] > 0 and values["bisim.errors"] == 0


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
