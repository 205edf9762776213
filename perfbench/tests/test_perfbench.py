"""Tests of the benchmark itself: inputs, answers, metric names and spans.

Run from the repository root::

    python -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import reference
import run
import spans
import workloads
from tensorforge import CochainComplex, parse_document

from oracles import oracle_rank

ROOT = run.ROOT


def documents(name, seed, workdir):
    workdir.mkdir()
    workloads.build(name, seed, str(workdir), run.FIXTURES)
    return {f: (workdir / f).read_bytes() for f in sorted(os.listdir(workdir))}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_documents(tmp_path, name):
    first = documents(name, 7, tmp_path / "a")
    assert first == documents(name, 7, tmp_path / "b")
    other = documents(name, 8, tmp_path / "c")
    assert first.keys() == other.keys()
    assert first != other


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def short_run(monkeypatch, name, trace):
    """The benchmark on the first two commands of a workload, for one pass."""
    build = workloads.build
    monkeypatch.setattr(workloads, "build", lambda *a: build(*a)[:2])
    monkeypatch.setattr(run, "STARTUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)])
    assert status == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_for_every_workload(monkeypatch, name):
    spec = benchmark_json()
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        result = short_run(monkeypatch, name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = [m["name"] for m in spec[table]]
        assert list(result["metrics"]) == names
        for m in spec[table]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced in-process pass over commands that reach every layer."""
    workdir = tmp_path_factory.mktemp("traced")
    cmds = [
        c for c in workloads.build("cohomology", 2, str(workdir), run.FIXTURES)
        if "nil5" not in c.argv[1]
    ]
    dense = workloads.build("verify-dense", 2, str(workdir), run.FIXTURES)
    cmds += [c for c in dense if "dense4" in c.argv[1] or "heisenberg" in c.argv[1]]
    tracer = spans.Tracer()
    tracer.install()
    failures = []
    try:
        _, _, in_main = run.inprocess_pass(cmds, tracer.mods["cli"].main, failures, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    result = tracer.take()
    result["in_main_s"] = in_main
    result["commands"] = len(cmds)
    return result


def test_no_span_has_negative_self_time(traced):
    assert traced["spans"]
    assert min(spans.self_times(traced["spans"])) >= 0


def test_self_times_add_up_to_command_time(traced):
    # in_main_s times every cli.main call from outside the tracer; the spans
    # may miss only the entry and exit of the outermost wrapper, a few
    # microseconds per command
    total = sum(traced["times"].values())
    assert total <= traced["in_main_s"]
    assert total == pytest.approx(traced["in_main_s"], abs=1e-4 * traced["commands"])
    assert traced["times"]["cli.self_s"] > 0
    # every layer the commands reach shows up
    for metric in ("schema.parse_s", "algebras.check_s", "actions.check_s",
                   "actions.build_s", "cohomology.init_s", "cohomology.assemble_s",
                   "linalg.rank_s", "deformations.s", "induced_lie.s",
                   "report.render_s", "schema.emit_s"):
        assert traced["times"][metric] > 0, metric


def test_reference_process_does_not_import_tensorforge():
    # the reference is the yardstick of every time: a change to the package
    # must not move it
    probe = (
        "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
        "assert not any(m.startswith('tensorforge') for m in sys.modules)"
    )
    env = run.clean_env()
    subprocess.run([sys.executable, "-c", probe, reference.__file__], env=env, check=True)
    speed = reference.Speed(env)
    speed.take()
    speed.take()
    assert min(speed.samples) > 0
    assert speed.factor() == pytest.approx(
        reference.NOMINAL_S / statistics.fmean(speed.samples)
    )


def test_uninstall_restores_the_package():
    import tensorforge
    from tensorforge import cli, linalg

    before = (cli.main, cli.check_net, linalg.rank, linalg.Matrix.mul, tensorforge.check_net)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.check_net is not before[1]
    tracer.uninstall()
    assert (cli.main, cli.check_net, linalg.rank, linalg.Matrix.mul,
            tensorforge.check_net) == before


def oracle_dims(problem, degree):
    cx = CochainComplex(problem)

    def rank(n):
        m = cx.delta_matrix(n)
        rows = [list(r) for r in m.rows if any(r)]
        return oracle_rank(rows) if rows else 0

    z = cx.cochain_dim(degree) - rank(degree)
    b = rank(degree - 1)
    return cx.cochain_dim(degree), z, b


@pytest.mark.parametrize("name", sorted(workloads.PINS["cohomology"]))
def test_pinned_rows_match_the_oracle(name):
    doc = workloads.pinned_document(name, workloads.gen.rng_for(0, "oracle"), False)
    problem = parse_document(json.dumps(doc)).resolve("nets")
    for row in workloads.PINS["cohomology"][name]:
        cochains, z, b = oracle_dims(problem, row["degree"])
        assert (cochains, z, b, z - b) == (
            row["cochains"], row["cocycles"], row["coboundaries"], row["classes"]
        )
    first = workloads.PINS["cohomology"][name][0]
    assert workloads.PINS["classify"][name] == {
        "cocycle_dim": first["cocycles"],
        "coboundary_dim": first["coboundaries"],
        "class_dim": first["classes"],
    }


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    spec = benchmark_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", "verify-sparse", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
