#!/usr/bin/env python3
"""End-to-end benchmark of the tensorforge command line.

Run from the repository root::

    python3 perfbench/run.py --workload verify-sparse --seed 1 --seconds 30 --trace 0

One client sends commands in a closed loop: each ``python -m tensorforge``
subprocess (``PYTHONPATH=src``) starts only after the previous one exited.
A pass is one run through the workload's command list; passes repeat while
another one still fits in ``--seconds`` (at least two).  Every answer is
checked against a known value (``workloads``), and a wrong exit status,
output, crash or timeout counts as a failed command.

Times are the CPU seconds of the command processes (user and system, from
``os.wait4``), which leave out the time the host takes the machine away.
The host also runs the same code faster or slower from one second or minute
to the next, so each time is then put in seconds at a fixed reference speed
with the reference processes of ``reference`` run just before and after it.
Only the part after the first ``START_S`` is scaled: interpreter start and
imports run at the same speed whatever the host does.
``pass_s`` is the median pass over all passes; the command latencies
(``cmd_p50_s``, ``cmd_tail_s``) come from the first two passes only, so that
the sample count, and with it the tail's percentile, is the same whatever
the speed of the code under test.  ``setup_s`` is the median of ``SETUPS``
setups, put at the reference speed the same way.  The raw CPU and wall pass
times and the mean reference factor are printed in the ``info`` line.

``--trace 0`` reports the end-to-end metrics from these subprocess passes.
``--trace 1`` instead calls ``tensorforge.cli.main`` in this process,
alternating untraced passes with passes under the span wrappers of
``spans``, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK = os.path.join(HERE, ".work")
sys.path[:0] = [HERE, SRC]

import check  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 120
SETUPS = 5
MIN_PASSES = 2
STARTUP_SAMPLES = 5
# CPU seconds of interpreter start and imports at the start of a command
START_S = 0.2
CLEARED_ENV = ("TENSORFORGE_PURE", "TENSORFORGE_DEGREE_CAP")

END_TO_END = {
    "pass_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_repeats": "count",
    "linalg.rank_useful_ratio": "ratio",
    "linalg.kernel_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "linalg.elim_entries": "count",
    "linalg.elim_nnz": "count",
    "linalg.matrix_products": "count",
    "cohomology.init_s": "s",
    "cohomology.assemble_s": "s",
    "cohomology.assemble_calls": "count",
    "cohomology.assemble_cached": "count",
    "cohomology.matrix_rows": "count",
    "cohomology.matrix_cols": "count",
    "cohomology.matrix_nnz": "count",
    "cohomology.matrix_density": "ratio",
    "cohomology.rep_check_s": "s",
    "cohomology.tuples": "count",
    "cohomology.build_s": "s",
    "algebras.check_s": "s",
    "algebras.tuples": "count",
    "algebras.failures": "count",
    "algebras.tuples_per_s": "1/s",
    "actions.check_s": "s",
    "actions.build_s": "s",
    "actions.tuples": "count",
    "actions.failures": "count",
    "actions.tuples_per_s": "1/s",
    "actions.gate_calls": "count",
    "actions.gate_memo_hits": "count",
    "deformations.s": "s",
    "deformations.calls": "count",
    "deformations.tuples": "count",
    "induced_lie.s": "s",
    "induced_lie.calls": "count",
    "induced_lie.tuples": "count",
    "schema.parse_s": "s",
    "schema.parse_calls": "count",
    "schema.bytes_in": "bytes",
    "schema.emit_s": "s",
    "schema.bytes_out": "bytes",
    "report.render_s": "s",
    "report.witnesses": "count",
    "report.bytes_out": "bytes",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


def clean_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, env, workdir):
    """Run one subprocess to completion.

    Returns (wall seconds, CPU seconds, status, peak RSS in MB, out, err).
    """
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0)
        err.seek(0)
        return (
            elapsed,
            usage.ru_utime + usage.ru_stime,
            proc.returncode,
            usage.ru_maxrss / 1024,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


def tensorforge_argv(cmd):
    return [sys.executable, "-m", "tensorforge", *cmd.argv]


def cpu_clock():
    """CPU seconds of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup(name, seed, env, speed=None):
    """Write the inputs, derive the answers and warm up, SETUPS times.

    Returns the last setup's work directory and commands, and for every
    setup its CPU seconds and the ``speed`` mark before it.  ``speed``, if
    given, runs its reference processes between the setups, outside the
    timed part.
    """
    times = []
    for attempt in range(SETUPS):
        mark = speed.tick() if speed is not None else None
        start = cpu_clock()
        workdir = os.path.join(WORK, f"{os.getpid()}-{attempt}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        cmds = workloads.build(name, seed, workdir, FIXTURES)
        # warm-up: the interpreter, the bytecode cache and the input files
        warm = workloads.Command(["emit", cmds[0].argv[1]], 0)
        _, _, status, _, _, err = spawn(tensorforge_argv(warm), env, workdir)
        if status != 0:
            raise SystemExit(f"warm-up command failed with status {status}: {err.strip()}")
        times.append((cpu_clock() - start, mark))
        if attempt < SETUPS - 1:
            shutil.rmtree(workdir)
    return workdir, cmds, times


def another_fits(durations, start, seconds, minimum):
    """Whether to start another pass: one more still ends within ``seconds``."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples above it.

    With fewer than 11 samples there is no such percentile; the maximum is
    reported and the percentile reads 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def subprocess_passes(cmds, seconds, env, workdir, failures, speed):
    """The timed passes.  Times are CPU seconds of the command processes, each
    put at the reference speed by the reference processes around it."""
    timed, walls, peak = [], [], 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for cmd in cmds:
            mark = speed.tick()
            elapsed, cpu, status, rss, out, err = spawn(tensorforge_argv(cmd), env, workdir)
            timed.append((len(walls), cpu, mark, elapsed))
            peak = max(peak, rss)
            attempted += 1
            problem = check.verify(cmd, status, out, err)
            if problem:
                failed += 1
                failures.append(f"{' '.join(cmd.argv)}: {problem}")
        walls.append(time.perf_counter() - pass_start)
        if not another_fits(walls, start, seconds, MIN_PASSES):
            break
    speed.take()
    passes, raw = [0.0] * len(walls), [0.0] * len(walls)
    latencies = []
    for index, cpu, mark, elapsed in timed:
        # the start of a command runs at the same speed in the host's fast
        # and slow spells; only the rest follows the reference
        start_s = min(cpu, START_S)
        seconds_at_reference = start_s + (cpu - start_s) * speed.local(mark, elapsed)
        passes[index] += seconds_at_reference
        raw[index] += cpu
        # the latency sample is the first MIN_PASSES passes only, so its
        # size, and the tail's percentile, do not depend on the speed
        if index < MIN_PASSES:
            latencies.append(seconds_at_reference)
    p_tail, percentile = tail(latencies)
    metrics = {
        "pass_s": statistics.median(passes),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": p_tail,
        "peak_rss_mb": peak,
    }
    info = {
        "passes": len(passes),
        "cmd_samples": len(latencies),
        "cmd_tail_percentile": round(percentile, 1),
        "failed_share": failed / attempted,
        "pass_cpu_s_raw": statistics.median(raw),
        "pass_wall_s_raw": statistics.median(walls),
        "reference_factor": speed.factor(),
        "reference_samples": len(speed.samples),
    }
    return metrics, info, attempted, failed


def inprocess_pass(cmds, main, failures, tracer=None):
    """One pass calling cli.main in this process.

    Returns (pass seconds, failed commands, seconds inside the main() calls).
    """
    failed = 0
    in_main = 0.0
    start = time.perf_counter()
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call_start = time.perf_counter()
            try:
                status = main(list(cmd.argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            in_main += time.perf_counter() - call_start
        if tracer is not None:
            tracer.finish_command()
        problem = check.verify(cmd, status, out.getvalue(), err.getvalue())
        if problem:
            failed += 1
            failures.append(f"{' '.join(cmd.argv)}: {problem}")
    return time.perf_counter() - start, failed, in_main


def startup_time(env, workdir):
    argv = [sys.executable, "-c", "import tensorforge.cli"]
    samples = []
    for _ in range(STARTUP_SAMPLES):
        elapsed, _, status, _, _, err = spawn(argv, env, workdir)
        if status != 0:
            raise SystemExit(f"importing tensorforge.cli failed: {err.strip()}")
        samples.append(elapsed)
    return statistics.median(samples)


def layer_metrics(results, plain, traced, startup):
    """Medians over the traced passes of every per-layer metric."""
    rows = []
    for res in results:
        times, counts = res["times"], res["counts"]
        row = {metric: times[metric] for metric in spans.TIME_METRICS}
        for metric, unit in PER_LAYER.items():
            if unit != "s" and metric not in row:
                row[metric] = counts.get(metric, 0)
        calls = row["linalg.rank_calls"]
        row["linalg.rank_useful_ratio"] = (
            (calls - row["linalg.rank_repeats"]) / calls if calls else 1.0
        )
        cells = row["cohomology.matrix_rows"] * row["cohomology.matrix_cols"]
        row["cohomology.matrix_density"] = row["cohomology.matrix_nnz"] / cells if cells else 0.0
        for module in ("algebras", "actions"):
            busy = row[f"{module}.check_s"]
            row[f"{module}.tuples_per_s"] = row[f"{module}.tuples"] / busy if busy else 0.0
        for module in ("deformations", "induced_lie"):
            row[f"{module}.calls"] = sum(
                1 for span in res["spans"] if span[0].startswith(module + ".")
            )
        rows.append(row)
    out = {metric: statistics.median(row[metric] for row in rows) for metric in rows[0]}
    out["cli.startup_s"] = startup
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {metric: out[metric] for metric in PER_LAYER}


def traced_run(cmds, seconds, env, workdir, failures):
    tracer = spans.Tracer()
    main = tracer.mods["cli"].main
    plain, traced, results = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        elapsed, bad, _ = inprocess_pass(cmds, main, failures)
        plain.append(elapsed)
        failed += bad
        tracer.install()
        try:
            elapsed, bad, _ = inprocess_pass(cmds, tracer.mods["cli"].main, failures, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        results.append(tracer.take())
        failed += bad
        attempted += 2 * len(cmds)
        rounds = [a + b for a, b in zip(plain, traced)]
        if not another_fits(rounds, start, seconds, 1):
            break
    metrics = layer_metrics(results, plain, traced, startup_time(env, workdir))
    info = {"passes": len(traced), "spans": len(results[-1]["spans"])}
    return metrics, info, attempted, failed


def environment():
    import tensorforge

    return {
        "python": platform.python_version(),
        "kernel_backend": tensorforge.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tensorforge", "__init__.py")):
        print(f"no tensorforge sources under {SRC}", file=sys.stderr)
        return 2
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    env = clean_env()
    os.makedirs(WORK, exist_ok=True)
    workdir = None
    failures = []
    try:
        if args.trace:
            workdir, cmds, _ = setup(args.workload, args.seed, env)
            metrics, info, attempted, failed = traced_run(
                cmds, args.seconds, env, workdir, failures
            )
            units = PER_LAYER
        else:
            speed = reference.Speed(env)
            workdir, cmds, setups = setup(args.workload, args.seed, env, speed)
            metrics, info, attempted, failed = subprocess_passes(
                cmds, args.seconds, env, workdir, failures, speed
            )
            metrics["setup_s"] = statistics.median(
                cpu * speed.local(mark, cpu) for cpu, mark in setups
            )
            units = END_TO_END
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    info.update(
        workload=args.workload,
        seed=args.seed,
        commands_per_pass=len(cmds),
        env=environment(),
    )
    print(json.dumps({"info": info}))
    for metric, unit in units.items():
        print(f"{metric:32s} {metrics[metric]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
