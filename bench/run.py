#!/usr/bin/env python3
"""Outside-in benchmark of the pfwcl command line.

Run from the repository root:

    python3 bench/run.py --workload spectral --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

``--trace 0`` measures the end-to-end metrics.  Each job is a fresh
``python -m pfwcl.cli <subcommand>`` process (PYTHONPATH=src, no install
needed), launched one at a time: a closed loop with one client and no
``--jobs``.  The job list is repeated while whole passes fit in ``--seconds``
(at least one pass); ``wall_s`` is the median pass.  ``setup_s`` is the median
of several ``<subcommand> --help`` launches.  ``peak_rss_mb`` is the largest
child max-RSS from ``os.wait4``.

``--trace 1`` measures the per-layer metrics.  It runs the same jobs in this
process through ``pfwcl.cli.run``: once untraced, then twice with span
wrappers (see tracing.py).  Traced data output must be byte-identical to the
untraced output, and the deterministic work counts must repeat exactly
between the two traced runs.  The tracing overhead is traced against
untraced in-process wall time.

Every job's data output is checked against exact oracles (checks.py); a job
that exits non-zero or fails a check counts in ``failed``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``).  A fuller report (machine facts,
the generated configs, per-job times, the traced table) and the spans are
written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_LAUNCHES = 5
JOB_TIMEOUT_S = 120.0


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, env, stdout_path=None, stderr_path=None) -> tuple:
    """Run ``python -m pfwcl.cli *args`` to completion.

    Returns (exit code, seconds, max RSS in KiB).  The child is reaped with
    ``os.wait4`` so its own resource usage is read; a child still running
    after JOB_TIMEOUT_S is killed and reported with exit code -9.
    """
    cmd = [sys.executable, "-m", "pfwcl.cli", *args]
    with contextlib.ExitStack() as stack:
        out, err = (stack.enter_context(open(path, "wb")) if path else subprocess.DEVNULL
                    for path in (stdout_path, stderr_path))
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], JOB_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _compare_to(reference, outputs, found, drift, what) -> None:
    """Charge a job whose output disagrees with ``reference`` beyond
    checks.REPEAT_TOL; record in ``drift`` the largest difference that
    stayed within it (a job that is not byte-deterministic)."""
    for name, blob in outputs.items():
        if blob is None or reference.get(name) is None:
            continue
        diff = checks.compare_outputs(reference[name], blob)
        if diff is None:
            found.setdefault(name, []).append(f"{what} beyond {checks.REPEAT_TOL:g}")
        elif diff > 0.0:
            drift[name] = max(drift.get(name, 0.0), diff)


def run_end_to_end(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    jobs = workloads.make_jobs(workload, seed)
    workloads.write_configs(jobs, workdir)
    env = _child_env()
    subs = workloads.subcommands(jobs)

    launch([subs[0], "--help"], env)      # untimed: writes the bytecode caches
    setup = []
    for i in range(SETUP_LAUNCHES):
        code, elapsed, _ = launch([subs[i % len(subs)], "--help"], env)
        if code != 0:
            raise RuntimeError(f"`pfwcl.cli {subs[i % len(subs)]} --help` exited {code}")
        setup.append(elapsed)

    passes, problems, job_times, peak_kib = [], [], {j.name: [] for j in jobs}, 0
    first_outputs, drift = None, {}
    start = time.perf_counter()
    while True:
        outputs = {}
        pass_start = time.perf_counter()
        for job in jobs:
            path = os.path.join(workdir, job.name)
            code, elapsed, rss = launch(job.argv(workdir), env, path + ".out", path + ".err")
            job_times[job.name].append(elapsed)
            peak_kib = max(peak_kib, rss)
            outputs[job.name] = _read(path + ".out") if code == 0 else None
            if code != 0:
                print(f"bench: {job.name} exited {code}: {_read(path + '.err')[-2000:]!r}",
                      file=sys.stderr)
        passes.append(time.perf_counter() - pass_start)
        found, facts = checks.check_outputs(jobs, outputs)
        if first_outputs is None:
            first_outputs = outputs
        _compare_to(first_outputs, outputs, found, drift, "output differs from the first pass")
        problems.append(found)
        if time.perf_counter() - start + passes[-1] > seconds:
            break

    attempted = len(jobs) * len(passes)
    failed = sum(map(len, problems))
    values = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "jobs": _describe(jobs, workdir),
        "passes_s": passes, "setup_launches_s": setup,
        "job_s": job_times,
        "problems": problems,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "wh_logdet_err": facts.get("wh_logdet_err"),
        "values": values,
        "not_byte_deterministic": drift,
        "self_check_problems": [],
    }


def _describe(jobs, workdir) -> list:
    rel = os.path.relpath(workdir, ROOT)
    return [{"name": j.name, "argv": j.argv(rel), "config": j.config} for j in jobs]


def run_in_process(jobs, workdir, tracer=None) -> tuple:
    """Run each job through ``pfwcl.cli.run``; returns (outputs, seconds)."""
    cli = sys.modules["pfwcl.cli"]
    outputs = {}
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(job.argv(workdir))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing job is a failed job; keep measuring the rest
            traceback.print_exc()
            code = -1
        outputs[job.name] = out.getvalue().encode("utf-8") if code == 0 else None
    return outputs, time.perf_counter() - start


def run_traced(workload: str, seed: int, workdir: str) -> dict:
    jobs = workloads.make_jobs(workload, seed)
    workloads.write_configs(jobs, workdir)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    importlib.import_module("pfwcl.cli")
    import_s = time.perf_counter() - start

    reference, untraced_s = run_in_process(jobs, workdir)
    found, facts = checks.check_outputs(jobs, reference)
    problems = [found]
    tracer = Tracer()
    tracer.install()
    runs, drift = [], {}
    try:
        for _ in range(2):
            tracer.reset()
            outputs, traced_s = run_in_process(jobs, workdir, tracer)
            found, _ = checks.check_outputs(jobs, outputs)
            _compare_to(reference, outputs, found, drift, "traced output differs from untraced")
            problems.append(found)
            runs.append({"seconds": traced_s, "table": tracer.aggregate(),
                         "counts": dict(tracer.counts),
                         "output_bytes": sum(len(v or b"") for v in outputs.values())})
            if len(runs) == 1:
                spans_path = os.path.join(WORK, f"spans-{workload}-seed{seed}.csv.gz")
                tracer.write_spans(spans_path, jobs)
                span_count = len(tracer.spans)
    finally:
        tracer.uninstall()

    self_check = [f"{key}: {runs[0]['counts'].get(key, 0)} then {runs[1]['counts'].get(key, 0)}"
                  for key in DETERMINISTIC_COUNTS
                  if runs[0]["counts"].get(key, 0) != runs[1]["counts"].get(key, 0)]
    first = runs[0]
    values = dict(first["table"])
    values.update(first["counts"])
    values.update({
        "cli.import_s": import_s,
        "cli.output_bytes": first["output_bytes"],
        "trace.untraced_s": untraced_s,
        "trace.traced_s": first["seconds"],
        "trace.overhead_frac": first["seconds"] / untraced_s - 1.0,
        "wienerhopf.logdet_err": facts.get("wh_logdet_err", 0.0),
    })
    attempted = len(jobs) * len(problems)
    failed = sum(map(len, problems))
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "jobs": _describe(jobs, workdir),
        "problems": problems, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "wh_logdet_err": facts.get("wh_logdet_err"),
        "values": values, "span_count": span_count, "spans_file": os.path.relpath(spans_path, ROOT),
        "second_traced_run": {"seconds": runs[1]["seconds"], "counts": runs[1]["counts"]},
        "not_byte_deterministic": drift,
        "self_check_problems": self_check,
    }


def machine_facts(seed: int) -> dict:
    """Read-only facts about the host and the checkout; changes no setting."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _print_summary(result: dict, spec: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"jobs={len(result['jobs'])}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    if result["trace"] == 0:
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<14} {result['values'][m['name']]:>14.6g} {m['unit']}")
        print(f"  {'fail_frac':<14} {result['fail_frac']:>14.6g} ratio")
        if result["wh_logdet_err"] is not None:
            print(f"  {'wh_logdet_err':<14} {result['wh_logdet_err']:>14.6g} 1"
                  f"  (cap {checks.WH_LOGDET_ERR_CAP:g})")
        print(f"  passes: {len(result['passes_s'])}")
    else:
        values = result["values"]
        for key in sorted(values):
            if key.endswith(".calls") and values[key]:
                base = key[:-len(".calls")]
                print(f"  {base:<44} calls={values[key]:>9.0f}  total_s="
                      f"{values[base + '.total_s']:>9.4f}  self_s={values[base + '.self_s']:>9.4f}")
        for key in sorted(values):
            if not key.endswith((".calls", ".total_s", ".self_s")):
                print(f"  {key:<44} {values[key]:.6g}")
    for found in result["problems"]:
        for name, msgs in found.items():
            print(f"  FAILED {name}: {'; '.join(msgs)}")
    for name, diff in result["not_byte_deterministic"].items():
        print(f"  NOT BYTE-DETERMINISTIC {name}: repeat differs by {diff:.2e} "
              f"(within {checks.REPEAT_TOL:g})")
    for msg in result["self_check_problems"]:
        print(f"  SELF-CHECK FAILED {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 measures one workload per process (imports are timed cold)")

    if not os.path.isfile(os.path.join(SRC, "pfwcl", "cli.py")):
        print(f"bench: no pfwcl sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = _load_spec()
    os.makedirs(WORK, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        try:
            if args.trace:
                results.append(run_traced(name, args.seed, workdir))
            else:
                results.append(run_end_to_end(name, args.seed, args.seconds, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(args.seed)
    report_path = os.path.join(WORK, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "results": results}, fh, indent=1, sort_keys=True)
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    for result in results:
        _print_summary(result, spec)
    print(f"report: {os.path.relpath(report_path, ROOT)}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for m in listed:
            metrics[prefix + m["name"]] = {"value": result["values"].get(m["name"], 0.0),
                                           "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["self_check_problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
