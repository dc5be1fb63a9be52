"""Benchmark of mnarcause: one workload per call, or both.

    python3 perfbench/run.py --workload boot-10k --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics of one traced operation (--seconds is then unused). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. It exits 1 when a check of the program's output fails, and 2
when the benchmark cannot run (for example, when src/ is absent).

Every operation's output is checked against numpy computations made apart
from the program (checks.py). See README.md for the workloads, the
metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run that has not ended by then is stopped
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Children:
    """Starts child processes one at a time and makes sure none outlives
    the run."""

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.workdir = workdir
        self.current = None

    def start(self, argv, **kwargs):
        self.current = subprocess.Popen(argv, env=self.env, **kwargs)
        return self.current

    def reap(self, proc):
        """Wait for proc; returns (exit code, peak RSS in MB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.current = None
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop(self):
        proc, self.current = self.current, None
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()

    def worker(self, *args, stdout=subprocess.DEVNULL):
        err = open(self.workdir / "worker.stderr", "ab")
        try:
            return self.start([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                              stdout=stdout, stderr=err)
        finally:
            err.close()

    def check_exit(self, proc, what: str):
        code, rss = self.reap(proc)
        if code != 0:
            tail = (self.workdir / "worker.stderr").read_text(errors="replace")[-2000:]
            raise BenchError(f"{what} exited {code}:\n{tail}")
        return rss


def setup_seconds(kids: Children, name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until the workload's
    inputs are built and the worker reports ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = kids.worker("setup", name, seed, kids.workdir, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        kids.check_exit(proc, "set-up")
        if line.strip() != b"ready":
            raise BenchError("set-up did not report ready")
    return statistics.median(samples)


def measure_boot(kids: Children, seed: int, seconds: float) -> dict:
    """Closed loop of cold `mnarcause fit` processes, whole rounds over the
    workload's CSVs, for at least seconds."""
    import checks
    ops, rss, reports, failed_ops = [], [], [], 0
    per_round = workloads.BOOT_CSVS
    start = time.perf_counter()
    while len(ops) % per_round or time.perf_counter() - start < seconds:
        k = len(ops)
        report = str(kids.workdir / f"report{k}.json")
        argv = workloads.fit_argv(seed, kids.workdir, k, report)
        with open(kids.workdir / "op.stdout", "wb") as out, \
                open(kids.workdir / "op.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = kids.start([sys.executable, "-c", workloads.CLI_MAIN, *argv],
                              stdout=out, stderr=err)
            code, peak = kids.reap(proc)
            ops.append(time.perf_counter() - t0)
        rss.append(peak)
        if code == 0:
            reports.append((k, report))
        else:
            failed_ops += 1
    failed, blunt = [], []
    for k, report in reports:
        csv = workloads.csv_path(kids.workdir, k % per_round)
        data, values = checks.load_fit_inputs(csv, report)
        failed += [f"op{k}:{c}" for c in checks.run(checks.BOOT_CHECKS, values, data)]
        if k == 0:
            blunt = [repr(b) for b in checks.teeth(checks.BOOT_CHECKS, values, data)]
    return {"ops": ops, "units_per_op": workloads.BOOT_UNITS,
            "failed_ops": failed_ops,
            "failed_checks": failed, "blunt": blunt, "peak_rss_mb": max(rss)}


def measure_mc(kids: Children, seed: int, seconds: float) -> dict:
    proc = kids.worker("measure", seed, seconds, kids.workdir)
    peak = kids.check_exit(proc, "mc-table2 worker")
    result = json.loads((kids.workdir / "measure.json").read_text())
    result["peak_rss_mb"] = peak
    return result


def run_measured(kids: Children, name: str, seed: int, seconds: float) -> dict:
    setup_s = setup_seconds(kids, name, seed)
    if name == "mc-table2":
        res = measure_mc(kids, seed, seconds)
    else:
        res = measure_boot(kids, seed, seconds)
    op_s = round_median(res["ops"], workloads.round_size(name))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "work_per_s": (res["units_per_op"] / op_s, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return finish(res, len(res["ops"]), res["failed_ops"], metrics)


def round_median(ops: list, per_round: int) -> float:
    """Median over the run's rounds of the mean time of one operation in
    the round. The operations of a round differ in their data, so the
    median of single operations would jump between them."""
    return statistics.median(statistics.fmean(ops[i:i + per_round])
                             for i in range(0, len(ops), per_round))


def run_traced(kids: Children, name: str, seed: int) -> dict:
    from tracing import import_times
    metrics = import_times(kids.env)
    proc = kids.worker("trace", name, seed, kids.workdir)
    kids.check_exit(proc, "traced worker")
    res = json.loads((kids.workdir / "trace.json").read_text())
    metrics.update({k: tuple(v) for k, v in res["metrics"].items()})
    return finish(res, res["attempted"], 0, metrics)


def finish(res: dict, attempted: int, failed: int, metrics: dict) -> dict:
    for line in res["failed_checks"]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in res["blunt"]:
        print(f"check without teeth: {line}", file=sys.stderr)
    return {
        "correct": not res["failed_checks"] and not res["blunt"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = ROOT / ".perfbench_out" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    kids = Children(workdir)
    try:
        if traced:
            return run_traced(kids, name, seed)
        return run_measured(kids, name, seed, seconds)
    finally:
        kids.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def print_result(name: str, result: dict):
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.workload != "all":
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(RUN_LIMIT_S)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
            print_result(name, results[name])
    except (BenchError, RuntimeError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    for result in results.values():
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
