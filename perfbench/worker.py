"""Child process of the benchmark; run.py starts it with PYTHONPATH set to
the checkout's src directory.

    worker.py setup   <workload> <seed> <workdir>
        import mnarcause, build the workload's inputs, print "ready".
    worker.py measure <seed> <seconds> <workdir>
        set up mc-table2, then run whole rounds of operations for at least
        <seconds>; check every report; write <workdir>/measure.json.
    worker.py trace   <workload> <seed> <workdir>
        set up, run one operation untraced then traced, twice (a round of
        four for mc-table2); per-layer metrics of the last traced one; check
        its output; write <workdir>/trace.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import workloads


def setup(name: str, seed: int, workdir: str):
    import mnarcause  # noqa: F401  (the import is part of set-up)
    if name == "mc-table2":
        workloads.mc_warmup(seed)
    else:
        workloads.build_csvs(seed, workdir)


def mc_check(config, report, with_teeth: bool) -> tuple:
    import checks
    values = checks.mc_values(report)
    todo = checks.mc_checks(workloads.mc_datasets(config))
    failed = checks.run(todo, values, None)
    blunt = checks.teeth(todo, values, None) if with_teeth else []
    return failed, blunt


def measure(seed: int, seconds: float, workdir: str):
    from mnarcause import simlab
    from mnarcause.errors import MnarError
    setup("mc-table2", seed, workdir)
    ops, done, failed_ops = [], [], 0
    start = time.perf_counter()
    k = 0
    while k % workloads.round_size("mc-table2") or time.perf_counter() - start < seconds:
        config = workloads.mc_config(seed, k)
        t0 = time.perf_counter()
        try:
            report = simlab.run_monte_carlo(config)
        except MnarError:
            failed_ops += 1
            report = None
        ops.append(time.perf_counter() - t0)
        if report is not None:
            done.append((config, report))
        k += 1
    failed, blunt = [], []
    for j, (config, report) in enumerate(done):
        f, b = mc_check(config, report, with_teeth=j == 0)
        failed += [f"op{j}:{name}" for name in f]
        blunt += b
    result = {"ops": ops, "units_per_op": workloads.MC_REPS,
              "failed_ops": failed_ops, "failed_checks": failed,
              "blunt": [repr(b) for b in blunt]}
    with open(os.path.join(workdir, "measure.json"), "w") as fh:
        json.dump(result, fh)


def trace(name: str, seed: int, workdir: str):
    import checks
    from mnarcause import cli, simlab
    from tracing import Tracer, install_layers, layer_metrics
    setup(name, seed, workdir)
    if name == "mc-table2":
        configs = [workloads.mc_config(seed, k)
                   for k in range(workloads.round_size(name))]

        def op():
            return [simlab.run_monte_carlo(c) for c in configs]
    else:
        report = os.path.join(workdir, "trace_report.json")
        argv = workloads.fit_argv(seed, workdir, 0, report)

        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"mnarcause fit exited {code}")

    # untraced and traced operations alternate, twice, so that drift on a
    # shared machine does not land on one side of the overhead
    untraced, traced, counts = [], [], []
    for _ in range(2):
        t0 = time.perf_counter()
        op()
        untraced.append(time.perf_counter() - t0)
        tracer = Tracer()
        install_layers(tracer)
        try:
            t0 = time.perf_counter()
            out = op()
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        counts.append((tracer.calls, tracer.counts))
    if counts[0] != counts[1]:
        raise RuntimeError("counts differ between two traced operations")

    if name == "mc-table2":
        failed = [f for c, rep in zip(configs, out) for f in mc_check(c, rep, False)[0]]
    else:
        data, values = checks.load_fit_inputs(workloads.csv_path(workdir, 0), report)
        failed = checks.run(checks.BOOT_CHECKS, values, data)
    metrics = layer_metrics(tracer)
    traced_s, untraced_s = sum(traced) / 2, sum(untraced) / 2
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    result = {"metrics": metrics, "failed_checks": failed, "blunt": [],
              "attempted": 4 * (4 if name == "mc-table2" else 1)}
    with open(os.path.join(workdir, "trace.json"), "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]), argv[3])
        print("ready", flush=True)
    elif mode == "measure":
        measure(int(argv[1]), float(argv[2]), argv[3])
    elif mode == "trace":
        trace(argv[1], int(argv[2]), argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
