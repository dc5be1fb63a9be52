"""Stage-one failing sets, roots and wall time, for comparing two versions
of the stage-one solver.

Prints, with estimated alpha (default G, no covariance):
- the bootstrap resamples (seed 0, SeedSequence((0, b))) on which stage
  one fails, with each error symbol, for generate_table1("continuous",
  2000, 12) with 100 resamples and for the 400-row fixture of
  tests/test_cli.py, generate_table1("continuous", 400, 7), with 20;
- for generate_table2(scenario, 2000, seed), seeds 1-20 of each
  scenario: the error symbol of each failing fit, the root of each fit
  that converges, and the wall time of the failing and of the converging
  fits, each the best of three passes.

Run: PYTHONPATH=src python3 tests/oracles/oracle_stage1_sweep.py
Roots are printed with 17 significant digits, so that two outputs can be
compared number by number.
"""
import time

import numpy as np

from mnarcause import (
    Design,
    ModelSpec,
    MnarError,
    default_G,
    fit_wee,
    generate_table1,
    generate_table2,
    resample,
)
from mnarcause.simlab import TABLE2_SCENARIOS


def fit(d_or_design):
    """(alpha root or None, error symbol or None, seconds) of one fit."""
    start = time.perf_counter()
    try:
        fitted = fit_wee(d_or_design, covariance=False)
    except MnarError as err:
        return None, type(err).__name__, time.perf_counter() - start
    return fitted.alpha.coefficients, None, time.perf_counter() - start


def failing_resamples(kind, n, seed, B):
    d, _ = generate_table1(kind, n, seed)
    spec = ModelSpec.default_for(d.schema)
    dz = Design(d, spec, default_G(spec, d.schema))
    failed = {}
    for b in range(B):
        idx = resample(d.n, np.random.SeedSequence((0, b)))
        _, symbol, _ = fit(dz.resampled(idx))
        if symbol:
            failed[b] = symbol
    return failed


def main():
    for kind, n, seed, B in (("continuous", 2000, 12, 100), ("continuous", 400, 7, 20)):
        failed = failing_resamples(kind, n, seed, B)
        print(f"table1 {kind} n={n} seed={seed} B={B}: fails on {sorted(failed)}")
        for b, symbol in sorted(failed.items()):
            print(f"  resample {b:3d} {symbol}")
    data = {(s, k): generate_table2(s, 2000, k)[0]
            for s in TABLE2_SCENARIOS for k in range(1, 21)}
    best = {}
    for _ in range(3):
        for key, d in data.items():
            root, symbol, seconds = fit(d)
            best[key] = (root, symbol, min(seconds, best.get(key, (0, 0, np.inf))[2]))
    print("table2 n=2000 seeds 1-20")
    for scenario in TABLE2_SCENARIOS:
        rows = [(k, *best[scenario, k]) for k in range(1, 21)]
        failing = [(k, symbol) for k, _, symbol, _ in rows if symbol]
        print(f"{scenario}: {len(failing)} fail: "
              + " ".join(f"{k}:{symbol}" for k, symbol in failing))
        for k, root, symbol, _ in rows:
            if root is not None:
                print(f"  {scenario} {k:2d} root " + " ".join(f"{v:.17g}" for v in root))
    fail_s = sum(s for _, symbol, s in best.values() if symbol)
    ok_s = sum(s for _, symbol, s in best.values() if not symbol)
    print(f"wall time: failing fits {fail_s:.3f} s, converging fits {ok_s:.3f} s")


if __name__ == "__main__":
    main()
