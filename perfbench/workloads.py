"""The two workloads: their inputs, built from a seed with the program's
own generators, and one operation of each.

mc-table2  in-process run_monte_carlo: 5 replications at n=2,000 of one
           Table-2 scenario (known alpha, default five methods); a round
           is the four scenarios in turn.
boot-10k   a cold `mnarcause fit --estimators wee-or,wee-ipw,wee-dr
           --bootstrap 20` process on one of two 10,000-row Table-1
           continuous CSVs; a round is the two in turn. Stage-one work
           depends on the data (Newton iterations per fit ranged 5.3-8.7
           over five seeds at 5,000 rows), so a run averages over two.

mnarcause is imported inside the functions, so the benchmark's parent
process never loads it.
"""

from __future__ import annotations

import os

SCENARIOS = ("ocpc", "ocpm", "ompc", "ompm")
MC_N = 2000
MC_REPS = 5           # replications per run_monte_carlo call
BOOT_B = 20
WEE_ESTIMATORS = "wee-or,wee-ipw,wee-dr"

BOOT_ROWS = 10000
BOOT_CSVS = 2         # CSVs in a round of boot-10k
BOOT_UNITS = BOOT_B * 3  # bootstrap estimates per operation
NAMES = ("mc-table2", "boot-10k")

# what the console script `mnarcause` runs
CLI_MAIN = "import sys; from mnarcause.cli import main; sys.exit(main())"


def round_size(name: str) -> int:
    return len(SCENARIOS) if name == "mc-table2" else BOOT_CSVS


def csv_path(workdir, j: int) -> str:
    return os.path.join(workdir, f"input{j}.csv")


def fit_argv(seed: int, workdir, k: int, report: str) -> list:
    """Arguments of `mnarcause` for operation k of boot-10k."""
    return ["fit", "--data", csv_path(workdir, k % BOOT_CSVS),
            "--treatment", "a", "--outcome", "y", "--confounders", "c1",
            "--missing", "c1", "--seed", str(seed), "--out", report,
            "--format", "json", "--estimators", WEE_ESTIMATORS,
            "--bootstrap", str(BOOT_B)]


def build_csvs(seed: int, workdir):
    """The Table-1 continuous design (alpha estimated, about half missing);
    CSV j is drawn from the seed [seed, j]."""
    from mnarcause import data, simlab
    for j in range(BOOT_CSVS):
        d, _ = simlab.generate_table1("continuous", BOOT_ROWS, [seed, j])
        with open(csv_path(workdir, j), "w") as fh:
            fh.write(data.emit_csv(d))


def mc_config(seed: int, k: int):
    """Operation k: scenario k mod 4 with a study seed drawn from (seed, k)."""
    import numpy as np
    from mnarcause import simlab
    study_seed = int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
    return simlab.ScenarioConfig(scenario=SCENARIOS[k % 4], n=MC_N,
                                 replications=MC_REPS, seed=study_seed)


def mc_warmup(seed: int):
    """One replication on a seed no operation uses, so lazy first-call work
    is done before timing."""
    from mnarcause import simlab
    simlab.run_monte_carlo(simlab.ScenarioConfig(
        scenario="ocpc", n=MC_N, replications=1, seed=seed + 2**32))


def mc_datasets(config) -> dict:
    """Regenerate every replication's data through the documented protocol:
    replication i draws its data seed from SeedSequence((seed, i)).spawn(2)."""
    import numpy as np
    from mnarcause import simlab
    out = {}
    for i in range(config.replications):
        data_seed, _ = np.random.SeedSequence((config.seed, i)).spawn(2)
        d, _ = simlab.generate_table2(config.scenario, config.n, data_seed)
        out[i] = (d.a, d.y, d.c[:, 0], d.c[:, 1], d.r == 1)
    return out
