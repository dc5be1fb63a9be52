"""Monte Carlo driver pinned on the four Table-2 scenarios and both
Table-1 designs, and the Example-1 densities against their oracle.

The Table-2 values were recorded from run_monte_carlo at commit 3974f77,
whose sandwich used a central-difference bread: every estimate must still
match to 1e-12 and every mean SE to 1e-6 relative, the agreement expected
of a closed-form bread. The Table-1 values were recorded at commit
5d1c130 with the closed-form bread: estimates to 1e-12, mean SEs to 1e-10
relative.
"""

import numpy as np
import pytest

from mnarcause import (
    Example1Params,
    MiOptions,
    ScenarioConfig,
    example1_grid_compare,
    example1_observed_density,
    generate_table2,
    run_monte_carlo,
    simlab,
    tau_mi,
)
from mnarcause.simlab import TABLE2_ALL_METHODS

# scenario -> method -> (estimates of replications 0, 1, 2, mean_se,
# coverage, failures); n=500, 3 replications, seed 2024, all nine methods,
# 5 imputations
PINNED = {
    "ocpc": {
        "wee-or": ([3.236031151555145, 2.7411642271807297, 3.0516885720951237],
                   0.2475243076180739, 1.0, 0),
        "wee-ipw": ([3.2833067412224755, 2.7879922779568678, 3.1530526183779872],
                    0.254924970401937, 1.0, 0),
        "wee-dr": ([3.2859008778824705, 2.745376321125152, 3.0220331651742054],
                   0.2404292015404618, 1.0, 0),
        "cc-or": ([2.846981931095341, 2.6163228084825683, 2.8390600005042783],
                  0.09649725970614868, 0.6666666666666666, 0),
        "mi-or": ([3.0289020650962257, 2.8039922778137027, 2.9715249460175635],
                  0.10616318490334181, 1.0, 0),
        "cc-ipw": ([2.8858915731852974, 2.665831035341684, 2.954073248410801],
                   0.12226718953633352, 0.6666666666666666, 0),
        "cc-aipw": ([2.909439013363786, 2.6235884796824047, 2.8072257898593964],
                    0.10208450312357487, 0.6666666666666666, 0),
        "mi-ipw": ([3.1081124279212347, 2.830014328214182, 3.0896697123441337],
                   0.14509568128929906, 1.0, 0),
        "mi-aipw": ([3.1219937677076457, 2.8056042337995786, 2.939813765961538],
                    0.11320431335973595, 1.0, 0),
    },
    "ocpm": {
        "wee-or": ([2.9429346658531172, 2.6386274607484976, 3.0026467638304695],
                   0.1700721922377353, 0.6666666666666666, 0),
        "wee-ipw": ([2.9884746267701376, 2.503762622462407, 2.94566284638538],
                    0.18776320164724614, 0.6666666666666666, 0),
        "wee-dr": ([2.946446764301718, 2.6578023886399156, 2.9973359312793884],
                   0.17102769433261492, 0.6666666666666666, 0),
        "cc-or": ([2.8142485606311647, 2.5678853807133857, 2.8281861620389748],
                  0.0887823300362075, 0.0, 0),
        "mi-or": ([3.011112733600708, 2.8420589935529033, 2.988716736555989],
                  0.09603883260143825, 1.0, 0),
        "cc-ipw": ([2.8958440051734766, 2.5574947983659255, 2.810513014495363],
                   0.11772654621916172, 0.6666666666666666, 0),
        "cc-aipw": ([2.8195879652231266, 2.587037984825213, 2.8303302257344454],
                    0.08876795271649279, 0.3333333333333333, 0),
        "mi-ipw": ([2.985859400991365, 2.650065363555251, 2.8717386933252786],
                   0.14856279006463746, 0.6666666666666666, 0),
        "mi-aipw": ([3.017880062410444, 2.863001634032008, 2.9898606505529424],
                    0.095699899040437, 1.0, 0),
    },
    "ompc": {
        "wee-or": ([2.836488302165675, 2.4450957655726033, 2.947413678979764],
                   0.3177877876163802, 0.6666666666666666, 0),
        "wee-ipw": ([3.129067739785139, 2.644096001502171, 3.513653298927654],
                    0.3629307562460378, 1.0, 0),
        "wee-dr": ([3.0962196739478816, 2.613400170220248, 3.418050410916565],
                   0.3630733092929093, 0.6666666666666666, 0),
        "cc-or": ([2.439857686251353, 2.42113433642965, 2.4254210794336997],
                  0.1504220167684929, 0.0, 0),
        "mi-or": ([2.794341010020833, 2.7256833828361096, 2.6980088360931687],
                  0.1509333275896665, 0.3333333333333333, 0),
        "cc-ipw": ([2.781006936709977, 2.6750047527546825, 3.109755653793862],
                   0.2231204221959783, 1.0, 0),
        "cc-aipw": ([2.8521583352853774, 2.6510796816642404, 2.8920637446657587],
                    0.15411111312341322, 0.6666666666666666, 0),
        "mi-ipw": ([3.0410855349522663, 2.879575139368355, 3.242336261380862],
                   0.2491878121871085, 1.0, 0),
        "mi-aipw": ([3.1467158554099783, 2.8843088875314313, 3.09517815509113],
                    0.18200180614114234, 1.0, 0),
    },
    "ompm": {
        "wee-or": ([3.339218877864511, 2.7218011224011462, 3.668820626621361],
                   0.3372121274810691, 1.0, 0),
        "wee-ipw": ([3.5528077672172858, 2.529616873848662, 3.5872434377773437],
                    0.49378493516005423, 1.0, 0),
        "wee-dr": ([3.543482669914132, 2.842086448259296, 3.779136752039216],
                   0.40354752012501, 0.6666666666666666, 0),
        "cc-or": ([2.9142215613489686, 2.7749222187146847, 3.0756279322443785],
                  0.14153989631846806, 1.0, 0),
        "mi-or": ([3.0606624795349773, 3.041583535952513, 3.151751845975644],
                  0.1423830175860163, 1.0, 0),
        "cc-ipw": ([2.9885734493800573, 2.1744356125654862, 1.9587290813286027],
                   0.5747506905850955, 1.0, 0),
        "cc-aipw": ([3.3355892575907786, 2.9157044760774924, 2.805824411626727],
                    0.29654381012985526, 1.0, 0),
        "mi-ipw": ([3.2953153014951866, 2.737104553792595, 2.6744311898920925],
                   0.4328236237638164, 1.0, 0),
        "mi-aipw": ([3.4558158682228504, 3.217969188697662, 3.0988580145629374],
                    0.24377454537285123, 0.6666666666666666, 0),
    },
}


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_table2_scenario_pinned(scenario):
    report = run_monte_carlo(ScenarioConfig(
        scenario, n=500, replications=3, seed=2024,
        estimators=TABLE2_ALL_METHODS, mi_m=5))
    assert [tm.method for tm in report.metrics] == list(PINNED[scenario])
    for tm in report.metrics:
        ests, mean_se, coverage, failures = PINNED[scenario][tm.method]
        got = [e for m, _, e in report.raw if m == tm.method]
        assert got == pytest.approx(ests, rel=1e-12, abs=1e-12), tm.method
        assert tm.mean_se == pytest.approx(mean_se, rel=1e-6), tm.method
        assert tm.coverage == coverage, tm.method
        assert (tm.successes, tm.failures) == (3 - failures, failures)


# "method:target" -> (estimates of the successful replications, mean_se,
# coverage, failures); n=500, 3 replications, seed 2024, 5 imputations
PINNED_TABLE1 = {
    "table1-binary": {
        "wee:gamma0": ([0.5847374717805983, 0.3788782942388507],
                  0.12598707118995223, 1.0, 1),
        "wee:gamma1": ([0.5874532164242566, 0.6135337347086476],
                  0.12024147035184157, 1.0, 1),
        "wee:beta0": ([0.7726328223714835, 0.5680207669417336],
                  0.20775574292809895, 1.0, 1),
        "wee:beta1": ([0.9946657216402615, 1.5259094563362336],
                  0.3728409854125786, 1.0, 1),
        "wee:beta2": ([-0.35195057775911803, -0.5266138355772185],
                  0.1978618612058251, 1.0, 1),
        "cc:gamma0": ([0.6450143623567178, 0.5910410196407612, 0.472659113534519],
                  0.12297473389372138, 1.0, 0),
        "cc:gamma1": ([0.597757622211107, 0.6522000273533538, 0.6921429385637726],
                  0.11154239163508588, 1.0, 0),
        "cc:beta0": ([1.206526210218478, 0.8743621480346574, 0.9527658503223653],
                  0.20814786981326575, 0.3333333333333333, 0),
        "cc:beta1": ([0.9924480548633241, 1.4714305999802004, 1.343713194745387],
                  0.30494681382131605, 1.0, 0),
        "cc:beta2": ([-0.30477179854297953, -0.4044758953903418, -0.24438617079744118],
                  0.153398020323716, 1.0, 0),
        "mi:gamma0": ([0.578286894220464, 0.552908513331509, 0.5362908771342141],
                  0.11661865231177022, 1.0, 0),
        "mi:gamma1": ([0.5459232674709413, 0.6100893274885513, 0.6777511337727091],
                  0.11208356317780306, 1.0, 0),
        "mi:beta0": ([0.7996422164243846, 0.47282991177241546, 0.8231006961214975],
                  0.19023248553309824, 1.0, 0),
        "mi:beta1": ([1.059784106585222, 1.4052305892901757, 1.1030237229588942],
                  0.2529626477677036, 1.0, 0),
        "mi:beta2": ([-0.23210339418494125, -0.38951649381906955, -0.12420687845010078],
                  0.14868570787883914, 0.6666666666666666, 0),
    },
    "table1-continuous": {
        "wee:gamma0": ([0.5490424817382065, 0.39121101867236824, 0.27555808926476216],
                  0.1415026190018325, 0.6666666666666666, 0),
        "wee:gamma1": ([0.5775554659308195, 0.493933047175263, 0.5822189066897793],
                  0.16920655813639482, 1.0, 0),
        "wee:beta0": ([0.3544300719204444, 0.6353289471988064, 0.4835788854921604],
                  0.10948709826185994, 1.0, 0),
        "wee:beta1": ([1.7686250910388073, 1.3800249416674897, 1.6491598586511338],
                  0.14987663110818114, 1.0, 0),
        "wee:beta2": ([-0.4764977064843411, -0.4593948680945851, -0.6226856037134811],
                  0.09301366608227944, 1.0, 0),
        "cc:gamma0": ([1.1927331225716336, 0.8405702668949638, 0.8946190396742407],
                  0.1475427888104144, 0.0, 0),
        "cc:gamma1": ([0.34436868250013414, 0.31582804930444375, 0.48284292129392425],
                  0.1494382772903253, 1.0, 0),
        "cc:beta0": ([0.918371612620697, 1.0014871875152047, 0.9869682734079268],
                  0.10829704152548125, 0.0, 0),
        "cc:beta1": ([1.4546251943845498, 1.2540191142133643, 1.3714532388416671],
                  0.12658479462584746, 0.6666666666666666, 0),
        "cc:beta2": ([-0.5731475857768809, -0.5543008962585932, -0.6635166450611103],
                  0.06070028486924282, 0.6666666666666666, 0),
        "mi:gamma0": ([0.27661905730505165, 0.19700583638299526, 0.156195906713178],
                  0.09440322063219646, 0.0, 0),
        "mi:gamma1": ([0.26642647380994633, 0.2102914521695168, 0.42639377792208144],
                  0.1424204628308787, 0.3333333333333333, 0),
        "mi:beta0": ([0.6203495385987454, 0.7568503570634961, 0.6705404738752612],
                  0.07921288070879817, 0.3333333333333333, 0),
        "mi:beta1": ([1.553540570315223, 1.3621560111359234, 1.5255953635895727],
                  0.10129341858883519, 1.0, 0),
        "mi:beta2": ([-0.6087590476767557, -0.5803901848811563, -0.6578915572450297],
                  0.04999794434643449, 0.3333333333333333, 0),
    },
}


@pytest.mark.parametrize("scenario", sorted(PINNED_TABLE1))
def test_table1_design_pinned(scenario):
    report = run_monte_carlo(ScenarioConfig(
        scenario, n=500, replications=3, seed=2024,
        estimators=("wee", "cc", "mi"), mi_m=5))
    pinned = PINNED_TABLE1[scenario]
    assert [f"{tm.method}:{tm.target}" for tm in report.metrics] == list(pinned)
    for tm in report.metrics:
        key = f"{tm.method}:{tm.target}"
        ests, mean_se, coverage, failures = pinned[key]
        got = [e for m, _, e in report.raw if m == key]
        assert got == pytest.approx(ests, rel=1e-12, abs=1e-12), key
        assert tm.mean_se == pytest.approx(mean_se, rel=1e-10), key
        assert tm.coverage == coverage, key
        assert (tm.successes, tm.failures) == (3 - failures, failures), key


# the observationally equivalent pair of tests/oracles/oracle_example1.py,
# and its 50-digit mpmath values at one point of each branch
EXAMPLE1_A = Example1Params(eta=1.0, beta0=0.0, beta1=1.0, phi=1.0, alpha1=-2.0)
EXAMPLE1_B = Example1Params(eta=-1.0, beta0=0.0, beta1=1.0, phi=1.0, alpha1=2.0)
ORACLE_R1 = 0.0099656829342648096  # a=1, c1=0.7, y=0.2
ORACLE_R0 = 0.047354698756937915  # a=0, y=1.3, c1 integrated out


@pytest.mark.parametrize("params", [EXAMPLE1_A, EXAMPLE1_B], ids=["A", "B"])
def test_example1_density_matches_oracle(params):
    assert example1_observed_density(params, 1, 0.7, 0.2, 1) == pytest.approx(
        ORACLE_R1, rel=1e-12)
    assert example1_observed_density(params, 0, None, 1.3, 0) == pytest.approx(
        ORACLE_R0, rel=1e-12)


def test_example1_sets_agree_on_grid():
    assert example1_grid_compare(EXAMPLE1_A, EXAMPLE1_B)["max_rel"] <= 1e-12


def test_mi_methods_share_one_imputation(monkeypatch):
    """One imputation per replication serves mi-or, mi-ipw and mi-aipw; each
    estimate equals tau_mi of that method alone on the replication's data and
    imputation seed."""
    calls = []
    original = simlab.impute_pmm

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simlab, "impute_pmm", counting)
    methods = ("mi-or", "mi-ipw", "mi-aipw")
    config = ScenarioConfig("ompc", n=300, replications=2, seed=11,
                            estimators=methods, mi_m=3)
    report = run_monte_carlo(config)
    assert len(calls) == 2
    raw = {(m, i): e for m, i, e in report.raw}
    for i in range(2):
        data_seed, est_seed = np.random.SeedSequence((11, i)).spawn(2)
        d, _ = generate_table2("ompc", 300, data_seed)
        opts = MiOptions(m=3, k=5, seed=est_seed.spawn(2)[1])
        for m in methods:
            assert raw[(m, i)] == tau_mi(d, m[3:], opts).tau
