"""Monte Carlo driver pinned on the four Table-2 scenarios and both
Table-1 designs, and the Example-1 densities against their oracle.

The Table-2 values were recorded from run_monte_carlo at commit 3974f77,
whose sandwich used a central-difference bread: every estimate must still
match to 1e-12 and every mean SE to 1e-6 relative, the agreement expected
of a closed-form bread. The Table-1 values were recorded at commit
5d1c130 with the closed-form bread: estimates to 1e-12, mean SEs to 1e-10
relative.
"""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import mnarcause

from mnarcause import (
    Example1Params,
    ExtremeWeight,
    MiOptions,
    QuadratureFailure,
    ScenarioConfig,
    example1_grid_compare,
    example1_observed_density,
    generate_table1,
    generate_table2,
    run_monte_carlo,
    simlab,
    tau_mi,
)
from mnarcause.simlab import TABLE2_ALL_METHODS

# SHA-256 over the bytes of a, y and c (NaNs included) of the data drawn
# for seeds 0-4; a change to any draw, however small, changes them
DATA_DIGESTS = {
    ("table1", "binary", 200): [
        "ce7bb5937ba7c97f929969406f313692ac4e3f5d98e9f8b81dea6fee169bb3dc",
        "6b449ed6889ff06831690c08f0ff1bef9a146ec87ce3d14e84c7d3114d8b050c",
        "bcc32c0a564efd650a2a14c6056406ad815335cdb81a2610e5bff503bcafd22a",
        "1262ca3ea6ffa6fa39163861cccd69155d00d2cd54658f2efffd461f1b5a14a2",
        "a87a20f95c959c77a32ca48d8d383a63a84ee0b5767c26c6e8ee4c54c6cb3a6a"],
    ("table1", "continuous", 200): [
        "67ae7733c299467feb0c75aad2a451ef4125c783d3dbd8947684091acf1ada00",
        "8d40a5a3e0c0466d030266f86339dc4194d1770370c01d9034caa73e59c59d20",
        "5992f696dd1cafc07fb6b3099d7fbdca2df605bd9882cc6bc18953ef927f1786",
        "05b353a9d92c80bf02ea3a92132195e125adcbc033cb137e77a420432cfd05b9",
        "651a99ff946ad7ef81d4417cd4e0f1db177bc6c50a49ca65f77bc3fe863e97aa"],
    ("table2", "ocpc", 2000): [
        "9787fb5575435fb9ce88d6ea771f08d15d2deb91cd6b21b9d145b0d0054b74df",
        "a4423aaf3383a6e96385a61fa24c4877ceb736b596da38aeb78a0444235f8c43",
        "c2c7a2ef3d67be1bab5990c3aee80a5d835c72c13e5beeb0afde28ce9ab8e56f",
        "3a90b6142bb0ae1f437b942d6ae55f257395bd7528ebb404e37b407b284ca77f",
        "7bddccadd041d9f4885e49f0f25b0974f3759562d878769246139eb8c310d12f"],
    ("table2", "ocpm", 2000): [
        "585e28ada20be008713d0b4b4616e79e39d74ac641bbcc338d3bb0d9129e83d5",
        "69a3faea2ec179aa5cb2acc526bd972b633d051a202d9989e9045bce56d31e94",
        "2a1454ae44c55547866a23fd1c86615d5965cf21391de82cc1d205ec990a89a6",
        "3e7e09ec6182c39d9df36e20cf60799c18db457808e50554e4f77b1de28ebd00",
        "fad9ab7d92372d86d89a72724bb145e8394ee6702bb1e550cbbe34261ae19b25"],
    ("table2", "ompc", 2000): [
        "b16826f1acf1347f50cdc5b29d5c36a79259013837f25a4dddc890ad96f261ed",
        "af547f4ca3d4672d24b90f047cd9a3455cc28b0db6cdc3e7b5e37681ce533b9c",
        "a0790d28fda69dd3f027c3aaf399be6d85bc0aa69b5b7b8f5d7f4b6914e9784d",
        "92fdf7c6c2e3251d74835f3a934e646de321fac701736fba3737b54453f823ac",
        "45c740a7def6368dfdfc0ba3bd3f4a7bff237966ea27288302a50939db7f95aa"],
    ("table2", "ompm", 2000): [
        "b8129e45dc2cd5e0554c7a4f77595ab8bfd690c3b46fd626dd8fa9cb7e380e8d",
        "67a331f52ebf88360f75d5f5ca317fbfd79b07e9ac41e06b8046d3d76ec6bfa7",
        "010871790cd8f43e257778fe40069f417167b210fb3efd19ea3fab263944b9d2",
        "302cd8266e44fb71ca970de88a99ff2c1c250a5bb3ceda5755c72dd4a6078e3f",
        "30750551c51e1d4ae41d949b78a7f0bf2a25bdce7847b2475568d17b27f00430"],
}


@pytest.mark.parametrize("table, kind, n", sorted(DATA_DIGESTS))
def test_generated_data_are_frozen(table, kind, n):
    generate = generate_table1 if table == "table1" else generate_table2
    got = []
    for seed in range(5):
        d = generate(kind, n, seed)[0]
        h = hashlib.sha256()
        for arr in (d.a, d.y, d.c):
            h.update(np.ascontiguousarray(arr).tobytes())
        got.append(h.hexdigest())
    assert got == DATA_DIGESTS[(table, kind, n)]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_normal_quantile_is_scipy_ndtri_bit_for_bit():
    u = np.random.default_rng(20).random(1_000_000)
    assert np.array_equal(bits(simlab._ndtri(u)), bits(ndtri(u)))


def neighbours(x, k=3):
    """x and its k nearest floats on either side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


# the ends, the subnormals, both branch points exp(-2) and 1 - exp(-2),
# the split of the tails at exp(-32), and the smallest gaps near 0 and 1
EDGES = np.array([
    0.0, 5e-324, 1e-310, 1e-300, 2.0 ** -53, 1e-20, 0.5, 1.0 - 2.0 ** -53, 1.0,
    *neighbours(math.exp(-2.0)), *neighbours(1.0 - math.exp(-2.0)),
    *neighbours(math.exp(-32.0)), *neighbours(1.0 - 2.0 ** -40),
])


def test_normal_quantile_edges():
    assert np.array_equal(bits(simlab._ndtri(EDGES)), bits(ndtri(EDGES)))
    assert simlab._ndtri(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0, allow_subnormal=True))
def test_normal_quantile_property(u):
    assert bits(simlab._ndtri(np.array([u]))) == bits(ndtri(u))


def test_simlab_loads_no_scipy_or_numpy_polynomial():
    """A Monte Carlo study and the Example-1 density need numpy alone;
    numpy.polynomial comes in with the quadrature only."""
    src = os.path.dirname(os.path.dirname(mnarcause.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, mnarcause.cli; from mnarcause import simlab; "
        "loaded = lambda: sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')); "
        "simlab.run_monte_carlo(simlab.ScenarioConfig('ompm', n=500, "
        "replications=1)); print(loaded()); "
        "p = simlab.Example1Params(1.0, 0.0, 1.0, 1.0, -2.0); "
        "simlab.example1_observed_density(p, 1, None, 0.5, 0); "
        "print(loaded())")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    first, second = out.splitlines()
    assert first == "[]"
    assert "numpy.polynomial.legendre" in second and "scipy" not in second


# Replications of run_monte_carlo(ScenarioConfig(scenario, n=2000,
# replications=5, seed=t)) in which the known-alpha WEE estimators raise
# ExtremeWeight: (scenario, t, replication, largest true r/M of that
# replication, the methods that fail, the message). In the ompm case every
# weight r/M is under the 1e4 cap, and wee-or succeeds; it is the
# propensity weight 1/H that passes the cap.
EXTREME_WEIGHT_REPLICATIONS = [
    ("ompm", 3747075308, 4, 6564.09, ("wee-ipw", "wee-dr"),
     "propensity weight 1/H beyond cap"),
    ("ompc", 60314408, 1, 10218.8, ("wee-or", "wee-ipw", "wee-dr"),
     "weight 1.02e+04 beyond cap 1e+04"),
    ("ocpc", 65315727, 2, 18958.9, ("wee-or", "wee-ipw", "wee-dr"),
     "weight 1.9e+04 beyond cap 1e+04"),
    ("ompc", 2545194586, 3, 34279.7, ("wee-or", "wee-ipw", "wee-dr"),
     "weight 3.43e+04 beyond cap 1e+04"),
]


@pytest.mark.parametrize("scenario, seed, rep, largest, failing, message",
                         EXTREME_WEIGHT_REPLICATIONS)
def test_replication_failing_on_extreme_weight(scenario, seed, rep, largest,
                                               failing, message):
    config = ScenarioConfig(scenario, n=2000, replications=5, seed=seed)
    report = run_monte_carlo(config)
    assert {tm.method: tm.failures for tm in report.metrics} == {
        m: int(m in failing) for m in config.estimators}
    assert {m for m, i, _ in report.raw if i == rep} == (
        set(config.estimators) - set(failing))
    data_seed, est_seed = np.random.SeedSequence((seed, rep)).spawn(2)
    d, truth = generate_table2(scenario, 2000, data_seed)
    assert (d.r / truth.missing_prob).max() == pytest.approx(largest, rel=1e-5)
    results = simlab._rep_table2(d, config.estimators, est_seed.spawn(2),
                                 MiOptions())
    for m in failing:
        assert isinstance(results[m], ExtremeWeight), m
        assert str(results[m]) == message, m

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
        "wee:gamma0": ([0.5847374718532488, 0.3788782950007566],
                  0.12598707105532875, 1.0, 1),
        "wee:gamma1": ([0.5874532164399039, 0.6135337349846063],
                  0.12024147001021619, 1.0, 1),
        "wee:beta0": ([0.7726328231075043, 0.5680207692924746],
                  0.20775574320742773, 1.0, 1),
        "wee:beta1": ([0.994665721632443, 1.5259094570788145],
                  0.37284098598413606, 1.0, 1),
        "wee:beta2": ([-0.35195057720935385, -0.5266138360360554],
                  0.19786186083207807, 1.0, 1),
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
        "wee:gamma0": ([0.549042481773868, 0.3912110186727586, 0.2755580892647592],
                  0.14150261900345337, 0.6666666666666666, 0),
        "wee:gamma1": ([0.5775554659670573, 0.4939330471757026, 0.582218906689804],
                  0.1692065581353374, 1.0, 0),
        "wee:beta0": ([0.35443007192621434, 0.6353289471988977, 0.48357888549213607],
                  0.10948709826228127, 1.0, 0),
        "wee:beta1": ([1.7686250910519123, 1.3800249416677182, 1.6491598586511775],
                  0.14987663110856386, 1.0, 0),
        "wee:beta2": ([-0.4764977064767989, -0.4593948680943583, -0.6226856037134694],
                  0.09301366608185985, 1.0, 0),
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

# phi -> 40-digit mpmath r=0 densities on the example1-check grid, equal for
# both sets: a = 0 then a = 1, each at y = linspace(-3, 3, 10)
ORACLE_R0_GRID = {
    1.0: [
        0.0012246634227186164, 0.007245958223920276,
        0.0274887590803019, 0.06686435729369497,
        0.10428322278762199, 0.104283222787622,
        0.06686435729369497, 0.02748875908030193,
        0.007245958223920284, 0.0012246634227186164,
        0.00011034798552665144, 0.0008612258051571146,
        0.0046162076546848755, 0.017372954239012153,
        0.04704428060435348, 0.09375125753583576,
        0.13974309204247207, 0.15717684947853233,
        0.13400283370648766, 0.08700592773451177,
    ],
    0.1: [
        9.979073692865563e-21, 5.246637018748937e-13,
        3.239471110125693e-07, 0.002348926923981442,
        0.20001713546864192, 0.2000171354686422,
        0.002348926923981442, 3.239471110125729e-07,
        5.246637018748992e-13, 9.979073692865563e-21,
        7.777551025146974e-23, 5.2334380748407665e-15,
        4.475153301406143e-09, 5.217341086111255e-05,
        0.010256839226072767, 0.07895604645913763,
        0.17831910785414, 0.24043465534022482,
        0.16127146212907684, 0.061300861683242926,
    ],
    0.01: [
        4.0709627456405184e-196, 6.57270487419789e-119,
        5.292260648290036e-61, 2.1262671045437538e-22,
        0.004261816963994367, 0.00426181696399443,
        2.1262671045437538e-22, 5.292260648290624e-61,
        6.572704874198572e-119, 4.0709627456405184e-196,
        3.239958030277208e-199, 6.53869735579211e-122,
        7.490678414341115e-64, 4.960328671846096e-25,
        2.798402759617371e-05, 0.07885598135195443,
        0.17907444921651836, 0.2613665443966015,
        0.1608505663709369, 0.054629826333559874,
    ],
    0.001: [
        0.0, 0.0,
        0.0, 2.4868141481224327e-217,
        2.5993855393824404e-24, 2.599385539382825e-24,
        2.4868141481224327e-217, 0.0,
        0.0, 0.0,
        0.0, 0.0,
        0.0, 5.969213964531023e-221,
        1.8204099765137397e-27, 0.07782300365385603,
        0.17893112627657182, 0.2638984069555424,
        0.1606364665189829, 0.053919138407883364,
    ],
    0.0001: [
        0.0, 0.0,
        0.0, 0.0,
        5.8230730593617494e-241, 5.8230730593703695e-241,
        0.0, 0.0,
        0.0, 0.0,
        0.0, 0.0,
        0.0, 0.0,
        4.240728365818666e-245, 0.0777168161536894,
        0.17891353125540968, 0.2641572904415872,
        0.16061301193317, 0.05384768092152813,
    ],
}
EXAMPLE1_Y = np.linspace(-3.0, 3.0, simlab.EXAMPLE1_GRID_POINTS)


@pytest.mark.parametrize("params", [EXAMPLE1_A, EXAMPLE1_B], ids=["A", "B"])
def test_example1_density_matches_oracle(params):
    assert example1_observed_density(params, 1, 0.7, 0.2, 1) == pytest.approx(
        ORACLE_R1, rel=1e-12)
    assert example1_observed_density(params, 0, None, 1.3, 0) == pytest.approx(
        ORACLE_R0, rel=1e-12)


@pytest.mark.parametrize("phi", sorted(ORACLE_R0_GRID))
@pytest.mark.parametrize("params", [EXAMPLE1_A, EXAMPLE1_B], ids=["A", "B"])
def test_example1_integral_on_the_grid(params, phi):
    """At phi <= 1e-3, a = 1, the outcome density is a peak of width
    sqrt(phi) at c1 = +-y that an integral without breaks there misses:
    (phi, y) = (1e-3, 7/3) and (1e-4, 5/3) read about 0 instead of 0.1606
    and 0.2642."""
    p = replace(params, phi=phi)
    refs = iter(ORACLE_R0_GRID[phi])
    for a in (0, 1):
        for y in EXAMPLE1_Y:
            ref = next(refs)
            got = example1_observed_density(p, a, None, float(y), 0)
            assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-16, (a, y, got, ref)


@pytest.mark.parametrize("params", [EXAMPLE1_A, EXAMPLE1_B], ids=["A", "B"])
@pytest.mark.parametrize("y, ref", [(-3.0, ORACLE_R0_GRID[1.0][10]),
                                    (3.0, ORACLE_R0_GRID[1.0][19])])
def test_example1_integral_across_the_kink(params, y, ref):
    # the a = 1 integrand has a kink at c1 = 0
    got = example1_observed_density(params, 1, None, y, 0)
    assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("phi, message", [
    (1e-20, "integration error estimate"),
    (1e-30, "too narrow to integrate"),
])
def test_example1_integral_fails_on_too_sharp_a_peak(phi, message):
    """At phi = 1e-20 the nodes cannot be placed finely enough for the n-
    and 2n-node rules to agree; at 1e-30 the peak spans too few floats for
    their agreement to mean anything."""
    with pytest.raises(QuadratureFailure, match=message):
        example1_observed_density(replace(EXAMPLE1_A, phi=phi), 1, None,
                                  float(EXAMPLE1_Y[8]), 0)


def test_example1_sets_agree_on_grid():
    assert example1_grid_compare(EXAMPLE1_A, EXAMPLE1_B)["max_rel"] <= 1e-12


@pytest.mark.parametrize("phi", [0.1, 0.01, 1e-3, 1e-4])
def test_example1_sets_agree_on_grid_at_small_phi(phi):
    res = example1_grid_compare(replace(EXAMPLE1_A, phi=phi),
                                replace(EXAMPLE1_B, phi=phi))
    assert res["max_rel"] <= 1e-12


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
