"""Independent reference values for the observed-data density oracle.

The r=1 branch is evaluated in 50-digit arithmetic with mpmath; the
r=0 branch is integrated twice at one point (scipy.integrate.quad and
mpmath.quad) as mutually checking routes. Parameterization: phi is the
outcome variance.

The r=0 references on the example1-check grid (a in {0, 1}, y on
linspace(-3, 3, 10), phi in PHIS) are 40-digit mpmath integrals split at
the kink c1 = 0 and the outcome peaks c1 = +-y. Each is integrated for
both parameter sets, which are mirror images (c1 -> -c1), and again with
breaks eight outcome widths to either side of each peak; the script
prints the largest relative disagreement of those routes among values
above 1e-16. For phi <= 1e-3, scipy's quad without breaks misses the
peak at some of these points.

Run: python3 tests/oracles/oracle_example1.py
Printed values are frozen into tests/test_simlab.py.
"""
import mpmath
import numpy as np
from scipy.integrate import quad

mpmath.mp.dps = 50

SET_A = dict(eta=1, beta0=0, beta1=1, phi=1, alpha1=-2)
SET_B = dict(eta=-1, beta0=0, beta1=1, phi=1, alpha1=2)


def joint_hp(p, a, c1, y):
    c1 = mpmath.mpf(c1)
    y = mpmath.mpf(y)
    dens_c = mpmath.npdf(c1, p["eta"], 1)
    pa = 1 / (1 + mpmath.e ** (-(c1 ** 2 - 1)))
    pa = pa if a == 1 else 1 - pa
    mu = p["beta0"] + p["beta1"] * a * abs(c1)
    dens_y = mpmath.npdf(y, mu, mpmath.sqrt(p["phi"]))
    return dens_c * pa * dens_y


def obs_r1_hp(p, a, c1, y):
    pr = 1 / (1 + mpmath.e ** (-p["alpha1"] * mpmath.mpf(c1)))
    return joint_hp(p, a, c1, y) * pr


def obs_r0_quad(p, a, y):
    def integrand(c1):
        pr0 = 1 / (1 + np.exp(p["alpha1"] * c1))
        dens_c = np.exp(-0.5 * (c1 - p["eta"]) ** 2) / np.sqrt(2 * np.pi)
        pa = 1 / (1 + np.exp(-(c1 ** 2 - 1)))
        pa = pa if a == 1 else 1 - pa
        mu = p["beta0"] + p["beta1"] * a * abs(c1)
        dens_y = np.exp(-0.5 * (y - mu) ** 2 / p["phi"]) / np.sqrt(
            2 * np.pi * p["phi"])
        return dens_c * pa * dens_y * pr0
    val, err = quad(integrand, p["eta"] - 10, p["eta"] + 10,
                    epsabs=1e-13, epsrel=1e-13, limit=400)
    return val, err


def obs_r0_split(p, a, y, widths=0):
    """r=0 density at the double y, split at 0, +-y and, with widths > 0,
    at +-y +- widths * sqrt(phi) (beta0 = 0, beta1 = 1 in both sets)."""
    lo, hi = p["eta"] - 10, p["eta"] + 10
    w = widths * float(mpmath.sqrt(p["phi"]))
    breaks = {lo, hi, 0.0, y, -y, y - w, y + w, -y - w, -y + w}
    breaks = sorted(mpmath.mpf(b) for b in breaks if lo <= b <= hi)

    def integrand(c1):
        pr0 = 1 - 1 / (1 + mpmath.e ** (-p["alpha1"] * c1))
        return joint_hp(p, a, c1, y) * pr0
    return mpmath.quad(integrand, breaks)


PHIS = (1.0, 0.1, 0.01, 1e-3, 1e-4)
GRID_Y = [float(v) for v in np.linspace(-3.0, 3.0, 10)]  # example1-check's


def grid_references():
    """phi -> [r=0 density for a in (0, 1), y in GRID_Y], and the largest
    relative disagreement between routes among values above 1e-16."""
    refs, worst = {}, mpmath.mpf(0)
    with mpmath.workdps(40):
        for phi in PHIS:
            row = []
            for a in (0, 1):
                for y in GRID_Y:
                    va = obs_r0_split(dict(SET_A, phi=phi), a, y)
                    others = (obs_r0_split(dict(SET_B, phi=phi), a, y),
                              obs_r0_split(dict(SET_A, phi=phi), a, y, widths=8))
                    if va > 1e-16:
                        worst = max([worst] + [abs(v - va) / va for v in others])
                    row.append(float(va))
            refs[phi] = row
    return refs, worst


def obs_r0_mp(p, a, y):
    def integrand(c1):
        pr0 = 1 - 1 / (1 + mpmath.e ** (-p["alpha1"] * c1))
        return joint_hp(p, a, c1, y) * pr0
    return mpmath.quad(integrand, [p["eta"] - 10, p["eta"], p["eta"] + 10])


if __name__ == "__main__":
    a, c1, y = 1, 0.7, 0.2
    va = obs_r1_hp(SET_A, a, c1, y)
    vb = obs_r1_hp(SET_B, a, c1, y)
    print(f"r=1 (a={a}, c1={c1}, y={y}):")
    print("  set A:", mpmath.nstr(va, 20))
    print("  set B:", mpmath.nstr(vb, 20))
    print("  |A-B|:", mpmath.nstr(abs(va - vb), 5))

    a, y = 0, 1.3
    qa, ea = obs_r0_quad(SET_A, a, y)
    qb, eb = obs_r0_quad(SET_B, a, y)
    ma = obs_r0_mp(SET_A, a, y)
    mb = obs_r0_mp(SET_B, a, y)
    print(f"r=0 (a={a}, y={y}):")
    print(f"  set A quad: {qa:.17g} (abserr {ea:.1e}), mp: {mpmath.nstr(ma, 20)}")
    print(f"  set B quad: {qb:.17g} (abserr {eb:.1e}), mp: {mpmath.nstr(mb, 20)}")

    # normalization of set A: sum over a and r of the integrals over
    # (c1, y); scipy double quadrature, target accuracy ~1e-8
    def r1_in_y(c1, aa):
        pr = 1 / (1 + np.exp(2 * c1))          # alpha1 = -2
        dens_c = np.exp(-0.5 * (c1 - 1) ** 2) / np.sqrt(2 * np.pi)
        pa = 1 / (1 + np.exp(-(c1 ** 2 - 1)))
        pa = pa if aa == 1 else 1 - pa
        return dens_c * pa * pr                # y-density integrates to 1

    total = 0.0
    for aa in (0, 1):
        v1, _ = quad(r1_in_y, 1 - 12, 1 + 12, args=(aa,),
                     epsabs=1e-12, limit=400)
        v0, _ = quad(lambda yy: obs_r0_quad(SET_A, aa, yy)[0],
                     -14, 16, epsabs=1e-10, limit=400)
        total += v1 + v0
    print(f"normalization (set A): {total:.12f}")

    refs, worst = grid_references()
    print("r=0 on the example1-check grid, a = 0 then a = 1, y ascending:")
    for phi, row in refs.items():
        print(f"    {phi!r}: [")
        for i in range(0, len(row), 2):
            print("        " + " ".join(f"{v!r}," for v in row[i:i + 2]))
        print("    ],")
    print("largest relative disagreement between routes:",
          mpmath.nstr(worst, 3))
