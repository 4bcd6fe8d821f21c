"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them stream).  The
tolerances are fixed here, not tuned at run time.
"""

import math
import time

import numpy as np
import pytest

from oracles import corner_names, hausdorff_distance, myopic_policy_table, polygon
from switchq import channels as ch
from switchq import experiments as exp
from switchq import mdp
from switchq import policies as pol
from switchq import sim
from switchq import region as rg


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1. region equivalence: brute-force hull vs closed form ------------------

def test_criterion_1_region_equivalence():
    mdp.enumerate_vertices.cache_clear()  # timing must include the 2048 chain solves
    t0 = time.perf_counter()
    eps_grid = (0.05, 0.10, 0.25, 0.29, 0.30, 0.40, 0.45, 0.50)
    worst_violation = 0.0
    for eps in eps_grid:
        hull = rg.region_from_vertices([v.rates for v in mdp.enumerate_vertices(eps)])
        closed = rg.closed_form_region(eps)
        vertices = polygon(hull)  # hull vertex set including the origin
        for h in closed.halfspaces:
            slacks = [h.slack(v) for v in vertices]
            worst_violation = max(worst_violation, -min(slacks))
            assert min(slacks) > -1e-9, (eps, h)
            assert sum(1 for s in slacks if abs(s) < 1e-9) >= 2, (eps, h)
        assert hausdorff_distance(hull, closed) < 1e-9
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 5.0,
            f"hull of 256 policies == closed form at 8 epsilons "
            f"(max violation {worst_violation:.2e}, {elapsed:.2f}s < 5s)")


# -- 2. corner formulas ------------------------------------------------------

def test_criterion_2_corner_formulas():
    pts = dict(rg.corner_points(0.25))
    exact = pts["b1"] == (0.140625, 0.4375) and pts["b2"] == (1.875 / 7, 2.5 / 7)
    flips = (
        len(rg.corner_points(rg.EPS_CRITICAL - 1e-6)) == 6
        and len(rg.corner_points(rg.EPS_CRITICAL + 1e-6)) == 4
    )
    _report(2, exact and flips,
            f"b1={pts['b1']}, b2=(1.875/7, 2.5/7) exact; corner count 6->4 at eps_c")


# -- 3. saturated-rate oracle over all 256 policies --------------------------

def test_criterion_3_saturated_rate_oracle():
    t0 = time.perf_counter()
    horizon, warmup = 1_000_000, 2000
    policies = mdp.all_policies()
    worst_z, n_checked = 0.0, 0
    for i, eps in enumerate((0.1, 0.25, 0.4)):
        empirical = sim.saturated_rates_batch(policies, eps, horizon=horizon,
                                              seed=1000 + i, warmup=warmup)
        kernel = mdp.build_kernel(eps)
        exact = np.array([v.rates for v in mdp.enumerate_vertices(eps)])
        ses = np.array([mdp.rate_asymptotic_std(kernel, p, horizon) for p in policies])
        tol = np.maximum(3.0 * ses, 2e-3)
        diff = np.abs(empirical - exact)
        assert np.all(diff <= tol), f"eps={eps}: {int((diff > tol).sum())} rates off"
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(ses > 0, diff / ses, 0.0)
        worst_z = max(worst_z, float(z.max()))
        n_checked += diff.size
    elapsed = time.perf_counter() - t0
    _report(3, elapsed < 120.0,
            f"{n_checked} empirical rates within max(3*SE, 2e-3) of the analytic "
            f"values (max z={worst_z:.2f}, {elapsed:.1f}s < 120s)")


# -- 4. weighted-rate-ratio floor of the myopic map --------------------------

def test_criterion_4_psi_bounds():
    t0 = time.perf_counter()
    rows = exp.verify_psi(epsilon_grid_step=1e-3, ratio_grid_points=400)
    # six bands, each held to its floor, then the global row held to 0.9002
    ok = len(rows) == 7 and rows[-1][:3] == ("global", "", exp.PSI_GLOBAL_BOUND)
    ok = ok and all(minimum >= bound - 1e-6 for _, _, bound, minimum, _, _ in rows)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{case}/{region}={minimum:.6f}>={bound}" for case, region, bound, minimum, _, _ in rows[:-1])
    _report(4, ok and elapsed < 30.0,
            f"global min {rows[-1][3]:.6f} >= 0.9002; {detail} ({elapsed:.1f}s < 30s)")


# -- 5. frame-based dynamic control stabilizes the interior ------------------

FBDC_INTERIOR = ((0.20, 0.30), (0.30, 0.20), (0.28, 0.28), (0.05, 0.45))
FBDC_EXTERIOR = ((0.34, 0.34), (0.05, 0.55))


def _probe(lam, policy, seed):
    config = sim.SimConfig(
        lambda1=lam[0], lambda2=lam[1], channel=ch.gilbert_elliott(0.25),
        policy=policy, horizon=100_000, warmup=10_000, seed=seed,
    )
    return sim.run(config).verdict


def test_criterion_5_fbdc_stability():
    t0 = time.perf_counter()
    fbdc = pol.PolicyConfig("fbdc", T=25)
    verdicts = {}
    for i, lam in enumerate(FBDC_INTERIOR):
        verdicts[lam] = _probe(lam, fbdc, seed=500 + i)
    for i, lam in enumerate(FBDC_EXTERIOR):
        verdicts[lam] = _probe(lam, fbdc, seed=600 + i)
    ok = all(verdicts[lam] == "stable" for lam in FBDC_INTERIOR) and all(
        verdicts[lam] == "unstable" for lam in FBDC_EXTERIOR
    )
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 60.0,
            f"T=25, eps=0.25: interior {[verdicts[l] for l in FBDC_INTERIOR]}, "
            f"exterior {[verdicts[l] for l in FBDC_EXTERIOR]} ({elapsed:.1f}s < 60s)")


# -- 6. myopic throughput lower bound ----------------------------------------

def _distance_to_boundary(region, lam):
    return min(h.slack(lam) / math.hypot(h.a1, h.a2)
               for h in region.halfspaces if h.a1 > 0 or h.a2 > 0)


def test_criterion_6_myopic_throughput():
    myopic = pol.PolicyConfig("myopic", T=25, k=1)
    scaled = tuple((round(0.9 * a, 6), round(0.9 * b, 6)) for a, b in FBDC_INTERIOR)
    scaled_verdicts = [_probe(lam, myopic, seed=700 + i) for i, lam in enumerate(scaled)]
    ok = all(v == "stable" for v in scaled_verdicts)

    # the stronger full-region finding: gating only for points at least
    # 0.01 away from the region boundary
    region = rg.closed_form_region(0.25)
    unscaled_verdicts = {}
    for i, lam in enumerate(FBDC_INTERIOR):
        verdict = _probe(lam, myopic, seed=800 + i)
        unscaled_verdicts[lam] = verdict
        if _distance_to_boundary(region, lam) >= 0.01:
            ok = ok and verdict == "stable"
    _report(6, ok,
            f"0.9-scaled probes {scaled_verdicts}; unscaled {list(unscaled_verdicts.values())}")


# -- 7. iid-channel results: gated and exhaustive ----------------------------

def test_criterion_7_iid_gated_exhaustive():
    t0 = time.perf_counter()
    rows = exp.iid_suite(ch.iid(0.5, 0.5), (0.6, 0.8, 0.9, 1.1, 1.2), horizon=100_000, seed=900)
    ok = True
    for _, _, rho, _, _, kind, verdict, _ in rows:
        expected = "stable" if rho < 1.0 else "unstable"
        ok = ok and verdict == expected
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 30.0,
            f"gated+exhaustive verdicts match rho<1 at all 5 loads ({elapsed:.1f}s < 30s)")


# -- 8. myopic decisions == myopic corner map --------------------------------

def test_criterion_8_myopic_structural_equivalence():
    rng = np.random.default_rng(33)
    checked = 0
    mismatches = 0
    while checked < 1000:
        eps = float(rng.uniform(0.02, 0.5))
        q1 = float(rng.integers(1, 500))
        q2 = float(rng.integers(1, 500))
        ratio = q2 / q1
        if eps < rg.EPS_CRITICAL:
            thresholds = [eps / (1 - eps), (1 - eps) / (2 - eps), 1.0,
                          (2 - eps) / (1 - eps), (1 - eps) / eps]
        else:
            thresholds = [eps / (1 - eps), 1.0, (1 - eps) / eps]
        if any(abs(ratio / t - 1.0) < 0.02 for t in thresholds):
            continue
        corner = corner_names(eps, rg.myopic_corner_map(eps, q1, q2))
        table = pol.CORNER_TABLES[corner]
        recurrent = np.flatnonzero(mdp.stationary_distribution(mdp.build_kernel(eps), table))
        myopic_table = myopic_policy_table(ch.gilbert_elliott(eps), 1, q1, q2)
        if any(myopic_table[s] != table[s] for s in recurrent):
            mismatches += 1
        checked += 1
    _report(8, mismatches == 0,
            f"frame myopic == mapped corner policy on its recurrent class, "
            f"{checked} samples, {mismatches} mismatches")


# -- 9. limiting regions ------------------------------------------------------

def test_criterion_9_limits():
    markov_half = rg.closed_form_region(0.5)
    iid_half = rg.iid_region(0.5, 0.5)
    exact = markov_half.corners == iid_half.corners and markov_half.halfspaces == iid_half.halfspaces
    d = hausdorff_distance(rg.closed_form_region(0.05), rg.no_switchover_region(0.5, 0.5))
    _report(9, exact and d < 0.03,
            f"region(0.5) == iid(0.5,0.5) exactly; hull distance to no-switchover "
            f"at eps=0.05 is {d:.4f} < 0.03")


# -- 10. determinism -----------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    spec = exp.GridSpec(
        policies=(pol.PolicyConfig("fbdc", T=10), pol.PolicyConfig("myopic", T=10, k=1)),
        channel=ch.gilbert_elliott(0.4), step=0.1, boundary_margin=0.05, horizon=5000, seed=1234,
    )
    outputs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        csv = exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(spec))
        csv += exp.export_regions(0.4)
        csv += exp.rows_to_csv(exp.IID_HEADER, exp.iid_suite(ch.iid(0.5, 0.5), (0.8,), horizon=20_000, seed=5))
        path.write_text(csv, encoding="utf-8")
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(10, ok, f"repeated acceptance runs emit byte-identical CSV ({len(outputs[0])} bytes)")
