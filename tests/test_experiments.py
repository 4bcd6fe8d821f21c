import math

import numpy as np
import pytest

from switchq import experiments as exp
from switchq import policies as pol
from switchq import region as rg
from switchq.region import EPS_CRITICAL, contains


def small_spec(**overrides):
    base = dict(
        policies=(pol.PolicyConfig("fbdc", T=10),),
        epsilon=0.4,
        step=0.1,
        boundary_margin=0.05,
        horizon=6000,
        seed=77,
    )
    base.update(overrides)
    return exp.GridSpec(**base)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        exp.GridSpec(policies=(), step=0.0, epsilon=0.3)
    with pytest.raises(ValueError):
        exp.GridSpec(policies=())  # neither epsilon nor p1/p2
    with pytest.raises(ValueError):
        exp.GridSpec(policies=(), epsilon=0.3, p1=0.5, p2=0.5)
    with pytest.raises(ValueError):
        exp.GridSpec(policies=(), epsilon=0.3, horizon=10, warmup=7)  # no room for 4 windows
    exp.GridSpec(policies=(), epsilon=0.3, horizon=10, warmup=6)


def test_grid_points_cover_region_and_rim():
    spec = small_spec()
    region = spec.region()
    pts = exp.grid_points(spec)
    inside = [p for p in pts if contains(region, p)]
    outside = [p for p in pts if not contains(region, p)]
    assert inside and outside
    assert (0.0, 0.0) not in pts
    # one exterior probe above every populated column
    for x in sorted({p[0] for p in inside}):
        assert any(o[0] == x for o in outside)


def test_empty_policy_list_gives_header_only_csv():
    rows = exp.sweep(small_spec(policies=()))
    assert rows == []
    csv = exp.rows_to_csv(exp.SWEEP_HEADER, rows)
    assert csv == ",".join(exp.SWEEP_HEADER) + "\n"


def test_sweep_rows_and_membership_agreement():
    spec = small_spec()
    rows = exp.sweep(spec)
    assert len(rows) == len(exp.grid_points(spec))
    assert all(row[3] == "fbdc_T10" and row[4] == 10 for row in rows)
    assert exp.sweep_membership_agreement(spec, rows) >= 0.95


def test_sweep_is_deterministic():
    a = exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(small_spec()))
    b = exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(small_spec()))
    assert a == b


def test_export_regions_sections():
    text = exp.export_regions(0.25)
    assert text.count("# region:") == 3
    markov = text.split("# region:")[1]
    corner_lines = markov.split("a1,a2,b")[0].strip().splitlines()[2:]
    assert len(corner_lines) == 6  # six frontier corners below the critical epsilon
    iid_only = exp.export_regions(None, 0.5, 0.5)
    assert iid_only.count("# region:") == 2


def test_export_regions_limits():
    from switchq.region import closed_form_region, hausdorff_distance, iid_region, no_switchover_region

    assert hausdorff_distance(closed_form_region(0.05), no_switchover_region(0.5, 0.5)) < 0.03
    assert hausdorff_distance(closed_form_region(0.45), iid_region(0.5, 0.5)) < 0.03


def test_epsilon_t_is_the_threshold_crossing():
    e = exp.EPS_T
    assert 0.2 < e < EPS_CRITICAL
    assert (2 - e) / (1 - e) == pytest.approx((1 - e) ** 2 / e, abs=1e-9)


def test_psi_value_is_one_on_agreement_atoms():
    for eps in (0.1, 0.25, 0.33, 0.45):
        for lo, hi, my, opt in exp.corner_map_partition(eps):
            mid = math.sqrt(lo * hi) if lo > 0 else hi / 2
            value = exp.psi_value(eps, mid)[0]
            if my == opt:
                assert value == 1.0
            else:
                assert 0.89 < value < 1.0


def test_psi_value_array_matches_scalar():
    # one array pass per epsilon gives the scalar floats and corners, thresholds included
    for eps in (0.001, 0.1, exp.EPS_T, 0.25, EPS_CRITICAL, 0.35, 0.5):
        _, fbdc, myopic = rg._thresholds(eps)
        rs = np.concatenate([np.geomspace(0.05, 20.0, 301), fbdc + myopic])
        psi, my, opt = exp.psi_value(eps, rs)
        assert psi.shape == my.shape == opt.shape == rs.shape
        for r, value, a, b in zip(rs, psi, my, opt):
            scalar = exp.psi_value(eps, float(r))
            assert type(scalar[0]) is float and scalar == (value, a, b)


def test_corner_map_partition_tiles_the_ratio_axis():
    # discrepant atoms must be exactly the minimized bands plus their mirrors
    for eps in (0.05, 0.2, 0.26, 0.28, 0.35, 0.45):
        atoms = exp.corner_map_partition(eps)
        assert atoms[0][0] == 0.0
        for (_, hi_prev, _, _), (lo, _, _, _) in zip(atoms, atoms[1:]):
            assert hi_prev == lo
        bands = []
        for case, _, (e_lo, e_hi), ratio_iv, _ in exp.PSI_REGIONS:
            if e_lo < eps < e_hi:
                lo, hi = ratio_iv(eps)
                bands.append((lo, hi))
                bands.append((1.0 / hi, 1.0 / lo))  # mirrored band below ratio 1
        for lo, hi, my, opt in atoms:
            discrepant = my != opt
            in_band = any(b_lo - 1e-12 <= lo and hi <= b_hi + 1e-12 for b_lo, b_hi in bands)
            assert discrepant == in_band, (eps, lo, hi, my, opt)


def test_verify_psi_report_shape():
    report = exp.verify_psi()
    assert len(report.regions) == 6
    assert report.global_minimum == min(r.minimum for r in report.regions)
    for r in report.regions:
        assert 0.89 < r.minimum < 1.0
    rows = report.rows()
    assert rows[-1][0] == "global"


def test_throughput_gap_decreases_with_frame_length():
    gaps = dict(exp.throughput_gap(0.25, (10, 100, 2000), "b2", slots_per_t=1_000_000, seed=4))
    assert gaps[2000] < gaps[10]
    assert gaps[2000] < 0.003
    memoryless = dict(exp.throughput_gap(0.5, (2, 10), "b2", slots_per_t=400_000, seed=5))
    assert all(abs(v) < 0.01 for v in memoryless.values())


def test_myopic_beats_fbdc_delay_on_most_interior_points():
    # frame myopic tends to drain queues faster than frame control
    policies = (pol.PolicyConfig("fbdc", T=25), pol.PolicyConfig("myopic", T=25, k=1))
    spec = small_spec(policies=policies, epsilon=0.25, step=0.06, horizon=30_000,
                      boundary_margin=0.03, seed=91)
    region = spec.region()
    rows = exp.sweep(spec)
    by_point = {}
    for row in rows:
        by_point.setdefault((row[1], row[2]), {})[row[3]] = row[6]
    wins = losses = 0
    for point, q_avgs in by_point.items():
        if not contains(region, point):
            continue
        if q_avgs["myopic1_T25"] < q_avgs["fbdc_T25"]:
            wins += 1
        else:
            losses += 1
    assert wins / (wins + losses) > 0.5


def test_iid_suite_rows():
    rows = exp.iid_suite(0.5, 0.5, (0.6,), horizon=20_000, seed=1)
    assert len(rows) == 2
    assert {r[5] for r in rows} == {"gated", "exhaustive"}
    assert all(r[6] == "stable" for r in rows)
    assert all(r[3] == r[4] == 0.15 for r in rows)


def test_parse_config():
    text = """
    # a comment
    epsilon = 0.25
    horizon=5000   # trailing comment
    policy = fbdc
    frame_based = true
    T=25
    """
    values = exp.parse_config(text)
    assert values == {"epsilon": 0.25, "horizon": 5000, "policy": "fbdc", "frame_based": True, "T": 25}
    with pytest.raises(ValueError):
        exp.parse_config("no equals sign here")


def test_float_formatting_roundtrips():
    for x in (0.1, 1 / 3, 0.25, 1e-9, np.float64(0.9002)):
        assert float(exp._fmt(x)) == x
