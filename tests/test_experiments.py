import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    corner_names,
    fbdc_thresholds,
    hausdorff_distance,
    per_epsilon_verify_psi,
    point_loop_grid_points,
    point_loop_membership_agreement,
)
from switchq import channels as ch
from switchq import experiments as exp
from switchq import mdp
from switchq import policies as pol
from switchq import region as rg
from switchq import sim
from switchq.region import EPS_CRITICAL, contains


def small_spec(**overrides):
    base = dict(
        policies=(pol.PolicyConfig("fbdc", T=10),),
        channel=ch.gilbert_elliott(0.4),
        step=0.1,
        boundary_margin=0.05,
        horizon=6000,
        seed=77,
    )
    base.update(overrides)
    return exp.GridSpec(**base)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        exp.GridSpec(policies=(), step=0.0, channel=ch.gilbert_elliott(0.3))
    with pytest.raises(ValueError):
        exp.GridSpec(policies=(), channel=ch.gilbert_elliott(0.3), horizon=10, warmup=7)  # no room for 4 windows
    exp.GridSpec(policies=(), channel=ch.gilbert_elliott(0.3), horizon=10, warmup=6)


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


GRID_CHANNELS = (*({"epsilon": e} for e in (0.05, 0.25, 0.5, EPS_CRITICAL, 1e-9, 5e-324)),
                 *({"p1": p1, "p2": p2} for p1, p2 in ((0.5, 0.5), (1.0, 1.0), (0.3, 0.9))))


# each channel and step at margin 0.5, then a probe that numpy's round parts from Python's, and margins of 1e-300
GRID_CASES = (*((c, s, 0.5) for c in GRID_CHANNELS for s in (1.0, 0.3, 0.05, 0.0137)),
              ({"epsilon": 1e-9}, 0.0137, 0.1),
              ({"epsilon": 0.25}, 0.05, 1e-300), ({"p1": 0.3, "p2": 0.9}, 0.05, 1e-300))


@pytest.mark.parametrize("channel, step, margin", GRID_CASES,
                         ids=lambda v: ",".join(f"{k}={x:.3g}" for k, x in v.items()) if isinstance(v, dict) else None)
def test_grid_points_and_agreement_equal_the_point_loops(channel, step, margin):
    spec = exp.GridSpec(policies=(), channel=ch.ChannelModel(**channel), step=step, boundary_margin=margin)
    points = exp.grid_points(spec)
    assert repr(points) == repr(point_loop_grid_points(spec))  # -0.0 and 0.0 told apart
    verdicts = ("stable", "unstable", "inconclusive")
    rows = [("", x, y, "", 0, 0, 0.0, 0.0, 0.0, verdicts[i * i % 3]) for i, (x, y) in enumerate(points)]
    for judged in (rows, rows[::2], rows[:1], []):
        got = exp.sweep_membership_agreement(spec, judged)
        assert repr(got) == repr(point_loop_membership_agreement(spec, judged)), len(judged)
        assert got is None or type(got) is float


def test_grid_points_and_agreement_judge_the_grid_in_array_calls():
    calls = []

    def counted(region, point):
        calls.append(np.shape(point[0]))
        return contains(region, point)

    spec = small_spec(step=0.05)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "contains", counted)
        points = exp.grid_points(spec)
        assert calls == [(11, 1)]  # one call on the [column, row] lattice: x = 0 to 0.5
        rows = [("", x, y, "", 0, 0, 0.0, 0.0, 0.0, "stable") for x, y in points]
        exp.sweep_membership_agreement(spec, rows)
    assert calls[1:] == [(len(rows),)] * 3  # the rows, a step above and a step below


def test_iid_grids_of_any_thinness_are_judged_on_their_facet_scale():
    # contains scales its slack with each facet, so an iid facet whose coefficients lie 1e12 or more apart is swept
    # like any other, in either order: grid_points probes above it, equals the point loop, and every point it
    # counts as inside is inside x/p1 + y/p2 <= 1 but for 1e-12 of that bound and the roundings
    for p1, p2 in ((1e-13, 0.5), (1e-12, 1.0), (1e-300, 1.0), (5e-13, 0.5), (1e-11, 1.0), (1e-13, 1e-13)):
        for low, high in ((p1, p2), (p2, p1)):
            spec = exp.GridSpec(policies=(), channel=ch.iid(low, high), step=0.5)
            points, region = exp.grid_points(spec), spec.region()
            assert points == point_loop_grid_points(spec)
            assert high == 1.0 or any(not contains(region, p) for p in points)  # a probe above the facet, not rate 1
            for x, y in points:
                load = Fraction(x) / Fraction(low) + Fraction(y) / Fraction(high)
                assert (load <= 1 + Fraction(2e-12)) if contains(region, (x, y)) else (load > 1), (low, high, x, y)
    # nor does a p1 a few ulps from 1e-12 p2, where the old refusal cut in, change how the grid is built
    for p2 in (1.0, 0.75, 0.1, 3e-7):
        p1 = 1e-12 * p2
        for _ in range(8):
            p1 = math.nextafter(p1, 1.0)
            spec = exp.GridSpec(policies=(), channel=ch.iid(p1, p2), step=0.5)
            assert exp.grid_points(spec) == point_loop_grid_points(spec)


def test_a_thin_iid_region_admits_no_point_well_past_its_intercept():
    # the region's x-intercept is p1 = 1e-12; the other two points lie 80% past the intercept p = 0.5
    region = exp.GridSpec(policies=(), channel=ch.iid(1e-12, 0.5)).region()
    assert not contains(region, (1.9e-12, 0.0))  # 90% past the intercept
    assert not contains(rg.iid_region(1e-13, 0.5), (0.0, 0.9)) and not contains(rg.iid_region(0.5, 1e-13), (0.9, 0.0))


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
    from switchq.region import closed_form_region, iid_region, no_switchover_region

    assert hausdorff_distance(closed_form_region(0.05), no_switchover_region(0.5, 0.5)) < 0.03
    assert hausdorff_distance(closed_form_region(0.45), iid_region(0.5, 0.5)) < 0.03


def test_epsilon_t_is_the_threshold_crossing():
    e = exp.EPS_T
    assert 0.2 < e < EPS_CRITICAL
    assert (2 - e) / (1 - e) == pytest.approx((1 - e) ** 2 / e, abs=1e-9)
    # the cubic's root correctly rounded: the cubic, increasing here, changes sign between the
    # midpoints to the neighbouring floats; it is the real root np.roots finds, to an ulp
    cubic = lambda x: x**3 - 4 * x**2 + 5 * x - 1
    below, above = ((Fraction(e) + Fraction(math.nextafter(e, side))) / 2 for side in (0.0, 1.0))
    assert cubic(below) < 0 < cubic(above)
    assert [z.real for z in np.roots([1, -4, 5, -1]) if z.imag == 0] == [pytest.approx(e, rel=2**-52)]


def corner_map_partition(epsilon):
    """Atomic ratio intervals with the corner each map picks inside them.

    The union of agreement and discrepant atoms tiles (0, inf); used to
    check that the discrepant bands of PSI_REGIONS are exactly where the
    maps part.
    """
    e = epsilon
    cuts = sorted(set(fbdc_thresholds(e)) | set(rg._myopic_thresholds(e)))
    edges = [0.0] + cuts + [cuts[-1] * 4.0]
    atoms = []
    for lo, hi in zip(edges, edges[1:]):
        mid = math.sqrt(lo * hi) if lo > 0 else hi / 2
        atoms.append((lo, hi, corner_names(e, rg.myopic_corner_map(e, 1.0, mid)),
                      corner_names(e, rg.fbdc_corner_map(e, 1.0, mid))))
    return atoms


def test_psi_value_is_one_on_agreement_atoms():
    for eps in (0.1, 0.25, 0.33, 0.45):
        for lo, hi, my, opt in corner_map_partition(eps):
            mid = math.sqrt(lo * hi) if lo > 0 else hi / 2
            value = exp.psi_value(eps, mid)
            if my == opt:
                assert value == 1.0
            else:
                assert 0.89 < value < 1.0


def test_psi_value_array_matches_scalar():
    # one array pass per epsilon gives the corners the scalar maps pick and the ratio of their values,
    # thresholds included, and a 0-d ratio goes through the same pass
    for eps in (0.001, 0.1, exp.EPS_T, 0.25, EPS_CRITICAL, 0.35, 0.5):
        fbdc, myopic = fbdc_thresholds(eps), rg._myopic_thresholds(eps)
        rs = np.concatenate([np.geomspace(0.05, 20.0, 301), fbdc, myopic])
        psi = exp.psi_value(eps, rs)
        my = corner_names(eps, rg.myopic_corner_map(eps, 1.0, rs))
        opt = corner_names(eps, rg.fbdc_corner_map(eps, 1.0, rs))
        assert psi.shape == my.shape == opt.shape == rs.shape
        point = dict(rg.corner_points(eps))
        for r, value, a, b in zip(rs.tolist(), psi, my, opt):
            assert (a, b) == (corner_names(eps, rg.myopic_corner_map(eps, 1.0, r)),
                              corner_names(eps, rg.fbdc_corner_map(eps, 1.0, r)))
            (x_my, y_my), (x_opt, y_opt) = point[a], point[b]
            assert value == (x_my + r * y_my) / (x_opt + r * y_opt)
            assert exp.psi_value(eps, r) == value


def test_psi_value_over_an_epsilon_array_matches_each_epsilon():
    for eps in (np.array([0.001, 0.1, exp.EPS_T, 0.29]), np.array([EPS_CRITICAL, 0.35, 0.5])):
        rs = np.geomspace(0.05, 20.0, 3 * len(eps) * 50).reshape(len(eps), -1)
        psi, my = exp.psi_value(eps, rs), rg.myopic_corner_map(eps, 1.0, rs)
        for e, row, got, got_my in zip(eps.tolist(), rs, psi, my):
            assert got.tobytes() == exp.psi_value(e, row).tobytes()
            assert got_my.tobytes() == rg.myopic_corner_map(e, 1.0, row).tobytes()
    with pytest.raises(ValueError, match="both sides"):
        exp.psi_value(np.array([0.25, 0.35]), np.ones((2, 3)))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite, nonnegative"):
            exp.psi_value(0.25, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite, nonnegative"):
            exp.psi_value(np.array([0.1, 0.2]), np.array([[1.0, 2.0], [3.0, bad]]))


def test_corner_map_partition_tiles_the_ratio_axis():
    # discrepant atoms must be exactly the minimized bands plus their mirrors
    for eps in (0.05, 0.2, 0.26, 0.28, 0.35, 0.45):
        atoms = corner_map_partition(eps)
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


def test_psi_is_monotone_along_each_band_row():
    # why the sampled grid is the minimisation: across a discrepant band's ratio row each map keeps
    # one corner, the two differ, and psi, linear-fractional in the ratio, is monotone
    step, points = 5e-3, 64
    for case, name, (eps_lo, eps_hi), ratio_iv, _ in exp.PSI_REGIONS:
        rows = [k * step for k in range(math.floor(eps_lo / step) + 1, math.ceil(eps_hi / step))]
        for e in (e for e in rows if eps_lo < e < eps_hi):
            rs = np.geomspace(*ratio_iv(e), points + 2)[1:-1]
            my, opt = set(rg.myopic_corner_map(e, 1.0, rs).tolist()), set(rg.fbdc_corner_map(e, 1.0, rs).tolist())
            assert len(my) == len(opt) == 1 and my != opt, (case, name, e, my, opt)
            steps = np.diff(exp.psi_value(e, rs))
            assert (steps <= 0).all() or (steps >= 0).all(), (case, name, e)


def test_verify_psi_report_shape():
    rows = exp.verify_psi()
    assert len(rows) == 7
    assert [row[:3] for row in rows[:-1]] == [(case, name, bound) for case, name, _, _, bound in exp.PSI_REGIONS]
    assert rows[-1][:4] == ("global", "", exp.PSI_GLOBAL_BOUND, min(row[3] for row in rows[:-1]))
    assert math.isnan(rows[-1][4]) and math.isnan(rows[-1][5])
    for row in rows[:-1]:
        assert 0.89 < row[3] < 1.0


def test_grids_above_max_grid_points_are_refused():
    # a sweep tests about 1 / step**2 lattice points; psi samples its bands' epsilon rows times the ratios
    finest = exp.MAX_GRID_POINTS ** -0.5
    assert exp.GridSpec(policies=(), channel=ch.gilbert_elliott(0.25), step=finest).step == finest
    with pytest.raises(ValueError, match="--step"):
        exp.GridSpec(policies=(), channel=ch.gilbert_elliott(0.25), step=0.999 * finest)
    width = sum(hi - lo for _, _, (lo, hi), _, _ in exp.PSI_REGIONS)
    assert 400 * width / 1e-3 < exp.MAX_GRID_POINTS / 2  # psi --check's grid
    with pytest.raises(ValueError, match="--eps-step .* with --ratio-points 400"):
        exp.verify_psi(0.999 * 400 * width / exp.MAX_GRID_POINTS, 400)
    with pytest.MonkeyPatch.context() as mp:  # the limit counts points, not epsilon rows: a small grid over it
        mp.setattr(exp, "MAX_GRID_POINTS", 200)  # about 84 epsilon rows at step 0.01
        with pytest.raises(ValueError, match="--ratio-points 3"):
            exp.verify_psi(0.01, 3)
        assert len(exp.verify_psi(0.01, 2)) == 7


def _psi_csv(verify, step, points):
    """verify's rows as the CSV writes them (nan fields compare unequal as floats), or its error."""
    try:
        return exp.rows_to_csv(("",) * 6, verify(step, points))
    except ValueError as err:
        return str(err)


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# epsilon values at which (1 - e) ** 2 (libm pow) and (1 - e) * (1 - e) part, one per band that squares
POW_PARTS = (0.00571, 0.253066)


def band_epsilons(band):
    """Lists of epsilon values inside a PSI_REGIONS band: its ends' neighbours (1e-300 for 0) and POW_PARTS included."""
    lo, hi = max(band[2][0], 1e-300), band[2][1]
    marked = [math.nextafter(lo, 1.0), math.nextafter(hi, 0.0), *(e for e in POW_PARTS if lo < e < hi)]
    inside = st.one_of(st.floats(lo, hi, exclude_min=True, exclude_max=True), st.sampled_from(marked))
    return st.lists(inside, min_size=1, max_size=12)


BANDS_WITH_EPSILONS = st.sampled_from(exp.PSI_REGIONS).flatmap(lambda b: st.tuples(st.just(b), band_epsilons(b)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(drawn=BANDS_WITH_EPSILONS)
@hypothesis.example(drawn=(exp.PSI_REGIONS[0], list(POW_PARTS[:1]))).via("a square that pow rounds apart")
@hypothesis.example(drawn=(exp.PSI_REGIONS[3], list(POW_PARTS[1:]))).via("a square that pow rounds apart")
def test_band_intervals_over_an_array_equal_each_float(drawn):
    # the intervals write (1-e)^2 as a product: Python's ** 2 (libm pow) and numpy's (x*x) part on
    # about 0.09% of epsilon values, and np.power with an array exponent on more
    (_, _, _, ratio_iv, _), eps = drawn
    got = np.array(ratio_iv(np.array(eps)))
    assert got.tobytes() == np.array([ratio_iv(e) for e in eps]).T.tobytes()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(drawn=BANDS_WITH_EPSILONS, points=st.integers(1, 10**4))
@hypothesis.example(drawn=(exp.PSI_REGIONS[0], [0.001, 0.1, 0.245]), points=400).via("psi --check's rows")
def test_end_samples_are_the_geomspace_samples(drawn, points):
    (_, _, _, ratio_iv, _), eps = drawn
    lo, hi = ratio_iv(np.array(eps))
    want = [np.geomspace(a, b, points + 2)[[1, points]] for a, b in zip(lo.tolist(), hi.tolist())]
    assert exp._end_samples(lo, hi, points).tobytes() == np.array(want).tobytes()


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(step=st.floats(2e-3, 0.06), points=st.integers(1, 80), rows=st.integers(1, 40))
def test_blocked_verify_psi_equals_one_pass_per_epsilon(step, points, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "_PSI_BLOCK", rows)
        got = _psi_csv(exp.verify_psi, step, points)
    assert got == _psi_csv(per_epsilon_verify_psi, step, points)


@pytest.mark.parametrize("step, points", [(2.5e-3, 1), (2.5e-3, 2), (5e-3, 7), (2.5e-3, 64)])
def test_end_samples_give_the_minimum_of_the_full_rows(step, points):
    # the oracle evaluates every ratio of every row; verify_psi only each row's two end samples
    assert _psi_csv(exp.verify_psi, step, points) == _psi_csv(per_epsilon_verify_psi, step, points)


def test_verify_psi_makes_one_psi_value_pass_per_band_on_its_end_samples():
    shapes, psi_value = [], exp.psi_value

    def counted(epsilon, ratio):
        shapes.append((np.shape(epsilon), np.shape(ratio)))
        return psi_value(epsilon, ratio)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "psi_value", counted)
        exp.verify_psi()
    assert len(shapes) == len(exp.PSI_REGIONS)
    assert all(ratio == eps + (2,) and len(eps) == 1 for eps, ratio in shapes), shapes


def test_verify_psi_makes_no_python_call_per_epsilon_row():
    # the corners and the ratio intervals of a pass come from array formulas, so the count of
    # corner_points calls and interval evaluations is the same at 83 and at 8,404 epsilon rows
    def calls(step):
        counts = {"corner_points": 0, "interval": 0}

        def counted(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        bands = tuple((*band[:3], counted("interval", band[3]), band[4]) for band in exp.PSI_REGIONS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rg, "corner_points", counted("corner_points", rg.corner_points))
            mp.setattr(exp, "PSI_REGIONS", bands)
            rg._corner_table.cache_clear()
            exp.verify_psi(step, 2)
        return counts

    assert calls(1e-2) == calls(1e-4)
    assert calls(1e-4)["interval"] == len(exp.PSI_REGIONS)


def test_verify_psi_with_a_block_boundary_beside_each_argmin():
    step, points = 2.5e-3, 64
    want = per_epsilon_verify_psi(step, points)
    csv = exp.rows_to_csv(("",) * 6, want)
    for (_, _, (eps_lo, _), _, _), result in zip(exp.PSI_REGIONS, want):
        row = round(result[4] / step) - (math.floor(eps_lo / step) + 1)  # the argmin epsilon's row in its band
        for rows in {max(row, 1), row + 1}:  # the argmin row opens a pass, or it closes one
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exp, "_PSI_BLOCK", rows)
                assert _psi_csv(exp.verify_psi, step, points) == csv, rows


def test_verify_psi_keeps_the_first_of_tied_minima():
    # below ratio e / (1 - e) both maps pick b5, so psi is exactly 1 on the whole grid
    band = ("agree", "R0", (EPS_CRITICAL, 0.5), lambda e: (e / 40, e / 20), 0.5)
    for rows in (1, 3, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exp, "PSI_REGIONS", (band,))
            mp.setattr(exp, "_PSI_BLOCK", rows)
            got = exp.verify_psi(0.01, 16)
            assert _psi_csv(exp.verify_psi, 0.01, 16) == _psi_csv(per_epsilon_verify_psi, 0.01, 16)
        result, _ = got  # the band's row, then the global row
        assert (result[3], result[4]) == (1.0, 0.3)
        assert result[5] == np.geomspace(0.3 / 40, 0.3 / 20, 18)[1]


def test_verify_psi_memory_does_not_grow_with_the_epsilon_grid():
    import tracemalloc

    def peak(step, points):
        tracemalloc.start()
        try:
            exp.verify_psi(step, points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.05, 400)  # the first run fills the caches
    # only each row's two end samples are made: the full rows of a band at 1e-3 would be 245 rows
    # of 400 ratios, 784 kB per float array; the margin is for the small objects an interpreter
    # keeps on its free lists
    assert peak(1e-3, 400) - peak(1e-2, 400) < 128 * 1024
    # at one ratio a row both steps fill whole _PSI_BLOCK-row passes; arrays over a whole band at
    # 2e-6 would hold 122k epsilon rows, 980 kB per float array
    assert peak(2e-6, 1) - peak(2e-5, 1) < 128 * 1024


def test_throughput_gap_decreases_with_frame_length():
    gaps = dict(exp.throughput_gap(0.25, (10, 100, 2000), "b2", slots_per_t=1_000_000, seed=4))
    assert gaps[2000] < gaps[10]
    assert gaps[2000] < 0.003
    memoryless = dict(exp.throughput_gap(0.5, (2, 10), "b2", slots_per_t=400_000, seed=5))
    assert all(abs(v) < 0.01 for v in memoryless.values())


def frame_shortfall(eps, table, t_max=100):
    """T -> how far a frame of T slots from the uniform law mu0 falls short of T * pi f: sum_{t<T} (pi - mu0 P^t) f."""
    kernel = mdp.build_kernel(eps)
    P = mdp.policy_matrix(kernel, table)
    f = np.add(*mdp.policy_rates(np.eye(mdp.N_STATES), table))  # departures in a slot at each state
    rate = mdp.stationary_distribution(kernel, table) @ f
    law, paid, shortfall = np.full(mdp.N_STATES, 1 / mdp.N_STATES), 0.0, {}
    for T in range(1, t_max + 1):
        paid += law @ f
        law = law @ P
        shortfall[T] = T * rate - paid
    return shortfall


def test_frame_shortfall_is_one_constant_whatever_the_frame_length():
    # the shortfall is the same c for every T, so the expected deficit throughput_gap simulates is exactly c / T
    for eps in (0.05, 0.25, 0.4):
        for corner, table in pol.CORNER_TABLES.items():
            shortfall = frame_shortfall(eps, table)
            for T in (2, 10, 100):
                assert shortfall[T] == pytest.approx(shortfall[1], abs=1e-12), (eps, corner, T)
            if eps == 0.25 and corner in ("b0", "b2", "b5"):
                assert shortfall[1] == pytest.approx(1 / 8 if corner == "b2" else 1 / 4, abs=1e-15)


def test_gap_deficit_is_c_over_T_within_its_sampling_noise():
    # gap's frames start from the uniform law, so over seeds 0..39 the mean simulated deficit lies within
    # 4 standard errors (of that mean) of the exact c / T
    for eps, corner in ((0.25, "b2"), (0.1, "b4")):
        c = frame_shortfall(eps, pol.CORNER_TABLES[corner], 1)[1]
        runs = np.array([[deficit for _, deficit in exp.throughput_gap(eps, (2, 10), corner, 20_000, seed)]
                         for seed in range(40)])
        mean, se = runs.mean(axis=0), runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(np.abs(mean - c / np.array([2, 10])) < 4 * se), (eps, corner, c, mean, se)


def test_myopic_beats_fbdc_delay_on_most_interior_points():
    # frame myopic tends to drain queues faster than frame control
    policies = (pol.PolicyConfig("fbdc", T=25), pol.PolicyConfig("myopic", T=25, k=1))
    spec = small_spec(policies=policies, channel=ch.gilbert_elliott(0.25), step=0.06, horizon=30_000,
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


def test_iid_suite_drops_a_tenth_of_the_horizon(monkeypatch):
    # a SimConfig keeps every slot unless told, and iid_suite tells each of its cells to drop a tenth
    assert sim.SimConfig(0.1, 0.1, ch.iid(0.5, 0.5), pol.PolicyConfig("gated"), 20_000, 1).warmup == 0
    warmups, run = [], exp.sim.run
    monkeypatch.setattr(exp.sim, "run", lambda config: warmups.append(config.warmup) or run(config))
    exp.iid_suite(ch.iid(0.5, 0.5), (0.6, 1.2), horizon=20_000, seed=1)
    assert warmups == [2000] * 4


def test_iid_suite_rows():
    rows = exp.iid_suite(ch.iid(0.5, 0.5), (0.6,), horizon=20_000, seed=1)
    assert len(rows) == 2
    assert {r[5] for r in rows} == {"gated", "exhaustive"}
    assert all(r[6] == "stable" for r in rows)
    assert all(r[3] == r[4] == 0.15 for r in rows)


def test_each_policy_kind_has_its_engine_crossover(monkeypatch):
    # the paper-style grid (epsilon 0.25, step 0.05: 89 cells) runs lock-step for fbdc and myopic,
    # and the iid suite's 5 loads per policy run per cell
    assert set(exp._LOCKSTEP_MIN_CELLS) == set(pol.POLICY_KINDS)
    spec = exp.GridSpec(policies=(pol.PolicyConfig("fbdc", T=25), pol.PolicyConfig("myopic", T=1)),
                        channel=ch.gilbert_elliott(0.25), step=0.05, horizon=20, seed=3)
    batched, run_batch = [], exp.sim.run_batch

    def noting_run_batch(configs):
        batched.append(configs[0].policy.kind)
        return run_batch(configs)

    monkeypatch.setattr(exp.sim, "run_batch", noting_run_batch)
    assert len(exp.sweep(spec)) == 2 * 89
    assert batched == ["fbdc", "myopic"]
    exp.iid_suite(ch.iid(0.5, 0.5), (0.6, 0.8, 0.9, 1.1, 1.2), horizon=4000, seed=1)
    assert batched == ["fbdc", "myopic"]


def test_float_formatting_roundtrips():
    # a float field, a Python float or an np.float64, is written as the shortest repr of the Python float
    bits = np.random.default_rng(8).integers(0, 2**63, 2000, dtype=np.int64).view(np.float64)
    special = [0.1, 1 / 3, 0.25, 1e-9, 0.9002, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               sys.float_info.max, 1e15, 1e16, 1e-5]
    for x in special + bits.tolist() + (-bits).tolist():
        text = repr(float(x))
        assert exp.rows_to_csv(("a", "b"), [(x, np.float64(x))]) == f"a,b\n{text},{text}\n"
        assert math.isnan(x) or float(text) == x
