"""Reference code the tests check the program against; the program itself does not use it.

The saturated chain's kernel filled entry by entry and its recurrent class
by a generic reachability closure, the paper's FBDC queue-ratio thresholds,
the FBDC corner as the first within 2**-48 of the largest value, the
corner_points names of a corner map's positions,
a region's polygon and the Hausdorff distance between two regions, the
expected channel state tau slots ahead by matrix powers, the myopic
credit read back from myopic_table, the myopic decisions at all eight
states for fixed weights, the myopic rule as two branches on the server
position, the 256 chain laws by one solve
per policy, the rates' standard errors by an explicit inverse and a
per-state reward loop, and by one solve of Z f~ per table, the
state-action-frequency LP, the psi minimisation
by one array pass per epsilon, sim.run's slot loop with a test for
marks, frames and trace rows in every slot, and the sweep grid and its
membership agreement by one scalar membership test per point.
"""

import math

import numpy as np

from switchq import channels as ch
from switchq import experiments as exp
from switchq import mdp
from switchq import policies as pol
from switchq import sim
from switchq.mdp import N_STATES, STATES, STAY, SWITCH, state_index
from switchq.region import EPS_CRITICAL, _cross, _dist, corner_points


def loop_kernel(epsilon):
    """P(j | s, a) as an (8, 2, 8) array, one entry per state, action and channel pair."""
    q = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])  # q[c, c'] with rows ON, OFF
    kernel = np.zeros((N_STATES, 2, N_STATES))
    for i, (m, c1, c2) in enumerate(STATES):
        for a in (SWITCH, STAY):
            m_next = m if a == STAY else 3 - m
            for c1n in (1, 0):
                for c2n in (1, 0):
                    j = state_index(m_next, c1n, c2n)
                    kernel[i, a, j] = q[1 - c1, 1 - c1n] * q[1 - c2, 1 - c2n]
    return kernel


def _communicating_classes(P):
    support = P > 0.0
    reach = support | np.eye(N_STATES, dtype=bool)
    for _ in range(3):  # 2^3 >= 8 path-doubling steps
        reach = reach | (reach @ reach)
    comm = reach & reach.T
    classes, seen = [], set()
    for s in range(N_STATES):
        if s in seen:
            continue
        cls = [j for j in range(N_STATES) if comm[s, j]]
        seen.update(cls)
        classes.append(cls)
    return classes


def closure_recurrent_class(P):
    """Closed communicating class of the chain P holding the lowest state, from P's support alone."""
    closed = []
    for cls in _communicating_classes(P):
        outside = [j for j in range(N_STATES) if j not in cls]
        if not outside or not P[np.ix_(cls, outside)].any():
            closed.append(cls)
    return min(closed, key=min)


def fbdc_thresholds(e):
    """Ascending queue ratios q2/q1 at which adjacent frontier corners tie (the paper's formulas).

    Works on floats and on fractions.Fraction alike.
    """
    if e < EPS_CRITICAL:
        return [e / (1 - e) ** 2, (1 - e) / (1 + e - e * e), 1, (1 + e - e * e) / (1 - e), (1 - e) ** 2 / e]
    g = (1 - e) * (3 - 2 * e)
    return [1 / g, 1, g]


def first_near_max_map(epsilon, q1, q2):
    """The FBDC corner as the first in corner_points order whose value q1*x + q2*y is within 2**-48 of the largest.

    The relative 2**-48 sends a tie to the lower queue ratio however the
    values round.
    """
    named = corner_points(epsilon)
    values = [q1 * x + q2 * y for _, (x, y) in named]
    return next(cid for (cid, _), v in zip(named, values) if v >= max(values) * (1.0 - 2.0**-48))


def corner_names(epsilon, positions):
    """The corner_points names at the positions a corner map returns: a str for a scalar, a str array for an array.

    An epsilon array names its positions by its largest value, since its
    values lie on one side of EPS_CRITICAL.
    """
    names = np.array([cid for cid, _ in corner_points(float(np.max(epsilon)))])
    return names[positions] if np.ndim(positions) else str(names[positions])


def threshold_map(thresholds, corners_low_to_high, q1, q2):
    """Corner of the ratio interval holding q2/q1; a ratio on a threshold takes the lower interval."""
    if q1 == 0:
        return corners_low_to_high[-1]
    ratio = q2 / q1
    return next((c for t, c in zip(thresholds, corners_low_to_high) if ratio <= t), corners_low_to_high[-1])


def _point_segment_distance(p, a, b):
    ax, ay = b[0] - a[0], b[1] - a[1]
    denom = ax * ax + ay * ay
    if denom == 0.0:
        return _dist(p, a)
    t = ((p[0] - a[0]) * ax + (p[1] - a[1]) * ay) / denom
    t = min(1.0, max(0.0, t))
    return _dist(p, (a[0] + t * ax, a[1] + t * ay))


def _point_polygon_distance(p, poly):
    if len(poly) >= 3:
        inside = all(
            _cross(poly[i], poly[(i + 1) % len(poly)], p) >= -1e-12 for i in range(len(poly))
        )
        if inside:
            return 0.0
    return min(
        _point_segment_distance(p, poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))
    )


def polygon(region):
    """Closed-region polygon including the origin, counterclockwise."""
    pts = [(0.0, 0.0)] + list(region.corners)
    return [p for i, p in enumerate(pts) if i == 0 or _dist(p, pts[i - 1]) > 1e-15]


def hausdorff_distance(a, b):
    """Hausdorff distance between two convex regions (polygons through the origin)."""
    pa, pb = polygon(a), polygon(b)
    d_ab = max(_point_polygon_distance(p, pb) for p in pa)
    d_ba = max(_point_polygon_distance(p, pa) for p in pb)
    return max(d_ab, d_ba)


def myopic_policy_table(model, k, q1, q2):
    """Myopic decisions at all 8 states for fixed weights (q1, q2)."""
    credit = pol.myopic_table(model, k)
    return tuple(pol.myopic_action(credit, s, q1, q2) for s in range(N_STATES))


def channel_prediction(epsilon, c, tau):
    """E[C(t+tau) | C(t) = c] of the symmetric ON/OFF chain, read from the tau-th power of its matrix."""
    P = np.array([[1 - epsilon, epsilon], [epsilon, 1 - epsilon]])  # rows and columns ON, OFF
    return float(np.linalg.matrix_power(P, tau)[1 - c, 0])


def myopic_sigma(model, k):
    """The k-slot credit (sigma[0], sigma[1]) of a channel now OFF / ON, as myopic_table holds it.

    At state (1, 1, c2) the table's v entry is sigma[c2] itself, with no
    arithmetic on it, so the credit comes back bit for bit.
    """
    v = pol.myopic_table(model, k)[1]
    return v[state_index(1, 1, 0)], v[state_index(1, 1, 1)]


def myopic_reference(sigma, m, c1, c2, w1, w2):
    """The myopic rule as two branches on the server position, from the credit sigma of myopic_sigma.

    The current queue weighs its live channel plus the lookahead credit,
    the other queue the credit only.  An array ``m`` maps elementwise (the
    other arguments broadcast against it) to an array of actions.
    """
    if isinstance(m, np.ndarray):
        credit, at1 = np.asarray(sigma), m == 1
        w_here, w_there = np.where(at1, w1, w2), np.where(at1, w2, w1)
        c_here, c_there = np.where(at1, c1, c2), np.where(at1, c2, c1)
        return np.where(w_here * (c_here + credit[c_here]) >= w_there * credit[c_there], STAY, SWITCH)
    if m == 1:
        w_here, w_there = w1 * (c1 + sigma[c1]), w2 * sigma[c2]
    else:
        w_here, w_there = w2 * (c2 + sigma[c2]), w1 * sigma[c1]
    return STAY if w_here >= w_there else SWITCH


def per_policy_stationary(kernel, policy):
    """The stationary law of one table by its own solve of (P^T - I) with the normalisation row."""
    P = kernel[range(N_STATES), policy]
    rec = closure_recurrent_class(P)
    n = len(rec)
    A = P[np.ix_(rec, rec)].T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pr = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        raise mdp.ChainSolveError(f"stationary solve failed: {err}") from None
    pi = np.zeros(N_STATES)
    pi[rec] = pr
    residual = np.max(np.abs(pi @ P - pi))
    if residual > 1e-12 or pi.min() < -1e-13:
        raise mdp.ChainSolveError(f"stationary solve failed, residual {residual:.3e}, min pi {pi.min():.3e}")
    return np.maximum(pi, 0.0)


def per_policy_rates(pi, policy):
    """(r1, r2) as a sum over the paid reward states of one law."""
    r1 = sum(pi[s] for s in mdp.REWARD1_STATES if policy[s] == STAY)
    r2 = sum(pi[s] for s in mdp.REWARD2_STATES if policy[s] == STAY)
    return float(r1), float(r2)


def per_policy_enumeration(epsilon):
    """The 256 laws and rate pairs at epsilon, one chain solve per policy."""
    kernel = mdp.build_kernel(epsilon)
    laws = [per_policy_stationary(kernel, p) for p in mdp.all_policies()]
    return np.array(laws), [per_policy_rates(pi, p) for pi, p in zip(laws, mdp.all_policies())]


def inverse_asymptotic_std(kernel, policy, horizon):
    """Standard errors of the horizon-slot rates from Z = (I - P + 1 pi)^{-1} by an explicit inverse.

    The reward of each queue is built state by state on the recurrent class,
    and sigma^2 = pi.f~^2 + 2 pi.(f~ * (Z - I) f~) with f~ = f - pi.f.
    """
    P = kernel[range(N_STATES), policy]
    rec = closure_recurrent_class(P)
    Pr = P[np.ix_(rec, rec)]
    pi = per_policy_stationary(kernel, policy)[rec]
    n = len(rec)
    Z = np.linalg.inv(np.eye(n) - Pr + np.outer(np.ones(n), pi))
    out = []
    for reward_states in (mdp.REWARD1_STATES, mdp.REWARD2_STATES):
        f = np.array([1.0 if (s in reward_states and policy[s] == STAY) else 0.0 for s in rec])
        ft = f - pi @ f
        var = float(pi @ (ft * ft) + 2.0 * pi @ (ft * ((Z - np.eye(n)) @ ft)))
        out.append(np.sqrt(max(var, 0.0) / horizon))
    return out[0], out[1]


def per_table_asymptotic_std(kernel, policy, horizon):
    """Standard errors of the horizon-slot rates by one solve of Z f~ for both rewards, on one table's own law.

    With f each state's departures on the recurrent class and f~ = f - pi.f,
    sigma^2 = pi.f~^2 + 2 pi.(f~ * (Z - I) f~) and Z f~ solves
    (I - P + 1 pi) z = f~.  The class, a whole server block or both, is read
    as a slice: the dot products over a copy of it can round differently.
    """
    P = kernel[range(N_STATES), policy]
    cls = closure_recurrent_class(P)
    rec = slice(cls[0], cls[-1] + 1)
    assert list(range(N_STATES)[rec]) == cls
    Pr = P[rec, rec]
    pi = per_policy_stationary(kernel, policy)[rec]
    f = np.array(mdp.policy_rates(np.eye(N_STATES), policy))[:, rec]  # [reward, state]
    ft = f - (f @ pi)[:, None]
    zf = np.linalg.solve(np.eye(len(pi)) - Pr + pi, ft.T).T
    var = (ft * ft) @ pi + 2.0 * (ft * (zf - ft)) @ pi
    return tuple(np.sqrt(np.maximum(var, 0.0) / horizon).tolist())


def frequency_lp(epsilon, w):
    """The paper's LP over state-action frequencies x[s, a] >= 0: max w.(r1, r2) subject to sum x = 1
    and the 8 balance rows sum_a x[j, a] = sum_{s, a} x[s, a] P(j | s, a).

    A stay departs from the server's queue when its channel is ON.  HiGHS's
    dual simplex returns a basic optimum; the value and x as an (8, 2) array.
    """
    from scipy.optimize import linprog

    kernel = loop_kernel(epsilon)
    reward = np.zeros((N_STATES, 2, 2))  # [s, a, queue]
    for i, (m, c1, c2) in enumerate(STATES):
        reward[i, STAY, m - 1] = (c1, c2)[m - 1]
    balance = np.eye(N_STATES)[:, :, None] - kernel.transpose(2, 0, 1)  # [j, s, a]
    a_eq = np.vstack([balance.reshape(N_STATES, -1), np.ones((1, 2 * N_STATES))])
    b_eq = np.append(np.zeros(N_STATES), 1.0)
    res = linprog(-(reward @ np.asarray(w, dtype=float)).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds")
    assert res.status == 0, res.message
    return -res.fun, res.x.reshape(N_STATES, 2)


def per_epsilon_verify_psi(epsilon_grid_step, ratio_grid_points):
    """verify_psi with one array pass of psi_value per epsilon, the band minimum kept on strict <."""
    results = []
    for case, name, (eps_lo, eps_hi), ratio_iv, bound in exp.PSI_REGIONS:
        k_lo = math.floor(eps_lo / epsilon_grid_step) + 1
        k_hi = math.ceil(eps_hi / epsilon_grid_step) - 1
        best = (math.inf, math.nan, math.nan)
        for k in range(k_lo, k_hi + 1):
            e = k * epsilon_grid_step
            if not (eps_lo < e < eps_hi):
                continue
            rs = np.geomspace(*ratio_iv(e), ratio_grid_points + 2)[1:-1]
            vals = exp.psi_value(e, rs)
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (vals[i], e, float(rs[i]))
        if best[0] == math.inf:
            raise ValueError(f"--eps-step {epsilon_grid_step} leaves band {case}/{name} without a sample")
        results.append((case, name, bound, *best))
    return results + [("global", "", exp.PSI_GLOBAL_BOUND, min(row[3] for row in results), math.nan, math.nan)]


def point_contains(region, point):
    """region.contains of one point, stopping at the first constraint it breaks."""
    if point[0] < 0 or point[1] < 0:
        return False
    return all(h.slack(point) >= -1e-12 * h.b for h in region.halfspaces)


def point_loop_grid_points(spec):
    """experiments.grid_points by one contains call per lattice point, column by column."""
    region = spec.region()
    step = spec.step
    points = []
    max_x = max(p[0] for p in region.corners)
    i = 0
    while i * step <= max_x + 1e-12:
        x = round(i * step, 12)
        has_interior = False
        j = 0
        while j * step <= 1.0 + 1e-12:
            y = round(j * step, 12)
            if point_contains(region, (x, y)):
                if (x, y) != (0.0, 0.0):
                    points.append((x, y))
                has_interior = True
            j += 1
        if has_interior:
            boundary = min((h.b - h.a1 * x) / h.a2 for h in region.halfspaces if h.a2 > 0)
            probe = round(boundary + spec.boundary_margin, 12)
            if probe <= 1.0:
                points.append((x, probe))
        i += 1
    return sorted(set(points))


def point_loop_membership_agreement(spec, rows):
    """experiments.sweep_membership_agreement by up to two contains calls per row."""
    region = spec.region()
    agree = total = 0
    for row in rows:
        lam = (row[1], row[2])
        inside = point_contains(region, lam)
        if inside:
            clear = point_contains(region, (lam[0] + spec.step, lam[1] + spec.step))
        else:
            clear = not point_contains(region, (max(lam[0] - spec.step, 0.0), max(lam[1] - spec.step, 0.0)))
        if not clear:
            continue
        total += 1
        if row[9] == ("stable" if inside else "unstable"):
            agree += 1
    return agree / total if total else None


def slot_loop_run(config):
    """sim.run by the plain slot loop: every slot tests for a mark, a frame start and a trace row.

    The polling rules are written out here, and fbdc's frame indices are
    read as tables through frame_tables, so the loop shares no step table
    and no polling code with the engines it checks.  The queue-free
    saturated runs are not covered; sim.run gives them to the saturated
    engine.
    """
    if config.saturated:
        raise ValueError("the slot loop has no saturated mode")
    H, warmup = config.horizon, config.warmup
    rng = np.random.default_rng(config.seed)
    c1s, c2s = ch.generate_paths(config.channel, H, rng)
    cfg_pol = config.policy
    kind, epsilon, T, table = cfg_pol.kind, config.channel.epsilon, cfg_pol.T, cfg_pol.table
    arrived = next(ch.bit_chunks([rng], [[config.lambda1], [config.lambda2]], H, H))[:, 0]
    arrivals_pre, arrivals = arrived[:, :warmup].sum(axis=1).tolist(), arrived.sum(axis=1).tolist()
    a1s, a2s = arrived.view(np.int8).tolist()

    framed, myopic, gated = kind in ("fbdc", "myopic"), kind == "myopic", kind == "gated"
    if myopic:
        credit = pol.myopic_table(config.channel, cfg_pol.k)
    tables = pol.frame_tables(epsilon) if kind == "fbdc" else None  # at fbdc_frame_start's indices

    m = 1
    q1 = q2 = qsum = 0  # qsum: occupancy summed over every slot so far
    switch_count = 0
    gate = 0  # gated: packets found at the current queue on arrival and not yet served
    just_arrived = True
    q1_frame = q2_frame = 0
    marks = iter(sim._marks(H, warmup))
    mark, noted = next(marks), []
    trace_rows = []
    trace_every = config.trace_every

    for t, c1, c2, a1, a2 in zip(range(H), c1s.tolist(), c2s.tolist(), a1s, a2s):
        if t == mark:
            noted.append((qsum, q1, q2))
            mark = next(marks, -1)
        if framed and t % T == 0:
            q1_frame, q2_frame = q1, q2
            if not myopic:
                table = tables[pol.fbdc_frame_start(epsilon, q1_frame, q2_frame)]

        # stage 2: observe and decide
        if table is not None:
            action = table[(m - 1) * 4 + (1 - c1) * 2 + (1 - c2)]
        elif myopic:
            action = pol.myopic_action(credit, (m - 1) * 4 + (1 - c1) * 2 + (1 - c2), q1_frame, q2_frame)
        elif gated:
            if just_arrived:
                gate = q1 if m == 1 else q2
                just_arrived = False
            action = STAY if gate > 0 else SWITCH
        else:  # exhaustive: stay while the queue at the server holds a packet
            action = STAY if (q1 if m == 1 else q2) > 0 else SWITCH
        qsum += q1 + q2

        # stage 3: serve or switch
        dep1 = dep2 = 0
        if action == STAY:
            if m == 1:
                dep1 = 1 if c1 and q1 else 0
            else:
                dep2 = 1 if c2 and q2 else 0
        if trace_every and t % trace_every == 0:
            trace_rows.append((t, m, c1, c2, q1, q2, action, dep1, dep2))
        if action != STAY:
            m = 3 - m
            switch_count += 1
            just_arrived = True
        gate -= dep1 + dep2

        # stage 4: arrivals
        q1 += a1 - dep1
        q2 += a2 - dep2

    noted.append((qsum, q1, q2))
    return sim._metrics(H - warmup, noted, switch_count, arrivals_pre, arrivals, trace_rows)
