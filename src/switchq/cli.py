"""Command-line front end.

Subcommands: region, sweep, saturated, psi, gap, iid, trace.
Exit codes: 0 success, 1 bad configuration, 2 failed --check validation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import channels as ch
from . import experiments as exp
from . import mdp
from . import policies as pol
from . import sim
from .region import closed_form_region, region_from_vertices


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags exit 1 through main, not argparse's 2
        raise ValueError(message)


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer from low to high (no upper bound if None); an error names the flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            span = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value
    return integer


# The longest --horizon of any command: runs keep their slots in arrays, 3-7 B a slot from
# 1M to 4M slots (3 for sim.run); gap at three frame lengths peaks at 148 MB at the cap (2-vCPU Xeon).
MAX_HORIZON = 2 * 10**7
# The most rows a trace keeps: about 300 B each (peak RSS 66 MB at 100k rows, 157 MB at 400k), so 340 MB at the cap.
MAX_TRACE_ROWS = 10**6


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# The policy flags each --policy reads; giving another one is an error, not a silent no-op.
# Per-slot myopic is myopic with --T 1, so it takes no other --T.
_POLICY_FLAGS = {"fbdc": ("--T",), "myopic": ("--T", "--k", "--per-slot"), "myopic --per-slot": ("--k", "--per-slot")}


def _policy_from_args(args) -> pol.PolicyConfig:
    kind = args.policy
    if kind not in ("fbdc", "myopic", "gated", "exhaustive", *pol.CORNER_TABLES):
        raise ValueError(f"unknown policy {kind!r}")
    given = {"--T": args.T is not None, "--k": args.k is not None, "--per-slot": args.per_slot}
    name = f"{kind} --per-slot" if kind == "myopic" and args.per_slot else kind
    ignored = [flag for flag, on in given.items() if on and flag not in _POLICY_FLAGS.get(name, ())]
    if ignored:
        raise ValueError(f"{ignored[0]} does not apply to --policy {name}")
    if kind in _POLICY_FLAGS and args.epsilon is None:
        raise ValueError(f"--policy {kind} needs the gilbert_elliott channel model: give --epsilon")
    T = 1 if args.per_slot else 25 if args.T is None else args.T
    if kind == "fbdc":
        return pol.PolicyConfig("fbdc", T=T)
    if kind == "myopic":
        return pol.PolicyConfig("myopic", T=T, k=1 if args.k is None else args.k)
    if kind in ("gated", "exhaustive"):
        return pol.PolicyConfig(kind)
    return pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES[kind])


def _cmd_region(args) -> int:
    if args.check and args.epsilon is None:
        raise ValueError("--check needs --epsilon")
    text = exp.export_regions(args.epsilon, args.p1, args.p2)
    vertices = mdp.enumerate_vertices(args.epsilon) if args.check else ()  # before the write: a failed solve exits 1
    _write(args.out, text)
    if args.check:
        hull = region_from_vertices([v.rates for v in vertices])
        closed = closed_form_region(args.epsilon)
        ok = all(h.slack(c) > -1e-9 for c in hull.corners for h in closed.halfspaces) and all(
            any(abs(h.slack(c)) < 1e-9 for c in hull.corners) for h in closed.halfspaces
        )
        if not ok:
            print("region check FAILED: enumeration hull does not match the closed form", file=sys.stderr)
            return 2
        print(f"region check ok: hull of 256 policies matches the closed form at epsilon={args.epsilon}")
    return 0


def _cmd_sweep(args) -> int:
    policy = _policy_from_args(args)
    if (args.epsilon is None) == (args.p1 is None) or (args.p1 is None) != (args.p2 is None):
        raise ValueError("give either --epsilon or both --p1 and --p2")
    spec = exp.GridSpec(
        policies=(policy,),
        channel=ch.ChannelModel(args.p1, args.p2, args.epsilon),
        step=args.step,
        boundary_margin=args.boundary_margin,
        horizon=args.horizon,
        warmup=args.warmup,
        seed=args.seed,
    )
    rows = exp.sweep(spec)
    _write(args.out, exp.rows_to_csv(exp.SWEEP_HEADER, rows))
    if args.check:
        agreement = exp.sweep_membership_agreement(spec, rows)
        if agreement is None:
            print("sweep check FAILED: no clear cell was judged, all within --step of the boundary", file=sys.stderr)
            return 2
        print(f"membership agreement on clear points: {agreement:.3f}")
        if agreement < 0.95:
            print(f"sweep check FAILED: membership agreement {agreement:.3f} is below 0.95", file=sys.stderr)
            return 2
    return 0


def _cmd_saturated(args) -> int:
    if args.corner:
        table, label = pol.CORNER_TABLES[args.corner], f"corner_{args.corner}"
    else:
        table, label = mdp.all_policies()[args.policy_id], f"policy_{args.policy_id}"
    emp = sim.saturated_rate(table, args.epsilon, args.horizon, args.seed, warmup=2000)
    kernel = mdp.build_kernel(args.epsilon)
    exact = mdp.policy_rates(mdp.stationary_distribution(kernel, table), table)
    rows = [(label, args.epsilon, emp[0], emp[1], exact[0], exact[1])]
    _write(args.out, exp.rows_to_csv(("policy", "epsilon", "rate1", "rate2", "exact1", "exact2"), rows))
    if args.check:
        se = mdp.rate_asymptotic_std(kernel, table, args.horizon)
        tol = [max(3 * s, 2e-3) for s in se]
        if abs(emp[0] - exact[0]) > tol[0] or abs(emp[1] - exact[1]) > tol[1]:
            print("saturated check FAILED: empirical rates off the analytic values", file=sys.stderr)
            return 2
        print("saturated check ok")
    return 0


def _cmd_psi(args) -> int:
    rows = exp.verify_psi(args.eps_step, args.ratio_points)
    header = ("case", "region", "bound", "minimum", "argmin_epsilon", "argmin_ratio")
    _write(args.out, exp.rows_to_csv(header, rows))
    if args.check:
        if any(minimum < bound - 1e-6 for _, _, bound, minimum, _, _ in rows):
            print("psi check FAILED", file=sys.stderr)
            return 2
        print(f"psi check ok: global minimum {rows[-1][3]:.6f} >= {exp.PSI_GLOBAL_BOUND}")
    return 0


def _cmd_gap(args) -> int:
    t_list = tuple(int(x) if x.strip().isdecimal() else 0 for x in args.T_list.split(","))
    if not all(1 <= t <= args.horizon for t in t_list):  # gap runs at least one whole frame of each length
        raise ValueError(f"--T-list needs comma-separated frame lengths from 1 to --horizon {args.horizon}, "
                         f"got {args.T_list!r}")
    rows = exp.throughput_gap(args.epsilon, t_list, args.corner, slots_per_t=args.horizon, seed=args.seed)
    _write(args.out, exp.rows_to_csv(("T", "rate_deficit"), rows))
    return 0


def _cmd_iid(args) -> int:
    try:
        rho_points = tuple(float(x) for x in args.rho.split(","))
    except ValueError:
        raise ValueError(f"--rho needs comma-separated loads, got {args.rho!r}") from None
    if not all(rho >= 0 for rho in rho_points):  # false for nan too
        raise ValueError(f"--rho needs nonnegative loads, got {args.rho!r}")
    channel = ch.iid(args.p1, args.p2)  # names a bad --p1 or --p2 before the loads are checked against them
    if not all(rho * p / 2 <= 1 for rho in rho_points for p in (args.p1, args.p2)):  # iid_suite's rates
        raise ValueError(f"--rho gives an arrival rate rho * p / 2 above 1 at p1={args.p1}, p2={args.p2}, "
                         f"got {args.rho!r}")
    rows = exp.iid_suite(channel, rho_points, horizon=args.horizon, seed=args.seed)
    _write(args.out, exp.rows_to_csv(exp.IID_HEADER, rows))
    if args.check:
        for rho, verdict in ((row[2], row[6]) for row in rows if row[2] != 1.0):
            if verdict != ("stable" if rho < 1.0 else "unstable"):
                print(f"iid check FAILED: rho={rho} came back {verdict}", file=sys.stderr)
                return 2
        print("iid check ok")
    return 0


def _cmd_trace(args) -> int:
    if -(-args.horizon // args.trace_every) > MAX_TRACE_ROWS:  # one row per trace_every slots, the first at 0
        raise ValueError(f"--trace-every {args.trace_every} traces over {MAX_TRACE_ROWS} slots of --horizon: raise it")
    if args.epsilon is not None and (args.p1, args.p2) != (None, None):
        raise ValueError(f"{'--p1' if args.p1 is not None else '--p2'} does not apply with --epsilon")
    config = sim.SimConfig(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        channel=ch.gilbert_elliott(args.epsilon) if args.epsilon is not None
        else ch.iid(0.5 if args.p1 is None else args.p1, 0.5 if args.p2 is None else args.p2),
        policy=_policy_from_args(args),
        horizon=args.horizon,
        seed=args.seed,
        trace_every=args.trace_every,
    )
    metrics = sim.run(config)
    header = ("slot", "m", "c1", "c2", "q1", "q2", "action", "departed1", "departed2")
    _write(args.out, exp.rows_to_csv(header, metrics.trace))
    return 0


def _add_policy(p: argparse.ArgumentParser, default: str) -> None:
    """The policy flags of sweep and trace, read by _policy_from_args."""
    p.add_argument("--policy", default=default)
    p.add_argument("--T", type=_int_in(1), help="frame length of fbdc and frame myopic (default 25)")
    p.add_argument("--k", type=_int_in(1, pol.MAX_K), help="myopic lookahead (default 1)")
    p.add_argument("--per-slot", action="store_true", help="myopic uses current queues, not frame queues: --T 1")


def _add_common(p: argparse.ArgumentParser, *, seed: bool, check: bool) -> None:
    p.add_argument("--out", help="output CSV path (stdout if omitted)")
    if seed:
        p.add_argument("--seed", type=_int_in(0), default=0)
    if check:
        p.add_argument("--check", action="store_true", help="validate results; failures exit 2")


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="switchq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="export rate-region corners and halfspaces")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--p2", type=float, default=0.5)
    p.set_defaults(handler=_cmd_region)
    _add_common(p, seed=False, check=True)

    p = sub.add_parser("sweep", help="arrival-grid queue-occupancy sweep")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    _add_policy(p, "fbdc")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--boundary-margin", type=float, default=0.02)
    p.add_argument("--horizon", type=_int_in(4, MAX_HORIZON), default=100_000)
    p.add_argument("--warmup", type=_int_in(0), default=0)
    p.set_defaults(handler=_cmd_sweep)
    _add_common(p, seed=True, check=True)

    p = sub.add_parser("saturated", help="saturated-system empirical vs analytic rates")
    p.add_argument("--epsilon", type=float, required=True)
    table = p.add_mutually_exclusive_group(required=True)
    table.add_argument("--corner", choices=sorted(pol.CORNER_TABLES))
    table.add_argument("--policy-id", type=_int_in(0, 255))
    p.add_argument("--horizon", type=_int_in(1, MAX_HORIZON), default=1_000_000)
    p.set_defaults(handler=_cmd_saturated)
    _add_common(p, seed=True, check=True)

    p = sub.add_parser("psi", help="minimize the myopic/optimal weighted-rate ratio")
    p.add_argument("--eps-step", type=float, default=1e-3)
    p.add_argument("--ratio-points", type=_int_in(1, exp.MAX_GRID_POINTS), default=400)
    p.set_defaults(handler=_cmd_psi)
    _add_common(p, seed=False, check=True)

    p = sub.add_parser("gap", help="corner-rate deficit against frame length")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--corner", default="b2", choices=sorted(pol.CORNER_TABLES))
    p.add_argument("--T-list", default="10,100,1000")
    p.add_argument("--horizon", type=_int_in(1, MAX_HORIZON), default=200_000, help="slot budget per frame length")
    p.set_defaults(handler=_cmd_gap)
    _add_common(p, seed=True, check=False)

    p = sub.add_parser("iid", help="gated/exhaustive stability across loads")
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--p2", type=float, default=0.5)
    p.add_argument("--rho", default="0.6,0.8,0.9,1.1,1.2")
    p.add_argument("--horizon", type=_int_in(4000, MAX_HORIZON), default=100_000,
                   help="slots per load; probes need 4000")
    p.set_defaults(handler=_cmd_iid)
    _add_common(p, seed=True, check=True)

    p = sub.add_parser("trace", help="per-slot CSV trace of one run")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--p1", type=float, help="iid ON probability, without --epsilon (default 0.5)")
    p.add_argument("--p2", type=float, help="iid ON probability, without --epsilon (default 0.5)")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    _add_policy(p, "exhaustive")
    p.add_argument("--horizon", type=_int_in(1, MAX_HORIZON), default=1000)
    p.add_argument("--trace-every", type=_int_in(1), default=1)
    p.set_defaults(handler=_cmd_trace)
    _add_common(p, seed=True, check=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as err:
        print(f"switchq: error: {err}", file=sys.stderr)
        return 1
    except mdp.ChainSolveError as err:  # every chain solve here is at --epsilon
        print(f"switchq: error: --epsilon too close to 0 for the exact chain solve ({err})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
