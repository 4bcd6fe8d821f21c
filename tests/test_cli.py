import argparse
import ast
import re
from pathlib import Path

import numpy as np
import pytest

from switchq import cli
from switchq.cli import main


def test_region_command_writes_sections(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", "--epsilon", "0.25", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("# region:") == 3
    assert "corner_id,r1,r2" in text and "a1,a2,b" in text


def test_region_check_passes(tmp_path):
    out = tmp_path / "region.csv"
    for eps in ("0.3", "0.4999999974"):
        assert main(["region", "--epsilon", eps, "--out", str(out), "--check"]) == 0, eps


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: below 3e-8 the chain solve accepts some epsilon "
                                       "whose rates miss the closed form")
def test_region_check_never_fails_where_the_chain_solve_is_accepted(tmp_path):
    # exit 1 is a refused solve; exit 2 is an accepted solve whose frontier is not the closed form
    out = str(tmp_path / "region.csv")
    failed = [eps for eps in np.logspace(-10, -5, 400).tolist()
              if main(["region", "--epsilon", repr(eps), "--out", out, "--check"]) == 2]
    assert failed == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: just above machine epsilon the chain solve accepts all "
                                       "256 laws again, and their frontier misses the closed form")
@pytest.mark.parametrize("eps", ["2e-16", "3e-16"])
def test_region_check_never_fails_just_above_machine_epsilon(tmp_path, eps):
    # as above: exit 1 is a refused solve, exit 2 an accepted solve whose frontier is not the closed form
    assert main(["region", "--epsilon", eps, "--out", str(tmp_path / "region.csv"), "--check"]) != 2


def test_sweep_command_deterministic_bytes(tmp_path):
    args = ["sweep", "--epsilon", "0.4", "--policy", "fbdc", "--T", "10",
            "--step", "0.1", "--horizon", "5000", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "epsilon,lambda1,lambda2,policy,T,k,q_avg,rate1,rate2,stable"


def test_saturated_command_with_check(tmp_path):
    out = tmp_path / "sat.csv"
    code = main(["saturated", "--epsilon", "0.25", "--corner", "b2",
                 "--horizon", "200000", "--seed", "1", "--out", str(out), "--check"])
    assert code == 0
    assert "corner_b2" in out.read_text()


def test_saturated_check_is_refused_only_for_its_own_table(tmp_path):
    # at 2.5e-8 policy 113's solve is refused, but b2's standard errors are read from the same kernel's table
    assert main(["saturated", "--epsilon", "2.5e-8", "--corner", "b2", "--horizon", "1000",
                 "--out", str(tmp_path / "sat.csv"), "--check"]) == 0


def test_gap_command(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["gap", "--epsilon", "0.25", "--corner", "b2", "--T-list", "10,200",
                 "--horizon", "50000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,rate_deficit"
    assert len(lines) == 3


def test_iid_command_with_check(tmp_path):
    out = tmp_path / "iid.csv"
    code = main(["iid", "--rho", "0.6,1.2", "--horizon", "40000",
                 "--seed", "2", "--out", str(out), "--check"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


def test_trace_command(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["trace", "--epsilon", "0.25", "--lambda1", "0.2", "--lambda2", "0.2",
                 "--policy", "fbdc", "--T", "10", "--horizon", "200",
                 "--trace-every", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,m,c1,c2,q1,q2,action,departed1,departed2"
    assert len(lines) == 201


def test_config_errors_exit_one(tmp_path, capsys):
    # each bad input exits 1 with one stderr line that names the offending flag, and writes no --out file
    written = []
    for i, (argv, flag) in enumerate((
        (["sweep", "--policy", "mystery", "--epsilon", "0.3"], "policy"),
        (["saturated", "--epsilon", "0.25"], "--corner"),  # no corner or policy id
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--policy-id", "5"], "--policy-id"),  # both
        (["saturated", "--epsilon", "0.25", "--policy-id", "300"], "--policy-id"),
        (["saturated", "--epsilon", "0.25", "--policy-id", "256"], "--policy-id"),
        (["sweep", "--epsilon", "0.25", "--horizon", "3", "--step", "0.2"], "horizon"),
        (["gap", "--epsilon", "0.25", "--T-list", "0"], "--T-list"),
        (["gap", "--epsilon", "0.25", "--T-list", "10,x"], "--T-list"),
        (["psi", "--eps-step", "0"], "--eps-step"),
        (["psi", "--ratio-points", "0"], "--ratio-points"),
        (["iid", "--rho", "0.5,x"], "--rho"),
        (["gap", "--epsilon", "0.25", "--horizon", "-5"], "--horizon"),
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "0"], "--horizon"),
        # the exact chain solve loses its accuracy this close to epsilon = 0
        *((["region", "--epsilon", eps, "--check"], "--epsilon")
          for eps in ("1e-9", "1e-12", "1e-15", "1e-17", "1e-100", "5e-324")),
        (["saturated", "--epsilon", "1e-17", "--corner", "b2", "--horizon", "100"], "--epsilon"),
        (["gap", "--epsilon", "5e-324", "--T-list", "2", "--horizon", "100"], "--epsilon"),
        # nan fails every range check, so no run goes ahead on it
        (["trace", "--epsilon", "0.25", "--lambda1", "nan", "--lambda2", "0.1"], "lambda1"),
        (["iid", "--rho", "nan,0.6", "--check"], "--rho"),
        (["iid", "--rho", "-1"], "--rho"),
        (["sweep", "--epsilon", "0.25", "--step", "nan"], "step"),
        (["sweep", "--epsilon", "0.25", "--step", "inf"], "--step"),  # 0 * inf is nan: a grid of no point
        (["sweep", "--epsilon", "0.25", "--boundary-margin", "nan"], "boundary_margin"),
        (["sweep", "--epsilon", "0.25", "--boundary-margin", "inf"], "boundary_margin"),
        (["iid", "--horizon", "100"], "--horizon"),  # the suite's probes need 4000 slots
        # every --horizon is capped at cli.MAX_HORIZON, so no run asks for arrays too large to allocate,
        # and gap runs at least one whole frame of each length, so no frame may exceed the horizon
        (["sweep", "--epsilon", "0.25", "--step", "0.05", "--horizon", "2147483648"], "--horizon"),
        (["iid", "--horizon", "2147483648"], "--horizon"),
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "10000000000"], "--horizon"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--horizon", "10000000000"],
         "--horizon"),
        (["gap", "--epsilon", "0.25", "--T-list", "10", "--horizon", "10000000000"], "--horizon"),
        (["gap", "--epsilon", "0.25", "--T-list", "1000000000", "--horizon", "1"], "--T-list"),
        (["gap", "--epsilon", "0.25", "--T-list", "10,101", "--horizon", "100"], "--T-list"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--trace-every", "-3"],
         "--trace-every"),
        # a trace keeps about 300 B a traced slot, so at most cli.MAX_TRACE_ROWS slots are traced
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--horizon", "1000001"],
         "--trace-every"),
        # numpy's generator refuses a negative seed without naming the flag; a load above 2 / p a rate above 1
        (["gap", "--epsilon", "0.25", "--T-list", "10", "--horizon", "100", "--seed", "-1"], "--seed"),
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--seed", "-1"], "--seed"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--seed", "-1"], "--seed"),
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "100", "--seed", "-1"], "--seed"),
        (["iid", "--horizon", "4000", "--seed", "-2"], "--seed"),
        (["iid", "--rho", "5"], "--rho"),
        (["iid", "--p1", "5"], "p1"),
        # a p whose 1/p overflows would give the iid facet a nan
        (["region", "--p2", "1e-320"], "p2"),
        (["sweep", "--p1", "0.5", "--p2", "1e-320", "--policy", "gated"], "p2"),
        # a command takes only the flags it reads; there are no config files
        (["trace", "--config", "x", "--lambda1", "0.1", "--lambda2", "0.1"], "unrecognized arguments: --config x"),
        (["psi", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["gap", "--epsilon", "0.25", "--check"], "unrecognized arguments: --check"),
        # a policy flag the chosen --policy does not read is refused, not dropped
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--per-slot"], "--per-slot"),
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--k", "2"], "--k"),
        *((["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--policy", kind, *flag], flag[0])
          for kind in ("gated", "exhaustive", "b2") for flag in (["--T", "10"], ["--k", "2"], ["--per-slot"])),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--policy", "fbdc", "--k", "2"],
         "--k"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--T", "5"], "--T"),
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--T", "0"], "--T"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--policy", "myopic", "--k", "0"],
         "--k"),
        # the credit sums k terms per sign, so a lookahead above policies.MAX_K is refused before it starts
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--policy", "myopic", "--k",
          "1000000000"], "--k"),
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--policy", "myopic", "--per-slot",
          "--T", "5"], "--T does not apply to --policy myopic --per-slot"),
        # the channel flag a policy needs, and the warmup, are named
        (["sweep", "--p1", "0.5", "--p2", "0.5", "--policy", "fbdc"], "--epsilon"),
        (["trace", "--lambda1", "0.1", "--lambda2", "0.1", "--policy", "myopic"], "--epsilon"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--warmup", "-1"], "--warmup"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--warmup", "1000"], "--warmup"),
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--warmup", "-3"], "--warmup"),
        # a channel flag the command would ignore is refused, and the channel flags a sweep needs are named
        (["trace", "--epsilon", "0.25", "--p1", "0.9", "--lambda1", "0.1", "--lambda2", "0.1", "--horizon", "20"],
         "--p1 does not apply with --epsilon"),
        (["trace", "--epsilon", "0.25", "--p2", "0.9", "--lambda1", "0.1", "--lambda2", "0.1"], "--p2"),
        (["sweep", "--epsilon", "0.25", "--p1", "0.5", "--step", "0.2"], "give either --epsilon or both --p1 and --p2"),
        (["sweep", "--p1", "0.5", "--policy", "gated", "--step", "0.2"], "give either --epsilon or both --p1 and --p2"),
        # grids above experiments.MAX_GRID_POINTS are refused before anything is built
        (["sweep", "--epsilon", "0.25", "--step", "1e-9", "--horizon", "10"], "--step"),
        (["psi", "--eps-step", "1e-300"], "--eps-step"),
        (["psi", "--eps-step", "0.5"], "--eps-step 0.5 leaves band"),  # a step wider than a band
        (["psi", "--ratio-points", "1000000000"], "--ratio-points"),
    )):
        out = tmp_path / f"{i}.csv"
        assert main([*argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, (argv, err)
        if out.exists():
            written.append(argv)
    assert written == []


def test_sweep_check_fails_when_it_judges_no_cell(tmp_path, capsys):
    # at step 0.3 every cell of the epsilon 0.25 grid lies within a step of the boundary, so no verdict is judged
    # and nothing has passed; at step 0.2 two cells are clear and both agree
    args = ["sweep", "--epsilon", "0.25", "--horizon", "400", "--check", "--out", str(tmp_path / "s.csv")]
    assert main(args + ["--step", "0.3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no clear cell" in err
    assert main(args + ["--step", "0.2"]) == 0
    assert capsys.readouterr().out == "membership agreement on clear points: 1.000\n"


def test_thin_iid_sweeps_are_judged_not_refused(tmp_path, capsys):
    # p1 and p2 1e12 or more apart, in either order, sweep like any iid channel: the check exits 0 or 2 (here no
    # cell is clear of the boundary at step 0.5), never 1, and no step warns (warnings are errors in tier-1)
    for p1, p2 in (("1e-13", "0.5"), ("0.5", "1e-13"), ("1e-300", "1"), ("1", "1e-300"), ("1e-12", "0.5")):
        code = main(["sweep", "--p1", p1, "--p2", p2, "--policy", "gated", "--step", "0.5", "--horizon", "1000",
                     "--check", "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code in (0, 2) and err.count("\n") == (code == 2), (p1, p2, err)


def test_sweep_check_below_the_agreement_bar_says_so_on_stderr(tmp_path, capsys):
    # the fixed table b0 serves queue 2 alone, so queue 1 grows in most clear cells of the region
    assert main(["sweep", "--epsilon", "0.5", "--policy", "b0", "--step", "0.05", "--horizon", "40", "--check",
                 "--out", str(tmp_path / "s.csv")]) == 2
    captured = capsys.readouterr()
    agreement = re.fullmatch(r"membership agreement on clear points: (\d\.\d{3})\n", captured.out).group(1)
    assert float(agreement) < 0.95
    assert captured.err == f"sweep check FAILED: membership agreement {agreement} is below 0.95\n"


# One small valid run of each command, every float flag of the seven commands in at least one of them
SMALL_RUNS = (
    ["sweep", "--epsilon", "0.25", "--step", "0.5", "--boundary-margin", "0.02", "--horizon", "40"],
    ["sweep", "--p1", "0.5", "--p2", "0.5", "--policy", "gated", "--step", "0.5", "--horizon", "40"],
    ["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--horizon", "20"],
    ["trace", "--p1", "0.5", "--p2", "0.5", "--lambda1", "0.1", "--lambda2", "0.1", "--horizon", "20"],
    ["region", "--epsilon", "0.25", "--p1", "0.5", "--p2", "0.5"],
    ["iid", "--p1", "0.5", "--p2", "0.5", "--rho", "0.5", "--horizon", "4000"],
    ["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "100"],
    ["gap", "--epsilon", "0.25", "--T-list", "2", "--horizon", "10"],
    ["psi", "--eps-step", "0.01", "--ratio-points", "2"],
)
EDGE_FLOATS = ("0", "-0.0", "5e-324", "1e-300", "1e-13", "1e-12", "0.5", "1", repr(1 + 2**-52), "inf", "nan", "-1")


def test_each_float_flag_at_each_edge_value_exits_cleanly(capsys):
    # exit 0, 1 or 2 whatever the value; an exit 1 is one "switchq: error:" line that names the flag
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    float_flags = {(name, a.option_strings[0]) for name, p in commands.items() for a in p._actions if a.type is float}
    varied = set()
    for run in SMALL_RUNS:
        for i, flag in enumerate(run):
            if (run[0], flag) not in float_flags:
                continue
            varied.add((run[0], flag))
            for value in EDGE_FLOATS:
                argv = [*run[:i + 1], value, *run[i + 2:]]
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv, code)
                if code == 1:
                    assert err.startswith("switchq: error: ") and err.count("\n") == 1, (argv, err)
                    assert flag.lstrip("-") in err.replace("_", "-"), (argv, err)
    assert varied == float_flags


def _flag_cases(out: str) -> dict:
    """(command, flag) -> (a small run, a second valid value of the flag, None for a switch)."""
    region = ["region", "--epsilon", "0.25"]
    sweep = ["sweep", "--epsilon", "0.25", "--step", "0.5", "--horizon", "40"]
    sweep_iid = ["sweep", "--p1", "0.5", "--p2", "0.5", "--policy", "gated", "--step", "0.5", "--horizon", "40"]
    myopic = [*sweep, "--policy", "myopic"]
    saturated = ["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "100"]
    psi = ["psi", "--eps-step", "0.01", "--ratio-points", "2"]
    gap = ["gap", "--epsilon", "0.25", "--T-list", "2", "--horizon", "10"]
    iid = ["iid", "--p1", "0.5", "--p2", "0.5", "--rho", "0.5", "--horizon", "4000"]
    trace = ["trace", "--epsilon", "0.25", "--lambda1", "0.3", "--lambda2", "0.3", "--horizon", "40"]
    trace_iid = ["trace", "--lambda1", "0.3", "--lambda2", "0.3", "--horizon", "40"]
    trace_myopic = [*trace, "--policy", "myopic"]
    return {
        ("region", "--epsilon"): (region, "0.4"),
        ("region", "--p1"): (region, "0.7"),
        ("region", "--p2"): (region, "0.7"),
        ("region", "--out"): (region, out),
        ("region", "--check"): (region, None),
        ("sweep", "--epsilon"): (sweep, "0.4"),
        ("sweep", "--p1"): (sweep_iid, "0.7"),
        ("sweep", "--p2"): (sweep_iid, "0.7"),
        ("sweep", "--policy"): (sweep, "b2"),
        ("sweep", "--T"): (sweep, "3"),
        ("sweep", "--k"): (myopic, "3"),
        ("sweep", "--per-slot"): (myopic, None),
        ("sweep", "--step"): (sweep, "0.4"),
        ("sweep", "--boundary-margin"): (sweep, "0.1"),
        ("sweep", "--horizon"): (sweep, "50"),
        ("sweep", "--warmup"): (sweep, "10"),
        ("sweep", "--seed"): (sweep, "1"),
        ("sweep", "--check"): (sweep, None),
        ("sweep", "--out"): (sweep, out),
        ("saturated", "--epsilon"): (saturated, "0.4"),
        ("saturated", "--corner"): (saturated, "b3"),
        ("saturated", "--policy-id"): (["saturated", "--epsilon", "0.25", "--policy-id", "5", "--horizon", "100"], "6"),
        ("saturated", "--horizon"): (saturated, "200"),
        ("saturated", "--seed"): (saturated, "1"),
        ("saturated", "--check"): (saturated, None),
        ("saturated", "--out"): (saturated, out),
        ("psi", "--eps-step"): (psi, "0.02"),
        ("psi", "--ratio-points"): (psi, "3"),
        ("psi", "--check"): (psi, None),
        ("psi", "--out"): (psi, out),
        ("gap", "--epsilon"): (gap, "0.4"),
        ("gap", "--corner"): (gap, "b0"),
        ("gap", "--T-list"): (gap, "3"),
        ("gap", "--horizon"): (gap, "30"),
        ("gap", "--seed"): (gap, "1"),
        ("gap", "--out"): (gap, out),
        ("iid", "--p1"): (iid, "0.7"),
        ("iid", "--p2"): (iid, "0.7"),
        ("iid", "--rho"): (iid, "0.6"),
        ("iid", "--horizon"): (iid, "5000"),
        ("iid", "--seed"): (iid, "1"),
        ("iid", "--check"): (iid, None),
        ("iid", "--out"): (iid, out),
        ("trace", "--epsilon"): (trace, "0.4"),
        ("trace", "--p1"): (trace_iid, "0.9"),
        ("trace", "--p2"): (trace_iid, "0.9"),
        ("trace", "--lambda1"): (trace, "0.6"),
        ("trace", "--lambda2"): (trace, "0.6"),
        ("trace", "--policy"): (trace, "fbdc"),
        ("trace", "--T"): ([*trace, "--policy", "fbdc"], "2"),
        ("trace", "--k"): ([*trace_myopic, "--T", "1"], "3"),
        ("trace", "--per-slot"): (trace_myopic, None),
        ("trace", "--horizon"): (trace, "50"),
        ("trace", "--trace-every"): (trace, "3"),
        ("trace", "--seed"): (trace, "1"),
        ("trace", "--out"): (trace, out),
    }


def test_no_flag_is_a_silent_no_op(tmp_path, capsys):
    # every optional flag of every command changes a small run's CSV bytes, stdout or exit code when it is set to
    # a second valid value, so a new flag needs a case here and a flag the run ignores fails
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {(name, a.option_strings[0]) for name, p in commands.items() for a in p._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)}
    out = tmp_path / "out.csv"
    cases = _flag_cases(str(out))
    assert set(cases) == flags
    same = []
    for (command, flag), (run, value) in cases.items():
        varied = [*run, flag] if value is None else [*run, flag, value]
        if flag in run:
            varied = [*run[:run.index(flag) + 1], value, *run[run.index(flag) + 2:]]
        outcomes = []
        for argv in (run, varied):
            out.unlink(missing_ok=True)
            code = main(argv)
            outcomes.append((code, capsys.readouterr().out, out.read_bytes() if out.exists() else None))
            assert code in (0, 2), (argv, code)
        if outcomes[0] == outcomes[1]:
            same.append((command, flag))
    assert same == []


def test_iid_sweep_leaves_out_probes_above_rate_one(tmp_path):
    # at p2 = 1 the column x = 0 reaches rate 1, so its probe boundary_margin above would be no rate
    out = tmp_path / "s.csv"
    assert main(["sweep", "--p1", "0.5", "--p2", "1.0", "--policy", "gated", "--step", "0.2",
                 "--horizon", "100", "--out", str(out)]) == 0
    points = {(float(r[1]), float(r[2])) for r in (line.split(",") for line in out.read_text().splitlines()[1:])}
    assert (0.0, 1.0) in points and (0.2, 0.62) in points  # the top of column 0, the probe of column 0.2
    assert max(y for _, y in points) == 1.0


def test_per_slot_myopic_is_myopic_with_frames_of_one_slot(tmp_path):
    args = ["sweep", "--epsilon", "0.4", "--policy", "myopic", "--k", "2", "--step", "0.2", "--horizon", "500"]
    per_slot, frames_of_one = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--per-slot", "--out", str(per_slot)]) == 0
    assert main(args + ["--T", "1", "--out", str(frames_of_one)]) == 0
    assert per_slot.read_bytes() == frames_of_one.read_bytes()
    rows = [line.split(",") for line in per_slot.read_text().splitlines()[1:]]
    assert {(r[3], r[4]) for r in rows} == {("myopic2_slot", "1")}  # policy and T columns


def test_flags_a_policy_reads_still_run(tmp_path):
    # the benchmark's sweeps: fbdc with its frame length, per-slot myopic; and frame-based myopic with both
    for extra in (["--policy", "fbdc", "--T", "25"], ["--policy", "myopic", "--per-slot", "--k", "2"],
                  ["--policy", "myopic", "--k", "2", "--T", "5"]):
        argv = ["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", *extra]
        assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0, extra


def test_the_parser_is_built_once_and_a_failed_call_leaves_it_as_it_was(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    args = ["sweep", "--epsilon", "0.4", "--policy", "myopic", "--per-slot", "--step", "0.2", "--horizon", "500"]
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(["sweep", "--epsilon", "0.4", "--policy", "fbdc", "--T", "7", "--k", "3", "--step", "nan"]) == 1
    assert main(["saturated", "--epsilon", "0.25", "--corner", "b2", "--policy-id", "5"]) == 1
    assert main(args + ["--out", str(outs[1])]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()
    # and a call with other values between the same two leaves the defaults alone
    assert main(["sweep", "--epsilon", "0.4", "--policy", "myopic", "--k", "2", "--T", "5", "--step", "0.2",
                 "--horizon", "500", "--warmup", "10", "--seed", "4", "--out", str(outs[2])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes() != outs[2].read_bytes()
    capsys.readouterr()


def test_region_check_without_epsilon_writes_nothing(tmp_path, capsys):
    out = tmp_path / "region.csv"
    assert main(["region", "--check", "--out", str(out)]) == 1
    assert "--epsilon" in capsys.readouterr().err
    assert not out.exists()


def _args_reads(function: ast.FunctionDef, functions: dict[str, ast.FunctionDef]) -> set[str]:
    """The args.<name> reads of a handler and of every cli function it hands args to."""
    reads = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            reads |= _args_reads(functions[node.func.id], functions)
    return reads


def test_every_flag_of_a_command_is_read_by_it():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    unread = {}
    for name, parser in commands.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        missing = dests - _args_reads(functions[parser.get_default("handler").__name__], functions)
        if missing:
            unread[name] = sorted(missing)
    assert unread == {}


def test_psi_command_small_grid(tmp_path):
    out = tmp_path / "psi.csv"
    assert main(["psi", "--eps-step", "0.01", "--ratio-points", "40",
                 "--out", str(out), "--check"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,region,bound,minimum,argmin_epsilon,argmin_ratio"
    assert len(lines) == 8
    for line in lines[1:]:
        for field in line.split(",")[2:]:
            float(field)  # every numeric field parses
