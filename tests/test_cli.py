import argparse
import ast
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
    # each bad input exits 1 with one stderr line that names the offending flag
    for argv, flag in (
        (["sweep", "--policy", "mystery", "--epsilon", "0.3"], "policy"),
        (["saturated", "--epsilon", "0.25"], "--corner"),  # no corner or policy id
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--policy-id", "5"], "--policy-id"),  # both
        (["saturated", "--epsilon", "0.25", "--policy-id", "300"], "--policy-id"),
        (["sweep", "--epsilon", "0.25", "--horizon", "3", "--step", "0.2"], "horizon"),
        (["gap", "--epsilon", "0.25", "--T-list", "0"], "--T-list"),
        (["gap", "--epsilon", "0.25", "--T-list", "10,x"], "--T-list"),
        (["psi", "--eps-step", "0"], "--eps-step"),
        (["psi", "--ratio-points", "0"], "--ratio-points"),
        (["iid", "--rho", "0.5,x"], "--rho"),
        (["gap", "--epsilon", "0.25", "--horizon", "-5"], "--horizon"),
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "0"], "--horizon"),
        # the exact chain solve loses its accuracy this close to epsilon = 0
        *((["region", "--epsilon", eps, "--check", "--out", str(tmp_path / "r.csv")], "--epsilon")
          for eps in ("1e-9", "1e-12", "1e-15", "1e-17")),
        (["saturated", "--epsilon", "1e-17", "--corner", "b2", "--horizon", "100"], "--epsilon"),
        (["gap", "--epsilon", "5e-324", "--T-list", "2", "--horizon", "100"], "--epsilon"),
        # nan fails every range check, so no run goes ahead on it
        (["trace", "--epsilon", "0.25", "--lambda1", "nan", "--lambda2", "0.1"], "lambda1"),
        (["iid", "--rho", "nan,0.6", "--check"], "--rho"),
        (["iid", "--rho", "-1"], "--rho"),
        (["sweep", "--epsilon", "0.25", "--step", "nan"], "step"),
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
        (["psi", "--ratio-points", "1000000000"], "--ratio-points"),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, (argv, err)


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
