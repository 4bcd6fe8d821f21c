from pathlib import Path

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


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.25\nlambda1 = 0.2\nlambda2 = 0.2\npolicy = exhaustive\nhorizon = 300\n")
    out = tmp_path / "t.csv"
    assert main(["trace", "--config", str(cfg), "--trace-every", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 301
    # an explicit flag beats the config value
    assert main(["trace", "--config", str(cfg), "--horizon", "100",
                 "--trace-every", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 101


def test_config_errors_exit_one(tmp_path, capsys):
    # each bad input exits 1 with one stderr line that names the offending flag
    for argv, flag in (
        (["sweep", "--policy", "mystery", "--epsilon", "0.3"], "policy"),
        (["saturated", "--epsilon", "0.25"], "--corner"),  # no corner or policy id
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
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--trace-every", "-3"],
         "--trace-every"),
        # numpy's generator refuses a negative seed without naming the flag; a load above 2 / p a rate above 1
        (["gap", "--epsilon", "0.25", "--T-list", "10", "--horizon", "100", "--seed", "-1"], "--seed"),
        (["sweep", "--epsilon", "0.25", "--step", "0.2", "--horizon", "100", "--seed", "-1"], "--seed"),
        (["trace", "--epsilon", "0.25", "--lambda1", "0.1", "--lambda2", "0.1", "--seed", "-1"], "--seed"),
        (["saturated", "--epsilon", "0.25", "--corner", "b2", "--horizon", "100", "--seed", "-1"], "--seed"),
        (["iid", "--horizon", "4000", "--seed", "-2"], "--seed"),
        (["iid", "--rho", "5"], "--rho"),
        (["iid", "--p1", "5"], "p1"),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, (argv, err)
    missing = tmp_path / "nope.cfg"
    assert main(["trace", "--config", str(missing), "--lambda1", "0", "--lambda2", "0"]) == 1


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
