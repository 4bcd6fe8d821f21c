"""Tests of the benchmark itself (about a minute):

    python3 -m pytest benchmarks/selftest.py -q

Not named test_*.py, so the repository's tier-1 run does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from switchq import cli, experiments, policies  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rep(workload, seed, tmp_path, trace=None):
    workloads.clear_caches()
    inputs = workloads.build_inputs(workload, seed, 0)
    if trace is None:
        return workloads.run_rep(workload, inputs, tmp_path)
    trace.install()
    try:
        return workloads.run_rep(workload, inputs, tmp_path)
    finally:
        trace.remove()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_outputs_and_checks_hold_on_two_seeds(workload, tmp_path):
    first = _rep(workload, 11, tmp_path)
    again = _rep(workload, 11, tmp_path)
    other = _rep(workload, 12, tmp_path)
    assert first.digests == again.digests
    assert first.failed == other.failed == 0, first.failures + other.failures
    assert first.attempted == other.attempted > 0
    if workload != "exact":  # exact has no random inputs
        assert first.digests != other.digests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_rep_reaches_every_mapped_layer(workload, tmp_path):
    trace = tracer.Tracer()
    res = _rep(workload, 11, tmp_path, trace)
    assert res.failed == 0
    metrics = trace.rep_metrics(workload)  # raises if a mapped layer saw no call
    assert set(metrics) == {name for name, _ in tracer.metric_names()} - {"trace.overhead_s"}
    spans = {s[0]: s for s in trace.spans}
    for _, parent, _, start, end in trace.spans:  # a child lies inside its parent
        if parent:
            assert spans[parent][3] <= start <= end <= spans[parent][4]


def test_wrappers_cover_every_binding_site_and_come_off():
    originals = (policies.fbdc_corner_map, experiments.corner_points, cli.region_from_vertices)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert policies.fbdc_corner_map is not originals[0]
        assert experiments.corner_points is not originals[1]
        assert cli.region_from_vertices is not originals[2]
        assert policies.fbdc_corner_map.__wrapped__ is originals[0]
    finally:
        trace.remove()
    assert (policies.fbdc_corner_map, experiments.corner_points, cli.region_from_vertices) == originals


SEED_PSI_CSV = """case,region,bound,minimum,argmin_epsilon,argmin_ratio
case1.1,R1,0.97,0.9700523418178529,0.245,3.0794736729721732
case1.1,R2,0.9002,np.float64(0.9004170607031367),0.001,1.9975526304867528
case1.2,R1,0.95,0.9573693033242298,0.292,2.424626963131052
case1.2,R2,0.915,np.float64(0.915002869026967),0.292,2.410383260254739
case1.2,R3,0.9474,np.float64(0.9483047555528448),0.246,2.308821826942943
case2,R1,0.914,np.float64(0.9144443699919577),0.293,2.4108863789366928
global,,0.9002,np.float64(0.9004170607031367),nan,nan
"""


@pytest.mark.parametrize("csv, ok", [
    (SEED_PSI_CSV, True),  # the seed commit's known defect
    (SEED_PSI_CSV.replace("np.float64(0.9144443699919577)", "0.9144443699919577"), True),  # defect fixed
    (SEED_PSI_CSV.replace("0.9700523418178529", "np.float64(0.9700523418178529)"), False),  # one more
    (SEED_PSI_CSV.replace("0.245,", "np.float64(0.245),"), False),  # another column
    ("\n".join(SEED_PSI_CSV.splitlines()[:-1]), False),  # a row lost
])
def test_psi_check_allows_only_the_known_unparsed_fields(csv, ok):
    res = workloads.RepResult()
    workloads._check_psi_cli(res, 0, csv)
    assert (res.attempted, res.failed) == (1, 0 if ok else 1)
    assert res.findings["psi_csv_unparsed_fields"] == csv.count("np.float64")


def _iid_csv(verdicts):
    rows = [f"0.5,0.5,{rho},0,0,{kind},{v},1.0"
            for (rho, kind), v in zip([(r, k) for r in (0.6, 0.9, 1.1) for k in ("gated", "exhaustive")], verdicts)]
    return "\n".join(["p1,p2,rho,lambda1,lambda2,policy,stable,q_avg", *rows]) + "\n"


@pytest.mark.parametrize("verdicts, code, ok", [
    (["stable"] * 4 + ["unstable"] * 2, 0, True),
    (["stable", "stable", "inconclusive", "stable", "unstable", "unstable"], 2, True),  # the known defect
    (["stable", "stable", "inconclusive", "stable", "unstable", "unstable"], 0, False),  # exit code disagrees
    (["stable", "inconclusive", "inconclusive", "stable", "unstable", "unstable"], 2, False),  # more than known
    (["stable", "stable", "unstable", "stable", "unstable", "unstable"], 2, False),  # wrong verdict
    (["stable"] * 4 + ["inconclusive", "unstable"], 2, False),  # inconclusive above load 1
])
def test_iid_check_allows_only_the_known_inconclusive_verdicts(verdicts, code, ok):
    res = workloads.RepResult()
    workloads._check_sweep_cli(res, "iid", code, _iid_csv(verdicts))
    assert (res.attempted, res.failed) == (1, 0 if ok else 1)


def test_benchmark_json_matches_the_code():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.metric_names()
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_run_prints_every_end_to_end_metric_last():
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "exact", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = ["python3", "benchmarks/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
