"""Pinned sha256 digests of small CSVs, saturated rates and counters.

The same config and seed must keep producing the same CSV bytes, so a
refactor of the slot loop, of a policy rule or of the saturated engine
has to leave every digest below unchanged.
"""

import hashlib

import numpy as np
import pytest

from switchq import channels as ch
from switchq import experiments as exp
from switchq import mdp
from switchq import policies as pol
from switchq import sim
from switchq.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SWEEP_DIGESTS = {
    pol.PolicyConfig("fbdc", T=10): "bf821faf8c0fecdade00d15d777d3224faa080088ed977d8f24106bc7ca5ddf9",
    pol.PolicyConfig("myopic", T=10, k=1): "c01b1c7d1c8812568ddb3afa3bf281ab881c587b41e39e8935c57d6c4b71e529",
    pol.PolicyConfig("myopic", T=10, k=2): "593baba4da80f1a69855b1a6dbc1faeaf0341fa427fa9053a661bc626951db24",
    pol.PolicyConfig("myopic", k=1, frame_based=False): "dcb75c91bb87234d3594e633d5943fc170d27f0514976433c6c79749d55b1450",
    pol.PolicyConfig("fixed_corner", corner="b2"): "5cde9720b465a05c8cb3fc015286ebaaea396af0b6af0180b82cd1af939421e4",
}


@pytest.mark.parametrize("policy", list(SWEEP_DIGESTS), ids=lambda p: p.label())
def test_sweep_csv_digest(policy):
    spec = exp.GridSpec(policies=(policy,), epsilon=0.4, step=0.1, horizon=5000, seed=77)
    assert _sha(exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(spec))) == SWEEP_DIGESTS[policy]


def test_iid_suite_csv_digest():
    rows = exp.iid_suite(0.5, 0.6, (0.6, 0.9, 1.2), horizon=8000, seed=21)
    assert _sha(exp.rows_to_csv(exp.IID_HEADER, rows)) == "fe3e8b967606a9f2b8a1a5b90a414ee0dcbaddb9bc893a50d5032f97fe3bc617"


TRACE_DIGESTS = {
    ("--epsilon", "0.25", "--policy", "fbdc", "--T", "10"): "f6691ee2985e262d1ecaee0f56e9bc24bc1f2217e077f960a40eac19afe397d8",
    ("--epsilon", "0.25", "--policy", "myopic", "--T", "10", "--k", "2"): "f8ec4e950ea13d1c368669f8e73ae819d90c1c5cfd7d8b078beef1010045813a",
    ("--epsilon", "0.25", "--policy", "myopic", "--per-slot"): "e489ffcc538f3846c3bfeede5f21e487cc8c8ce7620a140ab1a19893c65bbb28",
    ("--p1", "0.5", "--p2", "0.7", "--policy", "gated"): "6f9ce98c038858a3e663d6a2cb009131a4e1b41a2290cef8344b0c50200456ed",
    ("--p1", "0.5", "--p2", "0.7", "--policy", "exhaustive"): "8c1faf7c9b14121a1bb39dabeae37d0bc8e33828b4b04193c41ea023f6e88b9f",
}


@pytest.mark.parametrize("flags", list(TRACE_DIGESTS), ids=" ".join)
def test_trace_csv_digest(flags, tmp_path):
    out = tmp_path / "trace.csv"
    args = ["trace", "--lambda1", "0.2", "--lambda2", "0.25", "--horizon", "2000",
            "--trace-every", "3", "--seed", "5", "--out", str(out), *flags]
    assert main(args) == 0
    assert _sha(out.read_text(encoding="utf-8")) == TRACE_DIGESTS[flags]


# -- saturated engine ------------------------------------------------------
# Digests of the saturated rates, CSVs and counters; a rewrite of the
# saturated engine must reproduce every one.  The cases cover horizons that
# are not a multiple of a block length, horizons shorter than one block,
# warmup 0 and a start at queue 2.

def _rates_sha(rates) -> str:
    return hashlib.sha256(np.ascontiguousarray(rates, dtype=np.float64).tobytes()).hexdigest()


BATCH_DIGESTS = {
    # (epsilon, seed, horizon, warmup, m0)
    (0.1, 11, 5003, 200, 1): "600e158a9ce07a4a036cfd5c0aa331c8d13ccde67d687c05c82f978fc6c46fdb",
    (0.4, 12, 5, 0, 1): "d1c9725d46756ba24f6be18703030bafa83cb0451a3985270ad7220af5beb97f",
    (0.25, 13, 3, 7, 2): "2848e924a2905beb66498304f2b2d8d49951e7167653923abcafcd1528a6b78b",
    (0.5, 14, 6000, 0, 2): "c17625d44b2e10eee531218efe071f4d40318e81fb1d5748f1c489d32a5ccc06",
    (0.05, 15, 4001, 1999, 1): "7b9516a6442b372371fa64dbc5131f0543987e4ff6392e95cb20cba0e3a59bcf",
    (0.3, 16, 1, 1, 2): "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7",
}


@pytest.mark.parametrize("case", list(BATCH_DIGESTS), ids=str)
def test_saturated_batch_digest(case):
    eps, seed, horizon, warmup, m0 = case
    rates = sim.saturated_rates_batch(mdp.all_policies(), eps, horizon=horizon, seed=seed, warmup=warmup, m0=m0)
    assert rates.shape == (256, 2)
    assert _rates_sha(rates) == BATCH_DIGESTS[case]


SATURATED_CLI_DIGESTS = {
    "b0": "f37d112dcd5b728aa514148b2f4d9b2b3881e9d591096117496672bc156b4fa0",
    "b1": "deb6e2a514ae11c08eb1cf997acb4894a63a53cbe9925a939323859da173d0ab",
    "b2": "0dcabbb2710f5420c857180f8424dcb2cd7cf0b5efe859cd00da9d9333c0fc21",
    "b3": "57f4886d07a400ecfec4dc5ee7615d0b86ab78c58760391c2ea43043d69ca583",
    "b4": "ae07c6a67f3635a9f5d20ef883bf152c4234bfdeba9e9ef8f7e93963e2bcd95f",
    "b5": "b230b2d369c65fbcbdf8b7cbab529d12ae3f7dc91a9fcefdbd3284ab12cd9c22",
}


@pytest.mark.parametrize("corner", list(SATURATED_CLI_DIGESTS))
def test_saturated_csv_digest(corner, tmp_path):
    out = tmp_path / "sat.csv"
    assert main(["saturated", "--epsilon", "0.3", "--corner", corner, "--horizon", "20001",
                 "--seed", "17", "--out", str(out)]) == 0
    assert _sha(out.read_text(encoding="utf-8")) == SATURATED_CLI_DIGESTS[corner]


GAP_DIGESTS = {
    ("0.25", "b2"): "71c104d9dc29fc9b8590d86c1843456801c3805e5fa341ab7552f46e0dab6a59",
    ("0.1", "b4"): "46767f3c2cf0e8509f0e79b511fc4902952c91bf3d3eb4e5e6885925ece858cd",
}


@pytest.mark.parametrize("eps_corner", list(GAP_DIGESTS), ids="-".join)
def test_gap_csv_digest(eps_corner, tmp_path):
    eps, corner = eps_corner
    out = tmp_path / "gap.csv"
    assert main(["gap", "--epsilon", eps, "--corner", corner, "--T-list", "1,2,7,25,1000",
                 "--horizon", "20000", "--seed", "19", "--out", str(out)]) == 0
    assert _sha(out.read_text(encoding="utf-8")) == GAP_DIGESTS[eps_corner]


SATURATED_RUN_DIGESTS = {
    # (policy id, epsilon, horizon, warmup, m0)
    (255, 0.25, 7, 3, 2): "dc238be50c61311337df4a8447327cd14be150900c2f95aba9d123221c89d995",
    (37, 0.2, 10_007, 0, 1): "4e67ea2056f1d9922adc48b9c20007fdd5cea457d2f874cb7e2deff2a68f4725",
    (200, 0.45, 5, 4, 1): "e296dfdc52070a056a3503d0e8436c69ea09413da83aa396a700523977e8aaa9",
    (75, 0.3, 12_345, 678, 2): "7eff75c153b5f12dc342dca9c0cda2ed8ac9df366fe28b0990cecd35e4ac95c0",  # corner b1
}


@pytest.mark.parametrize("case", list(SATURATED_RUN_DIGESTS), ids=str)
def test_saturated_run_counters_digest(case):
    pid, eps, horizon, warmup, m0 = case
    config = sim.SimConfig(
        lambda1=0.0, lambda2=0.0, channel=ch.gilbert_elliott(eps),
        policy=pol.PolicyConfig("fixed_table", table=mdp.policy_from_id(pid)),
        horizon=horizon, warmup=warmup, seed=pid + horizon, saturated=True, m0=m0,
    )
    m = sim.run(config)
    counters = (m.rate1, m.rate2, m.d1, m.d2, m.switch_count)
    assert _sha(repr(counters)) == SATURATED_RUN_DIGESTS[case]


# -- psi check ---------------------------------------------------------------
# Digests of the psi CSV (the `switchq psi` header over `verify_psi` rows):
# the default grid of `psi --check` and two smaller ones.  A rewrite of the
# psi minimisation must keep the sampled points, the argmin and the
# golden-section refinement, and so every byte.

PSI_HEADER = ("case", "region", "bound", "minimum", "argmin_epsilon", "argmin_ratio")

PSI_DIGESTS = {
    # (epsilon grid step, ratio grid points)
    (1e-3, 400): "4b2d0be63f9d86e81a65ff27ad91f844e29380385ed35f63f5040e1f62436c46",
    (5e-3, 7): "0cc4f709fa2145e6bb6b884f7ce64476738ca31cfebb4b3e0c938e9a90d3fdba",
    (2.5e-3, 64): "53773225ea961f7b57e62f7820be5336d8c5ba8c0950ac125437073ce4e10e0a",
}


@pytest.mark.parametrize("grid", list(PSI_DIGESTS), ids=str)
def test_psi_csv_digest(grid):
    report = exp.verify_psi(*grid)
    assert _sha(exp.rows_to_csv(PSI_HEADER, report.rows())) == PSI_DIGESTS[grid]


def test_psi_cli_csv_digest(tmp_path):
    out = tmp_path / "psi.csv"
    assert main(["psi", "--check", "--out", str(out)]) == 0
    assert _sha(out.read_text(encoding="utf-8")) == PSI_DIGESTS[(1e-3, 400)]
