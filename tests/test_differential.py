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
from switchq import region as rg
from switchq import sim
from switchq.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SWEEP_DIGESTS = {
    pol.PolicyConfig("fbdc", T=10): "bf821faf8c0fecdade00d15d777d3224faa080088ed977d8f24106bc7ca5ddf9",
    pol.PolicyConfig("myopic", T=10, k=1): "c01b1c7d1c8812568ddb3afa3bf281ab881c587b41e39e8935c57d6c4b71e529",
    pol.PolicyConfig("myopic", T=10, k=2): "593baba4da80f1a69855b1a6dbc1faeaf0341fa427fa9053a661bc626951db24",
    pol.PolicyConfig("myopic", T=1, k=1): "dcb75c91bb87234d3594e633d5943fc170d27f0514976433c6c79749d55b1450",
    pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]): "5cde9720b465a05c8cb3fc015286ebaaea396af0b6af0180b82cd1af939421e4",
}


@pytest.mark.parametrize("policy", list(SWEEP_DIGESTS), ids=lambda p: p.label())
def test_sweep_csv_digest(policy):
    spec = exp.GridSpec(policies=(policy,), epsilon=0.4, step=0.1, horizon=5000, seed=77)
    assert _sha(exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(spec))) == SWEEP_DIGESTS[policy]


# Sweep shapes the digests above leave out: iid channels under the polling
# policies, a warmup, and two policies in one grid, whose cells interleave
# the seeds.  Pinned from the per-cell slot loop.
SWEEP_SHAPE_DIGESTS = {
    "iid_gated": (dict(policies=(pol.PolicyConfig("gated"),), p1=0.5, p2=0.6),
                  "132945efe05036bd0e622bf631d3140eaa9f4a30f33335d69ec70d17a0af1914"),
    "iid_exhaustive": (dict(policies=(pol.PolicyConfig("exhaustive"),), p1=0.5, p2=0.6),
                       "5b550976cc8b807d72aefd574906f56d39a79dfde5964f766a12936caeb7310d"),
    "myopic2_slot_warmup": (dict(policies=(pol.PolicyConfig("myopic", T=1, k=2),), epsilon=0.4,
                                 warmup=700),
                            "5a1e4907159e8402ff55f3e0f7bc1b2424969c2544af10c8682d03c65e425c83"),
    "fbdc_T7_and_myopic1_T5": (dict(policies=(pol.PolicyConfig("fbdc", T=7), pol.PolicyConfig("myopic", T=5, k=1)),
                                    epsilon=0.4),
                               "dd1eaa74e20b772fab60dbbb56b561c3d86a6d72921a60b489909e2de50b0f51"),
}


@pytest.mark.parametrize("shape", list(SWEEP_SHAPE_DIGESTS))
def test_sweep_shape_csv_digest(shape):
    fields, digest = SWEEP_SHAPE_DIGESTS[shape]
    spec = exp.GridSpec(step=0.1, horizon=5000, seed=77, **fields)
    assert _sha(exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(spec))) == digest


def test_iid_suite_csv_digest():
    rows = exp.iid_suite(0.5, 0.6, (0.6, 0.9, 1.2), horizon=8000, seed=21)
    assert _sha(exp.rows_to_csv(exp.IID_HEADER, rows)) == "fe3e8b967606a9f2b8a1a5b90a414ee0dcbaddb9bc893a50d5032f97fe3bc617"


def test_sweep_and_iid_digests_on_the_lockstep_engine(monkeypatch):
    # the grids above are too small for sim.run_batch by default; here it runs every one of them
    monkeypatch.setattr(exp, "_LOCKSTEP_MIN_CELLS", dict.fromkeys(pol.POLICY_KINDS, 1))
    for policy, digest in SWEEP_DIGESTS.items():
        spec = exp.GridSpec(policies=(policy,), epsilon=0.4, step=0.1, horizon=5000, seed=77)
        assert _sha(exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(spec))) == digest, policy.label()
    for shape, (fields, digest) in SWEEP_SHAPE_DIGESTS.items():
        spec = exp.GridSpec(step=0.1, horizon=5000, seed=77, **fields)
        assert _sha(exp.rows_to_csv(exp.SWEEP_HEADER, exp.sweep(spec))) == digest, shape
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
# are not a multiple of a block length, horizons shorter than one block and
# warmup 0.  Every run starts at queue 1, the last entry of a case's id;
# starts at queue 2 are covered in test_saturated_engine.py.

def _rates_sha(rates) -> str:
    return hashlib.sha256(np.ascontiguousarray(rates, dtype=np.float64).tobytes()).hexdigest()


def _start_at_queue_1(case) -> str:
    return str((*case, 1))


BATCH_DIGESTS = {
    # (epsilon, seed, horizon, warmup)
    (0.1, 11, 5003, 200): "600e158a9ce07a4a036cfd5c0aa331c8d13ccde67d687c05c82f978fc6c46fdb",
    (0.4, 12, 5, 0): "d1c9725d46756ba24f6be18703030bafa83cb0451a3985270ad7220af5beb97f",
    (0.05, 15, 4001, 1999): "7b9516a6442b372371fa64dbc5131f0543987e4ff6392e95cb20cba0e3a59bcf",
}


@pytest.mark.parametrize("case", list(BATCH_DIGESTS), ids=_start_at_queue_1)
def test_saturated_batch_digest(case):
    eps, seed, horizon, warmup = case
    rates = sim.saturated_rates_batch(mdp.all_policies(), eps, horizon=horizon, seed=seed, warmup=warmup)
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
    # (policy id, epsilon, horizon, warmup)
    (37, 0.2, 10_007, 0): "4e67ea2056f1d9922adc48b9c20007fdd5cea457d2f874cb7e2deff2a68f4725",
    (200, 0.45, 5, 4): "e296dfdc52070a056a3503d0e8436c69ea09413da83aa396a700523977e8aaa9",
}


@pytest.mark.parametrize("case", list(SATURATED_RUN_DIGESTS), ids=_start_at_queue_1)
def test_saturated_run_counters_digest(case):
    pid, eps, horizon, warmup = case
    config = sim.SimConfig(
        lambda1=0.0, lambda2=0.0, channel=ch.gilbert_elliott(eps),
        policy=pol.PolicyConfig("fixed_table", table=mdp.policy_from_id(pid)),
        horizon=horizon, warmup=warmup, seed=pid + horizon, saturated=True,
    )
    m = sim.run(config)
    counters = (m.rate1, m.rate2, m.d1, m.d2, m.switch_count)
    assert _sha(repr(counters)) == SATURATED_RUN_DIGESTS[case]


# -- psi check ---------------------------------------------------------------
# Digests of the psi CSV (the `switchq psi` header over `verify_psi` rows):
# the default grid of `psi --check` and two smaller ones.  A rewrite of the
# psi minimisation must keep the sampled points and the first argmin in
# (epsilon, ratio) order, and so every byte.  The (1e-3, 400) and
# (2.5e-3, 64) digests were re-pinned when the golden-section refinement
# went.  psi is monotone along each sampled band row, so the refinement
# gained rounding only: on two bands (one at 2.5e-3) it had found a value
# 1 ulp below the best sample, about 1.4e-15 away in ratio, and those
# minima and argmin ratios are now the sample's.

PSI_HEADER = ("case", "region", "bound", "minimum", "argmin_epsilon", "argmin_ratio")

PSI_DIGESTS = {
    # (epsilon grid step, ratio grid points)
    (1e-3, 400): "fecd0ed75b10abb0d5f80ca042156fdf7c5dafc027561295b4067881c8f92c40",
    (5e-3, 7): "0cc4f709fa2145e6bb6b884f7ce64476738ca31cfebb4b3e0c938e9a90d3fdba",
    (2.5e-3, 64): "bbd2816f03d25427e7eba518df60abafa6eec910379f9f6711c8e505c93139ac",
}


@pytest.mark.parametrize("grid", list(PSI_DIGESTS), ids=str)
def test_psi_csv_digest(grid):
    assert _sha(exp.rows_to_csv(PSI_HEADER, exp.verify_psi(*grid))) == PSI_DIGESTS[grid]


def test_psi_cli_csv_digest(tmp_path):
    out = tmp_path / "psi.csv"
    assert main(["psi", "--check", "--out", str(out)]) == 0
    assert _sha(out.read_text(encoding="utf-8")) == PSI_DIGESTS[(1e-3, 400)]


# -- region export -------------------------------------------------------------
# Digests of `export_regions` at the acceptance epsilons and just below 1/2
# and EPS_CRITICAL, where the frontier pass drops flat corners: the corner
# rows alone, then the whole CSV (corners and halfspaces of all three
# regions).  The whole-CSV digests at 0.05, 0.1, 0.29, 0.3, 0.4, 0.45 and
# EPS_CRITICAL - 3e-9 were re-pinned when the facets came to be computed
# from the corners instead of from the facet formulas: halfspace fields
# moved in their last bits, and just below EPS_CRITICAL the chord facet
# took its place in b0-to-b5 order instead of the end of the list.

REGION_DIGESTS = {
    # epsilon: (corner rows, whole CSV)
    0.05: ("31169e29729bc9739e4dbc2e3e1ec46b7e859baf92212cfd02083635e2adcdc5",
        "d3660eb8db68f558ef3f90f9890d9d6271b7d2384f8a9137e5cc40efa4fbe317"),
    0.1: ("1bdedc877f734460b16f55028a82779d6830b7dd8f9646f2db7d4da5289c3360",
        "0f7259e6f761ad217c0fc16fc29a0ca713ed30cc9cc1c35bbc82d2e50bcd841e"),
    0.25: ("09f9b185785cdfa6eebf635f11971099c42a53abbfd5774688bb99003a921a79",
        "b3a54705ac7f3bd699aa0c476f798d5193dd4be70299fd637731e831a25a0c32"),
    0.29: ("c13cbad012df90654ae246b85c614bb0c53e117d63d4028ad18a6f594def1f4e",
        "9a00ff5aafb4ffba540d6cd0d297f311d7e92dcf47f6ef0715aa578c0e4df8a5"),
    0.3: ("430240e0c2dec1f4089ccac11cf08db9b30f041fc9e23e87446bd374b99eaa33",
        "887c1950a7ca840c2b9c5c60e88261189e16132ef14f23276d35ef9427f9d49c"),
    0.4: ("a68bede5e109664f1de204b4a42c2c1f6aa6e5348f79d53f4bd65fc0deaee3aa",
        "077923c2f11d236ac9d8fbd4130577847561ca7b3d3d7c08a933b5eaf9b64169"),
    0.45: ("4fecc530d74f36af573c9e6dabe3264bfeaae118be2a95f6de314575fbbdef47",
        "909475c08352a7bca01cc6163b3fb334bd67b4998345c6bb0542c5872a25c472"),
    0.5: ("1c17f19d06123c30157d49035b0be14762273043a904a6f4bcea883506d00fe3",
        "e11353a734e176a97effd847e5f520fbc41241755299eeda08f3a251bcd3cd3c"),
    0.4999999974: ("64f9b8f506ed7c8bd93b3d920b16460ee801fcad5de6111621beb2712bb126d2",
        "d081a3cb745e1e6a599596837e7112c3b4ed9e908f70840ef40971cab863eb54"),
    rg.EPS_CRITICAL - 3e-9: ("9c3392a85a21200e928c888638ebd674f616b72b237b4082e11ac45f54be5cd6",
        "f39b3abb99f69749c76e26b001dc1bea01a082dedcb34d7ab23ff77722828196"),
}


def _corner_rows(text: str) -> str:
    rows, inside = [], False
    for line in text.splitlines():
        if line in ("corner_id,r1,r2", "a1,a2,b"):
            inside = line == "corner_id,r1,r2"
        elif inside:
            rows.append(line)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("eps", list(REGION_DIGESTS), ids=repr)
def test_region_csv_digest(eps):
    text = exp.export_regions(eps)
    assert (_sha(_corner_rows(text)), _sha(text)) == REGION_DIGESTS[eps]
