"""Pinned sha256 digests of small CSVs.

The same config and seed must keep producing the same CSV bytes, so a
refactor of the slot loop or of a policy rule has to leave every digest
below unchanged.
"""

import hashlib

import pytest

from switchq import experiments as exp
from switchq import policies as pol
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
