"""The benchmark's three workloads: inputs from a seed, one repetition, output checks.

Each workload is a scaled-down cut through one half of switchq:

* ``sweep``: arrival-grid sweeps (FBDC and per-slot myopic) plus the iid
  gated/exhaustive suite; almost all time is in the ``sim.run`` slot loop.
* ``saturated``: the 256-table saturated oracle at one epsilon per region
  regime, the ``saturated`` corner runs and the ``gap`` frame-length
  sweep; no queues, no psi.
* ``exact``: cold 256-policy enumerations behind ``region --check`` at the
  eight acceptance epsilon values, then ``psi --check``; no simulation.

One repetition ("rep") runs the whole workload once and checks its outputs.
Its inputs derive from ``(workload, seed, rep)`` only, so the same seed
gives the same inputs and the same CSV bytes.  Caches inside switchq are
emptied before each rep (clear_caches), so every rep pays what a fresh
``switchq`` process pays.  Every check is one operation; ``failed``
counts the operations whose check does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from switchq import cli, mdp, sim
from switchq import policies as pol

WORKLOADS = ("sweep", "saturated", "exact")

# Public entry points the workloads drive.  A change that removes one makes
# the benchmark exit non-zero before it measures anything.
ENTRY_POINTS = (
    "switchq.cli.main",
    "switchq.sim.saturated_rates_batch",
    "switchq.mdp.all_policies",
    "switchq.mdp.build_kernel",
    "switchq.mdp.enumerate_vertices",
    "switchq.mdp.rate_asymptotic_std",
    "switchq.policies.CORNER_TABLES",
)

# sweep: the epsilon, grid step and policies of a paper-style sweep at a
# 20k-slot horizon; the iid suite keeps its 100k default, because near
# rho = 1 its verdicts come back inconclusive on about one seed in seven at
# 20k slots.
SWEEP_EPSILON, SWEEP_STEP, SWEEP_HORIZON = 0.25, 0.05, 20_000
IID_RHO, IID_HORIZON = "0.6,0.8,0.9,1.1,1.2", 100_000

# saturated: one epsilon per region regime for the 256-table oracle.
ORACLE_EPSILONS, ORACLE_HORIZON, ORACLE_WARMUP = (0.1, 0.4), 50_000, 2000
CORNER_EPSILON, CORNER_HORIZON, CORNER_WARMUP = 0.25, 100_000, 2000  # warmup as in cli
GAP_EPSILON, GAP_T_LIST, GAP_SLOTS_PER_T = 0.25, (2, 5, 10, 25, 100, 1000), 200_000

# exact: the acceptance-suite epsilon values.
REGION_EPSILONS = (0.05, 0.10, 0.25, 0.29, 0.30, 0.40, 0.45, 0.50)

# The psi CSV of the seed commit: its header, its rows (one per case and
# region), and the fields that do not parse there (see _check_psi_cli).
PSI_HEADER = ("case", "region", "bound", "minimum", "argmin_epsilon", "argmin_ratio")
PSI_TEXT_COLUMNS, PSI_ROWS = {"case", "region"}, 7
PSI_KNOWN_UNPARSED_COLUMNS, PSI_KNOWN_UNPARSED = ("minimum",), 5

# Known defect of the seed commit, measured and left in place:
# sim.stability_verdict uses relative thresholds only, so a stable queue
# whose last window mean happens to exceed twice its first comes back
# "inconclusive" (gated at rho = 0.9, seed 1346991945: window means 9.8,
# 11.9, 11.0, 20.5), and `iid --check` then exits 2.  Up to
# IID_KNOWN_INCONCLUSIVE such verdicts per rep at loads below 1 are
# reported as a finding; 0 of 1000 gated rho = 0.9 cells showed one, so
# two in one rep of a correct engine are out of reach.  A wrong definite
# verdict, or an inconclusive one above load 1, always fails.
IID_KNOWN_INCONCLUSIVE = 1

# Empirical rates are gated at Z_GATE standard errors (floor ABS_FLOOR).
# A saturated rep compares 1036 rate components, so the 3-SE tolerance of
# acceptance criterion 3 fires by chance on a correct engine in about one
# epsilon-set in four at these horizons; 6 SE bounds the chance of a false
# failure per rep near 2e-6 (union bound).  Components beyond 3 SE are
# still counted and reported as findings.
Z_GATE, Z_REPORT, ABS_FLOOR = 6.0, 3.0, 2e-3


@dataclass
class RepResult:
    """What one repetition did and how its checks came out."""

    attempted: int = 0
    failed: int = 0
    slots: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    findings: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def note(self, key: str, value: float) -> None:
        self.findings[key] = self.findings.get(key, 0) + value


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


def clear_caches() -> None:
    """Empty every functools cache in switchq, so each rep starts as cold as a new process."""
    for name, module in list(sys.modules.items()):
        if name == "switchq" or name.startswith("switchq."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def build_inputs(workload: str, seed: int, rep: int) -> dict:
    """Every input of one rep, as CLI argument lists and engine arguments."""
    rng = _rng(workload, seed, rep)

    def draw() -> int:
        return rng.randrange(2**31)

    if workload == "sweep":
        grid = ["--epsilon", repr(SWEEP_EPSILON), "--step", repr(SWEEP_STEP), "--horizon", str(SWEEP_HORIZON)]
        return {"cli": [
            ("sweep_fbdc", ["sweep", *grid, "--policy", "fbdc", "--T", "25", "--seed", str(draw()), "--check"]),
            ("sweep_myopic", ["sweep", *grid, "--policy", "myopic", "--per-slot", "--seed", str(draw()), "--check"]),
            ("iid", ["iid", "--rho", IID_RHO, "--horizon", str(IID_HORIZON), "--seed", str(draw()), "--check"]),
        ]}
    if workload == "saturated":
        oracle = [(eps, draw()) for eps in ORACLE_EPSILONS]
        corners = [
            (f"saturated_{c}", ["saturated", "--epsilon", repr(CORNER_EPSILON), "--corner", c,
                                "--horizon", str(CORNER_HORIZON), "--seed", str(draw()), "--check"])
            for c in sorted(pol.CORNER_TABLES)
        ]
        gap = ("gap", ["gap", "--epsilon", repr(GAP_EPSILON), "--T-list", ",".join(map(str, GAP_T_LIST)),
                       "--horizon", str(GAP_SLOTS_PER_T), "--seed", str(draw())])
        return {"oracle": oracle, "tables": mdp.all_policies(), "cli": corners + [gap]}
    if workload == "exact":
        # no random inputs: the seed only names the run
        regions = [(f"region_{eps}", ["region", "--epsilon", repr(eps), "--check"]) for eps in REGION_EPSILONS]
        return {"cli": regions + [("psi", ["psi", "--check"])]}
    raise ValueError(f"unknown workload {workload!r}")


def _run_cli(argv: list[str], out: Path) -> tuple[int, str]:
    """Run one switchq command in-process, its console output muted; return exit code and CSV text."""
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _unparsed_fields(header: list[str], rows: list[list[str]], text_columns: set[str]) -> int:
    """Fields of numeric columns that float() cannot read."""
    bad = 0
    for row in rows:
        for name, value in zip(header, row):
            if name in text_columns:
                continue
            try:
                float(value)
            except ValueError:
                bad += 1
    return bad


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _rate_checks(res: RepResult, empirical, exact, se) -> list[bool]:
    """Per rate pair: both components within max(Z_GATE*SE, ABS_FLOOR) of exact.

    Records the components beyond the 3-SE tolerance and the largest z as
    findings; returns one verdict per pair for the caller to count.
    """
    empirical, exact, se = (np.asarray(a, dtype=float).reshape(-1, 2) for a in (empirical, exact, se))
    diff = np.abs(empirical - exact)
    res.note("rates_beyond_3se", int(np.count_nonzero(diff > np.maximum(Z_REPORT * se, ABS_FLOOR))))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / se, 0.0)
    res.findings["max_rate_z"] = max(res.findings.get("max_rate_z", 0.0), round(float(z.max()), 3))
    return [bool(ok) for ok in np.all(diff <= np.maximum(Z_GATE * se, ABS_FLOOR), axis=1)]


def _check_sweep_cli(res: RepResult, name: str, code: int, csv: str) -> None:
    header, rows = _csv_rows(csv)
    unparsed = _unparsed_fields(header, rows, {"policy", "stable"})
    ok = bool(rows) and unparsed == 0
    if name == "iid":
        ok = ok and _check_iid_verdicts(res, header, rows, code)
        res.slots += len(rows) * IID_HORIZON
    else:  # `sweep --check` exits 2 when fewer than 95% of clear cells agree
        ok = ok and code == 0
        res.slots += len(rows) * SWEEP_HORIZON
    res.check(ok, f"{name}: exit {code}, {len(rows)} rows, {unparsed} unparsed fields")


def _check_iid_verdicts(res: RepResult, header: list[str], rows: list[list[str]], code: int) -> bool:
    """Every verdict matches rho < 1, but for the known inconclusive ones (IID_KNOWN_INCONCLUSIVE).

    `iid --check` must exit 2 exactly when some verdict does not match.
    """
    rho, verdict = header.index("rho"), header.index("stable")
    wrong = inconclusive = 0
    for r in rows:
        expected = "stable" if float(r[rho]) < 1.0 else "unstable"
        if r[verdict] == "inconclusive" and expected == "stable":
            inconclusive += 1
        elif r[verdict] != expected:
            wrong += 1
    res.note("iid_inconclusive_below_load_1", inconclusive)
    mismatched = wrong + inconclusive > 0
    return code == (2 if mismatched else 0) and wrong == 0 and inconclusive <= IID_KNOWN_INCONCLUSIVE


def _check_corner_cli(res: RepResult, name: str, code: int, csv: str) -> None:
    # The command's own --check compares at 3 SE and exits 2 by chance on a
    # correct engine; that exit is counted as a finding and the rates are
    # gated here at Z_GATE.
    header, rows = _csv_rows(csv)
    if code == 2:
        res.note("saturated_check_exit2", 1)
    ok = code in (0, 2) and len(rows) == 1 and _unparsed_fields(header, rows, {"policy"}) == 0
    if ok:
        row = dict(zip(header, rows[0]))
        table = pol.CORNER_TABLES[row["policy"].removeprefix("corner_")]
        se = mdp.rate_asymptotic_std(mdp.build_kernel(CORNER_EPSILON), table, CORNER_HORIZON)
        emp = [float(row["rate1"]), float(row["rate2"])]
        ok = _rate_checks(res, emp, [float(row["exact1"]), float(row["exact2"])], se)[0]
    res.check(ok, f"{name}: exit {code}, output {rows!r}")
    res.slots += CORNER_WARMUP + CORNER_HORIZON


def _check_psi_cli(res: RepResult, code: int, csv: str) -> None:
    # Known defect of the seed commit, measured and left in place:
    # experiments._fmt writes numpy 2 scalars as "np.float64(...)", so
    # PSI_KNOWN_UNPARSED fields of the `minimum` column do not parse.  The
    # check fails only on more unparsed fields than that, or on one in
    # another column; the count is reported as a finding every rep.
    header, rows = _csv_rows(csv)
    unparsed = _unparsed_fields(header, rows, PSI_TEXT_COLUMNS)
    outside = _unparsed_fields(header, rows, PSI_TEXT_COLUMNS | set(PSI_KNOWN_UNPARSED_COLUMNS))
    res.note("psi_csv_unparsed_fields", unparsed)
    ok = (code == 0 and tuple(header) == PSI_HEADER and len(rows) == PSI_ROWS
          and unparsed <= PSI_KNOWN_UNPARSED and outside == 0)
    res.check(ok, f"psi: exit {code}, header {header}, {len(rows)} rows, "
                  f"{unparsed} unparsed fields ({outside} outside {PSI_KNOWN_UNPARSED_COLUMNS})")


def run_rep(workload: str, inputs: dict, workdir: Path, lap=lambda: None) -> RepResult:
    """Run one rep of a workload and check every output it produced; call lap() after each operation."""
    res = RepResult()
    if workload == "saturated":
        tables = inputs["tables"]
        for eps, seed in inputs["oracle"]:
            emp = sim.saturated_rates_batch(tables, eps, horizon=ORACLE_HORIZON, seed=seed, warmup=ORACLE_WARMUP)
            exact = [v.rates for v in mdp.enumerate_vertices(eps)]
            kernel = mdp.build_kernel(eps)
            se = [mdp.rate_asymptotic_std(kernel, p, ORACLE_HORIZON) for p in tables]
            for i, ok in enumerate(_rate_checks(res, emp, exact, se)):
                res.check(ok, f"oracle eps={eps!r} table {i}: {emp[i]} vs exact {exact[i]}")
            res.digests[f"oracle_{eps!r}"] = _digest(np.ascontiguousarray(emp).tobytes())
            res.slots += len(tables) * (ORACLE_WARMUP + ORACLE_HORIZON)
            lap()

    for name, argv in inputs["cli"]:
        code, csv = _run_cli(argv, workdir / f"{name}.csv")
        res.digests[name] = _digest(csv)
        if workload == "sweep":
            _check_sweep_cli(res, name, code, csv)
        elif name.startswith("saturated_"):
            _check_corner_cli(res, name, code, csv)
        elif name == "gap":
            header, rows = _csv_rows(csv)
            ok = code == 0 and len(rows) == len(GAP_T_LIST) and _unparsed_fields(header, rows, set()) == 0
            res.check(ok, f"gap: exit {code}, {len(rows)} rows")
            res.slots += sum(max(1, GAP_SLOTS_PER_T // T) * T for T in GAP_T_LIST)
        elif name == "psi":
            _check_psi_cli(res, code, csv)
        else:  # region
            res.check(code == 0 and csv.startswith("# region: markov"), f"{name}: exit {code}")
        lap()
    return res
