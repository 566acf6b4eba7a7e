"""The benchmark's workloads: inputs made from a seed, the timed call, the output check.

Every input is written as the JSON a user would hand to the command line and
read back through ``cli``; each campaign gets its own seed derived from the
workload seed.  Calls go through module attributes (``cli.run_campaign``,
``haar_moments.moment_bounds``) so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from haar_sentinel import cli, haar_moments
from haar_sentinel.haar_moments import MomentBounds
from haar_sentinel.spectrum import Spectrum, make_spectrum, number_operator

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Relative tolerance of moment-table values against the recorded reference.
REFERENCE_RTOL = 1e-12


def campaign_seed(workload_seed: int, index: int) -> int:
    """Seed of campaign ``index``, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _write_json(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


@dataclass(frozen=True)
class VerifyCampaign:
    """A verification campaign, loaded by cli.load_campaign and run by cli.run_campaign."""

    spectrum: dict
    ensemble: dict
    tiers: tuple[str, ...]
    orders: tuple[int, ...]
    epsilon: float
    budgets: dict
    workers: int
    expected: dict  # tier -> verdict
    calibration: tuple[str, ...]  # kernels of calibration.py matching the campaign's work

    def prepare(self, workdir: str, seed: int, warm: bool = False) -> str:
        """Write the campaign config; a warm-up config keeps the shapes at minimal budgets."""
        doc = {
            "spectrum": self.spectrum,
            "ensemble": dict(self.ensemble, seed=seed),
            "tiers": list(self.tiers),
            "t": [self.orders[0]] if warm else list(self.orders),
            "epsilon": self.epsilon,
            "budgets": {"M": 16, "M_perm": 1, "M_u": 1} if warm else self.budgets,
            "seed": seed,
            "workers": self.workers,
        }
        name = "warmup.json" if warm else "campaign.json"
        return _write_json(os.path.join(workdir, name), doc)

    def run(self, path: str, workers: Optional[int] = None) -> list[dict]:
        return cli.run_campaign(cli.load_campaign(path, workers_override=workers))

    def check(self, path: str, reports: list[dict]) -> list[str]:
        want = [(t, tier) for t in self.orders for tier in self.tiers]
        got = [(r["t"], r["tier"]) for r in reports]
        if got != want:
            return [f"reports for {got}, expected {want}"]
        return [
            f"{r['tier']} t={r['t']}: verdict {r['verdict']}, expected {self.expected[r['tier']]}"
            for r in reports if r["verdict"] != self.expected[r["tier"]]
        ]

    def work(self, reports: list[dict]) -> tuple[int, int]:
        """(expectation values generated and reduced, exact moments delivered)."""
        samples = 0
        for r in reports:
            p = r["provenance"]
            samples += p["M"] * p.get("M_perm", 1) * p.get("M_u", 1)
        return samples, 0

    def determinism(self, path: str, reports: list[dict]) -> list[str]:
        """Reports must be byte-identical under another worker count."""
        other = 1 if self.workers > 1 else 2
        again = self.run(path, workers=other)
        if json.dumps(again, sort_keys=True) != json.dumps(reports, sort_keys=True):
            return [f"reports differ between workers={self.workers} and workers={other}"]
        return []


@dataclass(frozen=True)
class MomentInput:
    path: str
    scale: int
    spectrum: Spectrum
    orders: tuple[int, ...]


@dataclass(frozen=True)
class MomentOutput:
    code: int
    path: str
    bounds: list[MomentBounds]
    required: list[int]


@dataclass(frozen=True)
class MomentTable:
    """`haar-sentinel moments --mode exact` plus bounds and sample budgets per order.

    The seed picks a power-of-two scale of the eigenvalues, which scales the
    t-th moment by 2**(scale*t) and leaves the work unchanged.
    """

    qubits: int
    orders: tuple[int, ...]
    epsilon: float
    scales: tuple[int, ...]
    reference: dict = field(compare=False, repr=False)
    calibration: tuple[str, ...] = ("python",)

    def spectrum(self, scale: int) -> Spectrum:
        base = number_operator(self.qubits)
        return make_spectrum([lam * 2.0**scale for lam in base.eigenvalues],
                             base.multiplicities)

    def prepare(self, workdir: str, seed: int, warm: bool = False) -> MomentInput:
        scale = self.scales[seed % len(self.scales)]
        s = self.spectrum(scale)
        name = "spectrum-warmup.json" if warm else "spectrum.json"
        path = _write_json(os.path.join(workdir, name), s.to_json_dict())
        return MomentInput(path, scale, s, self.orders[:1] if warm else self.orders)

    def run(self, inp: MomentInput, out_name: str = "moments.json") -> MomentOutput:
        out = os.path.join(os.path.dirname(inp.path), out_name)
        orders = f"{inp.orders[0]}..{inp.orders[-1]}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["moments", "--spectrum", inp.path, "--t", orders,
                             "--mode", "exact", "--out", out])
        bounds = [haar_moments.moment_bounds(inp.spectrum, t) for t in inp.orders]
        required = [haar_moments.required_samples(inp.spectrum, t, self.epsilon)
                    for t in inp.orders]
        return MomentOutput(code, out, bounds, required)

    def check(self, inp: MomentInput, out: MomentOutput) -> list[str]:
        if out.code != cli.EXIT_OK:
            return [f"moments exited with code {out.code}"]
        with open(out.path) as fh:
            rows = json.load(fh)["moments"]
        ref = self.reference[str(inp.scale)]
        problems = []
        if [(r["t"], r["method"]) for r in rows] != [(t, "exact") for t in inp.orders]:
            return [f"moment rows {rows!r} do not match orders {inp.orders}"]
        for t, row, b, req in zip(inp.orders, rows, out.bounds, out.required):
            value, want = row["value"], ref["moments"][t - 1]
            if abs(value - want) > REFERENCE_RTOL * abs(want):
                problems.append(f"scale {inp.scale} t={t}: moment {value!r}, reference {want!r}")
            if not b.lower * (1.0 - b.lower_slack) <= value <= b.upper:
                problems.append(f"scale {inp.scale} t={t}: moment {value!r} outside "
                                f"[{b.lower!r}*(1-{b.lower_slack!r}), {b.upper!r}]")
            if req != ref["required_samples"][t - 1]:
                problems.append(f"scale {inp.scale} t={t}: required_samples {req}, "
                                f"reference {ref['required_samples'][t - 1]}")
        return problems

    def work(self, out: MomentOutput) -> tuple[int, int]:
        return 0, len(out.bounds)

    def determinism(self, inp: MomentInput, out: MomentOutput) -> list[str]:
        """Two tables for the same input must write the same bytes.

        ``out`` is not compared: later campaigns have overwritten its file.
        """
        first = self.run(inp, out_name="moments-first.json")
        again = self.run(inp, out_name="moments-again.json")
        with open(first.path, "rb") as a, open(again.path, "rb") as b:
            if a.read() != b.read():
                return ["moment tables differ between two runs of one input"]
        return []


def moment_table() -> MomentTable:
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)
    return MomentTable(qubits=ref["qubits"], orders=tuple(ref["orders"]),
                       epsilon=ref["epsilon"],
                       scales=tuple(sorted(int(k) for k in ref["scales"])),
                       reference=ref["scales"])


def make_workload(name: str):
    """The named workload; raises KeyError for an unknown name."""
    if name == "moment-table":
        return moment_table()
    return VERIFY_CAMPAIGNS[name]


VERIFY_CAMPAIGNS = {
    "haar-observable": VerifyCampaign(
        spectrum=number_operator(3).to_json_dict(),
        ensemble={"kind": "haar", "N": 8},
        tiers=("observable",),
        orders=(1, 2, 3, 4),
        epsilon=0.01,
        budgets={"M": 250_000},
        workers=2,
        expected={"observable": "compatible"},
        calibration=("python", "numpy2"),
    ),
    "adversary-permutation": VerifyCampaign(
        spectrum=number_operator(8).to_json_dict(),
        ensemble={"kind": "counterexample", "n": 8},
        tiers=("observable", "permutation"),
        orders=(1, 2),
        epsilon=0.05,
        budgets={"M": 2_500, "M_perm": 16},
        workers=1,
        expected={"observable": "compatible", "permutation": "incompatible"},
        calibration=("python", "numpy"),
    ),
    "mub-rotated": VerifyCampaign(
        spectrum={"eigenvalues": [0, 1, 2, 3], "multiplicities": [16, 15, 15, 15]},
        ensemble={"kind": "haar", "N": 61},
        tiers=("mub",),
        orders=(1,),
        epsilon=0.05,
        budgets={"M": 1000, "M_perm": 4, "M_u": 8},
        workers=1,
        expected={"mub": "compatible"},
        calibration=("python", "numpy"),
    ),
}
