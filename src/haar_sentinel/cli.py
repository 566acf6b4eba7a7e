"""Command-line front end: moment tables, sample generation, verification campaigns.

Exit codes:
  0  success / all tiers compatible
  2  unreadable or invalid input (JSON, config, flags)
  4  no MUB construction for the requested dimension
 10  at least one tier verdict incompatible
 11  at least one tier verdict inconclusive, none incompatible
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import stat
import sys
import time
from dataclasses import dataclass
from math import isfinite
from typing import Optional, Sequence

from . import __version__, streams
from .ensembles import EnsembleSpec, generate_expectation_samples, natural_assignment
from .haar_moments import exact_moment, moment_bounds, required_samples
from .mub import UNBIASED_TOL, MubSet, UnsupportedDimensionError, mub_complete_set
from .spectrum import Spectrum, check_keys, require_int, require_real, require_str
from .verify import (
    TIERS,
    average_randomness,
    estimate_moments,
    load_samples,
    mub_randomness,
    observable_estimates,
    permutation_randomness,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED_MUB = 4
EXIT_INCOMPATIBLE = 10
EXIT_INCONCLUSIVE = 11

# Caps on the counts a campaign or a flag may ask for, checked before any word
# is drawn; streams.MAX_SAMPLES caps M and generate -M.  An order takes O(t^2)
# steps of exact_moment's recurrence, and a unit holds one permutation of N
# entries, drawn before the first unit samples.
MAX_ORDER = 256
MAX_UNITS = 4096


def _check_orders(orders: Sequence[int]) -> None:
    """Moment orders, from a campaign config or the moments command."""
    if not orders:
        raise ValueError("no t orders given")
    if min(orders) < 1:
        raise ValueError(f"t orders must be positive integers, got {min(orders)}")
    if max(orders) > MAX_ORDER:
        raise ValueError(f"t orders must be at most {MAX_ORDER}, got {max(orders)}")
    if len(set(orders)) != len(orders):
        raise ValueError(f"t orders must be distinct, got {list(orders)}")


@dataclass(frozen=True)
class CampaignConfig:
    spectrum: Spectrum
    ensemble: Optional[EnsembleSpec]
    tiers: tuple[str, ...]
    orders: tuple[int, ...]
    epsilon: float
    m_samples: int
    m_perm: int
    m_u: int
    seed: int
    workers: int = 1
    samples_path: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.tiers, (list, tuple)) or not self.tiers:
            raise ValueError(f"tiers must be a non-empty list of tier names, got {self.tiers!r}")
        for tier in self.tiers:
            if tier not in TIERS:
                raise ValueError(f"unknown tier {tier!r}")
        if len(set(self.tiers)) != len(self.tiers):
            raise ValueError(f"tiers must be distinct, got {list(self.tiers)}")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        _check_orders(self.orders)
        if not (isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a finite positive number, got {self.epsilon}")
        if not 2 <= self.m_samples <= streams.MAX_SAMPLES:
            raise ValueError(f"budget M must be in 2..2^32, got {self.m_samples}")
        for name, budget in (("M_perm", self.m_perm), ("M_u", self.m_u)):
            if not 1 <= budget <= MAX_UNITS:
                raise ValueError(f"budget {name} must be in 1..{MAX_UNITS}, got {budget}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if (self.ensemble is None) == (self.samples_path is None):
            raise ValueError('config needs exactly one of "ensemble" (a spec to sample) and '
                             '"samples" (a samples file)')
        if self.samples_path is not None and set(self.tiers) != {"observable"}:
            raise ValueError("pre-generated samples support the observable tier only")
        for t in self.orders:  # an order beyond double range exits before any word is drawn
            exact_moment(self.spectrum, t)
            required_samples(self.spectrum, t, self.epsilon)


def _load_json(path: str, what: str):
    """The JSON value in the file at ``path``; ``what`` names the object it should hold."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"malformed JSON in {what} {path!r}: {exc}") from exc


def _load_spectrum(source) -> Spectrum:
    """A spectrum from its JSON object, or from the file named by a string."""
    d = _load_json(source, "spectrum") if isinstance(source, str) else source
    return Spectrum.from_json_dict(d)


def _load_ensemble(source, default_seed: Optional[int] = None) -> EnsembleSpec:
    """An ensemble spec from its JSON object, or from the file named by a string."""
    d = _load_json(source, "ensemble spec") if isinstance(source, str) else source
    return EnsembleSpec.from_json_dict(d, default_seed=default_seed)


CAMPAIGN_KEYS = ("spectrum", "ensemble", "samples", "tiers", "t", "epsilon", "budgets", "seed",
                 "workers")


def load_campaign(path: str, workers_override: Optional[int] = None) -> CampaignConfig:
    d = _load_json(path, "campaign config")
    check_keys(d, CAMPAIGN_KEYS, "campaign config", required=("spectrum", "epsilon", "seed"))
    seed = require_int(d["seed"], "seed")
    streams.check_seed(seed)  # before an ensemble spec without a seed takes it
    orders = d.get("t", 1)
    if not isinstance(orders, list):
        orders = [orders]
    budgets = d.get("budgets", {})
    check_keys(budgets, ("M", "M_perm", "M_u"), "budgets")
    return CampaignConfig(
        spectrum=_load_spectrum(d["spectrum"]),
        ensemble=_load_ensemble(d["ensemble"], default_seed=seed) if "ensemble" in d else None,
        tiers=d.get("tiers", ["observable"]),
        orders=tuple(require_int(t, "t") for t in orders),
        epsilon=require_real(d["epsilon"], "epsilon"),
        m_samples=require_int(budgets.get("M", 10_000), "M"),
        m_perm=require_int(budgets.get("M_perm", 1), "M_perm"),
        m_u=require_int(budgets.get("M_u", 1), "M_u"),
        seed=seed,
        workers=(workers_override if workers_override is not None
                 else require_int(d.get("workers", 1), "workers")),
        samples_path=require_str(d["samples"], "samples") if "samples" in d else None,
    )


def _parse_orders(expr: str) -> list[int]:
    expr = expr.strip()
    try:
        if ".." in expr:
            lo, hi = (int(tok) for tok in expr.split(".."))
            # an out-of-range end is refused by _check_orders before the list is built
            orders = list(range(lo, hi + 1)) if 1 <= lo and hi <= MAX_ORDER else [lo, hi]
        else:
            orders = [int(tok) for tok in expr.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse order list {expr!r} (use '1..4' or '1,2,3')") from exc
    _check_orders(orders)
    return orders


def _observable_reports(cfg: CampaignConfig) -> list:
    """Observable-tier reports; the samples are drawn (or read) once for every order.

    A spec's stream is reduced where it is drawn, a file's values by estimate_moments;
    either way one pass serves every order.
    """
    if cfg.samples_path is None:
        estimates = observable_estimates(cfg.ensemble, cfg.spectrum, cfg.orders,
                                         cfg.m_samples, workers=cfg.workers)
        provenance = {"seed": cfg.ensemble.seed}
    else:
        values = load_samples(cfg.samples_path, cfg.spectrum)
        estimates = estimate_moments(values, cfg.orders)
        provenance = {"samples_file": cfg.samples_path}
    return [average_randomness(est, cfg.spectrum, cfg.epsilon, provenance=provenance)
            for est in estimates]


def run_campaign(cfg: CampaignConfig) -> list[dict]:
    """Every tier's report at every order, in (t, tier) order.

    No sample request depends on t, so each tier is called once for all
    orders and draws each of its streams once.
    """
    by_tier = {}
    for tier in cfg.tiers:
        if tier == "observable":
            by_tier[tier] = _observable_reports(cfg)
        elif tier == "permutation":
            by_tier[tier] = permutation_randomness(
                cfg.ensemble, cfg.spectrum, cfg.orders, cfg.m_perm, cfg.m_samples,
                cfg.epsilon, cfg.seed, workers=cfg.workers,
            )
        else:
            by_tier[tier] = mub_randomness(
                cfg.ensemble, cfg.spectrum, cfg.orders, cfg.m_u, cfg.m_perm,
                cfg.m_samples, cfg.epsilon, cfg.seed, workers=cfg.workers,
            )
    return [by_tier[tier][k].to_json_dict()
            for k in range(len(cfg.orders)) for tier in cfg.tiers]


@contextlib.contextmanager
def _overwrite(path: str):
    """A text file that replaces the contents of ``path``, written over the old bytes.

    Opening with "w" truncates a file to zero length, and ext4 (auto_da_alloc)
    then starts writeback of the new contents when the file is closed: about
    0.1 ms per output file, with tails of milliseconds.  Here a regular file
    is cut to the new length after the write instead, so writeback keeps the
    kernel's usual schedule.  Pipes and devices are written as with "w".
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        yield fh
        fh.flush()
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def exit_code_for(verdicts: Sequence[str]) -> int:
    if any(v == "incompatible" for v in verdicts):
        return EXIT_INCOMPATIBLE
    if any(v == "inconclusive" for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_moments(args) -> int:
    s = _load_spectrum(args.spectrum)
    orders = _parse_orders(args.t)
    rows = []
    for t in orders:
        if args.mode == "exact":
            mv = exact_moment(s, t)
            rows.append({"t": t, "method": "exact", "value": mv.value})
        else:
            b = moment_bounds(s, t)
            rows.append({"t": t, "method": "bounds", "lower": b.lower, "upper": b.upper})
    header = f"{'t':>3}  {'method':<8}  value"
    print(header)
    for row in rows:
        if row["method"] == "exact":
            print(f"{row['t']:>3}  {'exact':<8}  {row['value']:.12g}")
        else:
            print(f"{row['t']:>3}  {'bounds':<8}  [{row['lower']:.12g}, {row['upper']:.12g}]")
    if args.out:
        with _overwrite(args.out) as fh:
            json.dump({"spectrum": s.to_json_dict(), "moments": rows}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = _load_ensemble(args.ensemble)
    s = _load_spectrum(args.spectrum)
    assignment = natural_assignment(spec, s)
    values = generate_expectation_samples(spec, assignment, None, args.samples)
    with _overwrite(args.out) as fh:
        fh.write("sample\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")
    print(f"wrote {args.samples} samples to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_campaign(args.config, workers_override=args.workers)
    started = time.time()
    reports = run_campaign(cfg)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "host": platform.node(),
        "runtime_seconds": round(time.time() - started, 3),
        "workers": cfg.workers,
        "version": __version__,
    }
    document = {"meta": meta, "reports": reports}
    if args.out:
        with _overwrite(args.out) as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for r in reports:
        print(
            f"[{r['tier']:<11}] t={r['t']}  R={r['R']:+.6e}  "
            f"delta={r['delta']:.3e}  verdict={r['verdict']}"
        )
    code = exit_code_for([r["verdict"] for r in reports])
    summary = {EXIT_OK: "all tiers compatible",
               EXIT_INCOMPATIBLE: "INCOMPATIBLE with uniform randomness",
               EXIT_INCONCLUSIVE: "inconclusive"}[code]
    print(f"result: {summary}")
    return code


def _cmd_mub(args) -> int:
    if args.mub_action == "dump":
        mubs = mub_complete_set(args.dimension)
        payload = mubs.to_json_dict()
        if args.out:
            with _overwrite(args.out) as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            json.dump(payload, sys.stdout, indent=2)
            print()
        return EXIT_OK
    mubs = MubSet.from_json_dict(_load_json(args.file, "MUB set"))
    i, j, worst = mubs.worst_pair()
    if not worst <= UNBIASED_TOL:
        print(f"bases {i} and {j} are NOT unbiased (deviation {worst:.2e})")
        return EXIT_INPUT
    print(f"{len(mubs.bases)} bases pairwise unbiased, worst deviation {worst:.2e}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="haar-sentinel",
        description="Verify uniform (Haar) randomness of state ensembles via observable statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="closed-form moments of a spectrum")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--t", default="1", help="orders: '1..4' or '1,2,3'")
    p.add_argument("--mode", choices=("exact", "bounds"), default="exact")
    p.add_argument("--out", help="also write results as JSON")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("generate", help="sample expectation values to CSV")
    p.add_argument("--ensemble", required=True, help="ensemble spec JSON file")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--samples", "-M", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--out", help="write the report document to this path")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mub", help="dump or check mutually unbiased basis sets")
    mub_sub = p.add_subparsers(dest="mub_action", required=True)
    pd = mub_sub.add_parser("dump")
    pd.add_argument("--dimension", "-N", type=int, required=True)
    pd.add_argument("--out")
    pc = mub_sub.add_parser("check")
    pc.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_mub)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_MUB
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
