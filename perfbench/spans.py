"""In-memory span tracer around the package's layer functions.

A wrapper replaces a function at the module attribute its caller looks it up
by (``verify.exact_moment``, not ``haar_moments.exact_moment``, for calls made
from ``verify``).  Each call records one span -- name, start, end, parent,
thread, campaign -- and adds counts computed from the call's arguments, so the
counts repeat exactly between runs.  Wrappers are installed only for the
duration of a traced campaign; untraced campaigns run the package's own
functions.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from hashlib import sha256
from math import ceil
from typing import Callable, NamedTuple, Optional

import numpy as np

from haar_sentinel import cli, haar_moments, streams, verify

# Eight real flops per complex multiply-add of the rotation matmul.
FLOPS_PER_COMPLEX_MAC = 8


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    campaign: int
    error: Optional[str]


class Tracer:
    """Collects spans and per-campaign counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.requests: dict[int, set] = {}
        self._campaign = -1
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str,
             count: Optional[Callable[[Counter, dict, Optional[str], set], None]] = None,
             counting_only: bool = False) -> None:
        """Register a wrapper for ``module.attr``.

        ``count`` receives the campaign's counter, the bound arguments, the
        name of the exception the call raised (or None) and the campaign's set
        of distinct generation requests.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, original, signature, count, counting_only, args, kwargs)

        self._patches.append((module, attr, original, wrapper))

    @contextmanager
    def campaign(self, index: int):
        """Install every wrapper for one campaign, run by the calling thread."""
        self._campaign = index
        self.counts[index] = Counter()
        self.requests[index] = set()
        self._owner_stack = self._local.stack = []
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def _call(self, name, original, signature, count, counting_only, args, kwargs):
        if counting_only:
            result = original(*args, **kwargs)
            self._count(count, signature, args, kwargs, None)
            return result
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # A pool thread starts with an empty stack: the span that caused it is
        # the one open in the campaign's own thread.
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, name, start, end, threading.get_ident(),
                        self._campaign, error)
            with self._lock:
                self.spans.append(span)
            self._count(count, signature, args, kwargs, error)

    def _count(self, count, signature, args, kwargs, error):
        if count is None:
            return
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        with self._lock:
            count(self.counts[self._campaign], bound.arguments, error, self.requests[self._campaign])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s._asdict()) + "\n")


# --- counts from call arguments -------------------------------------------

def _count_normals(c, a, error, requests):
    c["streams.calls"] += 1
    c["streams.words"] += int(a["count"])


def _count_gamma(c, a, error, requests):
    c["streams.calls"] += 1
    c["streams.words"] += int(a["count"]) * streams.halfint_gamma_words(a["alpha"])


def _count_chunks(c, a, error, requests):
    c["streams.chunks"] += ceil(int(a["total"]) / streams.CHUNK_SAMPLES)


def _digest(array) -> str:
    return sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _count_generate(c, a, error, requests):
    spec, m = a["spec"], int(a["m_samples"])
    c["ensembles.calls"] += 1
    c["ensembles.samples"] += m
    basis = a["basis"]
    matrix = None if basis is None else np.asarray(getattr(basis, "matrix", basis))
    requests.add((
        json.dumps(spec.to_json_dict(), sort_keys=True),
        _digest(a["a"].as_array()),
        None if matrix is None else _digest(matrix),
        tuple(a["stream"]),
        m,
    ))
    if matrix is not None:
        # amplitudes (M, K) @ basis^dagger rows (K, N); K is the state's support
        k = spec.params["n"] + 1 if spec.kind == "counterexample" else spec.dimension
        c["ensembles.rotation_flops"] += FLOPS_PER_COMPLEX_MAC * m * k * spec.dimension


def _count_permutation(c, a, error, requests):
    c["spectrum.assignments"] += 1
    c["spectrum.entries"] += a["p"].dimension


def _count_mub(c, a, error, requests):
    c["mub.builds"] += 1
    c["mub.bases"] += int(a["n_dim"]) + 1


def _count_exact(c, a, error, requests):
    c["haar_moments.exact_calls"] += 1
    if error == "TermBudgetExceededError":
        c["haar_moments.fallbacks"] += 1
    elif error is None:
        g = sum(1 for lam in a["s"].eigenvalues if lam != 0.0)
        c["haar_moments.terms"] += haar_moments.composition_count(int(a["t"]), g)


def _count_estimate(c, a, error, requests):
    c["verify.units"] += 1


def _count_report(c, a, error, requests):
    c["verify.reports"] += 1


def package_tracer() -> Tracer:
    """A tracer wrapping each layer's public functions where their callers find them."""
    t = Tracer()
    # streams, called from ensembles through the module
    t.wrap(streams, "standard_normals", "streams.standard_normals", _count_normals)
    t.wrap(streams, "halfint_gamma_matrix", "streams.halfint_gamma_matrix", _count_gamma)
    t.wrap(streams, "chunked_samples", "streams.chunked_samples", _count_chunks,
           counting_only=True)
    # ensembles, called from cli and verify by imported name
    for caller in (cli, verify):
        t.wrap(caller, "generate_expectation_samples",
               "ensembles.generate_expectation_samples", _count_generate)
    # spectrum and mub, called from verify
    t.wrap(verify, "apply_permutation", "spectrum.apply_permutation", _count_permutation)
    t.wrap(verify, "mub_complete_set", "mub.mub_complete_set", _count_mub)
    # haar_moments, called from verify, cli and the moment-table workload
    for caller in (verify, cli):
        t.wrap(caller, "exact_moment", "haar_moments.exact_moment", _count_exact)
        t.wrap(caller, "moment_bounds", "haar_moments.moment_bounds")
    t.wrap(verify, "required_samples", "haar_moments.required_samples")
    t.wrap(verify, "sampling_error_bound", "haar_moments.sampling_error_bound")
    t.wrap(haar_moments, "moment_bounds", "haar_moments.moment_bounds")
    t.wrap(haar_moments, "required_samples", "haar_moments.required_samples")
    # verify: the tiers called from cli, and the estimator each tier calls
    for tier in ("average_randomness", "permutation_randomness", "mub_randomness"):
        t.wrap(cli, tier, f"verify.{tier}", _count_report)
    t.wrap(verify, "estimate_moment", "verify.estimate_moment", _count_estimate)
    # cli: what the benchmark calls, and the spectrum loader of the moments command
    t.wrap(cli, "load_campaign", "cli.load_campaign")
    t.wrap(cli, "_load_spectrum", "cli.load_spectrum")
    t.wrap(cli, "run_campaign", "cli.run_campaign")
    t.wrap(cli, "main", "cli.main")
    return t


# --- per-layer metrics -----------------------------------------------------

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's interval minus the union of its children's intervals.

    Children running concurrently in pool threads overlap; the union counts
    their shared time once.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-campaign layer metrics over every traced campaign."""
    spans = tracer.spans
    n = len(tracer.counts)
    total = Counter()
    for c in tracer.counts.values():
        total.update(c)
    distinct = sum(len(r) for r in tracer.requests.values())
    selfs = self_times(spans)

    def of(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def busy(prefix):
        return union_length((s.start, s.end) for s in of(prefix))

    def self_sum(prefix):
        return sum(selfs[s.id] for s in of(prefix))

    streams_busy = busy("streams.")
    words = total["streams.words"]
    return {
        "streams.busy_s": streams_busy / n,
        "streams.calls": total["streams.calls"] / n,
        "streams.words": words / n,
        "streams.bytes_computed": 8 * words / n,
        "streams.words_per_s": _ratio(words, streams_busy),
        "streams.chunks": total["streams.chunks"] / n,
        "ensembles.self_s": self_sum("ensembles.") / n,
        "ensembles.calls": total["ensembles.calls"] / n,
        "ensembles.samples": total["ensembles.samples"] / n,
        "ensembles.unique_ratio": _ratio(distinct, total["ensembles.calls"]),
        "ensembles.rotation_flops": total["ensembles.rotation_flops"] / n,
        "ensembles.samples_per_s": _ratio(total["ensembles.samples"], busy("ensembles.")),
        "spectrum.busy_s": busy("spectrum.") / n,
        "spectrum.assignments": total["spectrum.assignments"] / n,
        "spectrum.entries": total["spectrum.entries"] / n,
        "mub.busy_s": busy("mub.") / n,
        "mub.builds": total["mub.builds"] / n,
        "mub.bases": total["mub.bases"] / n,
        "haar_moments.busy_s": busy("haar_moments.") / n,
        "haar_moments.exact_calls": total["haar_moments.exact_calls"] / n,
        "haar_moments.terms": total["haar_moments.terms"] / n,
        "haar_moments.terms_per_s": _ratio(total["haar_moments.terms"],
                                           busy("haar_moments.exact_moment")),
        "haar_moments.fallbacks": total["haar_moments.fallbacks"] / n,
        "verify.self_s": self_sum("verify.") / n,
        "verify.estimate_s": sum(s.end - s.start for s in of("verify.estimate_moment")) / n,
        "verify.units": total["verify.units"] / n,
        "verify.reports": total["verify.reports"] / n,
        "cli.self_s": self_sum("cli.") / n,
        "cli.load_s": (self_sum("cli.load_campaign") + self_sum("cli.load_spectrum")) / n,
    }


def counts_repeat(tracer: Tracer) -> bool:
    """Whether every traced campaign made exactly the same counts."""
    per_campaign = [
        (dict(c), len(tracer.requests[i])) for i, c in sorted(tracer.counts.items())
    ]
    return all(pc == per_campaign[0] for pc in per_campaign)
