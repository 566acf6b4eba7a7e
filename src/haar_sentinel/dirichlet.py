"""Dirichlet parameters and their exact mixed moments.

The Dirichlet family is the backbone of every closed form in this package:
the squared amplitudes of a uniformly random state are Dirichlet(1/2, ...,
1/2) on the probability simplex, and grouping coordinates by eigenvalue turns
the symmetric case into the general one with parameters proportional to
multiplicities.  The ensembles sample these laws from the counter-based
streams (ensembles.generate_probe_samples); this module validates their
parameters and gives the exact moments that those samples are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, fsum, lgamma
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector alpha (all entries positive) with cached total."""

    alpha: tuple[float, ...]
    alpha0: float = field(init=False)

    def __post_init__(self):
        if len(self.alpha) == 0:
            raise ValueError("alpha must be non-empty")
        for a in self.alpha:
            if not np.isfinite(a) or a <= 0:
                raise ValueError(f"alpha entry {a} is not a positive real")
        object.__setattr__(self, "alpha0", fsum(self.alpha))

    @property
    def dim(self) -> int:
        return len(self.alpha)


def dirichlet_mixed_moment(params: DirichletParams, k: Sequence[int]) -> float:
    """Exact mixed moment E[prod_i x_i^(k_i)] for non-negative integer orders.

    Evaluated as a sum of log-gamma differences and exponentiated once, so
    large totals never overflow the intermediate gamma ratios.
    """
    if len(k) != params.dim:
        raise ValueError(f"order vector length {len(k)} != alpha length {params.dim}")
    for ki in k:
        if not isinstance(ki, (int, np.integer)) or ki < 0:
            raise ValueError(f"moment order {ki} is not a non-negative integer")
    k0 = int(sum(k))
    log_val = lgamma(params.alpha0) - lgamma(params.alpha0 + k0)
    for a, ki in zip(params.alpha, k):
        if ki:
            log_val += lgamma(a + ki) - lgamma(a)
    return exp(log_val)

