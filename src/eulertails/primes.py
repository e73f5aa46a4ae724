"""Prime enumeration and classical prime-sum references.

A segmented Eratosthenes sieve keeps memory bounded for limits up to the
10^8 range; everything downstream consumes the resulting numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expi

from .constants import EULER_GAMMA
from .errors import DomainError

_SEGMENT = 1 << 18


def primes_up_to(limit: int | float) -> np.ndarray:
    """All primes p <= limit as an int64 array (segmented sieve)."""
    limit = int(limit)
    if limit < 2:
        raise DomainError("prime table requires limit >= 2")
    root = int(limit**0.5) + 1
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, int(root**0.5) + 1):
        if base[p]:
            base[p * p :: p] = False
    small = np.nonzero(base)[0]

    chunks = [small[small <= limit]]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in small:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        chunks.append(np.nonzero(seg)[0] + lo)
        lo = hi
    return np.concatenate(chunks).astype(np.int64)


@lru_cache(maxsize=32)
def _primes_cached(limit: int) -> np.ndarray:
    arr = primes_up_to(limit)
    arr.setflags(write=False)
    return arr


def primes_for(y: float) -> np.ndarray:
    """Cached read-only prime array for p <= y."""
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    return _primes_cached(int(y))


@dataclass(frozen=True)
class MertensSum:
    """Value of sum_{p <= x} log(1 - 1/p)^{-1} with its classical reference."""

    x: float
    value: float
    reference: float  #: log log x + Euler gamma
    deviation: float
    flagged: bool


def mertens_log_sum(x: float, flag_threshold: float = 0.05) -> MertensSum:
    """Sum of log(1 - 1/p)^{-1} over p <= x, flagged against log log x + gamma.

    The deviation flag trips when the sum strays from the Mertens reference
    by more than ``flag_threshold`` (a symptom of a broken sieve or an x far
    too small for the asymptotic reference to mean anything).
    """
    if x < 2:
        raise DomainError("mertens_log_sum requires x >= 2")
    ps = primes_for(x).astype(float)
    value = float(-np.sum(np.log1p(-1.0 / ps)))
    reference = float(np.log(np.log(x)) + EULER_GAMMA) if x > np.e else float("nan")
    deviation = abs(value - reference) if np.isfinite(reference) else float("inf")
    return MertensSum(
        x=float(x),
        value=value,
        reference=reference,
        deviation=deviation,
        flagged=bool(deviation > flag_threshold),
    )


def pnt_pi_reference(x: float) -> float:
    """Offset logarithmic integral: integral_2^x dv / log v."""
    if x < 2:
        raise DomainError("pnt_pi_reference requires x >= 2")
    return float(expi(np.log(x)) - expi(np.log(2.0)))
