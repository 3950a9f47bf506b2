"""Pochhammer symbols and q-shifted factorials in double precision, for the
closed forms of the dynamics layer.  The polynomial families build their own
products: exact integers (plain) and split double-doubles (q).
"""

import math

__all__ = ["pochhammer", "log_pochhammer", "q_pochhammer"]


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def log_pochhammer(a: float, k: int) -> float:
    """ln((a)_k) for a > 0, overflow-safe via log-gamma.

    exp(log_pochhammer(a, k)) tracks pochhammer(a, k) to ~1e-12 relative
    wherever the plain product is finite.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if a <= 0:
        raise ValueError(f"log_pochhammer requires a > 0, got a={a}")
    return math.lgamma(a + k) - math.lgamma(a)


def q_pochhammer(a: float, q: float, k: int) -> float:
    """q-shifted factorial (a;q)_k = (1-a)(1-aq)...(1-aq^{k-1}), (a;q)_0 = 1.

    Each factor uses q**i directly so that
    q_pochhammer(a, q, k+1) == q_pochhammer(a, q, k) * (1 - a * q**k) exactly.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out = 1.0
    for i in range(k):
        out *= 1.0 - a * q ** i
    return out
