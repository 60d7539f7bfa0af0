"""ln C(n, r) one pair at a time: the scalar oracle for the bits of the
accountant's log subsampling weights, which the library builds as one numpy
matrix. Test-side only."""

import math


def log_binomial(n: int, r: int) -> float:
    """ln C(n, r) via log-gamma; exact for the degenerate edges."""
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"log_binomial requires 0 <= r <= n, got n={n}, r={r}")
    if r == 0 or r == n:
        return 0.0
    return math.lgamma(n + 1.0) - math.lgamma(r + 1.0) - math.lgamma(n - r + 1.0)
