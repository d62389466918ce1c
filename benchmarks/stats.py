"""The tail-latency rule of the end-to-end metrics."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail_percentile(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples strictly beyond it.

    Percentiles are by nearest rank: the k-th smallest of n samples is the
    100*k/n-th percentile.  Without ties the answer is the
    (TAIL_BEYOND+1)-th largest sample, the 100*(n - TAIL_BEYOND)/n-th
    percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for k in range(n - TAIL_BEYOND - 1, -1, -1):
        beyond = sum(1 for v in ordered[k + 1:] if v > ordered[k])
        if beyond >= TAIL_BEYOND:
            return float(ordered[k]), 100.0 * (k + 1) / n, beyond
    raise ValueError(f"no percentile has {TAIL_BEYOND} samples beyond it among {n}")
