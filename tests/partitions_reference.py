"""The recursive ``partitions_bounded`` that the iterative one replaced,
kept verbatim apart from the cache as the reference of its differential
test.  Its recursion depth is the number of parts, so it fails past the
interpreter's recursion limit."""
from quiverstrata.partitions import Partition


def partitions_bounded(d: int, m: int) -> tuple[Partition, ...]:
    """All partitions of d with parts <= m, descending-lex (maximal first)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(Partition(acc, m))
            return
        for first in range(min(cap, remaining), 0, -1):
            rec(remaining - first, first, acc + (first,))

    rec(d, m, ())
    return tuple(out)
