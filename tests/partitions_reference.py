"""The two listings of bounded partitions that ``jordan_types`` replaced,
kept verbatim apart from their caches as the references of differential
tests: the recursive ``partitions_bounded``, whose recursion depth is the
number of parts, so it fails past the interpreter's recursion limit, and
the iterative one that followed it, which lists every type as a full
``parts`` tuple."""
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


def iterative_partitions_bounded(d: int, m: int) -> tuple[Partition, ...]:
    """All partitions of d with parts <= m, descending-lex (maximal first).

    Iterative, so the number of parts is not bounded by the recursion
    limit: each step lowers the last part above 1 by one and refills the
    units freed from it and the trailing 1s greedily with parts no larger."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    full, rest = divmod(d, m)
    parts = [m] * full + ([rest] if rest else [])
    out = [Partition(tuple(parts), m)]
    while parts and parts[0] > 1:
        freed = 0
        while parts[-1] == 1:
            parts.pop()
            freed += 1
        top = parts.pop() - 1
        full, rest = divmod(freed + 1 + top, top)
        parts += [top] * full + ([rest] if rest else [])
        out.append(Partition(tuple(parts), m))
    return tuple(out)
