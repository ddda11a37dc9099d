"""Frozen Cartesian-edge reader of a memo entry, kept as the reference for
the differential tests.

This is ``factorize.FactoredQuotient.cartesian`` as it was when it walked
each quotient edge off the masks and compared the two ends' rows
coordinate by coordinate.  The package reads each vertex's partners off
per-coordinate value masks; on every entry both must return the same
triples, in the same order.
"""

from __future__ import annotations


def legacy_cartesian(rows, masks) -> tuple[tuple[int, int, int], ...]:
    """The Cartesian edges as (qa, qb, factor index), qa < qb, in
    ascending order."""
    found = []
    for qa, m in enumerate(masks):
        ra = rows[qa]
        # qa's later neighbors, lowest first; on these small masks the
        # bit loop costs less than a ``mask_bits`` call per vertex
        later = m >> qa + 1 << qa + 1
        while later:
            low = later & -later
            later ^= low
            qb = low.bit_length() - 1
            changed = [i for i, (x, y) in enumerate(zip(ra, rows[qb])) if x != y]
            if len(changed) == 1:
                found.append((qa, qb, changed[0]))
    return tuple(found)
