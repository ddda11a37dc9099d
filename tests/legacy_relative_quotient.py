"""Frozen relative classes, kept as the reference for the differential
test of the all-singleton shortcut.

``legacy_relative_quotient`` is ``sclasses.relative_quotient`` as it was
when every ball, all-singleton or not, went through the class loop.  The
package returns at once when the keys are pairwise distinct; on every ball
both must give the same classes, class map and masks.
"""

from __future__ import annotations

from itertools import repeat

from strongpfd.graph import Graph, VertexSet


def legacy_relative_quotient(
    graph: Graph, members: VertexSet
) -> tuple[tuple[VertexSet, ...], tuple[int, ...], tuple[int, ...]]:
    """Classes of the sorted vertex set ``members`` relative to itself, read
    in position space: each member is keyed by the bitmask of the positions
    in ``members`` of its closed neighborhood, taken from its adjacency set
    once, so a key has at most ``len(members)`` bits whatever the host's
    size.

    Two members share a class when N[u] intersected with ``members``
    coincides.  Returns (classes, class_map, masks): the classes as
    ascending positions in ``members``, numbered by their least position;
    each position's class; and the quotient's ``closed_masks``, which fix
    the quotient as a labelled graph.  No graph is built, and the members,
    which must be vertex ids of ``graph``, are not checked.
    """
    bits = {v: 1 << pos for pos, v in enumerate(members)}
    bit_of, zeros, rows = bits.get, repeat(0), graph.adjacency_sets
    keys = [sum(map(bit_of, rows[v], zeros), bit) for v, bit in bits.items()]
    index: dict[int, int] = {}
    groups: list[list[int]] = []
    class_map = []
    for pos, key in enumerate(keys):
        c = index.get(key)
        if c is None:
            c = index[key] = len(groups)
            groups.append([pos])
        else:
            groups[c].append(pos)
        class_map.append(c)
    if len(groups) == len(keys):
        # every class is a singleton, numbered by its position
        return tuple(map(tuple, groups)), tuple(class_map), tuple(keys)
    # members of two classes are all adjacent or all apart, so a class's
    # quotient mask is read off the least members in its least member's key
    least = sum(1 << group[0] for group in groups)
    masks = []
    for group in groups:
        key = keys[group[0]] & least
        mask = 0
        while key:
            low = key & -key
            mask |= 1 << class_map[low.bit_length() - 1]
            key ^= low
        masks.append(mask)
    return tuple(map(tuple, groups)), tuple(class_map), tuple(masks)

