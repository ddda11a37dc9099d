"""Edge-coloring state and color continuation, shared by the anchored fiber
coloring of ``pfd_fast`` and the skeleton assembly, and the completion sweep
of the skeleton assembly.

``PartialProductColoring`` is the one coloring state of both: each colored
edge's raw color, and the parent list of the union-find over raw colors,
which the state finds and unites itself.  It keeps no
stage per edge: no write replaces or removes a colored edge, so the order of
the colors is the order the edges were colored, from which the skeleton
assembly reads each edge's stage.  A color enters a backbone neighbor's
neighborhood through the edge from its parent; ``color_continuation`` is the
one check that the neighbor has as many local factors as the anchor and
lifts that edge.  From an anchor on the backbone, each local factor of the
anchor's neighborhood opens one color, and a restricted BFS walks backbone
vertices along same-colored product edges, coloring each visited
neighborhood's lifted edges of the continued factor; the walk keeps only
each vertex's BFS parent, through which the color continues, and runs only
inside ``color_fibers_from``, which builds the backbone set the walks stay
on once for all the anchor's colors.  The skeleton assembly finishes with a
sweep that colors fiber edges no neighborhood could identify directly but
that are pinched between two same-colored edges; the anchored coloring ends
at its covering walks, since that sweep cannot change the fibers it reads.

Every stage takes the graph's ``NeighborhoodCache``, which brings the graph,
the size cap and the quotient memo; it is defined in ``factorize``, whose
split search uses it too, and is public from here.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field

from .graph import Edge, Graph, GraphError, edge_key
from .factorize import NeighborhoodCache, NeighborhoodFactorization
from .sclasses import backbone, require_thin_connected

# ``factorize`` defines the cache because its split search uses it too; it
# keeps its qualified name ``strongpfd.coloring.NeighborhoodCache``, where the
# stages that take it live.
NeighborhoodCache.__module__ = __name__

# the stages of a skeleton edge, which ``build_skeleton`` reads off the order
# in which the edges were colored
STAGE_LIFT = "S1-local"
STAGE_COMPLETION = "completion"
STAGE_N2 = "N2-sweep"


class SkeletonError(RuntimeError):
    """Skeleton construction failed; carries the originating diagnostic."""


class ColoringError(SkeletonError):
    """Color continuation or local factor structure broke down.

    This signals that the input is not locally unrefined; callers in the
    recognition pipeline turn it into a negative verdict.
    """


@dataclass
class PartialProductColoring:
    """Edge colors discovered so far, in the order the edges were colored,
    and the parent list of the raw colors.

    Raw colors are ids opened by ``new_color``; ``union`` makes two raw
    colors one, so an edge's color is the root of its raw color, which
    ``find`` returns.  A colored edge keeps its place: ``assign`` adds an
    edge or leaves an equal color, and every other writer adds only
    uncolored edges or rebuilds the dict in its order.
    """

    colors: dict[Edge, int] = field(default_factory=dict)
    parent: list[int] = field(default_factory=list)

    def new_color(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def union(self, a: int, b: int) -> bool:
        """Put b's root under a's; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        self.parent[rb] = ra
        return ra != rb

    def assign(self, edge: Edge, color: int) -> None:
        existing = self.colors.get(edge)
        if existing is None:
            self.colors[edge] = color
        elif existing != color:
            raise ColoringError(
                f"edge {edge} assigned conflicting colors {existing} and {color}; "
                "local factorizations are inconsistent"
            )


def color_continuation(
    cache: NeighborhoodCache, origin: NeighborhoodFactorization, parent: int, v: int
) -> tuple[NeighborhoodFactorization, int]:
    """The neighborhood of v and its local factor that the edge (parent, v)
    lifts to, through which the colors of the anchor ``origin.center``
    continue into it.

    Raises ColoringError when v's neighborhood has another local factor count
    than the anchor's or does not lift the edge.
    """
    nf = cache.get(v)
    if nf.prime_count != origin.prime_count:
        raise ColoringError(
            f"neighborhood of {v} has {nf.prime_count} local factors, "
            f"anchor {origin.center} has {origin.prime_count}"
        )
    edge = edge_key(parent, v)
    idx = nf.lifted.get(edge)
    if idx is None:
        raise ColoringError(
            f"no color continuation into the neighborhood of {v} through edge {edge}"
        )
    return nf, idx


def _bfs_one_color(
    anchor: int,
    local_color: int,
    raw_color: int,
    cache: NeighborhoodCache,
    coloring: PartialProductColoring,
    backbone_set: frozenset[int],
) -> None:
    """Run the color-restricted backbone BFS for one local color of the anchor.

    Colors the anchor's lifted edges of that color, then walks backbone
    neighbors along edges already carrying the color, continuing the color
    into each visited neighborhood through the edge from its BFS parent.
    ``backbone_set`` is the graph's backbone, which ``color_fibers_from``
    builds once for all the colors of one anchor.
    """
    graph = cache.graph
    colors = coloring.colors
    nf_anchor = cache.get(anchor)
    parents = {anchor: anchor}
    queue = deque([anchor])
    while queue:
        v = queue.popleft()
        if v == anchor:
            nf, continuation = nf_anchor, local_color
        else:
            nf, continuation = color_continuation(cache, nf_anchor, parents[v], v)
        for edge, idx in nf.lifted.items():
            if idx == continuation:
                coloring.assign(edge, raw_color)
        for w in graph.neighbors(v):
            if (
                w in backbone_set
                and w not in parents
                and colors.get(edge_key(v, w)) == raw_color
            ):
                parents[w] = v
                queue.append(w)


def completion_sweep(graph: Graph, coloring: PartialProductColoring) -> int:
    """Color uncolored edges pinched between two same-colored edges.

    An edge (v, w) joins color c when some z carries colored edges (z, v)
    and (z, w) of color c.  Runs to a fixpoint over every color at once;
    returns how many edges were added, at once 0 when every edge of the
    graph is colored already.  Seeds go in sorted edge order, which decides
    the color of an edge pinched in two.  ``build_skeleton`` finishes its
    coloring with this sweep, and so does each of its N2 rounds.

    The sweep never changes the components of any color: it colors (v, w)
    with c only when both ends are joined by c-colored edges to one z, so v
    and w already lie in one c-component.  Nor can it conflict with a color
    already given, as it only colors uncolored edges, so it writes each
    color straight into ``coloring.colors``, after the edges colored before.
    """
    colors = coloring.colors
    if len(colors) == graph.edge_count:
        return 0
    seeds = sorted(colors.items())
    # incident[v][c]: the ends of v's c-colored edges, in the order colored
    incident: list[dict[int, list[int]]] = [{} for _ in range(graph.vertex_count)]
    for (u, v), c in seeds:
        incident[u].setdefault(c, []).append(v)
        incident[v].setdefault(c, []).append(u)
    rows = graph.adjacency_sets
    worklist = deque(seeds)
    added = 0
    while worklist:
        (u, v), c = worklist.popleft()
        for z, other in ((u, v), (v, u)):
            near = rows[other]
            # appends below go to other's and w's lists, never to z's
            for w in incident[z][c]:
                if w == other:
                    continue
                edge = edge_key(other, w)
                if edge in colors or w not in near:
                    continue
                colors[edge] = c
                incident[other][c].append(w)
                incident[w].setdefault(c, []).append(other)
                worklist.append((edge, c))
                added += 1
    return added


def color_fibers_from(cache: NeighborhoodCache, anchor: int) -> PartialProductColoring:
    """Color every fiber of ``cache.graph`` through a backbone anchor, one
    color per local factor.

    Follows the anchored coloring procedure: factor the anchor neighborhood,
    open one color per local factor and run the color-restricted backbone
    BFS of each.  The covering walks fix the fibers through the anchor, so
    no completion sweep follows: a swept edge joins two vertices already in
    one fiber of its color, so it changes no color's components, and it is
    an uncolored edge, so it raises no conflict (``completion_sweep``).
    The backbone set the walks stay on is built once, for every color.
    Raises GraphError unless the anchor is an ``int`` vertex id on the
    backbone (so neither ``4.0`` nor ``True`` is one), and ColoringError
    when the continuation or the local factor counts break down, which
    means the graph is not locally unrefined.
    """
    graph = cache.graph
    require_thin_connected(graph, "fiber coloring")
    backbone_set = frozenset(backbone(graph))
    require_anchor(anchor, backbone_set)

    coloring = PartialProductColoring()
    for local_color in range(cache.get(anchor).prime_count):
        _bfs_one_color(anchor, local_color, coloring.new_color(), cache, coloring, backbone_set)
    return coloring


def require_anchor(anchor: object, backbone_set: Collection[int]) -> None:
    """Raise GraphError unless ``anchor`` is an ``int`` vertex id in
    ``backbone_set``: a float or a bool equal to a backbone id is none."""
    if type(anchor) is not int or anchor not in backbone_set:
        raise GraphError(f"anchor {anchor} is not a backbone vertex")
