"""Recognition of q-cuttable networks.

Three recognizers are kept deliberately independent so they can be
differential-tested against each other: the primary one deletes all
vertices lying on long chains, the second deletes one edge per long
maximal chain, and the third, in ``reference``, checks the definition
literally on an explicit cycle enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidQ
from .nets import (
    UndirectedNet,
    UnionFind,
    VertexId,
    _canon_cycle,
    canon_edge,
    tree_path,
)


@dataclass(frozen=True)
class CuttabilityReport:
    is_cuttable: bool
    witness_cycle: tuple[VertexId, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_cuttable


def is_q_cuttable(net: UndirectedNet, q: int) -> CuttabilityReport:
    """Decide q-cuttability; on failure return a chordless witness cycle.

    Deletes every vertex that lies on a chain of at least q vertices and
    tests the rest for acyclicity.  A surviving cycle avoids all long
    chains, so no q consecutive vertices on it can all be cut-edge
    incident.  The first cycle the search closes is already chordless:
    every vertex on it but the two ends of the closing edge has been
    popped, and a popped vertex other than the current one has met only
    tree edges, which on a tree path are path edges.
    """
    _check_q(q)
    doomed = set()
    for chain in net.maximal_chains():
        if chain.length >= q:
            doomed.update(chain.path_vertices)
    cycle = _find_cycle_avoiding(net.adjacency(), doomed)
    if cycle is None:
        return CuttabilityReport(True)
    return CuttabilityReport(False, _canon_cycle(list(cycle)))


def is_q_cuttable_via_chain_deletion(net: UndirectedNet, q: int) -> bool:
    """Independent recognizer: drop one edge per maximal chain of length >= q.

    A single-vertex chain (possible only for q = 1) has no chain edges, and
    skipping it breaks the equivalence with the definition: a cycle whose
    only cut-edge-incident vertex is such a chain would survive.  Cutting
    one blob edge at that vertex restores it, since every cycle through the
    vertex uses both of its blob edges.
    """
    _check_q(q)
    cuts = net.cut_edges()
    dropped = set()
    for chain in net.maximal_chains():
        if chain.length < q:
            continue
        path = chain.path_vertices
        if len(path) == 1:
            dropped.add(min(canon_edge(path[0], w) for w in net.neighbors(path[0])
                            if canon_edge(path[0], w) not in cuts))
            continue
        dropped.add(min(canon_edge(path[i], path[i + 1]) for i in range(len(path) - 1)))
    return _is_forest(net.vertices, net.edges - dropped)


def max_cuttability(net: UndirectedNet) -> int | None:
    """Largest q for which the net is q-cuttable.

    None means unbounded (the net is a tree); 0 means not even 1-cuttable,
    a case the definition itself does not name.

    The net is q-cuttable when the vertices on no chain of q or more
    vertices span a forest, so one pass answers for every q: it grows a
    forest from the vertices on no chain, adds the chains in ascending
    length, and the length of the chain that closes the first cycle is the
    answer (0 when the vertices on no chain already hold one).
    """
    if net.reticulation_number() == 0:
        return None
    adj = net.adjacency()
    chains = sorted(net.maximal_chains(), key=lambda c: c.length)
    on_chain = {v for c in chains for v in c.path_vertices}
    groups = [(0, [v for v in net.vertices if v not in on_chain])]
    groups += [(c.length, c.path_vertices) for c in chains]
    sets = UnionFind(())
    for length, vertices in groups:
        for v in vertices:
            sets.add(v)
            for w in adj[v]:
                if w in sets.parent and not sets.union(v, w):
                    return length
    raise AssertionError("q-cuttability failed to turn false on a non-tree")


def _check_q(q: int) -> None:
    if not isinstance(q, int) or q < 1:
        raise InvalidQ(f"q must be an integer >= 1, got {q!r}")


def _is_forest(vertices, edges) -> bool:
    sets = UnionFind(vertices)
    return all(sets.union(u, v) for u, v in edges)


def _find_cycle_avoiding(adj, doomed):
    """A cycle among the vertices not in ``doomed``, or None.

    ``adj`` maps each vertex to its neighbours, in any order and in any
    container; doomed vertices are skipped as the search meets them.  Roots
    and neighbours are visited in sorted order, so a working graph's
    adjacency sets give the same cycle as the frozen network's tuples.
    """
    seen = set()
    for root in sorted(adj):
        if root in seen or root in doomed:
            continue
        stack = [(root, None)]
        parent = {root: None}
        seen.add(root)
        while stack:
            v, pv = stack.pop()
            for w in sorted(adj[v]):
                if w == pv or w in doomed:
                    continue
                if w in parent:
                    # non-tree edge: the tree path between its ends closes a cycle
                    return tuple(tree_path(parent, v, w))
                parent[w] = v
                seen.add(w)
                stack.append((w, v))
    return None
