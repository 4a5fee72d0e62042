"""Orientations of unrooted networks.

The centerpiece is the constructive tree-child orientation for 2-cuttable
networks: delete a well-chosen set of chain edges to get a spanning tree,
orient the tree away from a root placed on a cut-edge, and then fix the
directions of the deleted edges blob by blob via an auxiliary multigraph
whose components are paths and cycles.  Its oracles, a desk-scale
exhaustive searcher and a cherry-picking searcher, are in ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .cuttable import is_q_cuttable
from .errors import (
    CyclicOrientation,
    DegreeViolation,
    NotReducible,
    NotTwoCuttable,
    UnknownEdge,
    WouldCreateParallelEdge,
)
from .nets import (
    Arc,
    Edge,
    RootedNet,
    UndirectedNet,
    UnionFind,
    _component_of,
    _WorkGraph,
    bfs_order,
    canon_edge,
    suppress,
    validate_rooted,
)


@dataclass(frozen=True)
class OrientationSpec:
    """A root edge plus a direction for every other edge.

    The two halves of the subdivided root edge always point away from the
    new root, so they carry no explicit entry.
    """

    root_edge: Edge
    directions: dict[Edge, Arc]


@dataclass(frozen=True)
class CherryPickingSequence:
    pairs: tuple[tuple[str, str], ...]


def apply_orientation(net: UndirectedNet, spec: OrientationSpec) -> RootedNet:
    """Subdivide the root edge and direct every edge as specified."""
    root_edge = canon_edge(*spec.root_edge)
    if root_edge not in net.edges:
        raise UnknownEdge(f"root edge {root_edge} is not an edge")
    directions = {}
    for e, (a, b) in spec.directions.items():
        ce = canon_edge(*e)
        if ce not in net.edges:
            raise UnknownEdge(f"directed non-edge {ce}")
        if canon_edge(a, b) != ce:
            raise ValueError(f"direction ({a},{b}) does not match its edge {ce}")
        directions[ce] = (a, b)
    expected = net.edges - {root_edge}
    if set(directions) != expected:
        missing = sorted(expected - set(directions))
        extra = sorted(set(directions) - expected)
        raise ValueError(f"spec must cover every non-root edge exactly once "
                         f"(missing {missing}, extra {extra})")

    rooted = _hang_root(net, root_edge, directions.values())
    leaves = net.leaves()
    for v in sorted(net.vertices):
        indeg, outdeg = len(rooted.pred[v]), len(rooted.succ[v])
        want = ((1, 0),) if v in leaves else ((1, 2), (2, 1))
        if (indeg, outdeg) not in want:
            raise DegreeViolation(f"vertex {v} has degrees (in={indeg}, out={outdeg})")
    if not rooted.is_acyclic():
        cycle = list(rooted.find_directed_cycle())
        raise CyclicOrientation(f"orientation contains the directed cycle {cycle}")
    report = validate_rooted(rooted)
    if not report.ok:
        raise AssertionError("orientation slipped through checks: " + "; ".join(report.violations))
    return rooted


def underlying_unrooted(net: RootedNet) -> UndirectedNet:
    """Forget directions and suppress the root."""
    edges = {canon_edge(a, b) for a, b in net.arcs}
    if len(edges) != len(net.arcs):
        raise WouldCreateParallelEdge("antiparallel arcs collapse onto one edge")
    flat = UndirectedNet(net.vertices, edges, net.leaf_labels, next_id=net.next_id)
    return suppress(flat, net.root)


def is_tree_child(net: RootedNet) -> bool:
    """Every non-leaf vertex has a child that is not a reticulation
    (Cardona, Rosselló & Valiente, *IEEE/ACM TCBB* 6(4), 2009)."""
    pred = net.pred
    return all(any(len(pred[c]) < 2 for c in cs) for cs in net.succ.values() if cs)


def _hang_root(net: UndirectedNet, root_edge: Edge, arcs) -> RootedNet:
    """The rooted network of ``arcs``, which direct every edge of ``net``
    but ``root_edge``, and a fresh root ``net.next_id`` that subdivides
    ``root_edge``."""
    rho = net.next_id
    arcs = chain(arcs, ((rho, root_edge[0]), (rho, root_edge[1])))
    return RootedNet(net.vertices | {rho}, arcs, rho, net.leaf_labels, next_id=rho + 1)


def _assert_tree_child(rooted: RootedNet, invalid: str, not_tree_child: str) -> None:
    """The self-check of a constructive orientation: an AssertionError that
    starts with ``invalid`` and lists the violations unless ``rooted`` is a
    valid rooted network, else one that says ``not_tree_child`` unless it
    is tree-child."""
    report = validate_rooted(rooted)
    if not report.ok:
        raise AssertionError(invalid + "; ".join(report.violations))
    if not is_tree_child(rooted):
        raise AssertionError(not_tree_child)


# --- constructive orientation for 2-cuttable networks -----------------------------

def chain_edge_set(net: UndirectedNet) -> frozenset[Edge]:
    """Edges lying in a maximal chain of length at least 2: non-cut edges with
    both endpoints incident to cut-edges."""
    cuts = net.cut_edges()
    cut_incident = {v for e in cuts for v in e}
    return frozenset(e for e in net.edges
                     if e not in cuts and e[0] in cut_incident and e[1] in cut_incident)


def choose_s_prime(net: UndirectedNet) -> frozenset[Edge]:
    """Deterministic subset of the chain edges whose deletion leaves a spanning tree.

    The non-chain edges of a 2-cuttable network already form a spanning
    forest, so the tree is grown by taking all of them and then adding chain
    edges in canonical order while they join distinct components; whatever
    is left over is the answer.  Two structural facts are asserted on the
    way out: no vertex meets two leftover edges, and no non-leftover edge
    joins two vertices that each meet one (they underpin the blob
    orientation step and must hold for any valid choice).
    """
    if not is_q_cuttable(net, 2):
        raise NotTwoCuttable("input is not 2-cuttable")
    s_edges = chain_edge_set(net)
    sets = UnionFind(net.vertices)
    for u, v in sorted(net.edges - s_edges):
        if not sets.union(u, v):
            raise AssertionError("non-chain edges contain a cycle; input is not 2-cuttable")
    s_prime = set()
    for u, v in sorted(s_edges):
        if not sets.union(u, v):
            s_prime.add((u, v))
    if len(s_prime) != net.reticulation_number():
        raise AssertionError("spanning-tree completion dropped the wrong number of edges")

    incident = {}
    for e in s_prime:
        for v in e:
            if v in incident:
                raise AssertionError(f"vertex {v} meets two leftover chain edges (OB1)")
            incident[v] = e
    for u, v in net.edges - s_prime - net.cut_edges():
        if u in incident and v in incident:
            raise AssertionError(f"blob edge ({u},{v}) joins two leftover-edge endpoints (OB2)")
    return frozenset(s_prime)


def tree_child_orient_2cuttable(net: UndirectedNet) -> RootedNet:
    """Constructive tree-child orientation of a 2-cuttable network."""
    s_prime = choose_s_prime(net)   # raises NotTwoCuttable first
    tree_edges = net.edges - s_prime
    root_edge = min(net.cut_edges()) if net.cut_edges() else None
    if root_edge is None:
        # cut-edge-free 2-cuttable networks do not exist: any cycle needs a
        # 2-chain of cut-edge-incident vertices
        raise AssertionError("2-cuttable network without a cut-edge")

    # the tree without the root edge, searched from both its ends: the
    # root will sit between them
    tree_adj = {v: [] for v in net.vertices}
    for u, v in tree_edges:
        if (u, v) == root_edge:
            continue
        tree_adj[u].append(v)
        tree_adj[v].append(u)

    parent_of = {}
    order = bfs_order({v: sorted(ns) for v, ns in tree_adj.items()}, list(root_edge), parent_of)
    if len(parent_of) != len(net.vertices):
        raise AssertionError("spanning tree does not reach every vertex")
    arcs = {(parent_of[v], v) for v in order if parent_of[v] is not None}

    blobs = net.blobs()
    blob_of = {v: i for i, blob in enumerate(blobs) for v in blob.vertices}
    leftovers = [[] for _ in blobs]   # per blob, sorted; a chain edge is a blob edge
    for e in sorted(s_prime):
        leftovers[blob_of[e[0]]].append(e)
    for blob, local in zip(blobs, leftovers):
        entry = [v for v in blob.vertices if parent_of[v] not in blob.vertices]
        if len(entry) != 1:
            raise AssertionError(f"blob has {len(entry)} entry vertices, expected 1")
        arcs |= _orient_blob_leftovers(net, blob, local, s_prime, entry[0])

    rooted = _hang_root(net, root_edge, arcs)
    _assert_tree_child(rooted, "constructive orientation is invalid: ",
                       "constructive orientation is not tree-child")
    return rooted


def _orient_blob_leftovers(net, blob, local, s_prime, entry):
    """Direct the blob's leftover chain edges ``local``, sorted, along
    traversal paths.

    The auxiliary multigraph joins two leftover edges whenever a five-vertex
    path runs end-to-end between them; its components are paths and cycles,
    each realized as a walk through the blob that is reversed, if necessary,
    so the blob's entry vertex comes first along its own leftover edge.
    """
    s_at = {}
    for e in local:
        for v in e:
            s_at[v] = e

    # connectors: middle vertex u joining leftover edges at neighbors t and v
    conn_at: dict[tuple[Edge, int], tuple[int, Edge, int]] = {}
    degree = {e: 0 for e in local}
    neighbors_of: dict[Edge, list[Edge]] = {e: [] for e in local}
    for u in sorted(blob.vertices):
        nbs = sorted(w for w in net.neighbors(u) if w in blob.vertices)
        for i in range(len(nbs)):
            for j in range(i + 1, len(nbs)):
                t, v = nbs[i], nbs[j]
                e, f = s_at.get(t), s_at.get(v)
                if e is None or f is None or e == f:
                    continue
                if u in e or u in f:
                    continue
                for end_a, edge_a, end_b, edge_b in ((t, e, v, f), (v, f, t, e)):
                    key = (edge_a, end_a)
                    if key in conn_at:
                        raise AssertionError(f"two connectors attach at endpoint {end_a} of {edge_a}")
                    conn_at[key] = (u, edge_b, end_b)
                degree[e] += 1
                degree[f] += 1
                neighbors_of[e].append(f)
                neighbors_of[f].append(e)

    if any(d > 2 for d in degree.values()):
        raise AssertionError("auxiliary multigraph has a vertex of degree 3")

    arcs = set()
    seen: set[Edge] = set()
    for start in local:
        if start in seen:
            continue
        component = sorted(_component_of(neighbors_of, start))
        seen |= set(component)
        is_cycle = all(degree[e] == 2 for e in component)
        if is_cycle:
            first = min(component)
            # drop one of the two connectors at the lowest edge: keep the one
            # with the smaller middle vertex as the forward direction
            cands = sorted(
                (conn_at[(first, end)][0], end) for end in first if (first, end) in conn_at
            )
            forward_end = cands[0][1]
            start_vertex = first[0] if first[1] == forward_end else first[1]
        else:
            first = min(e for e in component if degree[e] <= 1)
            attached = [end for end in first if (first, end) in conn_at]
            if attached:
                start_vertex = first[0] if first[1] == attached[0] else first[1]
            else:
                start_vertex = first[0]

        path = [start_vertex, first[0] if first[1] == start_vertex else first[1]]
        cur_edge, cur_end = first, path[-1]
        traversed = {cur_edge}
        while len(traversed) < len(component):
            middle, nxt_edge, nxt_end = conn_at[(cur_edge, cur_end)]
            path.append(middle)
            path.append(nxt_end)
            path.append(nxt_edge[0] if nxt_edge[1] == nxt_end else nxt_edge[1])
            traversed.add(nxt_edge)
            cur_edge, cur_end = nxt_edge, path[-1]

        if len(set(path)) != len(path):
            raise AssertionError("traversal path repeats a vertex")
        # entry-first rule: if the path walks the entry vertex's own leftover
        # edge head-first, flip the whole walk
        if entry in path and entry in s_at:
            er = s_at[entry]
            for i in range(len(path) - 1):
                if canon_edge(path[i], path[i + 1]) == er and path[i + 1] == entry:
                    path.reverse()
                    break
        for i in range(len(path) - 1):
            if canon_edge(path[i], path[i + 1]) in s_prime:
                arcs.add((path[i], path[i + 1]))
    return arcs


# --- cherry picking -------------------------------------------------------------------

def reduce_pair(net: UndirectedNet, pair) -> UndirectedNet:
    """Reduce an ordered leaf pair: drop the first leaf of a cherry, or cut
    the central edge of a reticulated cherry."""
    x_lab, y_lab = pair
    try:
        x = net.vertex_of_label(x_lab)
        y = net.vertex_of_label(y_lab)
    except KeyError as missing:
        raise NotReducible(f"no leaf labeled {missing}") from None
    if x == y:
        raise NotReducible("pair must name two distinct leaves")
    if len(net.vertices) == 2:
        return net.replace(vertices={y}, edges=frozenset(), leaf_labels={y: y_lab})
    u, v = _leaf_neighbor(net, x), _leaf_neighbor(net, y)
    if u == v and len(net.leaf_labels) < 3:
        raise NotReducible("cherry reduction on a two-leaf reticulate network "
                           "would not yield a network")
    central = canon_edge(u, v)
    g = _WorkGraph.of(net)
    if u == v:
        g.delete_leaf(x)
        g.suppress(u)
    elif central in net.edges and central not in net.cut_edges():
        # u first, then v, each with suppress's errors, where eliminate_edge
        # would check both ends first and refuse a labelled one
        g.remove_edge(u, v)
        g.suppress(u)
        g.suppress(v)
    else:
        raise NotReducible(f"({x_lab},{y_lab}) is neither a cherry nor a reticulated cherry")
    return g.freeze()


def _leaf_neighbor(net: UndirectedNet, leaf):
    """The one neighbour of the labelled vertex ``leaf``; it must be unlabelled."""
    nbs = net.neighbors(leaf)
    lab = net.leaf_labels[leaf]
    if len(nbs) != 1:
        raise NotReducible(f"leaf {lab} is vertex {leaf} of degree {len(nbs)}, not 1")
    if nbs[0] in net.leaf_labels:
        raise NotReducible(f"vertex {nbs[0]} next to leaf {lab} is labelled "
                           f"{net.leaf_labels[nbs[0]]}")
    return nbs[0]


def replay_sequence(net: UndirectedNet, sequence: CherryPickingSequence) -> UndirectedNet:
    """Apply every pair in order; each must match a cherry or reticulated cherry."""
    for pair in sequence.pairs:
        net = reduce_pair(net, pair)
    return net
