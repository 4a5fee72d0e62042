"""Exhaustive searches and literal predicates, kept as ground truth.

Tests compare the polynomial algorithms of the other modules against these
at desk scale.  They cover simple paths and cycles, isomorphism,
q-cuttability by its definition, tree-child orientation (NP-hard in
general), cherry picking, tree containment and satisfiability.  No
production path runs them.  Only the CLI imports this
module, for ``contain --oracle`` and ``orient --method brute``, besides
the package, which re-exports its public names.
"""

from __future__ import annotations

from itertools import product

from .containment import Embedding, _path_edges
from .cuttable import _check_q
from .errors import BudgetExceeded, LabelSetMismatch, TooLarge
from .nets import (
    Arc,
    Edge,
    RootedNet,
    UndirectedNet,
    VertexId,
    _canon_cycle,
    bfs_order,
    canon_edge,
    tree_path,
)
from .orient import (
    CherryPickingSequence,
    OrientationSpec,
    _hang_root,
    _leaf_neighbor,
    apply_orientation,
    is_tree_child,
    reduce_pair,
)
from .sat import Assignment, CnfInstance, assignment_satisfies


# -- paths and cycles -------------------------------------------------------------

def all_simple_paths(net: UndirectedNet, u, v, max_paths=100_000):
    """All simple u-v paths as vertex tuples, in DFS (sorted-neighbor) order."""
    adj = net.adjacency()
    out = []
    path = [u]
    on_path = {u}

    def extend(x):
        if x == v:
            out.append(tuple(path))
            if len(out) > max_paths:
                raise TooLarge(f"more than {max_paths} simple paths")
            return
        for w in adj[x]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(w)
                path.pop()
                on_path.remove(w)

    if u == v:
        return [(u,)]
    extend(u)
    return out


def simple_cycles(net: UndirectedNet, max_combinations=100_000) -> list[tuple[VertexId, ...]]:
    """Every simple cycle, each as a canonical vertex tuple.

    Enumerates the GF(2) cycle space spanned by the fundamental cycles of a
    spanning forest and keeps the members that form a single simple cycle;
    each simple cycle corresponds to exactly one combination, so nothing is
    missed or duplicated.
    """
    adj = net.adjacency()
    parent: dict[VertexId, VertexId | None] = {}
    for root in sorted(net.vertices):
        if root not in parent:
            bfs_order(adj, [root], parent)
    tree_edges = {canon_edge(p, v) for v, p in parent.items() if p is not None}
    chords = sorted(e for e in net.edges if e not in tree_edges and e[0] != e[1])
    r = len(chords)
    if r and (1 << r) - 1 > max_combinations:
        raise TooLarge(f"cycle space has 2^{r}-1 members, budget {max_combinations}")
    fundamental = []
    for u, v in chords:
        path = tree_path(parent, u, v)
        fundamental.append({canon_edge(a, b) for a, b in zip(path, path[1:])} | {(u, v)})
    cycles = []
    for mask in range(1, 1 << r):
        edges: set[Edge] = set()
        m = mask
        i = 0
        while m:
            if m & 1:
                edges ^= fundamental[i]
            m >>= 1
            i += 1
        cyc = _as_simple_cycle(edges)
        if cyc is not None:
            cycles.append(cyc)
    cycles.sort()
    return cycles


def _as_simple_cycle(edges) -> tuple[VertexId, ...] | None:
    if not edges:
        return None
    deg: dict[VertexId, list[VertexId]] = {}
    for u, v in edges:
        deg.setdefault(u, []).append(v)
        deg.setdefault(v, []).append(u)
    if any(len(ns) != 2 for ns in deg.values()):
        return None
    start = min(deg)
    walk = [start]
    prev = None
    cur = start
    while True:
        a, b = sorted(deg[cur])
        nxt = a if a != prev else b
        if nxt == start:
            break
        walk.append(nxt)
        prev, cur = cur, nxt
    if len(walk) != len(deg):
        return None
    return _canon_cycle(walk)


# -- isomorphism -------------------------------------------------------------------

def labeled_isomorphic(a: UndirectedNet, b: UndirectedNet) -> bool:
    """Graph isomorphism fixing leaf labels; backtracking with degree pruning."""
    if a.labels() != b.labels():
        raise LabelSetMismatch(f"{sorted(a.labels())} vs {sorted(b.labels())}")
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    if sorted(a.degree(v) for v in a.vertices) != sorted(b.degree(v) for v in b.vertices):
        return False
    if sorted(len(blob.vertices) for blob in a.blobs()) != sorted(len(blob.vertices) for blob in b.blobs()):
        return False
    mapping = {}
    used = set()
    for v, lab in a.leaf_labels.items():
        w = b.vertex_of_label(lab)
        mapping[v] = w
        used.add(w)
    order = _bfs_internal_order(a)
    b_internal = sorted(b.internal_vertices())

    def consistent(v, w):
        for n in a.neighbors(v):
            if n in mapping and not b.has_edge(mapping[n], w):
                return False
        return True

    def assign(i):
        if i == len(order):
            return all(b.has_edge(mapping[u], mapping[v]) for u, v in a.edges)
        v = order[i]
        for w in b_internal:
            if w in used or b.degree(w) != a.degree(v):
                continue
            if not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if assign(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return assign(0)


def rooted_isomorphic(a: RootedNet, b: RootedNet) -> bool:
    """Digraph isomorphism fixing leaf labels and mapping root to root."""
    if a.labels() != b.labels():
        raise LabelSetMismatch(f"{sorted(a.labels())} vs {sorted(b.labels())}")
    if len(a.vertices) != len(b.vertices) or len(a.arcs) != len(b.arcs):
        return False
    mapping = {a.root: b.root}
    used = {b.root}
    for v, lab in a.leaf_labels.items():
        w = b.vertex_of_label(lab)
        mapping[v] = w
        used.add(w)
    order = [v for v in (a.topo or sorted(a.vertices)) if v not in mapping]
    b_pool = sorted(b.vertices - used)

    def consistent(v, w):
        for n in a.succ[v]:
            if n in mapping and mapping[n] not in b.succ[w]:
                return False
        for n in a.pred[v]:
            if n in mapping and mapping[n] not in b.pred[w]:
                return False
        return True

    def assign(i):
        if i == len(order):
            return all((mapping[u], mapping[v]) in b.arcs for u, v in a.arcs)
        v = order[i]
        for w in b_pool:
            if w in used:
                continue
            if len(b.pred[w]) != len(a.pred[v]) or len(b.succ[w]) != len(a.succ[v]):
                continue
            if not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if assign(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return assign(0)


def _bfs_internal_order(net: UndirectedNet):
    """Internal vertices ordered so each has a previously seen neighbor."""
    adj = net.adjacency()
    leaves = sorted(net.leaves())
    parent = {}
    order = bfs_order(adj, leaves, parent)[len(leaves):]
    for v in sorted(net.vertices):
        if v not in parent:
            order += bfs_order(adj, [v], parent)
    return order


# -- q-cuttability by its definition ---------------------------------------------

def is_q_cuttable_bruteforce(net: UndirectedNet, q: int, max_cycles: int = 100_000) -> bool:
    """Literal definition check: every cycle carries q consecutive
    cut-edge-incident vertices.  Desk-scale oracle."""
    _check_q(q)
    cut_incident = {v for e in net.cut_edges() for v in e}
    for cycle in simple_cycles(net, max_combinations=max_cycles):
        if not _cycle_has_q_chain(cycle, cut_incident, q):
            return False
    return True


def _cycle_has_q_chain(cycle, cut_incident, q) -> bool:
    n = len(cycle)
    if q > n:
        return False
    flags = [v in cut_incident for v in cycle]
    if q == n:
        return all(flags)
    # wrap-around windows of q consecutive cycle vertices
    doubled = flags + flags
    run = 0
    for i in range(2 * n):
        run = run + 1 if doubled[i] else 0
        if run >= q and i >= q - 1:
            return True
    return False


# -- exhaustive orientation search --------------------------------------------------

def brute_force_tree_child_orientation(net: UndirectedNet, max_edges: int = 16) -> RootedNet | None:
    """First tree-child orientation in lexicographic (root edge, direction)
    order, or None after exhausting the whole space."""
    if len(net.edges) > max_edges:
        raise TooLarge(f"{len(net.edges)} edges exceeds the brute-force budget {max_edges}")
    for root_edge in sorted(net.edges):
        spec = _search_orientation(net, root_edge)
        if spec is not None:
            return apply_orientation(net, spec)
    return None


def _search_orientation(net, root_edge):
    edges = _edges_from(net, root_edge)
    leaves = net.leaves()
    deg = {v: net.degree(v) for v in net.vertices}
    indeg = {v: 0 for v in net.vertices}
    outdeg = {v: 0 for v in net.vertices}
    assigned = {v: 0 for v in net.vertices}
    for v in root_edge:
        indeg[v] += 1
        assigned[v] += 1

    def feasible(v):
        if v in leaves:
            return outdeg[v] == 0 and indeg[v] <= 1
        if indeg[v] > 2 or outdeg[v] > 2:
            return False
        if assigned[v] == deg[v]:
            return (indeg[v], outdeg[v]) in ((1, 2), (2, 1))
        return True

    choice: dict[Edge, Arc] = {}

    def place(i):
        if i == len(edges):
            return _accepts(net, root_edge, choice)
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            indeg[b] += 1
            outdeg[a] += 1
            assigned[a] += 1
            assigned[b] += 1
            if feasible(a) and feasible(b):
                choice[(u, v)] = (a, b)
                if place(i + 1):
                    return True
                del choice[(u, v)]
            indeg[b] -= 1
            outdeg[a] -= 1
            assigned[a] -= 1
            assigned[b] -= 1
        return False

    if place(0):
        return OrientationSpec(root_edge, dict(choice))
    return None


def _edges_from(net, root_edge):
    """Non-root edges ordered so vertices complete early (BFS from the root edge)."""
    adj = net.adjacency()
    out = []
    emitted = {root_edge}
    for x in bfs_order(adj, sorted(root_edge), {}):
        for w in adj[x]:
            e = canon_edge(x, w)
            if e not in emitted:
                emitted.add(e)
                out.append(e)
    return out


def _accepts(net, root_edge, choice):
    rooted = _hang_root(net, root_edge, choice.values())
    return rooted.is_acyclic() and is_tree_child(rooted)


# -- cherry picking -------------------------------------------------------------------

def reducible_pairs(net: UndirectedNet) -> list[tuple[str, str]]:
    """Candidate ordered pairs in lexicographic label order.

    Cherries contribute both orders (they keep different leaves); reticulated
    cherries are symmetric and contribute the sorted order only.
    """
    out = []
    if len(net.vertices) == 2 and len(net.leaf_labels) == 2:
        a, b = sorted(net.leaf_labels.values())
        return [(a, b), (b, a)]
    leaves = sorted(net.leaves(), key=lambda v: net.leaf_labels[v])
    neighbor = {x: _leaf_neighbor(net, x) for x in leaves}
    for x in leaves:
        u = neighbor[x]
        for y in leaves:
            if y == x:
                continue
            v = neighbor[y]
            lx, ly = net.leaf_labels[x], net.leaf_labels[y]
            if u == v and len(net.leaf_labels) >= 3:
                out.append((lx, ly))
            elif u != v and lx < ly:
                central = canon_edge(u, v)
                if central in net.edges and central not in net.cut_edges():
                    out.append((lx, ly))
    return sorted(out)


def cherry_picking_sequence(net: UndirectedNet, max_states: int = 200_000) -> CherryPickingSequence | None:
    """Exhaustive memoized search for a cherry-picking sequence.

    Reductions never mint vertex ids, so states reached along commuting
    reduction orders coincide exactly and the failure memo is sound.
    """
    failed: set = set()
    visited = 0

    def key(u: UndirectedNet):
        return (u.edges, frozenset(u.leaf_labels.items()))

    def search(u: UndirectedNet):
        nonlocal visited
        if len(u.vertices) == 1:
            return []
        k = key(u)
        if k in failed:
            return None
        visited += 1
        if visited > max_states:
            raise BudgetExceeded(f"more than {max_states} reduction states explored")
        for pair in reducible_pairs(u):
            child = reduce_pair(u, pair)
            tail = search(child)
            if tail is not None:
                return [pair] + tail
        failed.add(k)
        return None

    found = search(net)
    return None if found is None else CherryPickingSequence(tuple(found))


# -- embeddings and entangled paths ----------------------------------------------

def display_oracle(tree: UndirectedNet, net: UndirectedNet,
                   max_nodes: int = 2_000_000) -> Embedding | None:
    """Exhaustive backtracking search for an embedding.

    Processes tree edges outward from the smallest leaf; for each edge it
    enumerates simple paths over unused network edges, assigning the far
    image on the fly.  A path may neither pass through an existing image nor
    end on a touched vertex, since a degree-3 image needs all three of its
    edge slots.  None is returned only after exhausting the space.
    """
    if tree.labels() != net.labels():
        raise LabelSetMismatch(f"{sorted(tree.labels())} vs {sorted(net.labels())}")
    adj = net.adjacency()
    vmap: dict[int, int] = {}
    for v, lab in tree.leaf_labels.items():
        vmap[v] = net.vertex_of_label(lab)
    used_images = set(vmap.values())
    order = _edge_order(tree)
    used_edges: set[Edge] = set()
    used_deg = {v: 0 for v in net.vertices}
    edge_map: dict[Edge, tuple[int, ...]] = {}
    net_leaves = net.leaves()
    nodes = 0

    def solve(idx: int) -> bool:
        nonlocal nodes
        if idx == len(order):
            return True
        a, b = order[idx]
        start = vmap[a]
        target = vmap.get(b)
        path = [start]

        def record_and_descend() -> bool:
            e = canon_edge(a, b)
            walk = tuple(path) if e[0] == a else tuple(reversed(path))
            edge_map[e] = walk
            fresh = target is None
            if fresh:
                vmap[b] = path[-1]
                used_images.add(path[-1])
            if solve(idx + 1):
                return True
            if fresh:
                used_images.discard(path[-1])
                del vmap[b]
            del edge_map[e]
            return False

        def extend(x: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(f"embedding search exceeded {max_nodes} nodes")
            for w in adj[x]:
                e = canon_edge(x, w)
                if e in used_edges or w in path:
                    continue
                if target is not None:
                    if w == target:
                        used_edges.add(e)
                        used_deg[x] += 1
                        used_deg[w] += 1
                        path.append(w)
                        if record_and_descend():
                            return True
                        path.pop()
                        used_edges.discard(e)
                        used_deg[x] -= 1
                        used_deg[w] -= 1
                        continue
                    if w in used_images or w in net_leaves:
                        continue
                else:
                    if w in used_images or w in net_leaves:
                        continue
                used_edges.add(e)
                used_deg[x] += 1
                used_deg[w] += 1
                path.append(w)
                # stop here: w becomes the image of b (needs an untouched
                # degree-3 vertex: one slot for this path, two for later edges)
                if target is None and used_deg[w] == 1 and len(adj[w]) == 3:
                    if record_and_descend():
                        return True
                if extend(w):
                    return True
                path.pop()
                used_edges.discard(e)
                used_deg[x] -= 1
                used_deg[w] -= 1
            return False

        return extend(start)

    if solve(0):
        return Embedding(dict(vmap), dict(edge_map))
    return None


def _edge_order(tree: UndirectedNet) -> list[tuple[int, int]]:
    """Tree edges BFS-ordered from the smallest leaf; first endpoint already mapped."""
    parent: dict[int, int | None] = {}
    order = bfs_order(tree.adjacency(), [tree.vertex_of_label(min(tree.labels()))], parent)
    return [(parent[v], v) for v in order[1:]]


def is_entangled(net: UndirectedNet, path) -> bool:
    """Literal predicate: no internal path vertex meets a cut-edge off the path."""
    path_edges = _path_edges(path)
    cuts = net.cut_edges()
    for x in path[1:-1]:
        for w in net.neighbors(x):
            e = canon_edge(x, w)
            if e in cuts and e not in path_edges:
                return False
    return True


# -- satisfiability ----------------------------------------------------------------

def sat_bruteforce(cnf: CnfInstance, max_vars: int = 24) -> Assignment | None:
    """Lexicographically first satisfying assignment (False before True), or None."""
    if cnf.n > max_vars:
        raise TooLarge(f"{cnf.n} variables exceeds the brute-force budget {max_vars}")
    for bits in product((False, True), repeat=cnf.n):
        assignment = {i + 1: bits[i] for i in range(cnf.n)}
        if assignment_satisfies(cnf, assignment):
            return assignment
    return None
