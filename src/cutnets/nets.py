"""Graph model for binary phylogenetic networks, unrooted and rooted.

Everything public here is immutable after construction: operations return
new networks and never touch their input.  Vertex ids are allocated by a
monotone per-network counter and never reused, so a chain of reductions
can always be traced back through stable ids.  Each undirected edit is
implemented once, on the private mutable ``_WorkGraph``, which keeps the
same counter: the public ``subdivide``, ``suppress`` and ``eliminate_edge``
make one edit on a working graph of their input and freeze it, and longer
chains of edits share one working graph and freeze once, where the result
leaves its caller; tree containment cuts at bridges with ``split_off``.
The edits take undirected networks only: a rooted network is built whole
from its arcs.  A working graph keeps its cut-edge set current through the
edits that can do so cheaply, eliminations included by way of cycle-space
labels, and hands it to the network it freezes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import (
    EndpointIsLeaf,
    IsCutEdge,
    NotBinary,
    NotCutEdge,
    NotDegreeTwo,
    UnknownEdge,
    ValidationError,
    WouldCreateParallelEdge,
)

VertexId = int
Edge = tuple[int, int]   # canonical (min, max)
Arc = tuple[int, int]    # (tail, head)


def canon_edge(u: VertexId, v: VertexId) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Split:
    """A bipartition of the leaf-label set, canonically ordered.

    ``side_a`` holds the lexicographically smallest label, so equal splits
    compare and hash equal and can key containers.
    """

    side_a: frozenset[str]
    side_b: frozenset[str]

    @staticmethod
    def of(side_a, side_b) -> "Split":
        a, b = frozenset(side_a), frozenset(side_b)
        if not a or not b:
            raise ValueError("split sides must be nonempty")
        if a & b:
            raise ValueError("split sides must be disjoint")
        if min(min(a), min(b)) in b:
            a, b = b, a
        return Split(a, b)

    def is_compatible_with(self, other: "Split") -> bool:
        # Compatible iff one of the four pairwise side intersections is empty.
        return (
            not (self.side_a & other.side_a)
            or not (self.side_a & other.side_b)
            or not (self.side_b & other.side_a)
            or not (self.side_b & other.side_b)
        )

    def sort_key(self):
        return (tuple(sorted(self.side_a)), tuple(sorted(self.side_b)))

    def __str__(self) -> str:
        return ",".join(sorted(self.side_a)) + "|" + ",".join(sorted(self.side_b))


@dataclass(frozen=True)
class Blob:
    """A maximal bridgeless subgraph that is not a single vertex."""

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]

    @property
    def cycle_rank(self) -> int:
        return len(self.edges) - len(self.vertices) + 1


@dataclass(frozen=True)
class Chain:
    """A path of same-blob vertices, each incident to a cut-edge.

    Length is the number of vertices.
    """

    path_vertices: tuple[VertexId, ...]

    @property
    def length(self) -> int:
        return len(self.path_vertices)


class UndirectedNet:
    """Simple undirected graph whose labeled degree-1 vertices are leaves.

    The container itself accepts arbitrary simple graphs; ``validate_unrooted``
    reports how far an instance is from a binary phylogenetic network.
    """

    __slots__ = ("vertices", "edges", "leaf_labels", "next_id",
                 "_adj", "_cuts", "_blob_list", "_chain_list", "_by_label", "_binary_tree")

    def __init__(self, vertices, edges, leaf_labels, next_id=None):
        self.vertices = frozenset(vertices)
        self.edges = frozenset(canon_edge(u, v) for u, v in edges)
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) references an undeclared vertex")
        self.leaf_labels = dict(leaf_labels)
        for v in self.leaf_labels:
            if v not in self.vertices:
                raise ValueError(f"label on undeclared vertex {v}")
        top = max(self.vertices, default=0) + 1
        self.next_id = top if next_id is None else max(next_id, top)
        self._adj = None
        self._cuts = None
        self._blob_list = None
        self._chain_list = None
        self._by_label = None
        self._binary_tree = False   # set once ``check_binary_tree`` passes

    @classmethod
    def _trusted(cls, vertices, edges, leaf_labels, next_id, cuts=None) -> "UndirectedNet":
        """A network from parts its caller vouches for, with no check and no copy.

        ``vertices`` and ``edges`` are frozensets, every edge is canonical
        and joins two of the vertices, every labelled vertex is one of them,
        ``next_id`` is above every vertex, and nothing mutates the parts
        afterwards.  A ``cuts`` frozenset, when given, seeds the cut-edge
        cache and must equal the network's bridges: ``_WorkGraph.freeze``
        passes the cut-edge set its edits kept, so the frozen network runs
        no bridge search.
        """
        net = object.__new__(cls)
        net.vertices = vertices
        net.edges = edges
        net.leaf_labels = leaf_labels
        net.next_id = next_id
        net._adj = net._blob_list = net._chain_list = net._by_label = None
        net._cuts = cuts
        net._binary_tree = False
        return net

    @staticmethod
    def build(edges, leaf_labels, extra_vertices=()) -> "UndirectedNet":
        vertices = set(extra_vertices) | set(leaf_labels)
        for u, v in edges:
            vertices.add(u)
            vertices.add(v)
        return UndirectedNet(vertices, edges, leaf_labels)

    # -- structure queries ----------------------------------------------------

    def adjacency(self) -> dict[VertexId, tuple[VertexId, ...]]:
        if self._adj is None:
            adj = {v: [] for v in self.vertices}
            for u, v in self.edges:
                adj[u].append(v)
                if u != v:
                    adj[v].append(u)
            self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        return self._adj

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        return self.adjacency()[v]

    def degree(self, v: VertexId) -> int:
        return len(self.adjacency()[v])

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return canon_edge(u, v) in self.edges

    def leaves(self) -> frozenset[VertexId]:
        return frozenset(self.leaf_labels)

    def labels(self) -> frozenset[str]:
        return frozenset(self.leaf_labels.values())

    def vertex_of_label(self, label: str) -> VertexId:
        if self._by_label is None:
            self._by_label = {lab: v for v, lab in self.leaf_labels.items()}
        return self._by_label[label]

    def internal_vertices(self) -> frozenset[VertexId]:
        return self.vertices - self.leaves()

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = _component_of(self.adjacency(), next(iter(self.vertices)))
        return len(seen) == len(self.vertices)

    # -- bridges, blobs, chains -----------------------------------------------

    def cut_edges(self) -> frozenset[Edge]:
        """All bridges."""
        if self._cuts is None:
            self._cuts = frozenset(bridges(self.adjacency()))
        return self._cuts

    def trivial_cut_edges(self) -> frozenset[Edge]:
        leaves = self.leaves()
        return frozenset(e for e in self.cut_edges() if e[0] in leaves or e[1] in leaves)

    def is_simple_network(self) -> bool:
        """True when every cut-edge is trivial (incident to a leaf)."""
        return self.cut_edges() == self.trivial_cut_edges()

    def blobs(self) -> tuple[Blob, ...]:
        if self._blob_list is None:
            cuts = self.cut_edges()
            adj = {v: [] for v in self.vertices}
            for u, v in self.edges:
                if (u, v) not in cuts:
                    adj[u].append(v)
                    adj[v].append(u)
            seen = set()
            out = []
            for v in sorted(self.vertices):
                if v in seen or not adj[v]:   # a vertex with only cut-edges is in no blob
                    continue
                comp = _component_of(adj, v)
                seen |= comp
                if len(comp) > 1:   # its edges are the non-cut edges at its vertices
                    edges = frozenset((u, w) for u in comp for w in adj[u] if u <= w)
                    out.append(Blob(frozenset(comp), edges))
            self._blob_list = tuple(out)
        return self._blob_list

    def maximal_chains(self) -> tuple[Chain, ...]:
        """Every maximal chain, each reported once.

        A chain vertex meets a cut-edge and lies in a blob, so it also meets
        a non-cut edge, and a non-cut edge joins two vertices of one blob.
        The chains are therefore the components of the non-cut edges between
        such vertices, found with no blob built.  Each such vertex spends one
        of its three edges on the cut-edge, so these components have maximum
        degree 2: a path component is itself the maximal chain, and a fully
        qualifying cycle is reported as the path that starts at its lowest
        vertex id and proceeds toward the lower-id neighbor.
        """
        if self._chain_list is not None:
            return self._chain_list
        cuts = self.cut_edges()
        cut_incident = {v for e in cuts for v in e}
        blob_edges = self.edges - cuts
        marked = {v for u, w in blob_edges if u != w for v in (u, w) if v in cut_incident}
        adj = {v: [] for v in marked}
        for u, v in blob_edges:
            if u in marked and v in marked:
                adj[u].append(v)
                adj[v].append(u)
        chains = []
        seen = set()
        for start in sorted(marked):
            if start in seen:
                continue
            comp = _component_of(adj, start)
            seen |= comp
            if any(len(adj[v]) > 2 for v in comp):
                raise AssertionError("chain subgraph has a degree-3 vertex; input is not binary")
            if all(len(adj[v]) == 2 for v in comp) and len(comp) >= 3:
                first = min(comp)
                path = _walk_path(adj, first, min(adj[first]), len(comp))
            else:
                ends = sorted(v for v in comp if len(adj[v]) <= 1)
                first = ends[0]
                nxt = adj[first][0] if adj[first] else None
                path = _walk_path(adj, first, nxt, len(comp))
            chains.append(Chain(tuple(path)))
        chains.sort(key=lambda c: c.path_vertices)
        self._chain_list = tuple(chains)
        return self._chain_list

    def reticulation_number(self) -> int:
        return len(self.edges) - (len(self.vertices) - 1)

    def level(self) -> int:
        return max((b.cycle_rank for b in self.blobs()), default=0)

    # -- derivation helpers ----------------------------------------------------

    def replace(self, *, vertices=None, edges=None, leaf_labels=None, next_id=None) -> "UndirectedNet":
        return UndirectedNet(
            self.vertices if vertices is None else vertices,
            self.edges if edges is None else edges,
            self.leaf_labels if leaf_labels is None else leaf_labels,
            self.next_id if next_id is None else next_id,
        )

    def __repr__(self) -> str:
        return (f"UndirectedNet(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
                f"X={sorted(self.leaf_labels.values())})")


class RootedNet:
    """Rooted binary phylogenetic network: a DAG container with labeled sinks.

    ``succ[v]`` and ``pred[v]`` are the children and parents of ``v`` as
    sorted tuples, and ``topo`` is the Kahn order from the sorted sources,
    or None when the digraph has a cycle.  They are built once, in the loop
    that checks each arc, because every rooted network is read through
    them at once (by ``validate_rooted``, ``is_acyclic`` or an orientation
    check).  They are the only record of the arcs: the ``arcs`` set is
    built from ``succ`` the first time it is read, as ``UndirectedNet``
    builds its adjacency.
    """

    __slots__ = ("vertices", "root", "leaf_labels", "next_id",
                 "succ", "pred", "topo", "_arcs", "_by_label")

    def __init__(self, vertices, arcs, root, leaf_labels, next_id=None):
        self.vertices = frozenset(vertices)
        self.root = root
        self.leaf_labels = dict(leaf_labels)
        if root not in self.vertices:
            raise ValueError("root is not a vertex")
        succ = {v: [] for v in self.vertices}
        pred = {v: [] for v in self.vertices}
        for u, v in arcs:
            if u not in succ or v not in succ:
                raise ValueError(f"arc ({u},{v}) references an undeclared vertex")
            succ[u].append(v)
            pred[v].append(u)
        for ends in (succ, pred):   # in place, so no second copy of a map is made
            for v, ns in ends.items():
                if len(ns) > 1:
                    ns.sort()
                    if ns[0] == ns[1] or len(ns) > 2 and len(set(ns)) < len(ns):
                        ns = sorted(set(ns))   # a repeated input arc counts once
                ends[v] = tuple(ns)
        indeg = {v: len(ps) for v, ps in pred.items()}
        order = sorted(v for v, d in indeg.items() if d == 0)
        for v in order:   # the loop also visits what it appends
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        self.succ: dict[VertexId, tuple[VertexId, ...]] = succ
        self.pred: dict[VertexId, tuple[VertexId, ...]] = pred
        self.topo = tuple(order) if len(order) == len(self.vertices) else None
        top = max(self.vertices, default=0) + 1
        self.next_id = top if next_id is None else max(next_id, top)
        self._arcs = None
        self._by_label = None

    @property
    def arcs(self) -> frozenset[Arc]:
        if self._arcs is None:
            self._arcs = frozenset((u, v) for u, cs in self.succ.items() for v in cs)
        return self._arcs

    @staticmethod
    def build(arcs, root, leaf_labels) -> "RootedNet":
        vertices = {root} | set(leaf_labels)
        for u, v in arcs:
            vertices.add(u)
            vertices.add(v)
        return RootedNet(vertices, arcs, root, leaf_labels)

    def leaves(self) -> frozenset[VertexId]:
        return frozenset(self.leaf_labels)

    def labels(self) -> frozenset[str]:
        return frozenset(self.leaf_labels.values())

    def vertex_of_label(self, label: str) -> VertexId:
        if self._by_label is None:
            self._by_label = {lab: v for v, lab in self.leaf_labels.items()}
        return self._by_label[label]

    def reticulations(self) -> frozenset[VertexId]:
        return frozenset(v for v, ps in self.pred.items() if len(ps) >= 2)

    def reticulation_number(self) -> int:
        return len(self.reticulations())

    def is_acyclic(self) -> bool:
        return self.topo is not None

    def find_directed_cycle(self):
        """Some directed cycle as a vertex tuple, or None."""
        if self.topo is not None:
            return None
        succ = self.succ
        color = {}   # 1 while on the DFS path, 2 once finished
        for start in sorted(self.vertices):
            if start in color:
                continue
            color[start] = 1
            path = [start]
            pending = [iter(succ[start])]   # the unvisited children of each path vertex
            while pending:
                for w in pending[-1]:
                    if color.get(w) == 1:
                        return tuple(path[path.index(w):])
                    if w not in color:
                        color[w] = 1
                        path.append(w)
                        pending.append(iter(succ[w]))
                        break
                else:
                    color[path.pop()] = 2
                    pending.pop()
        raise AssertionError("cycle detection disagreed with topological sort")

    def __repr__(self) -> str:
        return (f"RootedNet(|V|={len(self.vertices)}, |A|={sum(map(len, self.succ.values()))}, "
                f"r={self.reticulation_number()}, X={sorted(self.leaf_labels.values())})")


# -- validation ----------------------------------------------------------------

def validate_unrooted(net: UndirectedNet) -> ValidationReport:
    """Report every violation of the unrooted-network invariants; never raises.

    The edges, vertices and labels are walked in set order, and again in
    sorted order only when a violation turns up, as in ``validate_rooted``,
    so a valid network is never sorted and a report lists its violations
    by vertex id."""
    if not net.vertices:
        return ValidationReport(("network is empty",))
    bad = _unrooted_violations(net, iter)
    if bad:
        bad = _unrooted_violations(net, sorted)
    return ValidationReport(tuple(bad))


def _unrooted_violations(net: UndirectedNet, order) -> list[str]:
    """The violations ``validate_unrooted`` reports on a network with a
    vertex, each loop taking its items in ``order(items)``."""
    bad = [f"self-loop at vertex {u}" for u, v in order(net.edges) if u == v]
    if not net.is_connected():
        bad.append("network is disconnected")
    adj, labeled = net.adjacency(), net.leaf_labels
    for v in order(net.vertices):
        d = len(adj[v])
        if d == 3:
            if v in labeled:
                bad.append(f"labeled vertex {v} has degree 3 (leaves must have degree 1)")
        elif d == 1:
            if v not in labeled:
                bad.append(f"degree-1 vertex {v} is unlabeled")
        else:
            bad.append(f"vertex {v} has degree {d} (expected 1 or 3)")
            if v in labeled:
                bad.append(f"labeled vertex {v} has degree {d} (leaves must have degree 1)")
    seen: dict[str, VertexId] = {}
    for v in order(labeled):
        lab = labeled[v]
        if lab in seen:
            bad.append(f"duplicate label {lab!r} on vertices {seen[lab]} and {v}")
        else:
            seen[lab] = v
    if not labeled:
        bad.append("network has no labeled leaves")
    return bad


def check_binary_tree(net: UndirectedNet) -> None:
    """Raise unless ``net`` is a binary phylogenetic tree: ``ValidationError``
    with every violation of the unrooted invariants, else ``NotBinary``
    naming a vertex on a cycle.  A network that passes remembers it, so the
    check runs once per network, and its cut-edge cache is its edge set:
    every edge of a tree is a cut-edge, so no bridge search runs on it."""
    if net._binary_tree:
        return
    report = validate_unrooted(net)
    if not report.ok:
        raise ValidationError(report.violations)
    if net.reticulation_number() != 0:
        u, _ = min(net.edges - net.cut_edges())
        raise NotBinary(f"input is not a tree: vertex {u} lies on a cycle")
    net._binary_tree = True
    net._cuts = net.edges


def validate_rooted(net: RootedNet) -> ValidationReport:
    """Report every violation of the rooted-network invariants; never raises.

    A rooted network always holds its root, so it is never empty.  The
    vertices are walked in set order, and again in sorted order only when
    a violation turns up, so a valid network is never sorted and a report
    lists its violations by vertex id."""
    bad = _rooted_violations(net, iter)
    if bad:
        bad = _rooted_violations(net, sorted)
    return ValidationReport(tuple(bad))


def _rooted_violations(net: RootedNet, order) -> list[str]:
    """The violations ``validate_rooted`` reports, each loop over vertices
    taking them in ``order(vertices)``."""
    succ, pred = net.succ, net.pred
    bad = [f"self-arc at vertex {u}" for u in sorted(u for u, cs in succ.items() if u in cs)]
    sources = sorted(v for v, ps in pred.items() if not ps)
    if sources != [net.root]:
        bad.append(f"in-degree-0 vertices are {sources}, expected exactly the root {net.root}")
    if len(succ[net.root]) != 2:
        bad.append(f"root has out-degree {len(succ[net.root])} (expected 2)")
    labeled = net.leaf_labels
    for v in order(net.vertices):
        indeg, outdeg = len(pred[v]), len(succ[v])
        if v == net.root:
            continue
        if outdeg == 0:
            if indeg != 1:
                bad.append(f"leaf {v} has in-degree {indeg} (expected 1)")
            if v not in labeled:
                bad.append(f"sink vertex {v} is unlabeled")
        elif (indeg, outdeg) not in ((1, 2), (2, 1)):
            bad.append(f"vertex {v} has degrees (in={indeg}, out={outdeg})")
    for v in order(labeled):
        if succ[v]:
            bad.append(f"labeled vertex {v} is not a sink")
    seen: dict[str, VertexId] = {}
    for v in order(labeled):
        lab = labeled[v]
        if lab in seen:
            bad.append(f"duplicate label {lab!r} on vertices {seen[lab]} and {v}")
        else:
            seen[lab] = v
    if net.topo is None:
        bad.append(f"digraph has a directed cycle: {list(net.find_directed_cycle())}")
    return bad


# -- subdivision, suppression, elimination --------------------------------------

def subdivide(net: UndirectedNet, edge) -> tuple[UndirectedNet, VertexId]:
    """Replace an edge by two through a fresh vertex; returns ``(net2, new_vertex)``."""
    g = _WorkGraph.of(net)
    v = g.subdivide(edge)
    return g.freeze(), v


def suppress(net: UndirectedNet, vertex) -> UndirectedNet:
    """Delete a degree-2 vertex and join its neighbors."""
    g = _WorkGraph.of(net)
    g.suppress(vertex)
    return g.freeze()


def eliminate_edge(net: UndirectedNet, edge) -> UndirectedNet:
    """Delete a non-cut edge and suppress the two degree-2 endpoints."""
    e = canon_edge(*edge)
    if e in net.edges and e in net.cut_edges():
        raise IsCutEdge(f"{e} is a cut-edge")
    g = _WorkGraph.of(net)
    g.eliminate(e)
    return g.freeze()


# -- splits ----------------------------------------------------------------------

def split_of_cut_edge(net: UndirectedNet, edge) -> Split | None:
    """The leaf bipartition induced by a cut-edge, or None if a side is leafless."""
    e = canon_edge(*edge)
    if e not in net.cut_edges():
        raise NotCutEdge(f"{e} is not a cut-edge")
    adj = net.adjacency()
    side = _component_of(adj, e[0], forbidden_edge=e)
    labels_a = {net.leaf_labels[v] for v in side if v in net.leaf_labels}
    labels_b = set(net.leaf_labels.values()) - labels_a
    if not labels_a or not labels_b:
        return None
    return Split.of(labels_a, labels_b)


def splits_of(net: UndirectedNet) -> list[tuple[Edge, Split]]:
    """(cut-edge, split) pairs for every split-inducing cut-edge, canonically ordered.

    Every split comes from the masks of one ``_cut_edge_masks`` pass, with
    no search per edge; ``split_of_cut_edge`` is the per-edge reference it
    agrees with.
    """
    bits = label_bits(net.labels())
    masks = _cut_edge_masks(net.adjacency(), net.cut_edges(), net.leaf_labels,
                            bits, (1 << len(bits)) - 1)
    return [(e, split_of_mask(masks[e], bits)) for e in sorted(masks)]


# A split is also an int bitmask over the sorted label set: bit i stands for
# the i-th smallest label, and the canonical mask is the side holding bit 0,
# which is ``Split.side_a``.  Containment gives a label a group of bits
# instead (see ``containment._Instance``); a mask is then a union of groups.
# The mask helpers below take the lowest bit of ``full``, not bit 0, as the
# canonical side's mark.

def label_bits(labels) -> dict[str, int]:
    """The mask bit of each label: bit i is the i-th smallest label."""
    return {lab: 1 << i for i, lab in enumerate(sorted(labels))}


def canonical_mask(mask: int, full: int) -> int:
    """The side of the bipartition ``mask | full ^ mask`` that holds the
    lowest bit of ``full`` (bit 0 under ``label_bits``)."""
    return mask if mask & (full & -full) else full ^ mask


def split_of_mask(mask: int, bits: dict[str, int]) -> Split:
    """The split of ``mask`` under the numbering ``bits`` of the labels.

    ``bits`` may give a label a group of bits, the groups pairwise disjoint
    and ``mask`` a union of them; a label is on the mask's side when its
    group is."""
    side_a = {lab for lab, bit in bits.items() if mask & bit}
    return Split.of(side_a, bits.keys() - side_a)


def _cut_edge_masks(adj, cuts, leaf_labels, bits: dict[str, int], full: int) -> dict[Edge, int]:
    """Mask of every split-inducing cut-edge, in one pass, under the
    numbering ``bits`` of the labels, whose union is ``full``; masks are
    canonical at the lowest bit of ``full``.

    A BFS spanning forest gives each vertex the leaf mask of its subtree.
    Every bridge lies in every spanning forest, so a cut-edge from a vertex
    to its tree parent separates exactly that vertex's subtree from the
    rest.  Cut-edges with a leafless side are skipped, as in
    ``split_of_cut_edge``.  Leaf labels are assumed distinct.
    """
    parent: dict[VertexId, VertexId | None] = {}
    masks = {}
    low = full & -full   # ``canonical_mask``, inline: one call per cut-edge adds up
    for root in adj:
        if root in parent:
            continue
        order = bfs_order(adj, [root], parent)
        below = {v: bits[leaf_labels[v]] if v in leaf_labels else 0 for v in order}
        for v in reversed(order[1:]):
            below[parent[v]] |= below[v]
        component = below[root]
        for v in order[1:]:
            p = parent[v]
            e = (v, p) if v < p else (p, v)
            if e not in cuts:
                continue
            side = below[v] if v < p else component ^ below[v]   # e[0]'s side
            if side and side != full:
                masks[e] = side if side & low else full ^ side
    return masks


# -- cycles ---------------------------------------------------------------------

def _canon_cycle(walk) -> tuple[VertexId, ...]:
    i = walk.index(min(walk))
    walk = walk[i:] + walk[:i]
    if len(walk) > 2 and walk[-1] < walk[1]:
        walk = [walk[0]] + walk[1:][::-1]
    return tuple(walk)


# -- bridges and the working graph ----------------------------------------------------

def bridges(adj) -> set[Edge]:
    """Every bridge of a simple graph, via an iterative lowpoint DFS.

    ``adj`` maps each vertex to an iterable of its neighbours; edges come
    back canonical (Tarjan, *IPL* 2(6), 1974).
    """
    index: dict[VertexId, int] = {}
    low: dict[VertexId, int] = {}
    out = set()
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, p, it = stack[-1]
            for w in it:
                if w == p or w == v:
                    continue
                if w in index:
                    if index[w] < low[v]:
                        low[v] = index[w]
                else:
                    index[w] = low[w] = len(index)
                    stack.append((w, v, iter(adj[w])))
                    break
            else:
                stack.pop()
                if stack:
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > index[p]:
                        out.add((p, v) if p < v else (v, p))
    return out


def cycle_space_labels(adj, edges) -> dict[Edge, int]:
    """The cycle-space label of every non-cut edge of a simple graph, in
    one linear pass (Pritchard & Thurimella, *ACM Trans. Algorithms* 7(4),
    2011, with one bit per cotree edge in place of random words).

    A BFS forest gives each cotree edge a bit of its own, and each tree
    edge the XOR of the bits of the cotree edges whose fundamental cycle
    uses it.  Bit i of a label says whether the edge lies on the i-th
    fundamental cycle, and those cycles span the cycle space.  So an edge
    is a cut-edge exactly when its label is 0, and two edges are a 2-edge
    cut exactly when their labels are equal and not 0.  Cut-edges get no
    entry.  ``edges`` lists the canonical edges, and the labels are keyed
    by those tuples, so the dict holds no copy of them.
    """
    parent: dict[VertexId, VertexId | None] = {}
    order = []
    for root in adj:
        if root not in parent:
            order += bfs_order(adj, [root], parent)
    up = dict.fromkeys(order, 0)
    labels: dict[Edge, int] = {}
    bit = 1
    for e in edges:
        u, w = e
        if parent[u] != w and parent[w] != u:
            labels[e] = bit
            up[u] ^= bit
            up[w] ^= bit
            bit <<= 1
    for v in reversed(order):   # a component's children come after their parents
        if (p := parent[v]) is not None:
            up[p] ^= up[v]
    # up[v] is now the XOR over v's subtree: the cycles that leave it by its tree edge
    for e in edges:
        u, w = e
        label = up[w] if parent[w] == u else up[u] if parent[u] == w else 0
        if label:
            labels[e] = label
    return labels


class _WorkGraph:
    """A mutable simple graph for a chain of edits, frozen once at the end.

    It holds the one implementation of each undirected edit: the public
    ``subdivide``, ``suppress`` and ``eliminate_edge`` thaw their network
    into a working graph, make one edit and freeze it, and longer chains of
    edits run on one working graph and freeze once.  Fresh vertices come
    from the network's monotone ``next_id``.  ``edges`` is kept sorted, so
    seeded draws from it match draws from the frozen network's sorted
    edges.  ``subdivide``, ``suppress`` and ``eliminate`` check
    everything before they change the graph, so a raise leaves it as it was.

    ``cuts`` is the graph's cut-edge set, or None when it is not known.
    ``of`` seeds it from the network's cut-edge cache, ``bridges()`` fills
    it when it is None, and ``freeze`` hands it to the frozen network.
    ``cycle_labels`` maps each non-cut edge to its cycle-space label (see
    ``cycle_space_labels``), or is None; it is kept only while ``cuts`` is,
    and then the two split the edges between them.  The first ``eliminate``
    of a non-cut edge computes the labels, and from then on an elimination
    updates them along one path, which names its new cut-edges; it returns
    them, so a caller can update what it keeps per cut-edge.
    ``subdivide`` and ``add_leaf`` keep both in O(1), and ``split_off``
    keeps both on both sides in the time of the side it moves.
    ``add_edge``, ``remove_edge``, ``suppress`` and ``delete_leaf`` set
    both to None.
    """

    __slots__ = ("adj", "edges", "labels", "next_id", "cuts", "cycle_labels")

    def __init__(self, adj, edges, labels, next_id, cuts=None, cycle_labels=None):
        self.adj: dict[VertexId, set[VertexId]] = adj
        self.edges: list[Edge] = edges   # sorted; read it, edit only through the methods
        self.labels: dict[VertexId, str] = labels
        self.next_id = next_id
        self.cuts: set[Edge] | None = cuts
        self.cycle_labels: dict[Edge, int] | None = cycle_labels

    @classmethod
    def of(cls, net: UndirectedNet) -> "_WorkGraph":
        # from the sorted edges, each vertex's neighbours go into its set in
        # ascending order, as from the sorted adjacency, which stays unbuilt
        edges = sorted(net.edges)
        adj = {v: set() for v in net.vertices}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj, edges, dict(net.leaf_labels), net.next_id,
                   None if net._cuts is None else set(net._cuts))

    def reticulation_number(self) -> int:
        return len(self.edges) - (len(self.adj) - 1)

    def add_edge(self, u: VertexId, v: VertexId) -> None:
        self._link(u, v)
        self.cuts = self.cycle_labels = None

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        self._unlink(u, v)
        self.cuts = self.cycle_labels = None

    def _link(self, u: VertexId, v: VertexId) -> None:
        insort(self.edges, canon_edge(u, v))
        self.adj[u].add(v)
        self.adj[v].add(u)

    def _unlink(self, u: VertexId, v: VertexId) -> None:
        self.adj[u].remove(v)   # a KeyError for a non-edge, before any change
        self.adj[v].remove(u)
        del self.edges[bisect_left(self.edges, canon_edge(u, v))]

    def _fresh(self) -> VertexId:
        v = self.next_id
        self.next_id += 1
        self.adj[v] = set()
        return v

    def _delete(self, v: VertexId) -> None:
        for n in list(self.adj[v]):
            self._unlink(v, n)
        del self.adj[v]

    def _join(self, v: VertexId, gone=None, joined=()) -> Edge:
        """The pair of neighbours that suppressing ``v`` joins, once the
        neighbour ``gone`` is cut off and the pairs in ``joined`` are joined;
        raises if ``v`` then has degree other than 2 or the pair is an edge."""
        ns = [n for n in self.adj[v] if n != gone]
        if len(ns) != 2:
            raise NotDegreeTwo(f"vertex {v} has degree {len(ns)}")
        a, b = sorted(ns)
        if b in self.adj[a] or (a, b) in joined:
            raise WouldCreateParallelEdge(f"edge {(a, b)} already exists")
        return a, b

    def subdivide(self, edge) -> VertexId:
        """Replace an edge by two through a fresh vertex; returns the vertex.
        Both halves are cut-edges exactly when the edge was, and otherwise
        both take its label: they lie on the same cycles."""
        u, w = canon_edge(*edge)
        if w not in self.adj.get(u, ()):
            raise UnknownEdge(f"no edge {(u, w)}")
        if u == w:
            raise WouldCreateParallelEdge(f"subdividing the self-loop at {u} would "
                                          f"create a parallel edge")
        self._unlink(u, w)
        v = self._fresh()
        self._link(u, v)
        self._link(v, w)
        if self.cuts is not None and (u, w) in self.cuts:
            self.cuts.remove((u, w))
            self.cuts.add((u, v))   # u < w < v: v is the newest vertex
            self.cuts.add((w, v))
        elif self.cycle_labels is not None:
            self.cycle_labels[u, v] = self.cycle_labels[w, v] = self.cycle_labels.pop((u, w))
        return v

    def add_leaf(self, v: VertexId, label: str) -> VertexId:
        """Hang a fresh leaf labelled ``label`` off ``v``; returns the leaf.
        Its pendant edge is a cut-edge."""
        leaf = self._fresh()
        self._link(v, leaf)
        self.labels[leaf] = label
        if self.cuts is not None:
            self.cuts.add((v, leaf))   # leaf is the newest vertex
        return leaf

    def delete_leaf(self, v: VertexId) -> None:
        """Drop the leaf ``v`` with its edge and its label."""
        del self.labels[v]
        self._delete(v)
        self.cuts = self.cycle_labels = None

    def suppress(self, v: VertexId) -> None:
        """Delete the unlabelled degree-2 vertex ``v`` and join its neighbours."""
        a, b = self._join(v)
        if v in self.labels:
            raise ValueError(f"label on undeclared vertex {v}")
        self._delete(v)
        self._link(a, b)
        self.cuts = self.cycle_labels = None

    def eliminate(self, edge) -> list[Edge] | None:
        """Delete an edge and suppress both its ends; returns the cut-edges
        this creates, or None when it drops the cut-edge set.

        The cut-edge check is left to the caller.  Both suppressions are
        checked before anything changes; the second is checked as if the
        first were done, so both ends may not join the same pair.

        With the cut-edges kept, the labels are computed if they are not
        kept yet, and updated along one path.  Bit i of a label marks the
        edges of the i-th of a set of cycles that spans the cycle space.
        A path P between the ends of a non-cut edge e, with e, is a cycle,
        and XORing the label L of e into e and each edge of P adds it to
        every spanning cycle through e.  Then no spanning cycle uses e, and
        they still span the cycle space of the graph without e (Pritchard
        & Thurimella, 2011).  Only the edges of P change, so the edges of P
        whose label becomes 0 are the new cut-edges.  Then the two edges
        at each end lie on the same cycles and carry equal labels, and the
        edge that joins them takes that label, a cut-edge when it is 0.
        The returned list holds exactly these new cut-edges that outlive
        the edit: the edges of P off both ends whose label became 0, and
        the joined edges whose label is 0.  Every other edge keeps its cut
        status.  Eliminating a cut-edge splits the graph and drops the
        cut-edges and the labels, and with no cut-edges kept nothing is
        known: both return None.
        """
        x, y = canon_edge(*edge)
        if y not in self.adj.get(x, ()):
            raise UnknownEdge(f"no edge {(x, y)}")
        if x in self.labels or y in self.labels:
            raise EndpointIsLeaf(f"{(x, y)} touches a leaf")
        first = self._join(x, gone=y)
        second = self._join(y, gone=x, joined=(first,))
        cuts = self.cuts
        marks = created = None
        if cuts is not None and (x, y) not in cuts:
            marks = self.cycle_labels
            if marks is None:
                marks = cycle_space_labels(self.adj, self.edges)
            mark = marks.pop((x, y))
            created = []
            for f in _path_between(self.adj, marks, x, y):
                if marks[f] != mark:
                    marks[f] ^= mark
                else:
                    del marks[f]
                    if x not in f and y not in f:   # an end's edges go with it
                        created.append(f)
            for v, pair in ((x, first), (y, second)):
                ends = [(v, n) if v < n else (n, v) for n in pair]
                for f in ends:
                    cuts.discard(f)
                mark = marks.pop(ends[0], 0)
                marks.pop(ends[1], None)   # the same label
                if mark:
                    marks[pair] = mark
                else:
                    created.append(pair)
            cuts.update(created)
        else:
            cuts = None
        self._unlink(x, y)
        self._delete(x)
        self._delete(y)
        self._link(*first)
        self._link(*second)
        self.cuts = cuts
        self.cycle_labels = marks
        return created

    def split_off(self, edge, side, labels) -> "_WorkGraph":
        """Cut the cut-edge ``edge`` and move ``side``, the vertices on one
        side of it with its endpoint first, out into a new working graph,
        which is returned.  Each side hangs a fresh leaf with the same id,
        ``next_id``, where ``edge`` was, labelled ``labels[0]`` on the side
        that moves and ``labels[1]`` on the side that stays.  A cycle never
        crosses a bridge, so both graphs keep their cut-edges, the old ones
        on their side plus the pendant edge, and the cycle-space labels of
        their edges, when kept.  With them kept, the work is about the size
        of ``side``."""
        cuts = self.bridges()
        cuts.remove(edge)   # a KeyError for a non-cut-edge, before any change
        keep = side[0]
        far = edge[edge[0] == keep]
        adj = {v: self.adj.pop(v) for v in side}
        adj[keep].remove(far)
        self.adj[far].remove(keep)
        inner = [(v, w) for v in side for w in adj[v] if v < w]
        for e in inner + [edge]:
            del self.edges[bisect_left(self.edges, e)]
        moved_labels = {v: self.labels.pop(v) for v in side if v in self.labels}
        marks = self.cycle_labels
        if marks is not None:
            marks = {e: marks.pop(e) for e in inner if e in marks}
        half = _WorkGraph(adj, sorted(inner), moved_labels, self.next_id,
                          cuts.intersection(inner), marks)
        cuts -= half.cuts
        half.add_leaf(keep, labels[0])
        self.add_leaf(far, labels[1])
        return half

    def bridges(self) -> set[Edge]:
        """The graph's cut-edges, found only when they are not kept.  The
        set is the graph's own: read it, and read it again after an edit."""
        if self.cuts is None:
            self.cuts = bridges(self.adj)
        return self.cuts

    def freeze(self) -> UndirectedNet:
        return UndirectedNet._trusted(frozenset(self.adj), frozenset(self.edges),
                                      dict(self.labels), self.next_id,
                                      None if self.cuts is None else frozenset(self.cuts))


# -- internals ----------------------------------------------------------------------

def _path_between(adj, marks, x, y) -> list[Edge]:
    """The edges of an ``x``-``y`` path over the edges in ``marks``: a BFS
    from each end, a level at a time on the side with the smaller
    frontier, until the two meet.  The cost is about the two balls it
    grows, not the graph."""
    seen = ({x: None}, {y: None})
    fronts = [[x], [y]]
    while True:
        s = 1 if len(fronts[1]) < len(fronts[0]) else 0
        mine, other = seen[s], seen[1 - s]
        grown = []
        for v in fronts[s]:
            for w in adj[v]:
                if w in mine or ((v, w) if v < w else (w, v)) not in marks:
                    continue
                mine[w] = v
                if w in other:
                    path = []
                    for up in (mine, other):
                        a = w
                        while (b := up[a]) is not None:
                            path.append((a, b) if a < b else (b, a))
                            a = b
                    return path
                grown.append(w)
        if not grown:
            raise AssertionError(f"no path between {x} and {y} over labelled edges")
        fronts[s] = grown


def _component_of(adj, start, forbidden_edge=None):
    """The vertices of the component of ``start``.  A ``forbidden_edge``, a
    cut-edge at ``start``, is not crossed: the search never enters its far end."""
    parent = {} if forbidden_edge is None else {v: None for v in forbidden_edge if v != start}
    return set(bfs_order(adj, [start], parent))


def _walk_path(adj, first, second, count):
    path = [first]
    if second is None:
        return path
    prev, cur = first, second
    path.append(cur)
    while len(path) < count:
        ns = [w for w in adj[cur] if w != prev]
        nxt = ns[0]
        path.append(nxt)
        prev, cur = cur, nxt
    return path


def bfs_order(adj, sources, parent):
    """Breadth-first visit order from ``sources``, all at distance zero.

    ``parent`` maps every visited vertex to the one it was reached from
    (sources map to None) and is filled in place; vertices already in it
    are not entered, so one dict shared across calls grows a spanning forest.
    """
    order = list(sources)
    for s in order:
        parent[s] = None
    for x in order:   # the loop also visits what it appends
        for w in adj[x]:
            if w not in parent:
                parent[w] = x
                order.append(w)
    return order


def tree_path(parent, a, b) -> list:
    """The vertices of the path from ``a`` to ``b`` in a forest of parent
    pointers (roots map to None); ``a`` and ``b`` must share a tree."""
    up_a = [a]
    while parent[up_a[-1]] is not None:
        up_a.append(parent[up_a[-1]])
    index_on_a = {x: i for i, x in enumerate(up_a)}
    up_b = [b]
    while up_b[-1] not in index_on_a:
        up_b.append(parent[up_b[-1]])
    return up_a[:index_on_a[up_b[-1]]] + up_b[::-1]


class UnionFind:
    """Disjoint sets with path halving; a union keeps the smaller root."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def add(self, x) -> None:
        self.parent[x] = x

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of ``a`` and ``b``; False when they were one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True
