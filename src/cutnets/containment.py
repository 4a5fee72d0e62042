"""Unrooted tree containment for 3-cuttable networks.

The decision procedure branches on non-trivial cut-edges until every piece
is simple, then shrinks each piece with four reduction rules built on
entangled paths (paths whose interior touches no cut-edge off the path).
The ground-truth oracle at desk scale, a backtracking embedding search, is
in ``reference``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

from .cuttable import is_q_cuttable
from .errors import (
    LabelSetMismatch,
    NoMatchingTreeEdge,
    NotSimple,
    NotThreeCuttable,
    TooFewLeaves,
    TrivialCutEdge,
)
from .nets import (
    Edge,
    Split,
    UndirectedNet,
    _cut_edge_masks,
    _WorkGraph,
    bfs_order,
    canon_edge,
    canonical_mask,
    check_binary_tree,
    label_bits,
    split_of_mask,
    tree_path,
)


# --- embeddings ----------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """Images of tree vertices and edges inside a network.

    ``edge_map`` keys are canonical tree edges; each value is the image path
    as a vertex tuple running from the image of the smaller endpoint.
    """

    vertex_map: dict[int, int]
    edge_map: dict[Edge, tuple[int, ...]]


def embedding_violations(tree: UndirectedNet, net: UndirectedNet, emb: Embedding) -> list[str]:
    """Check the five embedding properties; report each failure by its index."""
    bad = []
    vm = emb.vertex_map
    for v in sorted(tree.vertices):
        if v not in vm or vm[v] not in net.vertices:
            bad.append(f"(i) tree vertex {v} has no image in the network")
    for v, lab in tree.leaf_labels.items():
        if vm.get(v) != net.vertex_of_label(lab):
            bad.append(f"(ii) leaf {lab} is not mapped to itself")
    images = [vm[v] for v in tree.vertices if v in vm]
    if len(set(images)) != len(images):
        bad.append("(iii) vertex images are not pairwise distinct")
    used: dict[Edge, Edge] = {}
    for e in sorted(tree.edges):
        path = emb.edge_map.get(e)
        if path is None:
            bad.append(f"(iv) tree edge {e} has no image path")
            continue
        if len(set(path)) != len(path) or len(path) < 2:
            bad.append(f"(iv) image of {e} is not a path")
            continue
        if any(not net.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1)):
            bad.append(f"(iv) image of {e} uses a non-edge")
            continue
        if path[0] != vm.get(e[0]) or path[-1] != vm.get(e[1]):
            bad.append(f"(iv) image of {e} does not run between its endpoint images")
        for i in range(len(path) - 1):
            ue = canon_edge(path[i], path[i + 1])
            if ue in used and used[ue] != e:
                bad.append(f"(v) images of {used[ue]} and {e} share the edge {ue}")
            used[ue] = e
    return bad


def verify_embedding(tree: UndirectedNet, net: UndirectedNet, emb: Embedding) -> bool:
    if tree.labels() != net.labels():
        raise LabelSetMismatch(f"{sorted(tree.labels())} vs {sorted(net.labels())}")
    return not embedding_violations(tree, net, emb)


# --- instances -------------------------------------------------------------------

class _Instance(NamedTuple):
    """A tree and a network on the same labels, with their label groups.

    ``tree`` and ``net`` are working graphs, thawed once by
    ``_fresh_instance`` and edited in place: an ELIM edits ``net``, and
    ``_branch`` turns the instance into its larger half, so an instance is
    used up by branching on it.

    ``bits`` maps each label to its group of mask bits.  The groups are
    pairwise disjoint, their union is ``full``, and every mask is a union
    of groups, so masks compare and intersect as the label sets they stand
    for.  An input label's group is one bit (``label_bits``); the fresh
    label of a BRANCH half stands for the other side's labels and takes the
    union of their groups.  Masks are canonical at the lowest bit of
    ``full``.  Each instance carries its own ``bits`` because fresh labels
    are named per instance: ``x2`` can close a half waiting on the stack
    and, with another group, a half of its sibling.

    ``tree_edges`` maps each mask of the input tree to the smallest edge
    that has it; one dict serves the whole run, and it is also the set of
    the instance's tree masks.  A tree edge keeps its mask and lies in one
    half, and the mask of a tree edge outside a half splits one of the
    half's groups, so it is no union of them and never equals a mask of
    the half.  The exception is the severed edge's mask, which both
    pendant edges take, so it is a mask of both halves.

    ``branchable`` lists the network's non-trivial cut-edges in sorted
    order.  ``_fresh_instance`` and ``_branch`` build it, and an ELIM adds
    the non-trivial cut-edges that ``_WorkGraph.eliminate`` reports.
    """

    tree: _WorkGraph
    net: _WorkGraph
    bits: dict[str, int]
    full: int
    tree_edges: dict[int, Edge]
    branchable: list[Edge]


def _fresh_instance(tree: UndirectedNet, net: UndirectedNet) -> _Instance:
    """The instance numbered on its own: bit i is the i-th smallest label.

    ``tree_edges`` is empty when the label sets differ: then no tree split
    equals a network split.
    """
    bits = label_bits(net.labels())
    full = (1 << len(bits)) - 1
    t, n = _WorkGraph.of(tree), _WorkGraph.of(net)
    tree_masks = _masks(t, bits, full) if tree.labels() == net.labels() else {}
    tree_edges: dict[int, Edge] = {}
    for e in sorted(tree_masks, reverse=True):   # the smallest edge writes last
        tree_edges[tree_masks[e]] = e
    return _Instance(t, n, bits, full, tree_edges, _branchable(n))


def _masks(graph: _WorkGraph, bits, full) -> dict[Edge, int]:
    return _cut_edge_masks(graph.adj, graph.bridges(), graph.labels, bits, full)


def _branchable(graph: _WorkGraph) -> list[Edge]:
    return sorted(e for e in graph.bridges()
                  if e[0] not in graph.labels and e[1] not in graph.labels)


# --- conflicting splits -----------------------------------------------------------

def conflicting_split(tree: UndirectedNet, net: UndirectedNet) -> tuple[Split, Split] | None:
    """First (canonical order) incompatible pair of a network split and a tree split.

    The network split that is smallest in canonical order among those
    incompatible with some tree split is paired with the smallest tree
    split it is incompatible with.  ``tree`` must be a binary phylogenetic
    tree.
    """
    check_binary_tree(tree)
    if tree.labels() != net.labels():
        raise LabelSetMismatch(f"{sorted(tree.labels())} vs {sorted(net.labels())}")
    return _first_conflict(_fresh_instance(tree, net))


def _first_conflict(inst: _Instance, masks=None) -> tuple[Split, Split] | None:
    """``conflicting_split`` on an instance whose tree is binary, looking
    through the network ``masks``, by default every one of the piece.

    The splits of a binary phylogenetic tree form a maximal compatible set
    (Semple & Steel, *Phylogenetics*, OUP 2003), so a network split is
    incompatible with some tree split exactly when it is not a tree split:
    the network's masks are looked up in ``tree_edges``, and the smallest
    foreign split is reported.  Only then are the tree's own masks
    computed, to name its smallest partner.  ``Split`` values are built
    only for the foreign masks and for the partners.
    """
    bits, full = inst.bits, inst.full
    if masks is None:
        masks = _masks(inst.net, bits, full).values()
    foreign = [m for m in masks if m not in inst.tree_edges]
    if not foreign:
        return None
    us, um = min(((split_of_mask(m, bits), m) for m in foreign),
                 key=lambda pair: pair[0].sort_key())
    # both masks hold the lowest bit of full, so the sides holding it
    # always meet; incompatible when each of the other three intersections
    # is nonempty
    ts = min((split_of_mask(tm, bits) for tm in _masks(inst.tree, bits, full).values()
              if um & ~tm and tm & ~um and um | tm != full),
             key=Split.sort_key)
    return us, ts


# --- branching ---------------------------------------------------------------------

def branch_on_cut_edge(tree: UndirectedNet, net: UndirectedNet, edge):
    """Split the instance at a non-trivial cut-edge into two sub-instances.

    Both sides get a fresh leaf closing the severed stubs; the tree is split
    at its unique edge inducing the same leaf bipartition.
    """
    e = canon_edge(*edge)
    if e not in net.cut_edges():
        raise TrivialCutEdge(f"{e} is not a cut-edge")
    leaves = net.leaves()
    if e[0] in leaves or e[1] in leaves:
        raise TrivialCutEdge(f"{e} is a trivial cut-edge")
    first, second = _branch(_fresh_instance(tree, net), e)
    return (first.tree.freeze(), first.net.freeze()), (second.tree.freeze(), second.net.freeze())


def _branch(inst: _Instance, e: Edge) -> tuple[_Instance, _Instance]:
    """``branch_on_cut_edge`` at the non-trivial cut-edge ``e``, carrying
    state, in time about linear in the smaller side of ``e`` and of its
    tree edge.

    The smaller side of each graph moves out into a new working graph
    (``_WorkGraph.split_off``), and ``inst`` becomes the larger half in
    place: its graphs, label groups and ``branchable`` list lose what
    moved, so ``inst`` is used up.  The mask of ``e`` is the union of the
    groups of the labels on the network's smaller side, and ``tree_edges``
    names its tree edge.  A cycle never crosses the severed bridge, so a
    half's cut-edges are the parent's on that side plus the new pendant
    edge.  A half keeps its parent's ``full``, and its fresh label's group
    is the union of the other side's groups, so each cut-edge on the side
    keeps its parent's mask and the pendant edge takes the mask of the
    severed edge.
    """
    tree, net, bits, full = inst.tree, inst.net, inst.bits, inst.full
    small = _smaller_side(net.adj, e)
    # disjoint groups: their sum is their union
    side = sum(bits[net.labels[v]] for v in small if v in net.labels)
    if not side or side == full:
        raise AssertionError("a non-trivial cut-edge of a 3-cuttable network must induce a split")
    mask = canonical_mask(side, full)
    tree_edge = inst.tree_edges.get(mask)
    if tree_edge is None:
        raise NoMatchingTreeEdge(f"tree has no edge inducing {split_of_mask(mask, bits)}; "
                                 "instance has a conflicting split")
    k = 1
    while f"x{k}" in bits or f"x{k + 1}" in bits:
        k += 1
    i = e.index(small[0])
    fresh = (f"x{k + i}", f"x{k + 1 - i}")   # x{k} closes the side of e[0]
    small_bits = {net.labels[v]: bits.pop(net.labels[v]) for v in small if v in net.labels}
    small_bits[fresh[0]] = full ^ side
    bits[fresh[1]] = side
    s_net = net.split_off(e, small, fresh)
    s_branchable = _branchable(s_net)
    for f in s_branchable + [e]:
        del inst.branchable[bisect_left(inst.branchable, f)]

    # the tree's smaller side can hold either side's labels
    t_small = _smaller_side(tree.adj, tree_edge)
    same = any(tree.labels.get(v) in small_bits for v in t_small)
    s_tree = tree.split_off(tree_edge, t_small, fresh if same else fresh[::-1])
    small_half = _Instance(s_tree if same else tree, s_net, small_bits, full,
                           inst.tree_edges, s_branchable)
    large_half = inst if same else inst._replace(tree=s_tree)
    return (small_half, large_half) if i == 0 else (large_half, small_half)


def _smaller_side(adj, e: Edge) -> list[int]:
    """The vertices on the smaller side of the cut-edge ``e``, its endpoint
    first: one search from each end, a vertex at a time in turn, stopped
    when one side is exhausted, so it visits about twice the smaller side.
    Neither search can cross ``e``, so they share one seen set."""
    sides = ([e[0]], [e[1]])
    seen = set(e)
    pos = 0
    while True:
        for side in sides:
            if pos == len(side):
                return side
            for w in adj[side[pos]]:
                if w not in seen:
                    seen.add(w)
                    side.append(w)
        pos += 1


# --- entangled paths ----------------------------------------------------------------

def entangled_path(net: UndirectedNet, u: int, v: int) -> tuple[int, ...] | None:
    """The unique entangled u-v path of a simple 3-cuttable network, or None."""
    return _entangled_path(net.adjacency(), net.cut_edges(), u, v)


def _entangled_path(adj, cuts, u, v) -> tuple[int, ...] | None:
    """``entangled_path`` over a neighbour map and its cut-edge set.

    Deletes every vertex incident to a cut-edge not incident to u or v; any
    surviving u-v path is entangled, and uniqueness makes BFS exact, in any
    neighbour order.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    doomed = set()
    for e in cuts:
        if u in e or v in e:
            continue
        doomed.update(e)
    parent = dict.fromkeys(doomed)   # never entered
    bfs_order(adj, [u], parent)
    return tuple(tree_path(parent, u, v)) if v in parent else None


def _path_edges(path) -> set[Edge]:
    return {canon_edge(path[i], path[i + 1]) for i in range(len(path) - 1)}


# --- pendant structures ----------------------------------------------------------------

@dataclass(frozen=True)
class PendantTriple:
    x: str
    y: str
    z: str


@dataclass(frozen=True)
class PendantQuad:
    w: str
    x: str
    y: str
    z: str


def find_pendant_structures(tree: UndirectedNet):
    """A pendant three-leaf subtree with a cherry, else a pendant four-leaf
    subtree with two cherries; deepest cherry first, labels break ties."""
    if len(tree.leaf_labels) < 4:
        raise TooFewLeaves("need at least 4 leaves")
    return _pendant_structure(tree.adjacency(), tree.leaf_labels)


def _pendant_structure(adj, labels):
    """``find_pendant_structures`` over a neighbour map and its leaf labels.
    Depths do not depend on the BFS order, and every pick is sorted, so
    any neighbour order gives the same structure."""
    anchor = min(labels, key=labels.__getitem__)
    root = next(iter(adj[anchor]))
    parent: dict[int, int | None] = {}
    order = bfs_order(adj, [root], parent)
    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    def cherry_at(p):
        ls = sorted(labels[w] for w in adj[p] if w in labels)
        return ls if len(ls) == 2 else None

    candidates = []
    for p in adj.keys() - labels.keys():
        ls = cherry_at(p)
        if ls:
            candidates.append((-depth[p], ls[0], p))
    candidates.sort()

    for _, _, p in candidates:
        x, y = cherry_at(p)
        (q,) = [w for w in adj[p] if w not in labels]
        zs = sorted(labels[w] for w in adj[q] if w in labels)
        if zs:
            return PendantTriple(x, y, zs[0])
    for _, _, p in candidates:
        x, y = cherry_at(p)
        (q,) = [w for w in adj[p] if w not in labels]
        for p2 in sorted(w for w in adj[q] if w != p and w not in labels):
            pair = cherry_at(p2)
            if pair:
                return PendantQuad(pair[0], x, y, pair[1])
    raise AssertionError("every tree on 4+ leaves has a pendant triple or quad")


# --- the four reduction rules -------------------------------------------------------------

@dataclass(frozen=True)
class RuleOutcome:
    verdict: str                     # "yes" | "no" | "reduced"
    rule_id: int
    case: str | None = None         # I..IV where the rule splits into cases
    eliminated_edge: Edge | None = None   # set when the verdict is "reduced"


def apply_reduction(tree: UndirectedNet, net: UndirectedNet) -> RuleOutcome:
    """Try the rules in order on a simple instance; exactly one applies."""
    if not net.is_simple_network():
        raise NotSimple("network has a non-trivial cut-edge")
    if not is_q_cuttable(net, 3):
        raise NotThreeCuttable("network is not 3-cuttable")
    return _reduce(_fresh_instance(tree, net))


def _reduce(inst: _Instance) -> RuleOutcome:
    """``apply_reduction`` on an instance, minus the input checks:
    ``_solve`` calls it only on pieces with no non-trivial cut-edge, and
    halves and eliminations of a 3-cuttable network are 3-cuttable.
    The rules read the working graphs; each pick that depends on an order
    follows sorted neighbours."""
    net = inst.net
    if len(net.labels) <= 3:
        return RuleOutcome("yes", 1)
    outcome = _rule2(inst)
    if outcome is not None:
        return outcome
    structure = _pendant_structure(inst.tree.adj, inst.tree.labels)
    vertex_of = {lab: v for v, lab in net.labels.items()}
    if isinstance(structure, PendantTriple):
        return _rule3(net, vertex_of, structure)
    return _rule4(net, vertex_of, structure)


def _rule2(inst: _Instance):
    """Three consecutive leaf-hung vertices plus a fourth path vertex, with a
    matching pendant triple in the tree: eliminate the path's leading edge.

    ``_reduce`` calls it only on a simple piece with at least 4 leaves, so
    each internal vertex holds at most one leaf, no leaf-hung vertex is a
    leaf, no edge between internal vertices is a cut-edge, and no three
    leaf-hung vertices form a triangle (it would be the whole piece).
    The unions of the piece's label groups in ``tree_edges`` are the
    piece's tree masks (see ``_Instance``).  The edge found depends only
    on v1 and v2, which are visited in sorted order.
    """
    bits, full, tree_masks = inst.bits, inst.full, inst.tree_edges
    adj, labels = inst.net.adj, inst.net.labels
    leaf_at = {w: lab for v, lab in labels.items() for w in adj[v]}
    for v1 in sorted(adj.keys() - labels.keys()):
        for v2 in sorted(adj[v1]):
            x = leaf_at.get(v2)
            if x is None:
                continue
            for v3 in adj[v2]:
                y = leaf_at.get(v3)
                if y is None or v3 == v1:
                    continue
                xy = bits[x] | bits[y]
                if canonical_mask(xy, full) not in tree_masks:
                    continue
                for v4 in adj[v3]:
                    z = leaf_at.get(v4)
                    if z is None or v4 == v2:
                        continue
                    if canonical_mask(xy | bits[z], full) in tree_masks:
                        return RuleOutcome("reduced", 2, eliminated_edge=canon_edge(v1, v2))
    return None


def _rule3(net: _WorkGraph, vertex_of, triple: PendantTriple):
    adj, cuts = net.adj, net.bridges()
    ux, uy, uz = (vertex_of[l] for l in (triple.x, triple.y, triple.z))
    p = _entangled_path(adj, cuts, ux, uy)
    if p is None:
        return RuleOutcome("no", 3, "I")
    p_edges = _path_edges(p)
    chosen_v = None
    saw_any = False
    for v in p[1:-1]:
        p2 = _entangled_path(adj, cuts, uz, v)
        if p2 is None:
            continue
        saw_any = True
        if p_edges & _path_edges(p2):
            continue
        chosen_v = v
        break
    if not saw_any:
        return RuleOutcome("no", 3, "II")
    if chosen_v is None:
        raise AssertionError("an edge-disjoint entangled prefix must exist")
    return RuleOutcome("reduced", 3, "III",
                       eliminated_edge=_pick_off_path_edge(net, p, forbidden=chosen_v))


def _rule4(net: _WorkGraph, vertex_of, quad: PendantQuad):
    adj, cuts = net.adj, net.bridges()
    ux, uy, uw, uz = (vertex_of[l] for l in (quad.x, quad.y, quad.w, quad.z))
    p1 = _entangled_path(adj, cuts, ux, uy)
    p2 = _entangled_path(adj, cuts, uw, uz)
    if p1 is None or p2 is None:
        return RuleOutcome("no", 4, "I")
    p1_edges = _path_edges(p1)
    p2_edges = _path_edges(p2)
    if p1_edges & p2_edges:
        return RuleOutcome("no", 4, "II")
    for v1 in p1[1:-1]:
        for v2 in p2[1:-1]:
            p3 = _entangled_path(adj, cuts, v1, v2)
            if p3 is None or len(p3) < 3:
                continue
            p3_edges = _path_edges(p3)
            if (p3_edges & p1_edges) or (p3_edges & p2_edges):
                continue
            return RuleOutcome("reduced", 4, "IV",
                               eliminated_edge=_pick_off_path_edge(net, p1, forbidden=v1))
    return RuleOutcome("no", 4, "III")


def _pick_off_path_edge(net: _WorkGraph, path, forbidden):
    """First internal path vertex (from the path's start, skipping the anchor)
    whose third edge leaves the path; that edge is never a cut-edge."""
    on_path = set(path)
    path_edges = _path_edges(path)
    cuts = net.bridges()
    for u in path[1:-1]:
        if u == forbidden:
            continue
        for t in sorted(net.adj[u]):
            e = canon_edge(u, t)
            if e in path_edges or t in on_path or e in cuts:
                continue
            return e
    raise AssertionError("no eliminable edge off the entangled path")


# --- the decision procedure ------------------------------------------------------------

@dataclass(frozen=True)
class TraceEvent:
    """One step of the decision procedure; it keeps no graph."""

    kind: str                      # SPLIT-CONFLICT | BRANCH | RULE | ELIM | YES | NO
    detail: str = ""


def serialize_trace(events) -> str:
    lines = ["TCTRACE/1"]
    for ev in events:
        lines.append(f"{ev.kind} {ev.detail}".rstrip())
    return "\n".join(lines) + "\n"


def three_cuttable_tc(tree: UndirectedNet, net: UndirectedNet) -> tuple[bool, list[TraceEvent]]:
    """Polynomial-time tree containment on a 3-cuttable network, with a trace.
    ``tree`` must be a binary phylogenetic tree."""
    check_binary_tree(tree)
    if tree.labels() != net.labels():
        raise LabelSetMismatch(f"{sorted(tree.labels())} vs {sorted(net.labels())}")
    if not is_q_cuttable(net, 3):
        raise NotThreeCuttable("network is not 3-cuttable")
    trace: list[TraceEvent] = []
    verdict = _solve(tree, net, trace)
    trace.append(TraceEvent("YES" if verdict else "NO"))
    return verdict, trace


def _solve(tree, net, trace):
    """Decide one instance, appending its events to ``trace``.

    A branch decides its first half before its second; the second halves
    wait on an explicit stack, so depth is not bounded by the call stack.
    An ELIM edits the piece in place, keeping its cut-edges with the
    cycle-space labels of ``_WorkGraph.eliminate``, and a BRANCH moves the
    smaller side out of it.

    The input's labels get ``label_bits``, and each fresh label of a branch
    the group of the labels it stands for (see ``_Instance``), so masks
    stay |X| bits wide for the whole run.  A half's cut-edges are its
    parent's on its side, with no new bridge search or renumbering, and
    ``_branch`` costs about the smaller side.  Split conflicts are looked
    for on the input, with one mask pass over the network.  A half needs
    no check: its splits match its parent's on that side one to one, and
    a pair of them is compatible exactly when the parent's pair is.  An
    elimination keeps every other cut-edge and its split, so only the
    cut-edges it reports are checked, each mask the union of the label
    groups on its smaller side; every older split of the piece is a tree
    split, or the run would have stopped.  The new non-trivial cut-edges
    also make up the piece's ``branchable`` list: a rule fires only when
    that list is empty.
    """
    inst = _fresh_instance(tree, net)
    conflict = _first_conflict(inst)
    pending = []
    while True:
        if conflict is not None:
            trace.append(TraceEvent("SPLIT-CONFLICT", f"{conflict[0]} vs {conflict[1]}"))
            return False
        if inst.branchable:
            e = inst.branchable[0]
            first, second = _branch(inst, e)
            trace.append(TraceEvent("BRANCH", f"{e[0]}-{e[1]}"))
            pending.append(second)
            inst = first
            continue
        outcome = _reduce(inst)
        case = f" {outcome.case}" if outcome.case else ""
        trace.append(TraceEvent("RULE", f"{outcome.rule_id}{case}"))
        if outcome.verdict == "yes":
            if not pending:
                return True
            inst = pending.pop()
            continue
        if outcome.verdict == "no":
            return False
        e = outcome.eliminated_edge
        piece, bits, full = inst.net, inst.bits, inst.full
        created = piece.eliminate(e)
        trace.append(TraceEvent("ELIM", f"{e[0]}-{e[1]}"))
        # a rule fires only when nothing is branchable, so no end edge of
        # the elimination has to leave the list
        labels = piece.labels
        masks = []
        for f in created:
            if f[0] in labels or f[1] in labels:
                continue   # a trivial cut-edge's mask is one group: a tree mask
            insort(inst.branchable, f)
            side = sum(bits[labels[v]] for v in _smaller_side(piece.adj, f) if v in labels)
            if side and side != full:
                masks.append(canonical_mask(side, full))
        conflict = _first_conflict(inst, masks)
