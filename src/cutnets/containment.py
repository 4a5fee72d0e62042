"""Unrooted tree containment for 3-cuttable networks.

The decision procedure branches on non-trivial cut-edges until every piece
is simple, then shrinks each piece with four reduction rules built on
entangled paths (paths whose interior touches no cut-edge off the path).
A backtracking embedding search acts as the ground-truth oracle at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cuttable import is_q_cuttable
from .errors import (
    BudgetExceeded,
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
    _component_of,
    _cut_edge_masks,
    bfs_order,
    canon_edge,
    canonical_mask,
    eliminate_edge,
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


# --- instances -------------------------------------------------------------------

class _Instance(NamedTuple):
    """A tree and a network on the same labels, with their split masks.

    ``bits`` gives each label its mask bit and ``full`` is the union of
    them; both mask dicts map every split-inducing cut-edge to its mask,
    canonical at the lowest bit of ``full``.  Each instance carries its own
    ``bits`` because fresh labels are named per instance: ``x2`` can close
    a half waiting on the stack and, with another bit, a half of its sibling.
    """

    tree: UndirectedNet
    net: UndirectedNet
    tree_masks: dict[Edge, int]
    net_masks: dict[Edge, int]
    bits: dict[str, int]
    full: int


def _fresh_instance(tree: UndirectedNet, net: UndirectedNet) -> _Instance:
    """The instance numbered on its own: bit i is the i-th smallest label.

    The tree gets no masks when the label sets differ: then no tree split
    equals a network split.
    """
    bits = label_bits(net.labels())
    full = (1 << len(bits)) - 1
    tree_masks = _cut_edge_masks(tree, bits, full) if tree.labels() == net.labels() else {}
    return _Instance(tree, net, tree_masks, _cut_edge_masks(net, bits, full), bits, full)


# --- conflicting splits -----------------------------------------------------------

def conflicting_split(tree: UndirectedNet, net: UndirectedNet) -> tuple[Split, Split] | None:
    """First (canonical order) incompatible pair of a network split and a tree split.

    Fast path: when every network split mask is also a tree split mask there
    is no conflict, because the splits of a tree are pairwise compatible.
    Otherwise the splits are built from their masks and every network split
    is checked against every tree split, both in canonical order.  On a
    non-binary tree that scan can still find no conflict.
    """
    if tree.labels() != net.labels():
        raise LabelSetMismatch(f"{sorted(tree.labels())} vs {sorted(net.labels())}")
    inst = _fresh_instance(tree, net)
    return _first_conflict(inst, inst.net_masks.values())


def _first_conflict(inst: _Instance, net_masks) -> tuple[Split, Split] | None:
    """``conflicting_split`` over the network masks ``net_masks`` only.

    A network mask that is also a tree mask is compatible with every tree
    split, so only the others are scanned.
    """
    tree_set = set(inst.tree_masks.values())
    foreign = [m for m in net_masks if m not in tree_set]
    if not foreign:
        return None

    def ordered(masks):
        return sorted(((split_of_mask(m, inst.bits), m) for m in masks),
                      key=lambda pair: pair[0].sort_key())

    full = inst.full
    tree_splits = ordered(tree_set)
    for us, um in ordered(foreign):
        for ts, tm in tree_splits:
            # both masks hold the lowest bit of full, so the sides holding it
            # always meet; incompatible when each of the other three
            # intersections is nonempty
            if um & ~tm and tm & ~um and um | tm != full:
                return us, ts
    return None


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
    inst = _fresh_instance(tree, net)
    first, second = _branch(inst, e, 1 << len(inst.bits))
    return (first.tree, first.net), (second.tree, second.net)


def _branch(inst: _Instance, e: Edge, fresh_bit: int) -> tuple[_Instance, _Instance]:
    """``branch_on_cut_edge`` at the non-trivial cut-edge ``e``, carrying state.

    The fresh labels take the bits ``fresh_bit`` and ``fresh_bit << 1``.  A
    cycle never crosses the severed bridge, so a half's cut-edges are the
    parent's on that side plus the new pendant edge, and its masks are the
    parent's restricted to that side.
    """
    tree, net, bits = inst.tree, inst.net, inst.bits
    mask = inst.net_masks.get(e)
    if mask is None:
        raise AssertionError("a non-trivial cut-edge of a 3-cuttable network must induce a split")
    tree_edge = min((te for te, m in inst.tree_masks.items() if m == mask), default=None)
    if tree_edge is None:
        raise NoMatchingTreeEdge(f"tree has no edge inducing {split_of_mask(mask, bits)}; "
                                 "instance has a conflicting split")

    existing = net.labels()
    k = 1
    while f"x{k}" in existing or f"x{k + 1}" in existing:
        k += 1
    fresh = (f"x{k}", f"x{k + 1}")

    sides = [_component_of(net.adjacency(), v, e) for v in e]
    tree_sides = [_component_of(tree.adjacency(), v, tree_edge) for v in tree_edge]

    def label_mask(graph, side):
        out = 0
        for v, lab in graph.leaf_labels.items():
            if v in side:
                out |= bits[lab]
        return out

    side_bits = [label_mask(net, side) for side in sides]
    # pair the tree halves with the network halves holding the same labels
    order = (0, 1) if label_mask(tree, tree_sides[0]) == side_bits[0] else (1, 0)
    halves = []
    for i, j in enumerate(order):
        bit = fresh_bit << i
        half_bits = {lab: b for lab, b in bits.items() if b & side_bits[i]}
        half_bits[fresh[i]] = bit
        full = side_bits[i] | bit
        sub_tree, tree_masks = _halve(tree, inst.tree_masks, tree_edge, tree_sides[j],
                                      fresh[i], side_bits[i], full)
        sub_net, net_masks = _halve(net, inst.net_masks, e, sides[i],
                                    fresh[i], side_bits[i], full)
        halves.append(_Instance(sub_tree, sub_net, tree_masks, net_masks, half_bits, full))
    return halves[0], halves[1]


def _halve(graph, masks, severed, side, fresh_label, side_bits, full):
    """The ``side`` of the cut-edge ``severed``, with a fresh leaf hung where
    the edge was, and its masks.

    ``side_bits`` are the side's labels and ``full`` adds the fresh label's
    bit.  Each cut-edge on the side keeps the side of its split away from
    ``severed``, which lies within ``side_bits``; only the other side gains
    the fresh label.
    """
    keep = severed[0] if severed[0] in side else severed[1]
    nv = graph.next_id
    pendant = (keep, nv)

    def inside(edges):
        out = {e for e in edges if e[0] in side and e[1] in side}
        out.add(pendant)
        return frozenset(out)

    labels = {v: lab for v, lab in graph.leaf_labels.items() if v in side}
    labels[nv] = fresh_label
    half = UndirectedNet._trusted(frozenset(side) | {nv}, inside(graph.edges), labels,
                                  nv + 1, cuts=inside(graph.cut_edges()))
    half_masks = {pendant: canonical_mask(full ^ side_bits, full)}
    for e, m in masks.items():
        if e[0] in side and e[1] in side:
            away = m if m & side_bits == m else side_bits & ~m
            half_masks[e] = canonical_mask(away, full)
    return half, half_masks


# --- entangled paths ----------------------------------------------------------------

def entangled_path(net: UndirectedNet, u: int, v: int) -> tuple[int, ...] | None:
    """The unique entangled u-v path of a simple 3-cuttable network, or None.

    Deletes every vertex incident to a cut-edge not incident to u or v; any
    surviving u-v path is entangled, and uniqueness makes BFS exact.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    doomed = set()
    for e in net.cut_edges():
        if u in e or v in e:
            continue
        doomed.update(e)
    parent = dict.fromkeys(doomed)   # never entered
    bfs_order(net.adjacency(), [u], parent)
    return tuple(tree_path(parent, u, v)) if v in parent else None


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
    leaves = tree.leaves()
    anchor_leaf = tree.vertex_of_label(min(tree.labels()))
    root = tree.neighbors(anchor_leaf)[0]
    parent: dict[int, int | None] = {}
    order = bfs_order(tree.adjacency(), [root], parent)
    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    def cherry_at(p):
        ls = sorted(tree.leaf_labels[w] for w in tree.neighbors(p) if w in leaves)
        return ls if len(ls) == 2 else None

    candidates = []
    for p in tree.internal_vertices():
        ls = cherry_at(p)
        if ls:
            candidates.append((-depth[p], ls[0], p))
    candidates.sort()

    for _, _, p in candidates:
        x, y = cherry_at(p)
        (q,) = [w for w in tree.neighbors(p) if w not in leaves]
        zs = sorted(tree.leaf_labels[w] for w in tree.neighbors(q) if w in leaves)
        if zs:
            return PendantTriple(x, y, zs[0])
    for _, _, p in candidates:
        x, y = cherry_at(p)
        (q,) = [w for w in tree.neighbors(p) if w not in leaves]
        for p2 in sorted(w for w in tree.neighbors(q) if w != p and w not in leaves):
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
    """``apply_reduction`` on an instance with its masks, minus the input
    checks: ``_solve`` calls it only on pieces with no non-trivial cut-edge,
    and halves and eliminations of a 3-cuttable network are 3-cuttable."""
    tree, net = inst.tree, inst.net
    if len(net.leaf_labels) <= 3:
        return RuleOutcome("yes", 1)
    outcome = _rule2(inst)
    if outcome is not None:
        return outcome
    structure = find_pendant_structures(tree)
    if isinstance(structure, PendantTriple):
        return _rule3(net, structure)
    return _rule4(net, structure)


def _rule2(inst: _Instance):
    """Three consecutive leaf-hung vertices plus a fourth path vertex, with a
    matching pendant triple in the tree: eliminate the path's leading edge.

    ``_reduce`` calls it only on a simple piece with at least 4 leaves, so
    each internal vertex holds at most one leaf, no leaf-hung vertex is a
    leaf, no edge between internal vertices is a cut-edge, and no three
    leaf-hung vertices form a triangle (it would be the whole piece).
    """
    net, bits, full = inst.net, inst.bits, inst.full
    tree_masks = set(inst.tree_masks.values())
    leaf_at = {net.neighbors(v)[0]: lab for v, lab in net.leaf_labels.items()}
    for v1 in sorted(net.vertices - net.leaves()):
        for v2 in net.neighbors(v1):
            x = leaf_at.get(v2)
            if x is None:
                continue
            for v3 in net.neighbors(v2):
                y = leaf_at.get(v3)
                if y is None or v3 == v1:
                    continue
                xy = bits[x] | bits[y]
                if canonical_mask(xy, full) not in tree_masks:
                    continue
                for v4 in net.neighbors(v3):
                    z = leaf_at.get(v4)
                    if z is None or v4 == v2:
                        continue
                    if canonical_mask(xy | bits[z], full) in tree_masks:
                        return RuleOutcome("reduced", 2, eliminated_edge=canon_edge(v1, v2))
    return None


def _rule3(net, triple: PendantTriple):
    x, y, z = triple.x, triple.y, triple.z
    ux, uy, uz = (net.vertex_of_label(l) for l in (x, y, z))
    p = entangled_path(net, ux, uy)
    if p is None:
        return RuleOutcome("no", 3, "I")
    p_edges = _path_edges(p)
    chosen_v = None
    saw_any = False
    for v in p[1:-1]:
        p2 = entangled_path(net, uz, v)
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


def _rule4(net, quad: PendantQuad):
    w, x, y, z = quad.w, quad.x, quad.y, quad.z
    ux, uy, uw, uz = (net.vertex_of_label(l) for l in (x, y, w, z))
    p1 = entangled_path(net, ux, uy)
    p2 = entangled_path(net, uw, uz)
    if p1 is None or p2 is None:
        return RuleOutcome("no", 4, "I")
    p1_edges = _path_edges(p1)
    p2_edges = _path_edges(p2)
    if p1_edges & p2_edges:
        return RuleOutcome("no", 4, "II")
    for v1 in p1[1:-1]:
        for v2 in p2[1:-1]:
            p3 = entangled_path(net, v1, v2)
            if p3 is None or len(p3) < 3:
                continue
            p3_edges = _path_edges(p3)
            if (p3_edges & p1_edges) or (p3_edges & p2_edges):
                continue
            return RuleOutcome("reduced", 4, "IV",
                               eliminated_edge=_pick_off_path_edge(net, p1, forbidden=v1))
    return RuleOutcome("no", 4, "III")


def _pick_off_path_edge(net, path, forbidden):
    """First internal path vertex (from the path's start, skipping the anchor)
    whose third edge leaves the path; that edge is never a cut-edge."""
    on_path = set(path)
    path_edges = _path_edges(path)
    cuts = net.cut_edges()
    for u in path[1:-1]:
        if u == forbidden:
            continue
        for t in net.neighbors(u):
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
    """Polynomial-time tree containment on a 3-cuttable network, with a trace."""
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

    Mask bits are numbered once for the whole run: the input's labels get
    ``label_bits`` and each fresh label the next unused bit, so a half's
    cut-edges and masks are its parent's restricted to its side, with no
    new bridge search or renumbering.  Split conflicts are looked for once
    on the input and then only among the splits an elimination creates.
    A half needs no check: its splits match its parent's on that side one
    to one, and a pair of them is compatible exactly when the parent's pair
    is.  An elimination keeps every old split, so the first conflict in
    canonical order can only be a new one.
    """
    inst = _fresh_instance(tree, net)
    conflict = _first_conflict(inst, inst.net_masks.values())
    fresh_bit = 1 << len(inst.bits)
    pending = []
    while True:
        if conflict is not None:
            trace.append(TraceEvent("SPLIT-CONFLICT", f"{conflict[0]} vs {conflict[1]}"))
            return False
        net = inst.net
        nontrivial = sorted(net.cut_edges() - net.trivial_cut_edges())
        if nontrivial:
            e = nontrivial[0]
            first, second = _branch(inst, e, fresh_bit)
            fresh_bit <<= 2
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
        reduced = eliminate_edge(net, e)
        trace.append(TraceEvent("ELIM", f"{e[0]}-{e[1]}"))
        masks = _cut_edge_masks(reduced, inst.bits, inst.full)
        old = set(inst.net_masks.values())
        conflict = _first_conflict(inst, [m for m in masks.values() if m not in old])
        inst = inst._replace(net=reduced, net_masks=masks)
