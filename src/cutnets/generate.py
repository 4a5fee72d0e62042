"""Seeded deterministic generators for fixtures and property tests."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from .cuttable import _find_cycle_avoiding, is_q_cuttable
from .errors import InvalidN, WouldCreateParallelEdge
from .nets import UndirectedNet, _WorkGraph, canon_edge
from .sat import CnfInstance, validate_2balanced


@dataclass(frozen=True)
class GenConfig:
    seed: int
    leaf_count: int
    target_r: int = 0
    target_q: int = 1

    def __post_init__(self):
        if self.leaf_count < 2:
            raise ValueError("need at least 2 leaves")
        if self.target_r > 0 and self.leaf_count < 3:
            # no simple binary network has 2 leaves and r = 1, and the handle
            # scheme needs two distinct tree edges anyway
            raise ValueError("reticulations need at least 3 leaves")
        if self.target_q < 1:
            raise ValueError("target_q must be >= 1")
        if self.target_r < 0:
            raise ValueError("target_r must be >= 0")


def random_tree(labels, seed: int) -> UndirectedNet:
    """Random binary tree by sequential leaf attachment; deterministic per seed."""
    return _tree_graph(labels, seed).freeze()


def _tree_graph(labels, seed: int) -> _WorkGraph:
    labels = sorted(labels)
    if len(labels) < 2:
        raise ValueError("need at least 2 labels")
    if len(set(labels)) < len(labels):
        raise ValueError("labels must be distinct")
    rng = random.Random(seed)
    g = _WorkGraph({1: {2}, 2: {1}}, [(1, 2)], {1: labels[0], 2: labels[1]}, 3)
    for label in labels[2:]:
        g.add_leaf(g.subdivide(rng.choice(g.edges)), label)
    return g


def make_q_cuttable(net: UndirectedNet, q: int) -> UndirectedNet:
    """Insert leaf-decorated q-vertex paths into witness cycles until the
    network is q-cuttable.  Insertions never create cycles, so this
    terminates; fresh leaves use the reserved ``aug_`` prefix, numbered
    above every ``aug_<k>`` label already present.  The input is recognized
    once and a q-cuttable input is returned as it is; the rounds after that
    recognize nothing (see ``_augment``)."""
    if is_q_cuttable(net, q):
        return net
    return _augment(_WorkGraph.of(net), q)


def _augment(g: _WorkGraph, q: int) -> UndirectedNet:
    """``make_q_cuttable`` on a working graph.

    ``is_q_cuttable`` dooms every vertex on a maximal chain of at least q
    vertices and returns the first cycle that ``_find_cycle_avoiding``
    closes among the other vertices.  The doomed set only grows from round
    to round.  A round subdivides one non-cut edge, a cycle edge, q times
    and hangs a leaf off each new vertex, which keeps the cut status of
    every other edge.  So the only chain that changes is the one through
    the new path, and it has at least q vertices: the q new ones and the
    chain through each end of the old edge that has a cut-edge (both ends
    are in the blob).

    So the chains are read once, from one frozen copy.  Each round searches
    the working graph itself, then dooms the new chain by a walk from the
    new path over the cut-edge set that ``subdivide`` and ``add_leaf`` keep
    current.  The graph is frozen again on return.
    """
    taken = [int(lab[4:]) for lab in g.labels.values()
             if lab.startswith("aug_") and lab[4:].isdecimal()]
    counter = max(taken, default=0) + 1
    cuts = g.bridges()   # kept from here on
    doomed = {v for chain in g.freeze().maximal_chains() if chain.length >= q
              for v in chain.path_vertices}
    while (cycle := _find_cycle_avoiding(g.adj, doomed)) is not None:
        attach, far = min(canon_edge(cycle[i], cycle[(i + 1) % len(cycle)])
                          for i in range(len(cycle)))
        stack = []
        for _ in range(q):
            attach = g.subdivide((attach, far))
            g.add_leaf(attach, f"aug_{counter}")
            counter += 1
            stack.append(attach)
        doomed.update(stack)
        while stack:   # along non-cut edges to cut-edge-incident vertices
            v = stack.pop()
            for w in g.adj[v]:
                if (w not in doomed and canon_edge(v, w) not in cuts
                        and any(canon_edge(w, n) in cuts for n in g.adj[w])):
                    doomed.add(w)
                    stack.append(w)
    return g.freeze()


def random_q_cuttable(config: GenConfig) -> UndirectedNet:
    """Random tree, then reticulation handles, then chain insertion until
    the target cuttability holds; reticulation number equals target_r."""
    labels = [f"t{i}" for i in range(1, config.leaf_count + 1)]
    rng = random.Random(config.seed)
    g = _tree_graph(labels, rng.randrange(2**32))
    for _ in range(config.target_r):
        e1, e2 = rng.sample(g.edges, 2)
        m1 = g.subdivide(e1)
        m2 = g.subdivide(e2)
        g.add_edge(m1, m2)
    return _augment(g, config.target_q)


def sample_displayed_tree(net: UndirectedNet, seed: int) -> UndirectedNet:
    """Eliminate random non-cut edges down to a tree; the result is displayed
    by the input since every elimination preserves display upward.

    Each round shuffles a copy of the sorted non-cut edges and eliminates
    the first that joins no pair twice.  The sorted list is kept across
    rounds: an elimination removes the edges at its two ends, makes the
    cut-edges it reports, and adds the two joined edges, each non-cut
    unless reported.  No other edge changes its cut status."""
    if net.reticulation_number() == 0:
        return net
    rng = random.Random(seed)
    g = _WorkGraph.of(net)   # eliminate keeps its cut-edge set current
    cuts = g.bridges()
    non_cut = [e for e in g.edges if e not in cuts]   # sorted, as g.edges is
    while g.reticulation_number() > 0:
        candidates = non_cut[:]
        rng.shuffle(candidates)
        for x, y in candidates:
            pairs = [tuple(sorted(g.adj[v] - {w})) for v, w in ((x, y), (y, x))]
            try:
                created = g.eliminate((x, y))
                break
            except WouldCreateParallelEdge:
                continue
        else:
            raise WouldCreateParallelEdge("every non-cut edge elimination would "
                                          "create a parallel edge")
        ends = [canon_edge(v, n) for v, pair in zip((x, y), pairs) for n in pair]
        for f in [(x, y)] + ends + created:
            i = bisect_left(non_cut, f)
            if i < len(non_cut) and non_cut[i] == f:
                del non_cut[i]
        for pair in pairs:
            if pair not in created:
                insort(non_cut, pair)
    return g.freeze()


def random_2balanced_cnf(n: int, seed: int) -> CnfInstance:
    """Random 2-balanced instance: shuffle the 4n signed occurrence slots into
    clauses of three, resampling until no clause repeats a variable."""
    if n % 3 != 0 or n <= 0:
        raise InvalidN("variable count must be a positive multiple of 3")
    rng = random.Random(seed)
    slots = [i for i in range(1, n + 1) for _ in range(2)]
    slots += [-i for i in range(1, n + 1) for _ in range(2)]
    while True:
        rng.shuffle(slots)
        clauses = [tuple(slots[i:i + 3]) for i in range(0, len(slots), 3)]
        if all(len({abs(l) for l in clause}) == 3 for clause in clauses):
            cnf = CnfInstance(n, tuple(clauses))
            report = validate_2balanced(cnf)
            if not report.ok:
                raise AssertionError("generator produced an unbalanced instance: "
                                     + "; ".join(report.violations))
            return cnf
