import random
from collections import Counter
from functools import cache

import pytest

from cutnets import UndirectedNet, CnfInstance, containment, make_q_cuttable, random_tree
from cutnets.formats import parse_newick_tree
from cutnets.nets import _component_of, _WorkGraph, canon_edge, eliminate_edge, subdivide


@pytest.fixture
def two_leaf():
    return UndirectedNet({1, 2}, {(1, 2)}, {1: "a", 2: "b"})


@pytest.fixture
def cycle4():
    """4-cycle with a pendant leaf on each cycle vertex."""
    return UndirectedNet.build(
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8)],
        {5: "a", 6: "b", 7: "c", 8: "d"},
    )


@pytest.fixture
def theta3():
    """Two degree-3 hubs joined by three subdivided paths, a leaf per path."""
    return UndirectedNet.build(
        [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2), (3, 6), (4, 7), (5, 8)],
        {6: "a", 7: "b", 8: "c"},
    )


@pytest.fixture
def k4_sub():
    """K4 with one edge subdivided to carry the single leaf: a blob with a
    cycle no vertex of which touches a cut-edge."""
    return UndirectedNet.build(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6)], {6: "a"}
    )


@pytest.fixture
def phi_bench():
    """(x v -y v z)(-x v y v -z)(x v y v -z)(-x v -y v z)"""
    return CnfInstance(3, ((1, -2, 3), (-1, 2, -3), (1, 2, -3), (-1, -2, 3)))


@pytest.fixture
def displayed_pair():
    """A 3-cuttable network on six leaves together with a tree it displays
    and the hand-checked embedding data (network ids v1..v8 are 1..8)."""
    net = UndirectedNet.build(
        [(1, 9), (2, 10), (3, 11), (5, 12), (6, 13), (7, 14),
         (1, 2), (6, 7), (3, 4), (4, 5), (1, 8), (7, 8), (4, 8), (2, 3), (5, 6)],
        {9: "a", 10: "b", 11: "c", 12: "d", 13: "e", 14: "f"},
    )
    tree = parse_newick_tree("((a,b),(c,d),(e,f));")
    return tree, net


@pytest.fixture
def conflicting_pair():
    """Two leaf-decorated 4-cycles joined by a cut-edge inducing abc|dfg,
    against a tree carrying the incompatible split abg|cdf."""
    net = UndirectedNet.build(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 6), (3, 7), (4, 8),
         (8, 9), (9, 10), (10, 11), (11, 8), (9, 12), (10, 13), (11, 14)],
        {5: "a", 6: "b", 7: "c", 12: "d", 13: "f", 14: "g"},
    )
    tree = parse_newick_tree("(((a,b),g),((d,f),c));")
    return tree, net


@cache
def triangle_net(leaves: int = 4000) -> UndirectedNet:
    """A random tree with a triangle hung at every other internal vertex:
    two of the vertex's edges are subdivided and the midpoints joined.  At
    4000 leaves it has 1999 blobs and 13994 edges, enough that work per
    blob that scans the whole network shows."""
    tree = random_tree([f"t{i}" for i in range(leaves)], 3)
    g = _WorkGraph.of(tree)
    for v in sorted(tree.internal_vertices())[::2]:
        a, b = sorted(g.adj[v])[:2]
        g.add_edge(g.subdivide((v, a)), g.subdivide((v, b)))
    return g.freeze()


def build_simple_3cuttable(seed: int) -> UndirectedNet:
    """Simple 3-cuttable network: leaf-decorated ring, a few in-blob handles,
    then chain insertion; every step preserves simpleness."""
    rng = random.Random(seed)
    k = rng.randint(4, 7)
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    labels = {}
    for i in range(1, k + 1):
        leaf = k + i
        edges.append((i, leaf))
        labels[leaf] = f"t{i}"
    net = UndirectedNet.build(edges, labels)
    for _ in range(rng.randint(0, 2)):
        e1, e2 = rng.sample(sorted(net.edges), 2)
        net, m1 = subdivide(net, e1)
        net, m2 = subdivide(net, e2)
        net = net.replace(edges=net.edges | {canon_edge(m1, m2)})
    return make_q_cuttable(net, 3)


def blob_nni_tree(net: UndirectedNet, tree: UndirectedNet, seed: int):
    """``tree``, a tree ``net`` displays, after one NNI on the top tree of
    the network's largest blob, or None when that top tree has no internal
    edge.

    Each cut-edge leaving the blob hangs a part of the network, and each
    part's labels form a clade of ``tree``.  With every part contracted to
    one leaf, what is left of ``tree`` is the blob's top tree: its edges
    are the tree edges with labels of two or more parts on each side.  The
    NNI at one of them, (a, b), swaps a subtree at a with one at b.  Each
    part stays a clade, so every split of a cut-edge of the network is
    still a split of the result, and the verdict is decided inside the
    blob.  It is not known by construction: some results are displayed.
    """
    blob = max(net.blobs(), key=lambda b: len(b.vertices)).vertices
    adj, t_adj = net.adjacency(), tree.adjacency()
    part_of = {}
    for v in blob:
        for w in adj[v]:
            if w not in blob:
                for u in _component_of(adj, w, forbidden_edge=canon_edge(v, w)):
                    if u in net.leaf_labels:
                        part_of[net.leaf_labels[u]] = w

    def parts(side):
        return len({part_of[tree.leaf_labels[u]] for u in side if u in tree.leaf_labels})

    top = []
    for a, b in sorted(tree.edges):
        side = _component_of(t_adj, a, forbidden_edge=(a, b))
        if parts(side) > 1 and parts(tree.vertices - side) > 1:
            top.append((a, b))
    if not top:
        return None
    rng = random.Random(seed)
    a, b = rng.choice(top)
    a1 = rng.choice([n for n in t_adj[a] if n != b])
    b1 = rng.choice([n for n in t_adj[b] if n != a])
    return tree.replace(edges=tree.edges - {canon_edge(a, a1), canon_edge(b, b1)}
                        | {canon_edge(a, b1), canon_edge(b, a1)})


def spy_on_pieces(monkeypatch):
    """Record what the containment loop builds, as it builds it.

    Returns two lists that fill as ``three_cuttable_tc`` runs: the network
    of every BRANCH half, and (tree, network before, network after) of every
    ELIM.  The trace keeps no graphs, so checks on them watch production
    here.  The loop edits its working graphs in place, the larger half of a
    BRANCH included, so each piece is frozen as it is recorded.
    """
    halves, eliminations = [], []
    real_branch, real_reduce = containment._branch, containment._reduce

    def branch(inst, e):
        out = real_branch(inst, e)
        halves.extend(half.net.freeze() for half in out)
        return out

    def reduce(inst):
        outcome = real_reduce(inst)
        if outcome.verdict == "reduced":
            net = inst.net.freeze()
            eliminations.append((inst.tree.freeze(), net,
                                 eliminate_edge(net, outcome.eliminated_edge)))
        return outcome

    monkeypatch.setattr(containment, "_branch", branch)
    monkeypatch.setattr(containment, "_reduce", reduce)
    return halves, eliminations


def count_calls(monkeypatch, *targets):
    """Count the calls a pipeline makes to the functions in ``targets``.

    Counts, not seconds, show whether whole-graph work grows with the
    input.  Each target is ``(owner, name)`` or ``(owner, name, counts)``:
    the attribute ``name`` of the module or class ``owner`` is wrapped for
    the rest of the test, and each call adds one to ``calls[name]`` of the
    returned Counter, or, with ``counts``, only when ``counts(*args,
    **kwargs)`` is true.  A name wrapped on several owners, such as a
    function imported into several modules, adds to one count.
    """
    calls = Counter()

    def wrap(real, name, counts=None):
        def counted(*args, **kwargs):
            if counts is None or counts(*args, **kwargs):
                calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for owner, name, *counts in targets:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name), name, *counts))
    return calls

