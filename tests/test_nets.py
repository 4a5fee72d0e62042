import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutnets import (
    GenConfig,
    UndirectedNet,
    eliminate_edge,
    labeled_isomorphic,
    make_q_cuttable,
    random_q_cuttable,
    random_tree,
    rooted_isomorphic,
    sample_displayed_tree,
    split_of_cut_edge,
    subdivide,
    suppress,
    tree_child_orient_2cuttable,
    validate_unrooted,
)
from cutnets.cuttable import is_q_cuttable
from cutnets.errors import (
    CutnetsError,
    EndpointIsLeaf,
    IsCutEdge,
    LabelSetMismatch,
    NotCutEdge,
    NotDegreeTwo,
    UnknownEdge,
    WouldCreateParallelEdge,
)
from cutnets.formats import parse_enewick, serialize_upn
from cutnets.nets import (
    RootedNet,
    Split,
    _WorkGraph,
    bfs_order,
    bridges,
    canon_edge,
    cycle_space_labels,
    splits_of,
    validate_rooted,
)
from cutnets.orient import OrientationSpec, apply_orientation
from cutnets.reference import brute_force_tree_child_orientation

from conftest import triangle_net


def brute_force_bridges(net):
    def connected(edges):
        adj = {v: [] for v in net.vertices}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {next(iter(net.vertices))}
        stack = list(seen)
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(net.vertices)

    return frozenset(e for e in net.edges if not connected(net.edges - {e}))


def component_count(adj, missing=()) -> int:
    """Components of the graph ``adj`` with the canonical edges in
    ``missing`` deleted, by brute force."""
    seen = set()
    count = 0
    for root in adj:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen and canon_edge(v, w) not in missing:
                    seen.add(w)
                    stack.append(w)
    return count


def check_cycle_labels(g, pairs: bool) -> None:
    """The kept cycle-space labels of ``g`` are exact: their keys are the
    non-cut edges, none is 0, they XOR to 0 at every vertex, and with
    ``pairs`` two edges have equal labels exactly when deleting both
    disconnects their component (brute force)."""
    marks = g.cycle_labels
    assert set(marks) == set(g.edges) - g.cuts
    assert all(marks.values())
    for v, ns in g.adj.items():
        total = 0
        for w in ns:
            total ^= marks.get(canon_edge(v, w), 0)
        assert total == 0, v
    if pairs:
        base = component_count(g.adj)
        edges = sorted(marks)
        for i, e in enumerate(edges):
            for f in edges[i + 1:]:
                assert (marks[e] == marks[f]) == (component_count(g.adj, {e, f}) > base), (e, f)


def reference_splits(net):
    """What splits_of must return, by one split_of_cut_edge search per cut-edge."""
    pairs = [(e, split_of_cut_edge(net, e)) for e in sorted(net.cut_edges())]
    return [(e, s) for e, s in pairs if s is not None]


def reference_subdivide(net, edge):
    """``subdivide`` as frozenset arithmetic on an undirected network."""
    e = canon_edge(*edge)
    if e not in net.edges:
        raise UnknownEdge(f"no edge {e}")
    v = net.next_id
    edges = (net.edges - {e}) | {canon_edge(e[0], v), canon_edge(v, e[1])}
    return UndirectedNet(net.vertices | {v}, edges, net.leaf_labels, v + 1), v


def reference_suppress(net, vertex):
    """``suppress`` as frozenset arithmetic on an undirected network."""
    if net.degree(vertex) != 2:
        raise NotDegreeTwo(f"vertex {vertex} has degree {net.degree(vertex)}")
    a, b = net.neighbors(vertex)
    if net.has_edge(a, b):
        raise WouldCreateParallelEdge(f"edge {canon_edge(a, b)} already exists")
    if vertex in net.leaf_labels:
        raise ValueError(f"label on undeclared vertex {vertex}")
    edges = frozenset(e for e in net.edges if vertex not in e) | {canon_edge(a, b)}
    return UndirectedNet(net.vertices - {vertex}, edges, net.leaf_labels, net.next_id)


def reference_eliminate_edge(net, edge):
    """``eliminate_edge`` as an edge deletion and two ``reference_suppress`` calls."""
    e = canon_edge(*edge)
    if e not in net.edges:
        raise UnknownEdge(f"no edge {e}")
    if e in net.cut_edges():
        raise IsCutEdge(f"{e} is a cut-edge")
    leaves = net.leaves()
    if e[0] in leaves or e[1] in leaves:
        raise EndpointIsLeaf(f"{e} touches a leaf")
    out = UndirectedNet(net.vertices, net.edges - {e}, net.leaf_labels, net.next_id)
    return reference_suppress(reference_suppress(out, e[0]), e[1])


class TestValidation:
    def test_two_leaf_base_case(self, two_leaf):
        assert validate_unrooted(two_leaf).ok

    def test_cycle4_valid(self, cycle4):
        assert validate_unrooted(cycle4).ok

    def test_triangle_with_one_leaf_reports_degree_two(self):
        net = UndirectedNet.build([(1, 2), (2, 3), (1, 3), (1, 4)], {4: "a"})
        report = validate_unrooted(net)
        assert not report.ok
        assert sum("degree 2" in v for v in report.violations) == 2

    def test_disconnected_reported(self):
        net = UndirectedNet({1, 2, 3, 4}, {(1, 2), (3, 4)}, {1: "a", 2: "b", 3: "c", 4: "d"})
        assert "network is disconnected" in validate_unrooted(net).violations

    @pytest.mark.parametrize("vertices, edges, labels, violations", [
        ({1, 2, 3}, {(1, 1), (1, 2), (1, 3)}, {2: "a", 3: "b"},
         ("self-loop at vertex 1",)),
        ({1, 2}, {(1, 2)}, {1: "a"}, ("degree-1 vertex 2 is unlabeled",)),
        ({1, 2, 3, 4}, {(1, 2), (1, 3), (1, 4)}, {1: "a", 2: "b", 3: "c", 4: "d"},
         ("labeled vertex 1 has degree 3 (leaves must have degree 1)",)),
        ({1, 2}, {(1, 2)}, {},
         ("degree-1 vertex 1 is unlabeled", "degree-1 vertex 2 is unlabeled",
          "network has no labeled leaves")),
        (set(), set(), {}, ("network is empty",)),
    ])
    def test_violations_name_the_vertex(self, vertices, edges, labels, violations):
        assert validate_unrooted(UndirectedNet(vertices, edges, labels)).violations == violations


class TestSurgery:
    def test_subdivide_two_leaf(self, two_leaf):
        net, mid = subdivide(two_leaf, (1, 2))
        assert net.degree(mid) == 2
        assert net.has_edge(1, mid) and net.has_edge(mid, 2)

    def test_subdivide_arc(self):
        rooted = RootedNet.build([(1, 2), (1, 3), (2, 4), (2, 5)], 1, {3: "a", 4: "b", 5: "c"})
        out, mid = subdivide(rooted, (1, 2))
        assert (1, mid) in out.arcs and (mid, 2) in out.arcs
        assert (1, 2) not in out.arcs

    def test_subdivide_unknown_edge(self, two_leaf):
        with pytest.raises(UnknownEdge):
            subdivide(two_leaf, (1, 7))

    def test_subdivide_then_suppress_is_identity(self, cycle4):
        net, mid = subdivide(cycle4, (1, 2))
        back = suppress(net, mid)
        assert back.edges == cycle4.edges
        assert labeled_isomorphic(back, cycle4)

    def test_subdivide_self_loop_rejected(self):
        net = UndirectedNet({1, 2, 3, 4}, {(1, 1), (1, 2), (2, 3), (2, 4)}, {3: "a", 4: "b"})
        with pytest.raises(WouldCreateParallelEdge, match="self-loop at 1"):
            subdivide(net, (1, 1))

    def test_suppress_arc(self):
        rooted = RootedNet.build([(1, 2), (2, 3), (1, 4)], 1, {3: "a", 4: "b"})
        out = suppress(rooted, 2)
        assert (out.vertices, out.arcs) == ({1, 3, 4}, {(1, 3), (1, 4)})
        assert (out.root, out.leaf_labels, out.next_id) == (1, {3: "a", 4: "b"}, 5)
        with pytest.raises(NotDegreeTwo, match=r"^vertex 1 has degrees \(in=0, out=2\)$"):
            suppress(rooted, 1)

    def test_suppress_arc_refuses_parallel_and_self_arcs(self):
        parallel = RootedNet.build([(1, 2), (2, 3), (1, 3)], 1, {3: "a"})
        with pytest.raises(WouldCreateParallelEdge, match=r"^arc \(1,3\) already exists$"):
            suppress(parallel, 2)
        loop = RootedNet.build([(0, 1), (1, 2), (2, 1)], 0, {})
        with pytest.raises(WouldCreateParallelEdge,
                           match="^suppressing 2 would create a self-arc at 1$"):
            suppress(loop, 2)

    def test_suppress_degree_three_rejected(self, cycle4):
        with pytest.raises(NotDegreeTwo):
            suppress(cycle4, 1)

    def test_suppress_adjacent_neighbors_rejected(self):
        # triangle a-b-v with pendant leaves on a and b: v has degree 2 but
        # its neighbors are already adjacent
        net = UndirectedNet.build([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5)], {4: "a", 5: "b"})
        with pytest.raises(WouldCreateParallelEdge):
            suppress(net, 3)

    def test_eliminate_on_theta_drops_r(self, theta3):
        assert theta3.reticulation_number() == 2
        out = eliminate_edge(theta3, (1, 3))
        assert validate_unrooted(out).ok
        assert out.reticulation_number() == 1
        assert out.labels() == theta3.labels()

    def test_eliminate_cut_edge_rejected(self, cycle4):
        with pytest.raises(IsCutEdge):
            eliminate_edge(cycle4, (1, 5))

    def test_eliminate_pendant_edge_rejected(self, theta3):
        with pytest.raises(IsCutEdge):
            eliminate_edge(theta3, (3, 6))

    def test_eliminate_leaf_endpoint_rejected(self):
        # labels may sit on non-degree-1 vertices only in invalid containers;
        # the guard still refuses to melt a labeled endpoint into the blob
        net = UndirectedNet.build([(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (3, 6)],
                                  {3: "x", 4: "a", 5: "b", 6: "c"})
        with pytest.raises(EndpointIsLeaf):
            eliminate_edge(net, (1, 3))

    def test_eliminate_preserves_3cuttability(self):
        for seed in range(10):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=6, target_r=2, target_q=3))
            candidates = sorted(net.edges - net.cut_edges())
            if not candidates:
                continue
            out = eliminate_edge(net, candidates[0])
            assert validate_unrooted(out).ok
            assert is_q_cuttable(out, 3).is_cuttable


class TestBridgesBlobsChains:
    def test_tree_all_edges_are_cut(self, two_leaf):
        assert two_leaf.cut_edges() == two_leaf.edges

    def test_cycle4_cut_edges(self, cycle4):
        assert sorted(cycle4.cut_edges()) == [(1, 5), (2, 6), (3, 7), (4, 8)]

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_cut_edges_match_bruteforce(self, seed):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 8,
                                          target_r=seed % 5, target_q=1))
        assert net.cut_edges() == brute_force_bridges(net)

    def test_tree_has_no_blobs(self, two_leaf):
        assert two_leaf.blobs() == ()

    def test_cycle4_single_blob(self, cycle4):
        (blob,) = cycle4.blobs()
        assert blob.vertices == frozenset({1, 2, 3, 4})

    def test_two_blobs_joined_by_cut_path(self, conflicting_pair):
        _, net = conflicting_pair
        assert len(net.blobs()) == 2

    def test_edge_partition_invariant(self):
        for seed in range(40):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 8,
                                              target_r=seed % 6, target_q=1 + seed % 3))
            assert len(net.cut_edges()) + sum(len(b.edges) for b in net.blobs()) == len(net.edges)

    def test_full_cycle_chain_reported_from_lowest_id(self, cycle4):
        (chain,) = cycle4.maximal_chains()
        assert chain.path_vertices == (1, 2, 3, 4)
        assert chain.length == 4
        cut_incident = {v for e in cycle4.cut_edges() for v in e}
        assert set(chain.path_vertices) <= cut_incident

    def test_partial_chain(self):
        # 4-cycle where only two adjacent vertices carry cut-edges
        net = UndirectedNet.build(
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 6), (3, 7), (3, 9), (4, 8), (4, 10)],
            {5: "a", 6: "b"},
        )
        # make 3,4 into degree-3 non-cut-incident: attach them to another blob instead
        net = UndirectedNet.build(
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 6), (3, 7), (4, 7), (7, 8)],
            {5: "a", 6: "b", 8: "c"},
        )
        assert validate_unrooted(net).ok
        chains = [c.path_vertices for c in net.maximal_chains()]
        assert (1, 2) in chains

    def test_tree_has_no_chains(self, two_leaf):
        assert two_leaf.maximal_chains() == ()

    def test_blob_edges_on_many_blobs(self):
        net = triangle_net()
        cuts = net.cut_edges()
        blobs = net.blobs()
        assert (len(blobs), len(net.edges)) == (1999, 13994)
        for blob in blobs:   # each blob's edges, read at its own vertices
            assert blob.edges == {canon_edge(u, w) for u in blob.vertices for w in net.neighbors(u)
                                  if w in blob.vertices and canon_edge(u, w) not in cuts}
        assert frozenset().union(*(b.edges for b in blobs)) == net.edges - cuts


class TestSplitsAndNumbers:
    def test_pendant_split(self, cycle4):
        split = split_of_cut_edge(cycle4, (1, 5))
        assert split == Split.of({"a"}, {"b", "c", "d"})

    def test_not_cut_edge(self, cycle4):
        with pytest.raises(NotCutEdge):
            split_of_cut_edge(cycle4, (1, 2))

    def test_leafless_side_gives_none(self, k4_sub):
        # the K4 side of the pendant edge carries no leaf at all
        assert split_of_cut_edge(k4_sub, (5, 6)) is None

    def test_internal_cut_edge_split(self):
        net = UndirectedNet.build(
            [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (1, 7), (2, 8), (5, 9), (6, 10)],
            {7: "a", 8: "b", 9: "c", 10: "d"},
        )
        assert split_of_cut_edge(net, (3, 4)) == Split.of({"a", "b"}, {"c", "d"})

    def test_splits_on_2cuttable_always_exist_and_differ(self):
        for seed in range(30):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=4 + seed % 6,
                                              target_r=seed % 4, target_q=2))
            seen = set()
            for e in net.cut_edges():
                split = split_of_cut_edge(net, e)
                assert split is not None
                assert split not in seen
                seen.add(split)

    def test_reticulation_numbers(self, two_leaf, cycle4, theta3):
        assert two_leaf.reticulation_number() == 0
        assert cycle4.reticulation_number() == 1
        assert theta3.reticulation_number() == 2

    def test_level(self, two_leaf, cycle4, theta3):
        assert two_leaf.level() == 0
        assert cycle4.level() == 1
        assert theta3.level() == 2

    def test_split_canonical_and_compat(self):
        s = Split.of({"d", "b"}, {"a", "c"})
        assert "a" in s.side_a
        assert s == Split.of({"a", "c"}, {"b", "d"})
        t = Split.of({"a", "b"}, {"c", "d"})
        assert not s.is_compatible_with(t)
        assert s.is_compatible_with(Split.of({"a"}, {"b", "c", "d"}))


class TestSplitMasks:
    @pytest.mark.parametrize("leaves,q", [(16, 2), (16, 3), (64, 2), (64, 3),
                                          (256, 2), (256, 3), (1000, 2)])
    def test_splits_of_matches_per_edge_reference(self, leaves, q):
        net = random_q_cuttable(GenConfig(seed=leaves + q, leaf_count=leaves,
                                          target_r=leaves // 8, target_q=q))
        assert splits_of(net) == reference_splits(net)

    def test_fixtures_match_per_edge_reference(self, k4_sub, cycle4, conflicting_pair):
        # two stars: a cut-edge's side is measured from its first endpoint,
        # and the other side also holds the other component's labels
        stars = UndirectedNet.build(
            [(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8)],
            {2: "a", 3: "b", 4: "c", 6: "d", 7: "e", 8: "f"},
        )
        tree, net = conflicting_pair
        for graph in (k4_sub, cycle4, tree, net, stars):
            assert splits_of(graph) == reference_splits(graph)
        assert splits_of(k4_sub) == []


class TestIsomorphism:
    def test_shuffled_ids(self, cycle4):
        mapping = {1: 11, 2: 22, 3: 33, 4: 44, 5: 55, 6: 66, 7: 77, 8: 88}
        other = UndirectedNet.build(
            [(mapping[a], mapping[b]) for a, b in cycle4.edges],
            {mapping[v]: lab for v, lab in cycle4.leaf_labels.items()},
        )
        assert labeled_isomorphic(cycle4, other)
        assert labeled_isomorphic(other, cycle4)

    def test_different_cherries_not_isomorphic(self):
        from cutnets.formats import parse_newick_tree

        t1 = parse_newick_tree("((a,b),(c,d));")
        t2 = parse_newick_tree("((a,c),(b,d));")
        assert not labeled_isomorphic(t1, t2)
        assert labeled_isomorphic(t1, t1)

    def test_label_set_mismatch(self, two_leaf, cycle4):
        with pytest.raises(LabelSetMismatch):
            labeled_isomorphic(two_leaf, cycle4)

    # the searches keep their untried candidates on a stack of their own, so
    # a mapping over more internal vertices than the default recursion
    # limit needs no deeper call stack
    def test_labeled_isomorphic_at_1200_leaves(self):
        labels = [f"t{i}" for i in range(1200)]
        tree = random_tree(labels, 1)
        assert labeled_isomorphic(tree, tree)
        assert not labeled_isomorphic(tree, random_tree(labels, 2))

    def test_rooted_isomorphic_at_1200_leaves(self):
        labels = [f"t{i}" for i in range(1200)]
        rooted = tree_child_orient_2cuttable(random_tree(labels, 1))
        assert rooted_isomorphic(rooted, rooted)
        assert not rooted_isomorphic(rooted, tree_child_orient_2cuttable(random_tree(labels, 2)))


class TestRootedValidation:
    def test_rooted_cherry(self):
        net = RootedNet.build([(1, 2), (1, 3)], 1, {2: "a", 3: "b"})
        assert validate_rooted(net).ok

    def test_cycle_reported(self):
        net = RootedNet.build(
            [(1, 2), (1, 3), (2, 4), (4, 5), (5, 2), (5, 6), (4, 7)],
            1, {3: "a", 6: "b", 7: "c"})
        assert any("cycle" in v for v in validate_rooted(net).violations)

    def test_directed_cycle_is_the_first_found_by_dfs(self):
        net = RootedNet.build([(1, 2), (2, 3), (3, 4), (4, 2), (3, 5), (5, 3)], 1, {})
        assert net.find_directed_cycle() == (2, 3, 4)

    def test_long_directed_cycle_does_not_recurse(self):
        n = 3000
        net = RootedNet.build([(i, i % n + 1) for i in range(1, n + 1)], 1, {})
        assert net.find_directed_cycle() == tuple(range(1, n + 1))
        assert any("directed cycle" in v for v in validate_rooted(net).violations)

    def test_bad_degree_reported(self):
        net = RootedNet.build([(1, 2), (1, 3), (1, 4)], 1, {2: "a", 3: "b", 4: "c"})
        assert any("out-degree 3" in v for v in validate_rooted(net).violations)

    @pytest.mark.parametrize("arcs, labels, violations", [
        ([(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (3, 6)], {4: "a", 5: "b", 6: "c"},
         ("leaf 4 has in-degree 2 (expected 1)",)),
        ([(1, 2), (1, 3)], {2: "a"}, ("sink vertex 3 is unlabeled",)),
        ([(1, 2), (1, 3), (3, 4), (3, 5)], {2: "a", 3: "b", 4: "c", 5: "d"},
         ("labeled vertex 3 is not a sink",)),
        ([(1, 2), (1, 3)], {2: "a", 3: "a"}, ("duplicate label 'a' on vertices 2 and 3",)),
    ])
    def test_violations_name_the_vertex(self, arcs, labels, violations):
        assert validate_rooted(RootedNet.build(arcs, 1, labels)).violations == violations

    @pytest.mark.parametrize("arcs, root, labels, violations", [
        ([(1, 2), (1, 3), (1, 4), (2, 2), (5, 3), (3, 6), (6, 3), (4, 7), (4, 8)], 1,
         {2: "a", 7: "b", 8: "a", 9: "c"},
         ("self-arc at vertex 2",
          "in-degree-0 vertices are [1, 5, 9], expected exactly the root 1",
          "root has out-degree 3 (expected 2)",
          "vertex 3 has degrees (in=3, out=1)",
          "vertex 5 has degrees (in=0, out=1)",
          "vertex 6 has degrees (in=1, out=1)",
          "leaf 9 has in-degree 0 (expected 1)",
          "labeled vertex 2 is not a sink",
          "duplicate label 'a' on vertices 2 and 8",
          "digraph has a directed cycle: [2]")),
        ([(1, 2), (2, 3), (3, 1), (1, 4)], 1, {4: "x"},
         ("in-degree-0 vertices are [], expected exactly the root 1",
          "vertex 2 has degrees (in=1, out=1)",
          "vertex 3 has degrees (in=1, out=1)",
          "digraph has a directed cycle: [1, 2, 3]")),
        ([(0, 1), (1, 1), (1, 2), (0, 3)], 0, {2: "a", 3: "b", 1: "c"},
         ("self-arc at vertex 1",
          "vertex 1 has degrees (in=2, out=2)",
          "labeled vertex 1 is not a sink",
          "digraph has a directed cycle: [1]")),
    ])
    def test_every_violation_in_order(self, arcs, root, labels, violations):
        assert validate_rooted(RootedNet.build(arcs, root, labels)).violations == violations

    def test_empty_network_has_no_root(self):
        # a rooted network holds at least its root, so the empty one is
        # refused at construction
        with pytest.raises(ValueError, match="^root is not a vertex$"):
            RootedNet(set(), set(), None, {})


def kahn_order(net):
    """Kahn's topological order read off the arcs: the sorted sources
    first, then first in, first out; None when the digraph has a cycle."""
    indeg = Counter(w for _, w in net.arcs)
    queue = deque(sorted(v for v in net.vertices if not indeg[v]))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(w for u, w in net.arcs if u == v):
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    return tuple(order) if len(order) == len(net.vertices) else None


def assert_maps_match_arcs(net):
    assert net.succ == {v: tuple(sorted(w for u, w in net.arcs if u == v)) for v in net.vertices}
    assert net.pred == {v: tuple(sorted(u for u, w in net.arcs if w == v)) for v in net.vertices}
    assert net.topo == kahn_order(net)
    assert net.is_acyclic() is (net.topo is not None)


class TestRootedMaps:
    def test_parse_enewick(self):
        for text in ("((c,(b)#H1), (#H1 ,a));", "(((a,#H7),(b)#H7),(c,d));", "(x,y);"):
            assert_maps_match_arcs(parse_enewick(text))

    def test_apply_orientation(self, two_leaf, cycle4):
        assert_maps_match_arcs(apply_orientation(two_leaf, OrientationSpec((1, 2), {})))
        assert_maps_match_arcs(brute_force_tree_child_orientation(cycle4))

    def test_rooted_edits(self):
        rooted = RootedNet.build([(1, 2), (1, 3), (2, 4), (2, 5)], 1, {3: "a", 4: "b", 5: "c"})
        out, mid = subdivide(rooted, (1, 2))
        assert_maps_match_arcs(out)
        back = suppress(out, mid)
        assert_maps_match_arcs(back)
        assert (back.succ, back.pred, back.topo) == (rooted.succ, rooted.pred, rooted.topo)
        assert_maps_match_arcs(rooted.replace(arcs=rooted.arcs - {(2, 5)} | {(3, 5)}))

    def test_several_sources(self):
        net = RootedNet.build([(5, 2), (3, 2), (2, 6), (2, 4), (3, 7), (7, 1), (4, 1)], 5, {})
        assert_maps_match_arcs(net)
        assert net.topo == (3, 5, 7, 2, 4, 6, 1)

    def test_cyclic_digraph(self):
        net = RootedNet.build([(1, 2), (2, 3), (3, 4), (4, 2), (3, 5), (5, 3)], 1, {})
        assert_maps_match_arcs(net)
        assert net.topo is None
        assert net.find_directed_cycle() == (2, 3, 4)


def differential_nets():
    """20 seeded networks: ten small dense ones at q = 1, where some
    eliminations would create a parallel edge, and ten of 4-16 leaves."""
    configs = [GenConfig(seed=900 + s, leaf_count=3 + s % 4, target_r=2 + s % 5, target_q=1)
               for s in range(10)]
    configs += [GenConfig(seed=920 + s, leaf_count=4 + s % 5 * 3, target_r=1 + s % 4,
                          target_q=1 + s % 3) for s in range(10)]
    return [random_q_cuttable(cfg) for cfg in configs]


def frozen_text(net):
    return serialize_upn(net) + f"next_id {net.next_id}\n"


def work_state(g):
    return ({v: set(ns) for v, ns in g.adj.items()}, list(g.edges), dict(g.labels), g.next_id,
            None if g.cuts is None else set(g.cuts))


def outcome(call) -> tuple[str, str]:
    """(kind, text) of one call: the result network, or what it raised."""
    try:
        out = call()
    except (CutnetsError, ValueError) as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):   # subdivide's (network, new vertex)
        out, vertex = out
        return "ok", frozen_text(out) + f"vertex {vertex}\n"
    return "ok", frozen_text(out)


def in_place(net, edit, arg):
    """Run ``edit(g, arg)`` on a working graph of ``net`` and freeze it; a
    raise must leave the graph as it was.  Only ``subdivide``'s new vertex
    is kept with the result: ``eliminate``'s report of the cut-edges it
    creates has a test of its own."""
    g = _WorkGraph.of(net)
    before = work_state(g)
    try:
        result = edit(g, arg)
    except Exception:
        assert work_state(g) == before
        raise
    return (g.freeze(), result) if edit is _WorkGraph.subdivide else g.freeze()


def triangle():
    """Vertex 3 has degree 2, but its neighbours are adjacent."""
    return UndirectedNet.build([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5)], {4: "a", 5: "b"})


def degree_two():
    """A pentagon with leaves on three vertices; of the two degree-2
    vertices, 4 carries a label and 5 does not."""
    return UndirectedNet.build([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8)],
                               {4: "x", 6: "a", 7: "b", 8: "c"})


class TestWorkGraph:
    """Each undirected edit has one implementation, on ``_WorkGraph``.  The
    in-place edit and the public function built on it must give what the
    frozenset reference gives: the same network and ``next_id``, or the
    same exception and message."""

    def agree(self, net, arg, reference, public, edit) -> str:
        """Check the three ways of one edit agree; name the outcome."""
        kind, want = outcome(lambda: reference(net, arg))
        assert outcome(lambda: public(net, arg)) == (kind, want)
        assert outcome(lambda: in_place(net, edit, arg)) == (kind, want)
        return kind

    def eliminate_both(self, net, e) -> str:
        return self.agree(net, e, reference_eliminate_edge, eliminate_edge, _WorkGraph.eliminate)

    def test_eliminate_matches_eliminate_edge(self):
        outcomes = Counter()
        for net in differential_nets():
            for e in sorted(net.edges - net.cut_edges()):
                outcomes[self.eliminate_both(net, e)] += 1
        assert outcomes["ok"] and outcomes["WouldCreateParallelEdge"]
        assert set(outcomes) == {"ok", "WouldCreateParallelEdge"}

    def test_eliminate_matches_on_invalid_containers(self):
        degree_four = UndirectedNet.build(
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 5), (4, 6), (1, 7)],
            {5: "a", 6: "b", 7: "c"})
        labelled_inner = UndirectedNet.build([(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (3, 6)],
                                             {3: "x", 4: "a", 5: "b", 6: "c"})
        outcomes = Counter()
        for net in (degree_four, labelled_inner):
            for e in sorted(net.edges - net.cut_edges()):
                outcomes[self.eliminate_both(net, e)] += 1
        assert {"NotDegreeTwo", "WouldCreateParallelEdge", "EndpointIsLeaf"} <= set(outcomes)

    def test_eliminate_refuses_joining_one_pair_twice(self):
        # 1 and 2 share both other neighbours: each suppression alone is fine,
        # but the second would add the edge (3, 4) the first one added
        net = UndirectedNet.build([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 6)],
                                  {5: "a", 6: "b"})
        assert self.eliminate_both(net, (1, 2)) == "WouldCreateParallelEdge"

    def test_suppress_matches_reference(self):
        nets = [triangle(), degree_two()]
        for net in differential_nets()[:5]:   # each with one fresh degree-2 vertex
            nets.append(reference_subdivide(net, sorted(net.edges)[0])[0])
        outcomes = Counter()
        for net in nets:
            for v in sorted(net.vertices):
                outcomes[self.agree(net, v, reference_suppress, suppress,
                                    _WorkGraph.suppress)] += 1
        assert set(outcomes) == {"ok", "NotDegreeTwo", "WouldCreateParallelEdge", "ValueError"}

    def test_subdivide_and_add_leaf_match_immutable_edits(self):
        for net in differential_nets()[:5]:
            for e in sorted(net.edges):
                assert self.agree(net, e, reference_subdivide, subdivide,
                                  _WorkGraph.subdivide) == "ok"
                g = _WorkGraph.of(net)
                mid = g.subdivide(e)
                leaf = g.add_leaf(mid, "new")
                want, want_mid = reference_subdivide(net, e)
                want = want.replace(vertices=want.vertices | {leaf},
                                    edges=want.edges | {(want_mid, leaf)},
                                    leaf_labels={**want.leaf_labels, leaf: "new"},
                                    next_id=leaf + 1)
                assert (mid, leaf) == (want_mid, want_mid + 1)
                assert frozen_text(g.freeze()) == frozen_text(want)
                assert g.edges == sorted(want.edges)
        net = differential_nets()[0]
        assert self.agree(net, (1, net.next_id), reference_subdivide, subdivide,
                          _WorkGraph.subdivide) == "UnknownEdge"

    def test_delete_leaf_drops_the_leaf_its_edge_and_label(self, cycle4):
        g = _WorkGraph.of(cycle4)
        g.delete_leaf(5)
        want = UndirectedNet(cycle4.vertices - {5}, cycle4.edges - {(1, 5)},
                             {v: lab for v, lab in cycle4.leaf_labels.items() if v != 5},
                             cycle4.next_id)
        assert frozen_text(g.freeze()) == frozen_text(want)

    def test_remove_edge_of_a_non_edge_changes_nothing(self, theta3):
        g = _WorkGraph.of(theta3)
        before = work_state(g)
        with pytest.raises(KeyError):
            g.remove_edge(3, 4)
        assert work_state(g) == before

    def test_freeze_is_a_snapshot(self, theta3):
        g = _WorkGraph.of(theta3)
        frozen = g.freeze()
        g.add_leaf(g.subdivide(g.edges[0]), "late")
        assert frozen_text(frozen) == frozen_text(theta3)

    def test_bridges_match_cut_edges_and_brute_force(self):
        for net in differential_nets():
            want = brute_force_bridges(net)
            assert bridges(net.adjacency()) == want
            assert net.cut_edges() == want
            g = _WorkGraph.of(net)
            assert g.bridges() == want
            # and after in-place edits, against the frozen copy
            g.add_leaf(g.subdivide(g.edges[0]), "new")
            for e in sorted(set(g.edges) - g.bridges()):
                try:
                    g.eliminate(e)
                    break
                except WouldCreateParallelEdge:
                    continue
            assert g.bridges() == brute_force_bridges(g.freeze())

    def test_kept_cut_edges_match_a_fresh_search_after_every_edit(self):
        """Seeded chains that mix all seven edits, on connected desk-scale
        graphs.  After every edit the kept cut-edge set, when there is one,
        equals a fresh ``bridges`` search and the brute-force bridges, and
        ``freeze`` hands it on.  ``subdivide``, ``add_leaf`` and ``eliminate``
        keep a set they were given.  The first ``eliminate`` of a non-cut
        edge labels the graph; while the labels are kept they are exact,
        and ``subdivide``, ``add_leaf`` and ``eliminate`` keep them."""
        kept = Counter()
        labelled = Counter()
        made = Counter()
        new_bridges = 0
        pair_checks = 0

        def edit(g, name, *args):
            nonlocal new_bridges, pair_checks
            old_edges = set(g.edges)
            old_cuts = None if g.cuts is None else set(g.cuts)
            old_marks = g.cycle_labels
            result = getattr(g, name)(*args)
            made[name] += 1
            frozen = g.freeze()
            if g.cuts is None:
                assert frozen._cuts is None and g.cycle_labels is None
                assert old_cuts is None or name not in ("subdivide", "add_leaf", "eliminate")
                return result
            assert g.cuts == bridges(g.adj), (name, args)
            assert g.cuts == brute_force_bridges(frozen), (name, args)
            assert frozen._cuts == g.cuts
            kept[name] += 1
            if name == "eliminate" and (g.cuts - old_cuts) & old_edges:
                new_bridges += 1   # an edge that stayed became a cut-edge
            if g.cycle_labels is None:
                assert old_marks is None and name != "eliminate"
                return result
            pairs = len(g.cycle_labels) <= 30
            check_cycle_labels(g, pairs)
            labelled[name] += 1
            pair_checks += pairs
            return result

        def non_cut_edges(g):
            return [e for e in g.edges if e not in g.bridges()]

        for s in range(60):
            rng = random.Random(s)
            net = random_q_cuttable(GenConfig(seed=3000 + s, leaf_count=4 + s % 9,
                                              target_r=1 + s % 5, target_q=1 + s % 3))
            g = _WorkGraph.of(net if s % 2 else net.replace())   # with and without a seeded set
            for _ in range(25):
                if rng.random() < 0.6:
                    g.bridges()
                move = rng.randrange(5)
                if move == 0:   # a handle: two subdivisions joined by an edge
                    e1, e2 = rng.sample(g.edges, 2)
                    edit(g, "add_edge", edit(g, "subdivide", e1), edit(g, "subdivide", e2))
                elif move == 1:   # a pendant leaf
                    edit(g, "add_leaf", edit(g, "subdivide", rng.choice(g.edges)),
                         f"n{g.next_id}")
                elif move == 2:
                    candidates = non_cut_edges(g)
                    rng.shuffle(candidates)
                    for e in candidates:
                        try:
                            edit(g, "eliminate", e)
                            break
                        except (WouldCreateParallelEdge, EndpointIsLeaf, NotDegreeTwo):
                            continue
                elif move == 3 and non_cut_edges(g):   # a reticulated-cherry cut
                    u, v = rng.choice(non_cut_edges(g))
                    edit(g, "remove_edge", u, v)
                    for w in (u, v):
                        try:
                            edit(g, "suppress", w)
                        except (WouldCreateParallelEdge, NotDegreeTwo, ValueError):
                            pass
                elif move == 4 and len(g.labels) > 3:   # a cherry reduction
                    leaf = rng.choice(sorted(g.labels))
                    (w,) = g.adj[leaf]
                    edit(g, "delete_leaf", leaf)
                    try:
                        edit(g, "suppress", w)
                    except (WouldCreateParallelEdge, NotDegreeTwo, ValueError):
                        pass
        assert set(made) == {"add_edge", "remove_edge", "subdivide", "add_leaf",
                             "delete_leaf", "suppress", "eliminate"}
        assert min(kept[name] for name in ("subdivide", "add_leaf", "eliminate")) > 100
        assert new_bridges > 50
        assert min(labelled[name] for name in ("subdivide", "add_leaf", "eliminate")) > 40
        assert pair_checks > 100

    def test_split_off_matches_a_split_from_scratch(self):
        """At every non-trivial cut-edge of seeded networks, each side moved
        out in turn from a fresh working graph: both graphs must be the
        network's edges and labels on their side plus the fresh leaf, with
        the edges sorted and the kept cut-edges equal to a fresh search."""
        def from_scratch(net, side, keep, label):
            leaf = net.next_id
            edges = [f for f in net.edges if f[0] in side and f[1] in side] + [(keep, leaf)]
            labels = {v: lab for v, lab in net.leaf_labels.items() if v in side}
            labels[leaf] = label
            return UndirectedNet(side | {leaf}, edges, labels, leaf + 1)

        splits = labelled = 0
        for s in range(13):
            leaves = 16 + 4 * s
            net = random_q_cuttable(GenConfig(seed=4000 + s, leaf_count=leaves,
                                              target_r=leaves // 8, target_q=1 + s % 3))
            for e in sorted(net.cut_edges() - net.trivial_cut_edges()):
                for keep, far in (e, e[::-1]):
                    side = bfs_order(net.adjacency(), [keep], {far: None})
                    g = _WorkGraph.of(net if s % 2 else net.replace())   # with and without a kept set
                    marks = None
                    if s % 2 and keep == e[0]:   # and half of those with kept labels
                        g.cycle_labels = cycle_space_labels(g.adj, g.edges)
                        marks = dict(g.cycle_labels)
                    half = g.split_off(e, side, ("moved", "stayed"))
                    for graph, want in ((half, from_scratch(net, set(side), keep, "moved")),
                                        (g, from_scratch(net, net.vertices - set(side), far,
                                                         "stayed"))):
                        assert graph.adj == {v: set(ns) for v, ns in want.adjacency().items()}
                        assert graph.edges == sorted(graph.edges) == sorted(want.edges)
                        assert graph.labels == want.leaf_labels
                        assert graph.next_id == want.next_id
                        assert graph.cuts == bridges(graph.adj)
                        if marks is None:
                            assert graph.cycle_labels is None
                            continue
                        # each edge keeps its label: a cycle never crosses a bridge
                        assert graph.cycle_labels == {f: marks[f] for f in graph.edges
                                                      if f in marks}
                        check_cycle_labels(graph, len(graph.cycle_labels) <= 30)
                        labelled += 1
                    splits += 1
        assert splits > 100 and labelled > 50

    def test_eliminating_a_cut_edge_drops_the_kept_set(self):
        # the graph splits in two, so a search from one side cannot renew it
        for seed in range(10):
            g = _WorkGraph.of(random_tree([f"t{i}" for i in range(8)], seed))
            inner = [e for e in g.edges if e[0] not in g.labels and e[1] not in g.labels]
            assert g.bridges() == set(g.edges)
            assert g.eliminate(inner[seed % len(inner)]) is None
            assert g.cuts is None
            assert g.bridges() == set(g.edges)

    def test_eliminate_reports_the_cut_edges_it_creates(self):
        """With the cut-edges kept, ``eliminate`` returns the bridges after
        the edit minus those before, each once.  Every non-cut edge of each
        network is eliminated on a fresh working graph, where the
        elimination labels the graph, and a seeded chain of eliminations
        down to a tree checks each report while the labels are kept.  With
        no cut-edges kept, nothing is known and the report is None."""
        nets = differential_nets() + [
            random_q_cuttable(GenConfig(seed=5000 + s, leaf_count=8 + 4 * s, target_r=2 + s,
                                        target_q=1 + s % 3)) for s in range(10)]
        reports = Counter()

        def check(g, e):
            before = bridges(g.adj)
            created = g.eliminate(e)
            assert sorted(created) == sorted(bridges(g.adj) - before), e
            reports["with new cut-edges" if created else "empty"] += 1

        for s, net in enumerate(nets):
            for e in sorted(net.edges - net.cut_edges()):
                g = _WorkGraph.of(net)
                g.bridges()
                try:
                    check(g, e)
                except WouldCreateParallelEdge:
                    reports["refused"] += 1
                unkept = _WorkGraph.of(net.replace())
                try:
                    assert unkept.eliminate(e) is None and unkept.cuts is None
                except WouldCreateParallelEdge:
                    pass
            rng = random.Random(s)
            g = _WorkGraph.of(net)
            g.bridges()
            while g.reticulation_number() > 0:
                candidates = [e for e in g.edges if e not in g.cuts]
                rng.shuffle(candidates)
                for e in candidates:
                    try:
                        check(g, e)
                        break
                    except WouldCreateParallelEdge:
                        continue
                else:
                    break
        assert reports["with new cut-edges"] > 300 and reports["empty"] > 50, reports
        assert reports["refused"]

    @pytest.mark.parametrize("leaves", [64, 1024])
    @pytest.mark.parametrize("q", [2, 3])
    def test_generator_outputs_carry_their_bridges(self, leaves, q):
        net = random_q_cuttable(GenConfig(seed=leaves + q, leaf_count=leaves,
                                          target_r=leaves // 8, target_q=q))
        tree = sample_displayed_tree(net, leaves)
        assert net._cuts is not None and tree._cuts is not None
        assert net.cut_edges() == bridges(net.adjacency())
        assert tree.cut_edges() == bridges(tree.adjacency())

    def test_make_q_cuttable_output_carries_its_bridges(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = _WorkGraph.of(random_tree([f"t{i}" for i in range(8 + seed)], seed))
            for _ in range(2 + seed % 3):
                e1, e2 = rng.sample(g.edges, 2)
                g.add_edge(g.subdivide(e1), g.subdivide(e2))
            net = make_q_cuttable(g.freeze(), 2 + seed % 2)
            assert net.cut_edges() == bridges(net.adjacency())
