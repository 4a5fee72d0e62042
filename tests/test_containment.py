import hashlib
import inspect
import json
import random
import re
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from cutnets import (
    Embedding,
    GenConfig,
    PendantQuad,
    PendantTriple,
    UndirectedNet,
    apply_reduction,
    branch_on_cut_edge,
    conflicting_split,
    display_oracle,
    entangled_path,
    find_pendant_structures,
    is_entangled,
    is_q_cuttable,
    random_q_cuttable,
    random_tree,
    sample_displayed_tree,
    three_cuttable_tc,
    validate_unrooted,
    verify_embedding,
)
from cutnets import containment, nets
from cutnets.containment import RuleOutcome, TraceEvent, serialize_trace
from cutnets.errors import (
    BudgetExceeded,
    InputError,
    LabelSetMismatch,
    NoMatchingTreeEdge,
    NotSimple,
    NotThreeCuttable,
    TooFewLeaves,
    TrivialCutEdge,
)
from cutnets.formats import parse_newick_tree, parse_upn
from cutnets.nets import (
    Split,
    _component_of,
    _cut_edge_masks,
    bridges,
    canon_edge,
    canonical_mask,
    eliminate_edge,
    label_bits,
    split_of_cut_edge,
    split_of_mask,
    splits_of,
    subdivide,
)
from cutnets.reference import all_simple_paths

from conftest import blob_nni_tree, build_simple_3cuttable, count_calls, spy_on_pieces


def ring_of_leaves(k):
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    labels = {}
    for i in range(1, k + 1):
        edges.append((i, k + i))
        labels[k + i] = f"t{i}"
    return UndirectedNet.build(edges, labels)


class TestVerifyEmbedding:
    def test_caption_embedding(self, displayed_pair):
        tree, net = displayed_pair
        center = next(v for v in tree.internal_vertices()
                      if all(w in tree.internal_vertices() for w in tree.neighbors(v)))

        def parent(lab):
            return tree.neighbors(tree.vertex_of_label(lab))[0]

        vm = {tree.vertex_of_label(l): net.vertex_of_label(l) for l in "abcdef"}
        vm[parent("a")] = 1
        vm[parent("c")] = 4
        vm[parent("e")] = 7
        vm[center] = 8
        em = {}

        def put(tv, tw, path):
            e = canon_edge(tv, tw)
            em[e] = tuple(path) if path[0] == vm[e[0]] else tuple(reversed(path))

        put(parent("a"), tree.vertex_of_label("a"), [1, net.vertex_of_label("a")])
        put(parent("a"), tree.vertex_of_label("b"), [1, 2, net.vertex_of_label("b")])
        put(parent("c"), tree.vertex_of_label("c"), [4, 3, net.vertex_of_label("c")])
        put(parent("c"), tree.vertex_of_label("d"), [4, 5, net.vertex_of_label("d")])
        put(parent("e"), tree.vertex_of_label("e"), [7, 6, net.vertex_of_label("e")])
        put(parent("e"), tree.vertex_of_label("f"), [7, net.vertex_of_label("f")])
        put(parent("a"), center, [1, 8])
        put(parent("c"), center, [4, 8])
        put(parent("e"), center, [7, 8])
        assert verify_embedding(tree, net, Embedding(vm, em))

    def test_identity_embedding(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        vm = {v: v for v in tree.vertices}
        em = {e: e for e in tree.edges}
        assert verify_embedding(tree, tree, Embedding(vm, em))

    def test_shared_edge_fails_property_v(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        emb = display_oracle(tree, tree)
        broken = dict(emb.edge_map)
        edges = sorted(broken)
        # reroute one path through another's edge
        e_pendant = next(e for e in edges if len(broken[e]) == 2)
        other = next(e for e in edges if e != e_pendant)
        broken[other] = broken[e_pendant]
        from cutnets.containment import embedding_violations

        bad = embedding_violations(tree, tree, Embedding(dict(emb.vertex_map), broken))
        assert bad


def reference_conflicting_split(tree, net):
    """conflicting_split by definition: per-edge splits, frozenset pairwise scan."""
    def ordered(graph):
        splits = (split_of_cut_edge(graph, e) for e in graph.cut_edges())
        return sorted((s for s in splits if s is not None), key=Split.sort_key)

    tree_splits = ordered(tree)
    for us in ordered(net):
        for ts in tree_splits:
            if not us.is_compatible_with(ts):
                return us, ts
    return None


def conflict_by_splits(tree, net):
    """conflicting_split as it picked its pair before the mask-order rule:
    the masks of one pass over each input, a ``Split`` for every foreign
    network mask and every clashing tree mask, and the smallest of each
    in ``Split.sort_key`` order."""
    bits = label_bits(net.labels())
    full = (1 << len(bits)) - 1
    tree_masks = set(_cut_edge_masks(tree.adjacency(), tree.cut_edges(), tree.leaf_labels,
                                     bits, full).values())
    net_masks = _cut_edge_masks(net.adjacency(), net.cut_edges(), net.leaf_labels, bits, full)
    foreign = [m for m in net_masks.values() if m not in tree_masks]
    if not foreign:
        return None
    us, um = min(((split_of_mask(m, bits), m) for m in foreign),
                 key=lambda pair: pair[0].sort_key())
    ts = min((split_of_mask(tm, bits) for tm in tree_masks
              if um & ~tm and tm & ~um and um | tm != full), key=Split.sort_key)
    return us, ts


def reference_branch(tree, net, edge):
    """branch_on_cut_edge rebuilt from scratch: both sides of the cut-edge
    and of its tree edge found by component searches, every edge and label
    filtered, each half a new network with no cache."""
    e = canon_edge(*edge)
    bits = label_bits(net.labels())
    full = (1 << len(bits)) - 1
    mask = _cut_edge_masks(net.adjacency(), net.cut_edges(), net.leaf_labels, bits, full)[e]
    tree_masks = _cut_edge_masks(tree.adjacency(), tree.cut_edges(), tree.leaf_labels, bits, full)
    tree_edge = min(te for te, m in tree_masks.items() if m == mask)
    existing = net.labels()
    k = 1
    while f"x{k}" in existing or f"x{k + 1}" in existing:
        k += 1
    tree_sides = [_component_of(tree.adjacency(), v, tree_edge) for v in tree_edge]

    def labels_on(graph, side):
        return {lab for v, lab in graph.leaf_labels.items() if v in side}

    def halve(graph, severed, side, label):
        keep = severed[0] if severed[0] in side else severed[1]
        nv = graph.next_id
        edges = [f for f in graph.edges if f[0] in side and f[1] in side]
        labels = {v: lab for v, lab in graph.leaf_labels.items() if v in side}
        labels[nv] = label
        return UndirectedNet(side | {nv}, edges + [(keep, nv)], labels, nv + 1)

    halves = []
    for v, label in zip(e, (f"x{k}", f"x{k + 1}")):
        side = _component_of(net.adjacency(), v, e)
        (tree_side,) = [s for s in tree_sides if labels_on(tree, s) == labels_on(net, side)]
        halves.append((halve(tree, tree_edge, tree_side, label), halve(net, e, side, label)))
    return halves[0], halves[1]


def reference_solve(tree, net):
    """three_cuttable_tc by rebuilding everything on every loop turn: the
    public split check and reduction and ``reference_branch``, on uncached
    networks, each numbering its own instance."""
    def uncached(graph):
        return UndirectedNet(graph.vertices, graph.edges, graph.leaf_labels, graph.next_id)

    trace, pending = [], []
    verdict = None
    while verdict is None:
        conflict = conflicting_split(tree, net)
        if conflict is not None:
            trace.append(TraceEvent("SPLIT-CONFLICT", f"{conflict[0]} vs {conflict[1]}"))
            verdict = False
            break
        nontrivial = sorted(net.cut_edges() - net.trivial_cut_edges())
        if nontrivial:
            e = nontrivial[0]
            (tree, net), second = reference_branch(tree, net, e)
            trace.append(TraceEvent("BRANCH", f"{e[0]}-{e[1]}"))
            pending.append(second)
            continue
        outcome = apply_reduction(tree, net)
        case = f" {outcome.case}" if outcome.case else ""
        trace.append(TraceEvent("RULE", f"{outcome.rule_id}{case}"))
        if outcome.verdict == "yes":
            if not pending:
                verdict = True
            else:
                tree, net = pending.pop()
        elif outcome.verdict == "no":
            verdict = False
        else:
            e = outcome.eliminated_edge
            trace.append(TraceEvent("ELIM", f"{e[0]}-{e[1]}"))
            net = uncached(eliminate_edge(net, e))
    trace.append(TraceEvent("YES" if verdict else "NO"))
    return verdict, trace


def reference_rule2(net, inst):
    """Rule 2 as first written: every leaf-hung vertex quadruple, its leaf
    labels read at each step, the quadruple's edges checked for cut-edges
    and the three labels checked for distinctness, against the masks of the
    piece's own tree."""
    bits, full, tree = inst.bits, inst.full, inst.tree
    tree_masks = set(_cut_edge_masks(tree.adj, bridges(tree.adj), tree.labels,
                                     bits, full).values())
    leaves = net.leaves()
    cuts = net.cut_edges()

    def leaf_labels_at(v):
        return sorted(net.leaf_labels[w] for w in net.neighbors(v) if w in leaves)

    for v1 in sorted(net.vertices - leaves):
        for v2 in net.neighbors(v1):
            if v2 in leaves:
                continue
            xs = leaf_labels_at(v2)
            if not xs:
                continue
            for v3 in net.neighbors(v2):
                if v3 in (v1,) or v3 in leaves:
                    continue
                ys = leaf_labels_at(v3)
                if not ys:
                    continue
                for v4 in net.neighbors(v3):
                    if v4 in (v1, v2) or v4 in leaves:
                        continue
                    zs = leaf_labels_at(v4)
                    if not zs:
                        continue
                    quad = (v1, v2, v3, v4)
                    if any(canon_edge(a, b) in cuts
                           for i, a in enumerate(quad) for b in quad[i + 1:]
                           if net.has_edge(a, b)):
                        continue
                    for x in xs:
                        for y in ys:
                            if y == x:
                                continue
                            xy = bits[x] | bits[y]
                            if canonical_mask(xy, full) not in tree_masks:
                                continue
                            for z in zs:
                                if z in (x, y):
                                    continue
                                if canonical_mask(xy | bits[z], full) not in tree_masks:
                                    continue
                                return RuleOutcome("reduced", 2,
                                                   eliminated_edge=canon_edge(v1, v2))
    return None


def swap_labels(tree, a, b):
    labels = dict(tree.leaf_labels)
    va, vb = tree.vertex_of_label(a), tree.vertex_of_label(b)
    labels[va], labels[vb] = b, a
    return tree.replace(leaf_labels=labels)


class TestConflictingSplit:
    def test_fig7_pair(self, conflicting_pair):
        tree, net = conflicting_pair
        pair = conflicting_split(tree, net)
        assert pair is not None
        us, ts = pair
        assert str(us) == "a,b,c|d,f,g"
        assert str(ts) == "a,b,g|c,d,f"

    def test_displayed_instance_has_none(self, displayed_pair):
        tree, net = displayed_pair
        assert conflicting_split(tree, net) is None

    def test_tree_vs_itself(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        assert conflicting_split(tree, tree) is None

    def test_matches_reference_on_seeded_pairs(self):
        outcomes = set()
        for seed in range(40):
            leaves = (8, 16, 32, 64)[seed % 4]
            net = random_q_cuttable(GenConfig(seed=900 + seed, leaf_count=leaves,
                                              target_r=leaves // 8, target_q=3))
            tree = sample_displayed_tree(net, seed)
            nontrivial = sorted(net.cut_edges() - net.trivial_cut_edges())
            candidates = [tree, random_tree(sorted(net.labels()), seed)]
            if nontrivial:
                split = split_of_cut_edge(net, nontrivial[seed % len(nontrivial)])
                candidates.append(swap_labels(tree, min(split.side_a), min(split.side_b)))
            for candidate in candidates:
                got = conflicting_split(candidate, net)
                assert got == reference_conflicting_split(candidate, net)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_star_tree_is_rejected(self, conflicting_pair):
        # a star's splits are all trivial, so the network's split abc|dfg is
        # not among them, yet it is compatible with every one of them: the
        # foreign-split test needs a binary tree
        _, net = conflicting_pair
        star = star_tree(sorted(net.labels()))
        with pytest.raises(InputError, match="vertex 0 has degree 6"):
            conflicting_split(star, net)
        assert reference_conflicting_split(star, net) is None

    def test_matches_reference_on_desk_networks(self):
        # against random trees and displayed trees with two leaves swapped,
        # so that many instances have foreign splits, each of which must
        # clash with a tree split
        conflicts = compared = 0
        for seed in range(400):
            net = random_q_cuttable(GenConfig(seed=7000 + seed, leaf_count=4 + seed % 29,
                                              target_r=1 + seed % 5, target_q=3))
            labels = sorted(net.labels())
            swapped = swap_labels(sample_displayed_tree(net, seed),
                                  *random.Random(seed).sample(labels, 2))
            for tree in (random_tree(labels, seed), swapped):
                got = conflicting_split(tree, net)
                assert got == reference_conflicting_split(tree, net), seed
                conflicts += got is not None
                compared += 1
        assert conflicts > compared // 4


class TestInputCheck:
    def test_split_order_rule_matches_sort_key(self):
        # the labels are numbers whose string order (10 < 9) is not their
        # numeric order, and bit i is the i-th label as a string; of each
        # random set of canonical masks the rule must pick the mask of the
        # smallest split
        rng = random.Random(5)
        checked = 0
        while checked < 20_000:
            n = rng.randint(2, 64)
            numbers = rng.sample(range(1, 10_000), n)
            if sorted(numbers) == sorted(numbers, key=str):
                continue
            bits = label_bits(str(x) for x in numbers)
            full = (1 << n) - 1
            masks = set()
            for _ in range(rng.randint(1, 3)):
                m = canonical_mask(rng.randrange(1, full), full)
                # and a near mask: the two differ in one bit, high or low,
                # so one may be the other's prefix
                masks.update((m, m | 1 << rng.randrange(n)))
            masks = [m for m in masks if m != full]
            if len(masks) < 2:
                continue
            want = min(masks, key=lambda m: split_of_mask(m, bits).sort_key())
            assert containment._split_order_first(masks) == want, (n, masks)
            checked += 1

    def test_no_decided_at_the_input_thaws_nothing(self, monkeypatch, conflicting_pair):
        # the split check runs on the frozen inputs, and only the reported
        # pair becomes Split values
        instances = [conflicting_pair, scale_instance(1024, True)]
        for tree, net in instances:
            calls = count_calls(monkeypatch, (nets._WorkGraph, "of"),
                                (containment, "split_of_mask"))
            verdict, trace = three_cuttable_tc(tree, net)
            assert verdict is False and trace[0].kind == "SPLIT-CONFLICT"
            assert calls == {"split_of_mask": 2}
            monkeypatch.undo()

    def test_matches_the_split_pick_on_the_desk_corpus(self):
        # the corpus of ``test_matches_reference_on_desk_networks`` and the
        # recorded traces' instances
        compared = conflicts = 0
        for seed in range(400):
            net = random_q_cuttable(GenConfig(seed=7000 + seed, leaf_count=4 + seed % 29,
                                              target_r=1 + seed % 5, target_q=3))
            labels = sorted(net.labels())
            swapped = swap_labels(sample_displayed_tree(net, seed),
                                  *random.Random(seed).sample(labels, 2))
            for tree in (random_tree(labels, seed), swapped):
                got = conflicting_split(tree, net)
                assert got == conflict_by_splits(tree, net), seed
                compared += 1
                conflicts += got is not None
        golden = json.loads((Path(__file__).parent / "data" / "tctrace_golden.json").read_text())
        for entry in golden:
            tree, net = parse_newick_tree(entry["tree"]), parse_upn(entry["net"])
            assert conflicting_split(tree, net) == conflict_by_splits(tree, net), entry["name"]
            compared += 1
        assert compared > 800 and conflicts > compared // 4


def star_tree(labels):
    """The star on ``labels``: one centre, vertex 0, joined to every leaf."""
    return UndirectedNet.build([(0, i) for i in range(1, len(labels) + 1)],
                               {i: lab for i, lab in enumerate(labels, 1)})


def non_binary_trees(net):
    """(name, tree, the vertex the error must name) on the labels of ``net``:
    a star, a binary tree with a degree-2 vertex, and ``net`` itself, whose
    smallest edge (1, 2) lies on a cycle."""
    labels = sorted(net.labels())
    tree = parse_newick_tree(f"((({labels[0]},{labels[1]}),{labels[2]}),"
                             f"(({labels[3]},{labels[4]}),{labels[5]}));")
    inner = min(e for e in tree.edges if not tree.leaves() & set(e))
    subdivided, middle = subdivide(tree, inner)
    return [("star", star_tree(labels), 0), ("degree 2", subdivided, middle), ("cyclic", net, 1)]


class TestBinaryTreePrecondition:
    @pytest.mark.parametrize("run", [three_cuttable_tc, conflicting_split])
    def test_non_binary_tree_is_an_input_error(self, conflicting_pair, run):
        _, net = conflicting_pair
        for name, tree, vertex in non_binary_trees(net):
            with pytest.raises(InputError) as info:
                run(tree, net)
            assert re.search(rf"\bvertex {vertex}\b", str(info.value)), name


class TestBranching:
    def test_leaf_counts_and_fresh_labels(self, conflicting_pair):
        _, net = conflicting_pair
        tree = parse_newick_tree("(((a,b),c),((d,f),g));")  # compatible with abc|dfg
        (t1, u1), (t2, u2) = branch_on_cut_edge(tree, net, (4, 8))
        assert len(u1.leaf_labels) + len(u2.leaf_labels) == len(net.leaf_labels) + 2
        assert t1.labels() == u1.labels()
        assert t2.labels() == u2.labels()
        fresh = (t1.labels() | t2.labels()) - net.labels()
        assert len(fresh) == 2
        assert fresh.isdisjoint(net.labels())
        for sub in (u1, u2, t1, t2):
            assert validate_unrooted(sub).ok

    def test_conflicting_tree_has_no_matching_edge(self, conflicting_pair):
        tree, net = conflicting_pair
        with pytest.raises(NoMatchingTreeEdge, match=r"^tree has no edge inducing a,b,c\|d,f,g; "):
            branch_on_cut_edge(tree, net, (4, 8))

    def test_trivial_cut_edge_rejected(self, conflicting_pair):
        _, net = conflicting_pair
        with pytest.raises(TrivialCutEdge):
            branch_on_cut_edge(conflicting_pair[0], net, (1, 5))

    def test_matches_reference_branch(self):
        # every non-trivial cut-edge of seeded networks at |X| 16-64, each
        # against a tree it displays: the halves built from the smaller side
        # and from the parent minus it equal the halves built from scratch
        compared = 0
        for seed in range(8):
            leaves = (16, 32, 48, 64)[seed % 4]
            net = random_q_cuttable(GenConfig(seed=2600 + seed, leaf_count=leaves,
                                              target_r=leaves // 8, target_q=3))
            tree = sample_displayed_tree(net, seed)
            for e in sorted(net.cut_edges() - net.trivial_cut_edges()):
                got = branch_on_cut_edge(tree, net, e)
                for got_pair, want_pair in zip(got, reference_branch(tree, net, e)):
                    for half, want in zip(got_pair, want_pair):
                        assert half.vertices == want.vertices
                        assert half.edges == want.edges
                        assert half.leaf_labels == want.leaf_labels
                        assert half.next_id == want.next_id
                        assert half.cut_edges() == want.cut_edges()
                        assert half.adjacency() == want.adjacency()
                compared += 1
        assert compared > 50

    def test_display_equivalence_across_branch(self):
        for seed in range(12):
            net = random_q_cuttable(GenConfig(seed=700 + seed, leaf_count=5, target_r=1, target_q=3))
            if len(net.leaf_labels) > 8:
                continue
            nontrivial = sorted(net.cut_edges() - net.trivial_cut_edges())
            if not nontrivial:
                continue
            tree = sample_displayed_tree(net, seed) if seed % 2 == 0 else \
                random_tree(sorted(net.labels()), seed)
            if conflicting_split(tree, net) is not None:
                continue
            (t1, u1), (t2, u2) = branch_on_cut_edge(tree, net, nontrivial[0])
            whole = display_oracle(tree, net) is not None
            parts = (display_oracle(t1, u1) is not None) and (display_oracle(t2, u2) is not None)
            assert whole == parts


class TestEntangledPaths:
    def test_adjacent_vertices(self, cycle4):
        assert entangled_path(cycle4, 5, 1) == (5, 1)

    def test_disconnected_after_deletion_returns_none(self):
        net = ring_of_leaves(6)
        # leaves t1 and t4 sit opposite; both arcs pass other leaf stубs
        assert entangled_path(net, net.vertex_of_label("t1"), net.vertex_of_label("t4")) is None

    def test_matches_bruteforce_on_fixtures(self):
        for seed in range(25):
            net = build_simple_3cuttable(seed)
            assert net.is_simple_network()
            leaves = sorted(net.leaves())
            for i, u in enumerate(leaves):
                for v in leaves[i + 1:]:
                    entangled = [p for p in all_simple_paths(net, u, v) if is_entangled(net, p)]
                    assert len(entangled) <= 1
                    got = entangled_path(net, u, v)
                    if entangled:
                        assert got in (entangled[0], tuple(reversed(entangled[0])))
                    else:
                        assert got is None


class TestPendantStructures:
    def test_caterpillar_triple(self):
        # anchored at a's neighbor, the deepest cherry is the far end {d,e}
        tree = parse_newick_tree("((((a,b),c),d),e);")
        got = find_pendant_structures(tree)
        assert got == PendantTriple("d", "e", "c")

    def test_balanced_eight_quad(self):
        tree = parse_newick_tree("(((a,b),(c,d)),((e,f),(g,h)));")
        got = find_pendant_structures(tree)
        assert isinstance(got, PendantQuad)
        assert {got.x, got.y} in ({"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"})
        assert {got.w, got.z} in ({"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"})

    def test_three_leaves_rejected(self):
        with pytest.raises(TooFewLeaves):
            find_pendant_structures(parse_newick_tree("(a,b,c);"))

    def test_quartet_prefers_triple(self):
        got = find_pendant_structures(parse_newick_tree("((a,b),(c,d));"))
        assert isinstance(got, PendantTriple)


class TestApplyReduction:
    def test_three_leaves_yes(self):
        net = ring_of_leaves(3)
        tree = parse_newick_tree("(t1,t2,t3);")
        out = apply_reduction(tree, net)
        assert out.verdict == "yes" and out.rule_id == 1

    def test_four_leaf_cycle_rule2(self, cycle4):
        tree = parse_newick_tree("((a,b),(c,d));")
        out = apply_reduction(tree, cycle4)
        assert out.verdict == "reduced" and out.rule_id == 2
        assert len(eliminate_edge(cycle4, out.eliminated_edge).edges) < len(cycle4.edges)

    def test_rule3_no_entangled_path(self):
        # ring positions 1..6 carry a,b,c,d,e,f; the deepest tree cherry {c,f}
        # sits on opposite ring positions, so no entangled path joins them
        net = ring_of_leaves(6)
        relabel = dict(zip(sorted(net.leaf_labels), "abcdef"))
        net = net.replace(leaf_labels={v: relabel[v] for v in net.leaf_labels})
        tree = parse_newick_tree("((((a,b),d),e),(c,f));")
        out = apply_reduction(tree, net)
        assert out.verdict == "no" and out.rule_id == 3 and out.case == "I"
        assert display_oracle(tree, net) is None

    def test_rule3_case_ii(self):
        # a cherry with an entangled path but no entangled connection to z
        net = ring_of_leaves(6)
        tree = parse_newick_tree("((((t1,t4),t2),t3),(t5,t6));")
        out = apply_reduction(tree, net)
        assert out.verdict == "no" and out.rule_id == 3 and out.case == "II"
        assert display_oracle(tree, net) is None

    def test_not_simple_rejected(self, conflicting_pair):
        tree, net = conflicting_pair
        with pytest.raises(NotSimple):
            apply_reduction(tree, net)

    def test_not_three_cuttable_rejected(self, theta3):
        # the input checks live at the public boundary; the containment
        # loop's own pieces skip them
        tree = parse_newick_tree("(a,b,c);")
        assert theta3.is_simple_network()
        with pytest.raises(NotThreeCuttable):
            apply_reduction(tree, theta3)
        with pytest.raises(NotThreeCuttable):
            three_cuttable_tc(tree, theta3)


class TestAlgorithm:
    def test_displayed_instance(self, displayed_pair):
        tree, net = displayed_pair
        verdict, trace = three_cuttable_tc(tree, net)
        assert verdict is True
        assert trace[-1].kind == "YES"

    def test_conflicting_instance(self, conflicting_pair):
        tree, net = conflicting_pair
        verdict, trace = three_cuttable_tc(tree, net)
        assert verdict is False
        assert trace[0].kind == "SPLIT-CONFLICT"

    def test_label_mismatch(self, displayed_pair, cycle4):
        tree, _ = displayed_pair
        with pytest.raises(LabelSetMismatch):
            three_cuttable_tc(tree, cycle4)

    def test_trace_serialization(self, displayed_pair):
        tree, net = displayed_pair
        _, trace = three_cuttable_tc(tree, net)
        text = serialize_trace(trace)
        assert text.startswith("TCTRACE/1\n")
        assert text.rstrip().endswith("YES")

    def test_trace_matches_recorded_golden(self):
        # Traces recorded with per-edge split searches, on seeded
        # random_q_cuttable networks (|X| = 16..48) against a displayed tree,
        # that tree with two leaves swapped across a cut-edge, a random tree,
        # and the displayed tree with two leaves swapped that no network
        # split separates: once decided by a split conflict after branching
        # and reducing, once by a rule.
        golden = json.loads((Path(__file__).parent / "data" / "tctrace_golden.json").read_text())
        assert {row["trace"].rstrip().rsplit("\n", 1)[-1] for row in golden} == {"YES", "NO"}
        for row in golden:
            _, trace = three_cuttable_tc(parse_newick_tree(row["tree"]), parse_upn(row["net"]))
            assert serialize_trace(trace) == row["trace"], row["name"]

    def test_matches_reference_solve(self):
        # per network: the displayed tree, that tree with two leaves swapped
        # across a cut-edge and with two leaves swapped that no network split
        # separates, and a random tree
        finals = set()
        conflict_after_elim = 0
        for seed in range(24):
            leaves = (16, 32, 48, 64)[seed % 4]
            net = random_q_cuttable(GenConfig(seed=2600 + seed, leaf_count=leaves,
                                              target_r=leaves // 8, target_q=3))
            for tree in self.candidate_trees(net, seed):
                verdict, trace = three_cuttable_tc(tree, net)
                ref_verdict, ref_trace = reference_solve(tree, net)
                assert verdict == ref_verdict
                assert serialize_trace(trace) == serialize_trace(ref_trace), seed
                finals.add(trace[-1].kind)
                kinds = [ev.kind for ev in trace]
                conflict_after_elim += "SPLIT-CONFLICT" in kinds and "ELIM" in kinds
        assert finals == {"YES", "NO"}
        assert conflict_after_elim > 0

    @staticmethod
    def candidate_trees(net, seed):
        tree = sample_displayed_tree(net, seed)
        trees = [tree, random_tree(sorted(net.labels()), seed)]
        splits = [sp for _, sp in splits_of(net) if min(len(sp.side_a), len(sp.side_b)) > 1]
        if splits:
            split = splits[seed % len(splits)]
            trees.append(swap_labels(tree, min(split.side_a), min(split.side_b)))
        labels = sorted(net.labels())
        together = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                    if all((a in sp.side_a) == (b in sp.side_a) for sp in splits)]
        if together:
            trees.append(swap_labels(tree, *together[seed % len(together)]))
        return trees

    def test_matches_reference_solve_at_scale(self):
        # the largest instance the reference decides in about ten seconds
        net = random_q_cuttable(GenConfig(seed=1, leaf_count=768, target_r=96, target_q=3))
        tree = sample_displayed_tree(net, 1)
        verdict, trace = three_cuttable_tc(tree, net)
        assert verdict is True
        assert serialize_trace(trace) == serialize_trace(reference_solve(tree, net)[1])

    def test_branch_halves_carry_exact_state(self, monkeypatch):
        # every half inherits its parent's cut-edges and indices; they must
        # be what a fresh bridge search and mask pass give under the half's
        # label groups, which are pairwise disjoint with the parent's full
        # as their union: input labels keep their groups and the fresh
        # label takes the other side's union.  The larger half is the
        # parent edited in place, so the parent's groups are read first.
        real_branch = containment._branch
        halves_checked = 0

        def checked_branch(inst, e):
            nonlocal halves_checked
            parent_bits, parent_full = dict(inst.bits), inst.full
            halves = real_branch(inst, e)
            for half, other in (halves, halves[::-1]):
                assert half.bits.keys() == set(half.net.labels.values()) \
                    == set(half.tree.labels.values())
                assert half.full == parent_full
                union = 0
                for group in half.bits.values():
                    assert group and not group & union
                    union |= group
                assert union == half.full
                (fresh,) = half.bits.keys() - parent_bits.keys()
                assert all(half.bits[lab] == parent_bits[lab] for lab in half.bits if lab != fresh)
                # disjoint groups: their sum is their union
                assert half.bits[fresh] == sum(parent_bits[lab] for lab in other.bits
                                               if lab in parent_bits)
                for graph in (half.tree, half.net):
                    assert graph.edges == sorted(graph.edges)
                    assert set(graph.edges) == {canon_edge(v, w) for v in graph.adj
                                                for w in graph.adj[v]}
                    assert graph.cuts == bridges(graph.adj)
                tree_masks, net_masks = (
                    _cut_edge_masks(graph.adj, graph.cuts, graph.labels, half.bits, half.full)
                    for graph in (half.tree, half.net))
                # the run-wide tree-edge index holds every tree mask of the
                # half and no other network mask of it, and answers every
                # split the half can branch on with the half's own smallest
                # tree edge
                assert set(tree_masks.values()) <= half.tree_edges.keys()
                for m in net_masks.values():
                    assert (m in half.tree_edges) == (m in tree_masks.values())
                smallest = {}
                for te in sorted(tree_masks, reverse=True):
                    smallest[tree_masks[te]] = te
                for f in half.branchable:
                    assert half.tree_edges[net_masks[f]] == smallest[net_masks[f]]
                frozen = half.net.freeze()
                assert half.branchable == sorted(frozen.cut_edges() - frozen.trivial_cut_edges())
                halves_checked += 1
            return halves

        monkeypatch.setattr(containment, "_branch", checked_branch)
        for seed in range(8):
            leaves = (16, 32, 48, 64)[seed % 4]
            net = random_q_cuttable(GenConfig(seed=2600 + seed, leaf_count=leaves,
                                              target_r=leaves // 8, target_q=3))
            for tree in self.candidate_trees(net, seed):
                three_cuttable_tc(tree, net)
        assert halves_checked > 100

    def test_rule2_matches_reference(self, monkeypatch):
        # the leaf index drops tests that cannot fire on a simple piece with
        # 4 or more leaves; every call must still pick what the full
        # quadruple scan picks
        real_rule2 = containment._rule2
        compared = reduced = 0

        def checked_rule2(inst):
            nonlocal compared, reduced
            outcome = real_rule2(inst)
            assert outcome == reference_rule2(inst.net.freeze(), inst)
            compared += 1
            reduced += outcome is not None
            return outcome

        monkeypatch.setattr(containment, "_rule2", checked_rule2)
        for seed in range(8):
            leaves = (16, 32, 48, 64)[seed % 4]
            net = random_q_cuttable(GenConfig(seed=2600 + seed, leaf_count=leaves,
                                              target_r=leaves // 8, target_q=3))
            for tree in self.candidate_trees(net, seed):
                three_cuttable_tc(tree, net)
        for seed in range(800):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=4 + seed % 9,
                                              target_r=1 + seed % 4, target_q=3))
            three_cuttable_tc(random_tree(sorted(net.labels()), 7 * seed + 1), net)
        assert compared > 200 and reduced > 60

    @pytest.mark.parametrize("seed, case, verdict", [
        (209, "4 I", False),
        (705, "4 IV", True),
        (2755, "4 III", False),
    ])
    def test_rule4_cases_match_oracle(self, seed, case, verdict):
        # rule 4 case II is reached by none of the first 4000 seeds of this family
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=4 + seed % 9,
                                          target_r=1 + seed % 4, target_q=3))
        tree = random_tree(sorted(net.labels()), 7 * seed + 1)
        got, trace = three_cuttable_tc(tree, net)
        assert TraceEvent("RULE", case) in trace
        assert got is verdict
        assert (display_oracle(tree, net) is not None) is verdict

    def test_blob_nni_trees_match_oracle(self):
        # trees that keep the split of every cut-edge of the network, so the
        # verdict is decided inside its largest blob: by the rules, or by a
        # conflict that an elimination creates
        decided = Counter()
        for seed in range(1, 501):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=4 + seed % 5,
                                              target_r=1 + seed % 3, target_q=3))
            if not 5 <= len(net.leaf_labels) <= 12:
                continue
            tree = blob_nni_tree(net, sample_displayed_tree(net, seed), seed)
            if tree is None:
                continue
            verdict, trace = three_cuttable_tc(tree, net)
            assert verdict == (display_oracle(tree, net) is not None), seed
            last = trace[-2]   # the event before YES or NO
            decided[f"RULE {last.detail}" if last.kind == "RULE" else last.kind] += 1
        assert decided["RULE 3 I"] and decided["RULE 3 II"] and decided["RULE 4 III"]
        assert sum(decided.values()) > 250

    def test_branch_nesting_does_not_recurse(self):
        # this instance nests branches 48 deep; deciding it must not need
        # call-stack room for them
        net = random_q_cuttable(GenConfig(seed=3, leaf_count=200, target_r=25, target_q=3))
        tree = sample_displayed_tree(net, 3)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 25)
        try:
            verdict, _ = three_cuttable_tc(tree, net)
        finally:
            sys.setrecursionlimit(limit)
        assert verdict is True

    def test_trace_length_bound(self):
        for seed in range(25):
            net = random_q_cuttable(GenConfig(seed=300 + seed, leaf_count=4 + seed % 4,
                                              target_r=1 + seed % 4, target_q=3))
            if len(net.leaf_labels) > 9:
                continue
            tree = sample_displayed_tree(net, seed)
            _, trace = three_cuttable_tc(tree, net)
            s = len(net.cut_edges() - net.trivial_cut_edges())
            work = sum(1 for ev in trace if ev.kind in ("BRANCH", "ELIM"))
            assert work <= len(net.edges) + s

    def test_oracle_equivalence(self):
        agreements = 0
        seed = 0
        while agreements < 60 and seed < 1200:
            seed += 1
            cfg = GenConfig(seed=1500 + seed, leaf_count=3 + seed % 3,
                            target_r=1 + seed % 5, target_q=3)
            net = random_q_cuttable(cfg)
            if len(net.leaf_labels) > 8:
                continue
            tree = sample_displayed_tree(net, seed) if seed % 2 == 0 else \
                random_tree(sorted(net.labels()), seed * 13 + 1)
            verdict, _ = three_cuttable_tc(tree, net)
            emb = display_oracle(tree, net)
            assert verdict == (emb is not None)
            if emb is not None:
                assert verify_embedding(tree, net, emb)
            agreements += 1
        assert agreements >= 60

    def test_reduction_soundness(self, monkeypatch):
        _, eliminations = spy_on_pieces(monkeypatch)
        for seed in range(40):
            net = build_simple_3cuttable(seed)
            if len(net.leaf_labels) > 9:
                continue
            tree = sample_displayed_tree(net, seed) if seed % 2 == 0 else \
                random_tree(sorted(net.labels()), seed * 7 + 3)
            three_cuttable_tc(tree, net)
        checked = 0
        for subtree, before, after in eliminations:
            assert validate_unrooted(after).ok
            assert is_q_cuttable(after, 3).is_cuttable
            try:
                va = display_oracle(subtree, before) is not None
                vb = display_oracle(subtree, after) is not None
            except BudgetExceeded:
                continue
            assert va == vb
            checked += 1
        assert checked > 10


@cache
def scale_instance(n, swapped):
    """The seed-1 instance at N leaves of the scale recipe: the displayed
    tree, or that tree with the smallest label on each side of the
    network's first non-trivial cut-edge swapped, which is no tree the
    network displays."""
    net = random_q_cuttable(GenConfig(seed=1, leaf_count=n, target_r=n // 8, target_q=3))
    tree = sample_displayed_tree(net, 1)
    if swapped:
        split = split_of_cut_edge(net, min(net.cut_edges() - net.trivial_cut_edges()))
        tree = swap_labels(tree, min(split.side_a), min(split.side_b))
    return tree, net


SCALE_CASES = [(256, False), (1024, False), (1024, True)]


class TestScale:
    # SHA-256 of the TCTRACE/1 text, recorded when each ELIM still rebuilt
    # the network's mask table and searched all mask pairs for a clash
    # (N=2048: when each ELIM still made a mask pass over the whole piece;
    # N=4096: when the rules still read a frozen copy of the piece)
    TRACE_SHA256 = {
        (256, False): "b7d67e7be1c79c8e477ebf880f8fce596cbe7d43ab95fdf9c55e52c04abea7a0",
        (1024, False): "6373a19f90e2117aadca7fe05fb8e82ae82841f92df4f732f46734f96ce51cbb",
        (1024, True): "404ba893e56582f54f02c7f4b59cf968b464aad6032f7ca626837cab77a9da94",
        (2048, False): "9b69f22d139db90b1c00e98fe3e4c7b7e65504df183e4c0ca5e1255d2b782458",
        (4096, False): "ec45c7494890a888f8f9561f3e7ce3bf5827eda235e6b97311c7c4ea2dbd1fcf",
    }

    @pytest.mark.parametrize("n, swapped", SCALE_CASES + [(2048, False), (4096, False)])
    def test_trace_hash_is_pinned(self, n, swapped):
        verdict, trace = three_cuttable_tc(*scale_instance(n, swapped))
        assert verdict is not swapped
        assert trace[-2].kind == ("SPLIT-CONFLICT" if swapped else "RULE")
        text = serialize_trace(trace)
        assert hashlib.sha256(text.encode()).hexdigest() == self.TRACE_SHA256[n, swapped]

    @pytest.mark.parametrize("n, swapped", SCALE_CASES)
    def test_whole_graph_work_does_not_grow_with_branching(self, monkeypatch, n, swapped):
        # one mask pass for the tree and one for the network up front,
        # which also name an input conflict's partner, and one for the tree
        # to name the partner of a conflict an ELIM creates; one bridge
        # search at most, for the network, since a tree's cut-edges are its
        # edges.  An ELIM reports its new cut-edges, and only their masks
        # are checked, so it makes neither.  A BRANCH inherits both, so
        # neither count depends on the number of them.
        tree, net = scale_instance(n, swapped)
        calls = count_calls(monkeypatch, (containment, "_cut_edge_masks"),
                            (nets, "bridges"))
        # fresh copies, so no cut-edge cache of an earlier run is reused
        _, trace = three_cuttable_tc(UndirectedNet(tree.vertices, tree.edges, tree.leaf_labels),
                                     UndirectedNet(net.vertices, net.edges, net.leaf_labels))
        kinds = [ev.kind for ev in trace]
        at_input = kinds[0] == "SPLIT-CONFLICT"
        assert swapped == at_input
        assert calls["_cut_edge_masks"] == 2 + (0 if at_input else kinds.count("SPLIT-CONFLICT"))
        assert calls["bridges"] <= 1
        assert swapped or (kinds.count("BRANCH") > n // 8 and kinds.count("ELIM") >= n // 8)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_one_label_pass_and_no_bridge_search(self, monkeypatch, n):
        # the inputs carry their cut-edges from the generators, and a
        # BRANCH hands both halves their cut-edges and labels, so the ELIMs
        # share the one label pass of the first of them
        tree, net = scale_instance(n, False)
        calls = count_calls(monkeypatch, (nets, "cycle_space_labels"), (nets, "bridges"))
        verdict, trace = three_cuttable_tc(tree, net)
        assert verdict and [ev.kind for ev in trace].count("ELIM") >= n // 8
        assert calls == {"cycle_space_labels": 1}


class TestWorkingGraphs:
    @pytest.mark.parametrize("instance, rule", [
        ((256, False), "2"), ((1024, False), "2"), (19, "3 III"), (705, "4 IV")])
    def test_the_loop_freezes_no_piece(self, monkeypatch, instance, rule):
        # the rules and the pendant search read the working graphs, so past
        # the input checks (tree validation and recognition, one sorted
        # adjacency each) nothing builds a network or an adjacency
        if isinstance(instance, tuple):
            tree, net = scale_instance(*instance)
        else:   # a desk instance of the rule-2 reference family
            net = random_q_cuttable(GenConfig(seed=instance, leaf_count=4 + instance % 9,
                                              target_r=1 + instance % 4, target_q=3))
            tree = random_tree(sorted(net.labels()), 7 * instance + 1)
        calls = count_calls(monkeypatch, (nets._WorkGraph, "freeze"), (UndirectedNet, "_trusted"),
                            (UndirectedNet, "adjacency", lambda net: net._adj is None))
        # fresh copies, so no adjacency of an earlier run is reused
        _, trace = three_cuttable_tc(UndirectedNet(tree.vertices, tree.edges, tree.leaf_labels),
                                     UndirectedNet(net.vertices, net.edges, net.leaf_labels))
        assert TraceEvent("RULE", rule) in trace
        assert calls["freeze"] == calls["_trusted"] == 0
        assert calls["adjacency"] <= 2


class TestOracle:
    def test_tree_vs_itself(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        emb = display_oracle(tree, tree)
        assert emb is not None
        assert verify_embedding(tree, tree, emb)

    def test_fig7_none(self, conflicting_pair):
        tree, net = conflicting_pair
        assert display_oracle(tree, net) is None

    def test_budget(self, displayed_pair):
        tree, net = displayed_pair
        with pytest.raises(BudgetExceeded):
            display_oracle(tree, net, max_nodes=3)

    def test_edge_images_are_entangled(self):
        # invariant: on 3-cuttable networks, every edge-image path is entangled
        checked = 0
        for seed in range(60):
            net = build_simple_3cuttable(seed)
            tree = sample_displayed_tree(net, seed)
            emb = display_oracle(tree, net)
            assert emb is not None
            assert verify_embedding(tree, net, emb)
            for path in emb.edge_map.values():
                assert is_entangled(net, path)
                checked += 1
        assert checked > 50

    def test_edge_image_concatenations_are_entangled(self):
        # invariant: images of two tree edges sharing a vertex
        # whose third neighbor is internal concatenate to an entangled path
        for seed in range(30):
            net = build_simple_3cuttable(seed)
            tree = sample_displayed_tree(net, seed)
            emb = display_oracle(tree, net)
            leaves = tree.leaves()
            for p in tree.internal_vertices():
                nbs = tree.neighbors(p)
                for q in nbs:
                    if q in leaves:
                        continue
                    u, v = [w for w in nbs if w != q]
                    pu = emb.edge_map[canon_edge(p, u)]
                    pv = emb.edge_map[canon_edge(p, v)]
                    if pu[0] != emb.vertex_map[p]:
                        pu = tuple(reversed(pu))
                    if pv[0] != emb.vertex_map[p]:
                        pv = tuple(reversed(pv))
                    concat = tuple(reversed(pu)) + pv[1:]
                    assert is_entangled(net, concat)
