import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutnets import (
    GenConfig,
    OrientationSpec,
    RootedNet,
    apply_orientation,
    brute_force_tree_child_orientation,
    cherry_picking_sequence,
    choose_s_prime,
    is_tree_child,
    labeled_isomorphic,
    build_n_phi,
    random_2balanced_cnf,
    random_q_cuttable,
    random_tree,
    reduce_pair,
    replay_sequence,
    sat_bruteforce,
    tree_child_orient_2cuttable,
    underlying_unrooted,
)
from cutnets import nets, orient
from cutnets.errors import (
    CyclicOrientation,
    DegreeViolation,
    NotReducible,
    NotTwoCuttable,
    TooLarge,
    UnknownEdge,
)
from cutnets.formats import parse_newick_tree
from cutnets.nets import UndirectedNet, canon_edge
from cutnets.orient import chain_edge_set

from conftest import count_calls, triangle_net


def reference_is_tree_child(net):
    """No stack (an arc between two reticulations) and no sibling
    reticulations (two reticulation children of one vertex).  On a
    degree-valid binary network this equals the definition that
    ``is_tree_child`` checks, every non-leaf vertex having a child that is
    not a reticulation."""
    retics = net.reticulations()
    return (not any(a in retics and b in retics for a, b in net.arcs)
            and all(sum(c in retics for c in cs) < 2 for cs in net.succ.values()))


def all_orientations(net):
    """Every acyclic, degree-valid orientation of ``net``: each root edge
    with each direction of the other edges that ``apply_orientation`` takes."""
    out = []
    for root_edge in sorted(net.edges):
        rest = sorted(net.edges - {root_edge})
        for flips in itertools.product((False, True), repeat=len(rest)):
            spec = OrientationSpec(root_edge, {e: e[::-1] if flip else e
                                               for e, flip in zip(rest, flips)})
            try:
                out.append(apply_orientation(net, spec))
            except (DegreeViolation, CyclicOrientation):
                pass
    return out


def spec_of(net, rooted):
    """Recover the orientation spec that produced `rooted` from `net`."""
    kids = rooted.succ[rooted.root]
    root_edge = canon_edge(*kids)
    directions = {}
    for a, b in rooted.arcs:
        if rooted.root in (a, b):
            continue
        directions[canon_edge(a, b)] = (a, b)
    return OrientationSpec(root_edge, directions)


class TestApplyOrientation:
    def test_two_leaf_rooted_cherry(self, two_leaf):
        rooted = apply_orientation(two_leaf, OrientationSpec((1, 2), {}))
        assert len(rooted.succ[rooted.root]) == 2
        assert rooted.labels() == {"a", "b"}
        assert is_tree_child(rooted)

    def test_consistent_cycle_rejected(self, cycle4):
        spec = OrientationSpec(
            (1, 5),
            {(1, 2): (1, 2), (2, 3): (2, 3), (3, 4): (3, 4), (1, 4): (4, 1),
             (2, 6): (2, 6), (3, 7): (3, 7), (4, 8): (4, 8)},
        )
        with pytest.raises(CyclicOrientation):
            apply_orientation(cycle4, spec)

    def test_degree_violation_named(self, cycle4):
        spec = OrientationSpec(
            (1, 5),
            {(1, 2): (2, 1), (2, 3): (3, 2), (3, 4): (3, 4), (1, 4): (4, 1),
             (2, 6): (2, 6), (3, 7): (3, 7), (4, 8): (4, 8)},
        )
        with pytest.raises(DegreeViolation):
            apply_orientation(cycle4, spec)

    @pytest.mark.parametrize("flipped, error, message", [
        ({(1, 2), (2, 3), (1, 4)}, DegreeViolation, "vertex 1 has degrees (in=3, out=0)"),
        ({(1, 4)}, CyclicOrientation, "orientation contains the directed cycle [1, 2, 3, 4]"),
        ({(2, 6)}, DegreeViolation, "vertex 6 has degrees (in=0, out=1)"),
        ({(3, 4), (4, 8)}, DegreeViolation, "vertex 8 has degrees (in=0, out=1)"),
    ])
    def test_messages(self, cycle4, flipped, error, message):
        edges = sorted(cycle4.edges - {(1, 5)})
        spec = OrientationSpec((1, 5), {e: e[::-1] if e in flipped else e for e in edges})
        with pytest.raises(error) as caught:
            apply_orientation(cycle4, spec)
        assert str(caught.value) == message

    @pytest.mark.parametrize("root_edge, directions, error, message", [
        ((1, 3), {}, UnknownEdge, "root edge (1, 3) is not an edge"),
        ((1, 5), {(3, 1): (1, 3)}, UnknownEdge, "directed non-edge (1, 3)"),
        ((1, 5), {(2, 1): (1, 3)}, ValueError, "direction (1,3) does not match its edge (1, 2)"),
    ])
    def test_spec_errors_name_the_edge(self, cycle4, root_edge, directions, error, message):
        with pytest.raises(error) as caught:
            apply_orientation(cycle4, OrientationSpec(root_edge, directions))
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_incomplete_spec_rejected(self, cycle4):
        with pytest.raises(ValueError):
            apply_orientation(cycle4, OrientationSpec((1, 5), {}))

    def test_underlying_round_trip(self):
        for seed in range(20):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 5,
                                              target_r=seed % 3, target_q=2))
            if len(net.edges) > 16:
                continue
            rooted = brute_force_tree_child_orientation(net)
            assert rooted is not None
            spec = spec_of(net, rooted)
            again = apply_orientation(net, spec)
            back = underlying_unrooted(again)
            assert labeled_isomorphic(back, net)
            assert again.reticulation_number() == net.reticulation_number()


class TestTreeChild:
    def test_tree_is_tree_child(self):
        rooted = RootedNet.build([(1, 2), (1, 3), (2, 4), (2, 5)], 1,
                                 {3: "a", 4: "b", 5: "c"})
        assert is_tree_child(rooted)
        assert reference_is_tree_child(rooted)

    def test_stack_is_not_tree_child(self):
        # reticulations 4 and 5 both feed reticulation 6: arcs (4,6),(5,6) are stacks
        arcs = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (3, 4), (4, 6), (5, 6), (6, 7)]
        rooted = RootedNet.build(arcs, 1, {7: "a"})
        assert not is_tree_child(rooted)
        assert not reference_is_tree_child(rooted)

    def test_sibling_reticulations_not_tree_child(self):
        arcs = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 7)]
        rooted = RootedNet.build(arcs, 1, {6: "a", 7: "b"})
        assert not is_tree_child(rooted)
        assert not reference_is_tree_child(rooted)

    def test_reference_agrees_on_every_orientation_of_desk_networks(
            self, two_leaf, cycle4, theta3, k4_sub):
        desk = [two_leaf, cycle4, theta3, k4_sub, parse_newick_tree("((a,b),(c,d),e);")]
        desk += [random_q_cuttable(GenConfig(seed=s, leaf_count=3 + s % 3, target_r=s % 3,
                                             target_q=1 + s % 3)) for s in range(60)]
        verdicts = Counter()
        for net in desk:
            if len(net.edges) > 10:
                continue
            for rooted in all_orientations(net):
                verdict = is_tree_child(rooted)
                assert verdict == reference_is_tree_child(rooted)
                verdicts[verdict] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    def test_reference_agrees_on_sat_networks(self, phi_bench):
        checked = 0
        for cnf in [phi_bench] + [random_2balanced_cnf(n, 500 + s) for n in (3, 6, 9)
                                  for s in range(3)]:
            beta = sat_bruteforce(cnf)
            if beta is not None:
                rooted = build_n_phi(cnf, beta)
                assert is_tree_child(rooted) and reference_is_tree_child(rooted)
                checked += 1
        assert checked >= 5


class TestChooseSPrime:
    def test_tree_has_empty_s_prime(self, two_leaf):
        assert choose_s_prime(two_leaf) == frozenset()

    def test_cycle4(self, cycle4):
        s = chain_edge_set(cycle4)
        assert s == cycle4.blobs()[0].edges
        s_prime = choose_s_prime(cycle4)
        assert len(s_prime) == 1
        assert s_prime <= s

    def test_not_two_cuttable(self, theta3):
        with pytest.raises(NotTwoCuttable):
            choose_s_prime(theta3)

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_ob1_ob2_hold(self, seed):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 9,
                                          target_r=seed % 6, target_q=2))
        s_prime = choose_s_prime(net)
        assert len(s_prime) == net.reticulation_number()
        incident = {}
        for e in s_prime:
            for v in e:
                assert v not in incident
                incident[v] = e
        for u, v in net.edges - s_prime - net.cut_edges():
            assert not (u in incident and v in incident)


class TestConstructiveOrientation:
    def test_tree_orients_away_from_root(self):
        tree = random_tree(["a", "b", "c", "d", "e"], 3)
        rooted = tree_child_orient_2cuttable(tree)
        assert is_tree_child(rooted)
        assert rooted.reticulation_number() == 0
        assert labeled_isomorphic(underlying_unrooted(rooted), tree)

    def test_cycle4(self, cycle4):
        rooted = tree_child_orient_2cuttable(cycle4)
        assert is_tree_child(rooted)
        assert labeled_isomorphic(underlying_unrooted(rooted), cycle4)

    def test_rejects_non_2cuttable(self, theta3):
        with pytest.raises(NotTwoCuttable):
            tree_child_orient_2cuttable(theta3)

    @given(st.integers(0, 20_000))
    @settings(max_examples=100, deadline=None)
    def test_property_suite(self, seed):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 10,
                                          target_r=seed % 7, target_q=2))
        rooted = tree_child_orient_2cuttable(net)
        assert is_tree_child(rooted)
        assert labeled_isomorphic(underlying_unrooted(rooted), net)
        assert rooted.reticulation_number() == net.reticulation_number()
        assert net.reticulation_number() <= len(net.leaf_labels) - 1


    def test_many_blobs(self):
        net = triangle_net()
        rooted = tree_child_orient_2cuttable(net)
        assert is_tree_child(rooted) and reference_is_tree_child(rooted)
        assert rooted.reticulation_number() == net.reticulation_number() == 1999

    @pytest.mark.parametrize("n", [256, 1024])
    def test_whole_graph_work_is_constant(self, monkeypatch, n):
        net = random_q_cuttable(GenConfig(seed=1, leaf_count=n, target_r=n // 8, target_q=2))
        calls = count_calls(monkeypatch, (nets, "bridges"),
                            (UndirectedNet, "maximal_chains"), (UndirectedNet, "blobs"),
                            (RootedNet, "__init__"), (orient, "validate_rooted"))
        # a fresh copy, so no cache the generator filled is reused
        tree_child_orient_2cuttable(UndirectedNet(net.vertices, net.edges, net.leaf_labels))
        assert calls == {"bridges": 1, "maximal_chains": 1, "blobs": 1, "__init__": 1,
                         "validate_rooted": 1}


class TestBruteForce:
    def test_two_leaf(self, two_leaf):
        assert brute_force_tree_child_orientation(two_leaf) is not None

    def test_budget(self, cycle4):
        with pytest.raises(TooLarge):
            brute_force_tree_child_orientation(cycle4, max_edges=3)

    def test_known_non_orientable(self, theta3, k4_sub):
        assert brute_force_tree_child_orientation(theta3) is None
        assert brute_force_tree_child_orientation(k4_sub) is None

    def test_agrees_with_constructive_existence(self):
        for seed in range(12):
            net = random_q_cuttable(GenConfig(seed=100 + seed, leaf_count=3 + seed % 4,
                                              target_r=seed % 3, target_q=2))
            if len(net.edges) > 16:
                continue
            rooted = brute_force_tree_child_orientation(net)
            assert rooted is not None
            assert is_tree_child(rooted)
            assert labeled_isomorphic(underlying_unrooted(rooted), net)

    def test_deterministic(self, cycle4):
        a = brute_force_tree_child_orientation(cycle4)
        b = brute_force_tree_child_orientation(cycle4)
        assert a.arcs == b.arcs and a.root == b.root


class TestReducePair:
    def test_quartet_cherry(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        out = reduce_pair(tree, ("a", "b"))
        assert out.labels() == {"b", "c", "d"}
        assert out.reticulation_number() == 0
        assert len(out.vertices) == 4

    def test_two_leaf_terminal(self, two_leaf):
        out = reduce_pair(two_leaf, ("a", "b"))
        assert len(out.vertices) == 1
        assert out.labels() == {"b"}

    def test_reticulated_cherry_drops_r(self, cycle4):
        out = reduce_pair(cycle4, ("a", "b"))
        assert out.reticulation_number() == cycle4.reticulation_number() - 1
        assert out.labels() == {"a", "b", "c", "d"}

    def test_not_reducible(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        with pytest.raises(NotReducible):
            reduce_pair(tree, ("a", "c"))

    @pytest.mark.parametrize("pair, message", [
        (("a", "z"), "no leaf labeled 'z'"),
        (("b", "b"), "pair must name two distinct leaves"),
    ])
    def test_bad_pair_named(self, pair, message):
        tree = parse_newick_tree("((a,b),(c,d));")
        with pytest.raises(NotReducible) as caught:
            reduce_pair(tree, pair)
        assert str(caught.value) == message

    def test_two_leaf_reticulate_cherry_not_reducible(self):
        # K4 with one edge subdivided, a cherry hung from the subdividing vertex
        net = UndirectedNet.build(
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7), (6, 8)],
            {7: "a", 8: "b"},
        )
        with pytest.raises(NotReducible) as caught:
            reduce_pair(net, ("a", "b"))
        assert str(caught.value) == ("cherry reduction on a two-leaf reticulate network "
                                     "would not yield a network")


class TestCherryPicking:
    def test_every_tree_has_a_sequence(self):
        for seed in range(10):
            tree = random_tree([f"t{i}" for i in range(1, 4 + seed % 6)], seed)
            seq = cherry_picking_sequence(tree)
            assert seq is not None
            assert len(replay_sequence(tree, seq).vertices) == 1

    def test_two_cuttable_fixtures_are_orchard(self):
        for seed in range(25):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 6,
                                              target_r=seed % 5, target_q=2))
            if len(net.leaf_labels) > 10:
                continue
            seq = cherry_picking_sequence(net)
            assert seq is not None
            assert len(replay_sequence(net, seq).vertices) == 1

    def test_budget_exceeded(self, cycle4):
        from cutnets.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            cherry_picking_sequence(cycle4, max_states=0)

    def test_non_orchard_returns_none(self):
        # two leaves hanging off a cut-edge-free blob: nothing ever reduces
        net = UndirectedNet.build(
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7), (6, 8)],
            {7: "a", 8: "b"},
        )
        assert cherry_picking_sequence(net) is None
