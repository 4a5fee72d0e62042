import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutnets import (
    GenConfig,
    UndirectedNet,
    is_q_cuttable,
    is_q_cuttable_bruteforce,
    is_q_cuttable_via_chain_deletion,
    max_cuttability,
    random_q_cuttable,
)
from cutnets.errors import InvalidQ, TooLarge
from cutnets.formats import parse_upn, serialize_upn
from cutnets.generate import _tree_graph
from cutnets import nets
from cutnets.reference import _cycle_has_q_chain, simple_cycles

from conftest import count_calls, triangle_net


def reference_max_cuttability(net):
    """The loop ``max_cuttability`` replaced: recognize q = 1, 2, ... until
    one fails.  Kept only as the reference it is tested against."""
    if net.reticulation_number() == 0:
        return None
    best = 0
    q = 1
    while is_q_cuttable(net, q).is_cuttable:
        best = q
        q += 1
        if q > len(net.vertices) + 1:
            raise AssertionError("q-cuttability failed to turn false on a non-tree")
    return best


def cut_incident_vertices(net):
    return {v for e in net.cut_edges() for v in e}


class TestRecognizer:
    def test_tree_cuttable_for_every_q(self, two_leaf):
        for q in range(1, 6):
            assert is_q_cuttable(two_leaf, q).is_cuttable
            assert is_q_cuttable_via_chain_deletion(two_leaf, q)
            assert is_q_cuttable_bruteforce(two_leaf, q)

    @pytest.mark.parametrize("q,expected", [(1, True), (2, True), (3, True), (4, True), (5, False)])
    def test_cycle4(self, cycle4, q, expected):
        assert is_q_cuttable(cycle4, q).is_cuttable is expected
        assert is_q_cuttable_via_chain_deletion(cycle4, q) is expected
        assert is_q_cuttable_bruteforce(cycle4, q) is expected

    def test_cut_edge_free_cycle_witness(self, k4_sub):
        report = is_q_cuttable(k4_sub, 1)
        assert not report.is_cuttable
        wc = report.witness_cycle
        assert wc is not None
        assert all(k4_sub.has_edge(wc[i], wc[(i + 1) % len(wc)]) for i in range(len(wc)))
        assert not _cycle_has_q_chain(wc, cut_incident_vertices(k4_sub), 1)

    def test_invalid_q(self, cycle4):
        with pytest.raises(InvalidQ):
            is_q_cuttable(cycle4, 0)
        with pytest.raises(InvalidQ):
            is_q_cuttable_via_chain_deletion(cycle4, -1)
        with pytest.raises(InvalidQ):
            is_q_cuttable_bruteforce(cycle4, 0)

    def test_chain_deletion_no_long_chain_means_no_deletion(self, cycle4):
        # every maximal chain is shorter than q, so nothing is deleted and the
        # cycle survives
        assert not is_q_cuttable_via_chain_deletion(cycle4, 5)

    def test_bruteforce_budget(self, cycle4):
        with pytest.raises(TooLarge):
            is_q_cuttable_bruteforce(cycle4, 2, max_cycles=0)


class TestLoneChainVertex:
    """Frozen regression: a 1-cuttable network whose witness-relevant chains
    have length 1.  Deleting only chain edges (which lone vertices lack)
    would let cycle (7,19,20,21) survive; cutting a blob edge at the lone
    chain vertex keeps the recognizers equivalent."""

    NET = UndirectedNet.build(
        [(1, 15), (2, 18), (3, 5), (3, 15), (3, 20), (4, 19), (5, 13), (5, 18),
         (6, 17), (7, 16), (7, 19), (7, 21), (8, 9), (9, 11), (9, 14), (10, 22),
         (11, 12), (11, 16), (13, 14), (13, 17), (14, 22), (15, 16), (17, 18),
         (19, 20), (20, 21), (21, 22)],
        {1: "t1", 2: "t2", 4: "t3", 6: "t4", 8: "t5", 10: "t6", 12: "t7"},
    )

    def test_has_lone_chain_vertices(self):
        lengths = sorted(c.length for c in self.NET.maximal_chains())
        assert lengths == [1, 1, 1, 2, 2]

    def test_recognizers_agree(self):
        assert is_q_cuttable_bruteforce(self.NET, 1)
        assert is_q_cuttable(self.NET, 1).is_cuttable
        assert is_q_cuttable_via_chain_deletion(self.NET, 1)


class TestEquivalenceAndMonotonicity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_three_way_agreement(self, seed):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 10,
                                          target_r=seed % 7, target_q=1 + seed % 5))
        for q in range(1, 6):
            a = is_q_cuttable(net, q).is_cuttable
            assert is_q_cuttable_via_chain_deletion(net, q) is a
            assert is_q_cuttable_bruteforce(net, q) is a

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_q(self, seed):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 8,
                                          target_r=seed % 6, target_q=1))
        flags = [is_q_cuttable(net, q).is_cuttable for q in range(1, 8)]
        assert flags == sorted(flags, reverse=True)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_a_failing_cycle(self, seed):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 6,
                                          target_r=1 + seed % 5, target_q=1))
        cut_inc = cut_incident_vertices(net)
        for q in range(1, 8):
            report = is_q_cuttable(net, q)
            if report.is_cuttable:
                assert report.witness_cycle is None
            else:
                wc = report.witness_cycle
                assert all(net.has_edge(wc[i], wc[(i + 1) % len(wc)]) for i in range(len(wc)))
                assert not _cycle_has_q_chain(wc, cut_inc, q)
                # chordless: no network edge joins non-consecutive witness vertices
                pos = {v: i for i, v in enumerate(wc)}
                for i, v in enumerate(wc):
                    for w in net.neighbors(v):
                        if w in pos:
                            assert (pos[w] - i) % len(wc) in (1, len(wc) - 1)

    def test_witness_is_chordless_on_raw_handle_networks(self):
        # handles on a random tree with no augmentation: most cycles are
        # short of cut-edges, so witnesses are plentiful at every size, and
        # the first cycle the search closes must already be chordless
        witnesses = 0
        for seed in range(50):
            leaves = (8, 25, 50, 100, 200)[seed % 5]
            rng = random.Random(seed)
            g = _tree_graph([f"t{i}" for i in range(1, leaves + 1)], rng.randrange(2**32))
            for _ in range(1 + seed % 12):
                e1, e2 = rng.sample(g.edges, 2)
                g.add_edge(g.subdivide(e1), g.subdivide(e2))
            net = g.freeze()
            cut_inc = cut_incident_vertices(net)
            for q in range(1, 6):
                wc = is_q_cuttable(net, q).witness_cycle
                if wc is None:
                    continue
                witnesses += 1
                pos = {v: i for i, v in enumerate(wc)}
                assert len(pos) == len(wc) >= 3
                assert all(net.has_edge(wc[i], wc[(i + 1) % len(wc)]) for i in range(len(wc)))
                assert not _cycle_has_q_chain(wc, cut_inc, q)
                for i, v in enumerate(wc):
                    for w in net.neighbors(v):
                        if w in pos:
                            assert (pos[w] - i) % len(wc) in (1, len(wc) - 1), (seed, q)
        assert witnesses > 100

    def test_fast_recognizers_agree_at_scale(self):
        # |X| = 4531; parsed back from UPN/1, so the cut-edges the generator
        # kept are not trusted and both recognizers see a fresh bridge search
        net = parse_upn(serialize_upn(random_q_cuttable(
            GenConfig(seed=1, leaf_count=4096, target_r=512, target_q=3))))
        assert net._cuts is None and len(net.leaf_labels) == 4531
        answers = [is_q_cuttable(net, q).is_cuttable for q in (2, 3, 4)]
        assert answers == [is_q_cuttable_via_chain_deletion(net, q) for q in (2, 3, 4)]
        assert answers == [True, True, False]


class TestMaxCuttability:
    def test_tree_unbounded(self, two_leaf):
        assert max_cuttability(two_leaf) is None

    def test_cycle4(self, cycle4):
        assert max_cuttability(cycle4) == 4

    def test_cut_edge_free_blob_cycle(self, k4_sub):
        assert max_cuttability(k4_sub) == 0

    def test_matches_the_loop_over_q(self, two_leaf, cycle4, theta3, k4_sub):
        answers = Counter()
        for s in range(2400):
            net = random_q_cuttable(GenConfig(seed=s, leaf_count=4 + s % 30, target_r=s % 7,
                                              target_q=1 + s % 4))
            got = max_cuttability(net)
            assert got == reference_max_cuttability(net), s
            answers[got] += 1
        for net in (two_leaf, cycle4, theta3, k4_sub, triangle_net()):
            assert max_cuttability(net) == reference_max_cuttability(net)
        assert answers[None] > 100 and {1, 2, 3, 4, 5} <= answers.keys()

    def test_definition_check_on_cycles(self, cycle4):
        # every simple cycle of the 4-cycle fixture is the square itself
        assert simple_cycles(cycle4) == [(1, 2, 3, 4)]


class TestWholeGraphWork:
    @pytest.mark.parametrize("n", [256, 1024])
    def test_parse_then_recognize_is_constant(self, monkeypatch, n):
        text = serialize_upn(random_q_cuttable(GenConfig(seed=1, leaf_count=n, target_r=n // 8,
                                                         target_q=2)))
        # a call that finds the cache empty is the one that computes the chains
        computed = count_calls(monkeypatch, (UndirectedNet, "maximal_chains",
                                             lambda net: net._chain_list is None))
        calls = count_calls(monkeypatch, (nets, "bridges"),
                            (UndirectedNet, "maximal_chains"))
        net = parse_upn(text)
        assert is_q_cuttable(net, 2) and not is_q_cuttable(net, 3)
        assert max_cuttability(net) == 2
        assert calls == {"bridges": 1, "maximal_chains": 3}
        assert computed == {"maximal_chains": 1}
