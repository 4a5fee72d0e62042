import hashlib
from collections import Counter

import pytest

from cutnets import (
    GenConfig,
    UndirectedNet,
    display_oracle,
    is_q_cuttable,
    is_q_cuttable_bruteforce,
    is_q_cuttable_via_chain_deletion,
    make_q_cuttable,
    random_2balanced_cnf,
    random_q_cuttable,
    random_tree,
    sample_displayed_tree,
    validate_2balanced,
    validate_unrooted,
)
from cutnets import generate, nets
from cutnets.errors import InvalidN
from cutnets.formats import serialize_upn
from cutnets.nets import _WorkGraph, canon_edge

from conftest import count_calls


def reference_augment(g, q):
    """The loop ``_augment`` replaced: freeze and recognize after every
    inserted path.  Kept only as the reference it is tested against."""
    taken = [int(lab[4:]) for lab in g.labels.values()
             if lab.startswith("aug_") and lab[4:].isdecimal()]
    counter = max(taken, default=0) + 1
    g.bridges()
    while True:
        net = g.freeze()
        report = is_q_cuttable(net, q)
        if report:
            return net
        cycle = report.witness_cycle
        attach, far = min(canon_edge(cycle[i], cycle[(i + 1) % len(cycle)])
                          for i in range(len(cycle)))
        for _ in range(q):
            attach = g.subdivide((attach, far))
            g.add_leaf(attach, f"aug_{counter}")
            counter += 1


class TestRandomTree:
    def test_two_labels_unique_tree(self):
        tree = random_tree(["a", "b"], 0)
        assert len(tree.vertices) == 2
        assert validate_unrooted(tree).ok

    def test_deterministic(self):
        a = random_tree([f"t{i}" for i in range(8)], 99)
        b = random_tree([f"t{i}" for i in range(8)], 99)
        assert serialize_upn(a) == serialize_upn(b)

    def test_repeated_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be distinct"):
            random_tree(["a", "a", "b"], 1)

    def test_valid_with_r_zero(self):
        for seed in range(10):
            tree = random_tree([f"t{i}" for i in range(2 + seed)], seed)
            assert validate_unrooted(tree).ok
            assert tree.reticulation_number() == 0


class TestMakeQCuttable:
    def test_tree_unchanged(self):
        tree = random_tree(["a", "b", "c", "d"], 1)
        assert make_q_cuttable(tree, 3) is tree

    def test_theta_becomes_3cuttable(self, theta3):
        out = make_q_cuttable(theta3, 3)
        assert is_q_cuttable(out, 3).is_cuttable
        assert validate_unrooted(out).ok
        assert out.level() == theta3.level()
        assert all(lab.startswith("aug_") for lab in out.labels() - theta3.labels())

    def test_fresh_labels_skip_taken_aug_labels(self):
        # aug_2 is taken but aug_1 is not: counting the aug_ labels would
        # start the fresh ones at aug_2 again
        net = random_q_cuttable(GenConfig(seed=3, leaf_count=16, target_r=3, target_q=1))
        v = net.vertex_of_label("t1")
        net = net.replace(leaf_labels={**net.leaf_labels, v: "aug_2"})
        out = make_q_cuttable(net, 4)
        assert len(out.leaf_labels) > len(net.leaf_labels)
        assert validate_unrooted(out).ok
        assert is_q_cuttable(out, 4).is_cuttable

    def test_leaf_growth_multiple_of_q(self, theta3):
        for q in (1, 2, 3):
            out = make_q_cuttable(theta3, q)
            assert (len(out.leaf_labels) - len(theta3.leaf_labels)) % q == 0


class TestRandomQCuttable:
    def test_r_zero_gives_tree(self):
        net = random_q_cuttable(GenConfig(seed=4, leaf_count=6, target_r=0, target_q=2))
        assert net.reticulation_number() == 0

    def test_samples_pass_all_recognizers(self):
        for seed in range(60):
            cfg = GenConfig(seed=seed, leaf_count=3 + seed % 8,
                            target_r=seed % 5, target_q=1 + seed % 4)
            net = random_q_cuttable(cfg)
            assert validate_unrooted(net).ok
            assert net.reticulation_number() == cfg.target_r
            assert net.level() <= max(cfg.target_r, 0)
            q = cfg.target_q
            assert is_q_cuttable(net, q).is_cuttable
            assert is_q_cuttable_via_chain_deletion(net, q)
            assert is_q_cuttable_bruteforce(net, q)

    def test_byte_identical_across_runs(self):
        cfg = GenConfig(seed=123, leaf_count=7, target_r=3, target_q=2)
        assert serialize_upn(random_q_cuttable(cfg)) == serialize_upn(random_q_cuttable(cfg))

    def test_two_leaf_reticulate_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(seed=0, leaf_count=2, target_r=1)


class TestLargeInstance:
    def test_1024_leaves_and_a_displayed_tree(self):
        net = random_q_cuttable(GenConfig(seed=1, leaf_count=1024, target_r=128, target_q=3))
        tree = sample_displayed_tree(net, 1)
        assert validate_unrooted(net).ok
        assert is_q_cuttable_via_chain_deletion(net, 3)
        assert net.reticulation_number() == 128
        assert tree.reticulation_number() == 0
        assert tree.is_connected()
        assert tree.labels() == net.labels()


class TestAugment:
    DESK = [GenConfig(seed=s, leaf_count=4 + s % 61, target_r=1 + s % 13, target_q=1 + s % 4)
            for s in range(244)]

    @pytest.fixture
    def outputs(self, monkeypatch):
        """Runs ``reference_augment`` on a copy of each graph ``_augment``
        gets; collects (output, reference output) as UPN text."""
        pairs = []
        real = generate._augment

        def both(g, q):
            ref = reference_augment(_WorkGraph.of(g.freeze()), q)
            out = real(g, q)
            pairs.append((serialize_upn(out), serialize_upn(ref)))
            return out

        monkeypatch.setattr(generate, "_augment", both)
        return pairs

    def test_matches_reference_at_desk_scale(self, outputs):
        for cfg in self.DESK:
            random_q_cuttable(cfg)
        assert len(outputs) == len(self.DESK)
        assert all(out == ref for out, ref in outputs)

    def test_make_q_cuttable_matches_reference(self, outputs):
        # q=1 outputs carry aug_ labels and are mostly not 2- to 4-cuttable
        for cfg in self.DESK[:60]:
            net = random_q_cuttable(GenConfig(cfg.seed, cfg.leaf_count, cfg.target_r, 1))
            make_q_cuttable(net, 2 + cfg.seed % 3)
        assert len(outputs) > 60
        assert all(out == ref for out, ref in outputs)

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_reference_at_scale(self, outputs, q):
        random_q_cuttable(GenConfig(seed=1, leaf_count=2048, target_r=256, target_q=q))
        ((out, ref),) = outputs
        assert out == ref

    def test_kept_doomed_set_is_the_long_chains(self, monkeypatch):
        real = generate._find_cycle_avoiding
        rounds = Counter()

        def checked(adj, doomed):
            net = UndirectedNet.build([(u, w) for u in adj for w in adj[u] if u < w], {})
            assert doomed == {v for chain in net.maximal_chains() if chain.length >= q
                              for v in chain.path_vertices}
            rounds[q] += 1
            return real(adj, doomed)

        monkeypatch.setattr(generate, "_find_cycle_avoiding", checked)
        for cfg in self.DESK[:120] + [GenConfig(seed=5, leaf_count=256, target_r=32, target_q=3)]:
            q = cfg.target_q   # read by checked
            random_q_cuttable(cfg)
        assert sum(rounds.values()) > 2 * 121 and set(rounds) == {1, 2, 3, 4}

    def test_whole_network_work_is_constant_per_call(self, monkeypatch):
        # counts, not seconds: chains are found and the graph frozen a fixed
        # number of times however many paths are inserted
        counts = count_calls(monkeypatch, (UndirectedNet, "maximal_chains"),
                             (_WorkGraph, "freeze"), (generate, "_find_cycle_avoiding"))
        rounds = []
        for q in (2, 4):
            counts.clear()
            random_q_cuttable(GenConfig(seed=1, leaf_count=512, target_r=64, target_q=q))
            rounds.append(counts.pop("_find_cycle_avoiding"))
            assert counts == {"maximal_chains": 1, "freeze": 2}
        assert rounds[0] > 5 and rounds[1] > 30


class TestSampleDisplayedTree:
    def test_tree_returns_itself(self):
        tree = random_tree(["a", "b", "c"], 5)
        assert sample_displayed_tree(tree, 0) is tree

    def test_r_drops_to_zero_and_display_confirmed(self):
        for seed in range(20):
            cfg = GenConfig(seed=800 + seed, leaf_count=3 + seed % 3,
                            target_r=1 + seed % 3, target_q=3)
            net = random_q_cuttable(cfg)
            if len(net.leaf_labels) > 8:
                continue
            tree = sample_displayed_tree(net, seed)
            assert tree.reticulation_number() == 0
            assert tree.labels() == net.labels()
            assert display_oracle(tree, net) is not None

    @pytest.mark.parametrize("n", [256, 1024])
    def test_one_label_pass_and_no_bridge_search(self, monkeypatch, n):
        # counts, not seconds: the generator's output carries its cut-edges,
        # the first elimination labels the graph once, and every later one
        # updates the labels along a path
        net = random_q_cuttable(GenConfig(seed=1, leaf_count=n, target_r=n // 8, target_q=3))
        calls = count_calls(monkeypatch, (nets, "cycle_space_labels"), (nets, "bridges"))
        tree = sample_displayed_tree(net, 1)
        assert tree.reticulation_number() == 0
        assert calls == {"cycle_space_labels": 1}

    def test_output_hash_is_pinned_at_scale(self):
        # SHA-256 of the UPN text, recorded when each elimination still
        # searched its blob for bridges
        net = random_q_cuttable(GenConfig(seed=1, leaf_count=4096, target_r=512, target_q=3))
        assert len(net.leaf_labels) == 4531
        text = serialize_upn(sample_displayed_tree(net, 1))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "5e062fa926d50cc77ddf48bf6bedb8884e1bb2a91a7ff60bd5f28a55c1b92f56"


class TestRandomCnf:
    def test_rejects_bad_n(self):
        with pytest.raises(InvalidN):
            random_2balanced_cnf(5, 0)
        with pytest.raises(InvalidN):
            random_2balanced_cnf(0, 0)

    def test_always_balanced(self):
        for seed in range(20):
            cnf = random_2balanced_cnf(3 * (1 + seed % 4), seed)
            assert validate_2balanced(cnf).ok
            assert cnf.m == 4 * cnf.n // 3
