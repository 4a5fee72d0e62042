"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import statistics
import time

import pytest

from cutnets import (
    CnfInstance,
    GenConfig,
    assignment_satisfies,
    build_n_phi,
    build_u_phi,
    cherry_picking_sequence,
    display_oracle,
    extract_assignment,
    is_q_cuttable,
    is_q_cuttable_bruteforce,
    is_q_cuttable_via_chain_deletion,
    is_tree_child,
    labeled_isomorphic,
    random_2balanced_cnf,
    random_q_cuttable,
    random_tree,
    replay_sequence,
    rooted_isomorphic,
    sample_displayed_tree,
    sat_bruteforce,
    three_cuttable_tc,
    tree_child_orient_2cuttable,
    underlying_unrooted,
    validate_rooted,
    validate_unrooted,
    verify_embedding,
)
from cutnets.containment import entangled_path
from cutnets.errors import BudgetExceeded
from cutnets.formats import (
    parse_dimacs_cnf,
    parse_enewick,
    parse_newick_tree,
    parse_upn,
    serialize_dimacs_cnf,
    serialize_enewick,
    serialize_newick_tree,
    serialize_upn,
)
from cutnets.reference import all_simple_paths, is_entangled

from conftest import build_simple_3cuttable, spy_on_pieces

PHI_BENCH = CnfInstance(3, ((1, -2, 3), (-1, 2, -3), (1, 2, -3), (-1, -2, 3)))


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tc_instances():
    """Criterion-4 instance pool: 3-cuttable, |X| <= 8, r <= 5, half yes."""
    instances = []
    seed = 0
    while len(instances) < 200 and seed < 8000:
        seed += 1
        if seed % 2 == 0:
            net = build_simple_3cuttable(seed)
        else:
            cfg = GenConfig(seed=9000 + seed, leaf_count=3 + seed % 3,
                            target_r=1 + seed % 5, target_q=3)
            net = random_q_cuttable(cfg)
        if len(net.leaf_labels) > 8 or net.reticulation_number() > 5:
            continue
        if len(instances) % 2 == 0:
            tree = sample_displayed_tree(net, seed)
        else:
            tree = random_tree(sorted(net.labels()), seed * 31 + 7)
        instances.append((tree, net))
    assert len(instances) >= 200
    return instances


@pytest.fixture(scope="module")
def tc_results(tc_instances):
    results = []
    for tree, net in tc_instances:
        t0 = time.perf_counter()
        verdict, trace = three_cuttable_tc(tree, net)
        elapsed = time.perf_counter() - t0
        results.append((tree, net, verdict, trace, elapsed))
    return results


def test_criterion_1_recognizer_equivalence():
    t0 = time.perf_counter()
    nets = []
    seed = 0
    while len(nets) < 1000 and seed < 20000:
        seed += 1
        cfg = GenConfig(seed=seed, leaf_count=3 + seed % 8,
                        target_r=seed % 7, target_q=1 + seed % 3)
        net = random_q_cuttable(cfg)
        if len(net.leaf_labels) <= 12 and net.reticulation_number() <= 6:
            nets.append(net)
    disagreements = 0
    checks = 0
    for net in nets:
        for q in range(1, 6):
            a = is_q_cuttable(net, q).is_cuttable
            b = is_q_cuttable_via_chain_deletion(net, q)
            c = is_q_cuttable_bruteforce(net, q)
            checks += 1
            if not (a == b == c):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    report(1, "recognizer-equivalence",
           len(nets) >= 1000 and disagreements == 0 and elapsed < 60.0,
           f"{len(nets)} networks, {checks} checks, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_2_constructive_orientation():
    failures = []
    count = 0
    seed = 0
    while count < 200 and seed < 4000:
        seed += 1
        cfg = GenConfig(seed=20_000 + seed, leaf_count=3 + seed % 10,
                        target_r=seed % 7, target_q=2)
        net = random_q_cuttable(cfg)
        if len(net.leaf_labels) > 12:
            continue
        count += 1
        rooted = tree_child_orient_2cuttable(net)
        if not validate_rooted(rooted).ok:
            failures.append((seed, "invalid rooted output"))
        if not is_tree_child(rooted):
            failures.append((seed, "not tree-child"))
        if not labeled_isomorphic(underlying_unrooted(rooted), net):
            failures.append((seed, "underlying mismatch"))
        if rooted.reticulation_number() != net.reticulation_number():
            failures.append((seed, "reticulation number changed"))
        if net.reticulation_number() > len(net.leaf_labels) - 1:
            failures.append((seed, "reticulation bound r <= |X|-1 violated"))
    report(2, "constructive-tree-child-orientation",
           count >= 200 and not failures,
           f"{count} networks, {len(failures)} failures")


def test_criterion_3_orchard_at_desk_scale():
    failures = []
    count = 0
    seed = 0
    while count < 100 and seed < 4000:
        seed += 1
        cfg = GenConfig(seed=30_000 + seed, leaf_count=3 + seed % 5,
                        target_r=seed % 5, target_q=2)
        net = random_q_cuttable(cfg)
        if len(net.leaf_labels) > 8:
            continue
        count += 1
        seq = cherry_picking_sequence(net)
        if seq is None:
            failures.append((seed, "no sequence found"))
            continue
        final = replay_sequence(net, seq)
        if len(final.vertices) != 1:
            failures.append((seed, "replay did not end at a single vertex"))
    report(3, "two-cuttable-is-orchard",
           count >= 100 and not failures,
           f"{count} networks, {len(failures)} failures")


def test_criterion_4_tree_containment_equivalence(tc_results):
    mismatches = 0
    budget_misses = 0
    for tree, net, verdict, _, _ in tc_results:
        try:
            emb = display_oracle(tree, net)
        except BudgetExceeded:
            budget_misses += 1
            continue
        if verdict != (emb is not None):
            mismatches += 1
        if emb is not None and not verify_embedding(tree, net, emb):
            mismatches += 1
    median_ms = statistics.median(r[4] for r in tc_results) * 1000
    yes_count = sum(1 for r in tc_results if r[2])
    report(4, "tree-containment-oracle-equivalence",
           len(tc_results) >= 200 and mismatches == 0 and budget_misses == 0 and median_ms < 50.0,
           f"{len(tc_results)} instances ({yes_count} yes), {mismatches} mismatches, "
           f"median {median_ms:.2f} ms")


def test_criterion_5_reduction_soundness(tc_instances, monkeypatch):
    halves, eliminations = spy_on_pieces(monkeypatch)
    for tree, net in tc_instances:
        three_cuttable_tc(tree, net)
    bad_intermediate = 0
    verdict_flips = 0
    oracle_checks = 0
    skipped = 0
    for sub in halves:
        if not (validate_unrooted(sub).ok and is_q_cuttable(sub, 3).is_cuttable):
            bad_intermediate += 1
    for subtree, before, after in eliminations:
        if not (validate_unrooted(after).ok and is_q_cuttable(after, 3).is_cuttable):
            bad_intermediate += 1
        try:
            va = display_oracle(subtree, before) is not None
            vb = display_oracle(subtree, after) is not None
        except BudgetExceeded:
            skipped += 1
            continue
        oracle_checks += 1
        if va != vb:
            verdict_flips += 1
    report(5, "reduction-soundness",
           bad_intermediate == 0 and verdict_flips == 0 and oracle_checks > 0,
           f"{oracle_checks} elimination checks, {skipped} over budget, "
           f"{bad_intermediate} bad intermediates, {verdict_flips} verdict flips")


def test_criterion_6_reference_sat_instance():
    t0 = time.perf_counter()
    net, gmap = build_u_phi(PHI_BENCH)
    ok = validate_unrooted(net).ok and len(net.leaf_labels) == 64
    beta = {1: True, 2: False, 3: False}
    rooted = build_n_phi(PHI_BENCH, beta)
    ok = ok and is_tree_child(rooted) and validate_rooted(rooted).ok
    extracted = extract_assignment(rooted, gmap)
    ok = ok and assignment_satisfies(PHI_BENCH, extracted)
    elapsed = time.perf_counter() - t0
    report(6, "reference-sat-instance",
           ok and elapsed < 1.0,
           f"|X|={len(net.leaf_labels)}, tree-child={is_tree_child(rooted)}, "
           f"extracted satisfies, {elapsed * 1000:.0f} ms")


def test_criterion_7_sat_round_trip():
    failures = []
    count = 0
    for seed in range(100):
        n = (3, 6, 9)[seed % 3]
        cnf = random_2balanced_cnf(n, 40_000 + seed)
        beta = sat_bruteforce(cnf)
        if beta is None:
            continue
        count += 1
        rooted = build_n_phi(cnf, beta)
        if not is_tree_child(rooted):
            failures.append((seed, "not tree-child"))
            continue
        _, gmap = build_u_phi(cnf)
        extracted = extract_assignment(rooted, gmap)
        if not assignment_satisfies(cnf, extracted):
            failures.append((seed, "extracted assignment does not satisfy"))
    report(7, "sat-round-trip",
           count >= 100 and not failures,
           f"{count} satisfiable instances, {len(failures)} failures")


def test_criterion_8_entangled_uniqueness():
    failures = []
    fixtures = 0
    pairs = 0
    for seed in range(110):
        net = build_simple_3cuttable(50_000 + seed)
        if not net.is_simple_network() or not is_q_cuttable(net, 3).is_cuttable:
            failures.append((seed, "fixture not simple/3-cuttable"))
            continue
        fixtures += 1
        leaves = sorted(net.leaves())
        for i, u in enumerate(leaves):
            for v in leaves[i + 1:]:
                pairs += 1
                entangled = [p for p in all_simple_paths(net, u, v) if is_entangled(net, p)]
                got = entangled_path(net, u, v)
                if len(entangled) > 1:
                    failures.append((seed, u, v, "multiple entangled paths"))
                elif entangled and got not in (entangled[0], tuple(reversed(entangled[0]))):
                    failures.append((seed, u, v, "procedure missed the path"))
                elif not entangled and got is not None:
                    failures.append((seed, u, v, "procedure invented a path"))
    report(8, "entangled-path-uniqueness",
           fixtures >= 100 and not failures,
           f"{fixtures} fixtures, {pairs} leaf pairs, {len(failures)} failures")


def test_criterion_9_parser_round_trips():
    failures = []
    upn_texts = set()
    for seed in range(40):
        cfg = GenConfig(seed=60_000 + seed, leaf_count=3 + seed % 9,
                        target_r=seed % 6, target_q=1 + seed % 3)
        net = random_q_cuttable(cfg)
        text = serialize_upn(net)
        back = parse_upn(text)
        if not labeled_isomorphic(back, net) or serialize_upn(back) != text:
            failures.append(("upn", seed))
        upn_texts.add(text)
    for seed in range(25):
        cfg = GenConfig(seed=61_000 + seed, leaf_count=3 + seed % 7,
                        target_r=seed % 4, target_q=2)
        rooted = tree_child_orient_2cuttable(random_q_cuttable(cfg))
        text = serialize_enewick(rooted)
        back = parse_enewick(text)
        if not rooted_isomorphic(back, rooted) or serialize_enewick(back) != text:
            failures.append(("enewick", seed))
    for seed in range(25):
        tree = random_tree([f"t{i}" for i in range(1, 3 + seed % 9)], seed)
        text = serialize_newick_tree(tree)
        back = parse_newick_tree(text)
        if not labeled_isomorphic(back, tree) or serialize_newick_tree(back) != text:
            failures.append(("newick", seed))
    corpus = [PHI_BENCH] + [random_2balanced_cnf(3 * (1 + s % 3), s) for s in range(25)]
    for i, cnf in enumerate(corpus):
        text = serialize_dimacs_cnf(cnf)
        if parse_dimacs_cnf(text) != cnf or serialize_dimacs_cnf(parse_dimacs_cnf(text)) != text:
            failures.append(("dimacs", i))
    report(9, "parser-round-trips",
           not failures,
           f"{len(upn_texts)} UPN docs, 25 eNewick, 25 Newick, {len(corpus)} DIMACS, "
           f"{len(failures)} failures")
