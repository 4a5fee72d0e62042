import itertools

import pytest

from cutnets import (
    CnfInstance,
    assignment_satisfies,
    build_n_phi,
    build_u_phi,
    extract_assignment,
    is_tree_child,
    random_2balanced_cnf,
    sat_bruteforce,
    validate_2balanced,
    validate_rooted,
    validate_unrooted,
)
from cutnets import formats, orient, sat
from cutnets.errors import (
    InvalidN,
    NotTreeChild,
    NotTwoBalanced,
    ParseError,
    TooLarge,
    UnsatisfiedAssignment,
)
from cutnets.formats import parse_enewick, serialize_enewick
from cutnets.nets import RootedNet, UndirectedNet, canon_edge
from cutnets.orient import underlying_unrooted

from conftest import count_calls
from test_formats_golden import satisfying


def reference_n_phi(cnf, assignment):
    """N(φ) the long way: build U(φ) and its gadget map, then direct each
    edge by the rule for its place in the reduction, checking that it is an
    edge of U(φ) and is directed once; a fresh root subdivides s_root–lr."""
    net, gmap = build_u_phi(cnf)
    if not assignment_satisfies(cnf, assignment):
        raise UnsatisfiedAssignment("assignment does not satisfy the formula")
    nr = 1 + 2 * cnf.n
    oriented = {}

    def orient(a, b):
        e = canon_edge(a, b)
        assert e in net.edges, f"orienting a non-edge {e}"
        assert oriented.get(e, (a, b)) == (a, b), f"conflicting orientation for {e}"
        oriented[e] = (a, b)

    def apply_pattern(ids, arcs):
        for a, b in arcs:
            orient(ids[a], ids[b])

    def value(lit):
        return assignment[lit] if lit > 0 else not assignment[-lit]

    ids = {g.name: g.vertex_ids for g in gmap.gadgets}
    retic_vertices = set()
    for g in gmap.gadgets:
        if g.kind == "reticulation":
            apply_pattern(g.vertex_ids, sat.RETICULATION_ARCS)
            retic_vertices.update(g.vertex_ids.values())
    for k in range(1, nr - 2):
        orient(gmap.named[f"p{k}"], gmap.named[f"p{k + 1}"])
    for k in range(1, nr):
        tau = ids[f"R{k}"]["t"]
        for x in net.neighbors(tau):
            if x not in retic_vertices:
                orient(tau, x)
    forward, backward = sat.CONNECTION_FORWARD_ARCS, sat.CONNECTION_BACKWARD_ARCS
    for i in range(1, cnf.n + 1):
        for h in (1, 2):
            apply_pattern(ids[f"G{i}_{h}"], forward if assignment[i] else backward)
    for j, clause in enumerate(cnf.clauses, start=1):
        values = [value(lit) for lit in clause]
        for k in range(1, 4):
            orient(gmap.named[f"lit{j}_{k}"], ids[f"C{j}_{k}"]["t"])
            if all(values):
                pattern = forward if k <= 2 else backward
            else:
                pattern = forward if values[k - 1] else backward
            apply_pattern(ids[f"C{j}_{k}"], pattern)
    lr, s_root = gmap.named["lr"], ids["Rr"]["s"]
    root_edge = canon_edge(s_root, lr)
    for leaf in net.leaves() - {lr}:
        (neighbor,) = net.neighbors(leaf)
        orient(neighbor, leaf)
    assert net.edges - set(oriented) == {root_edge}
    rho = net.next_id
    arcs = [arc for e, arc in oriented.items() if e != root_edge]
    arcs += [(rho, s_root), (rho, lr)]
    return RootedNet(net.vertices | {rho}, arcs, rho, net.leaf_labels, rho + 1)


def rooted_fields(net):
    return (net.vertices, net.succ, net.pred, net.root, net.leaf_labels, net.next_id, net.topo)


def truth_table_satisfiable(cnf):
    for bits in itertools.product((False, True), repeat=cnf.n):
        beta = {i + 1: bits[i] for i in range(cnf.n)}
        if all(any(beta[l] if l > 0 else not beta[-l] for l in clause) for clause in cnf.clauses):
            return beta
    return None


class TestValidate2Balanced:
    def test_phi_bench_valid(self, phi_bench):
        assert validate_2balanced(phi_bench).ok

    def test_unbalanced_variable(self):
        cnf = CnfInstance(3, ((1, 2, 3), (1, 2, 3), (1, -2, -3), (-1, -2, -3)))
        report = validate_2balanced(cnf)
        assert any("variable 1 occurs positively 3" in v for v in report.violations)

    def test_count_mismatch(self):
        cnf = CnfInstance(3, ((1, 2, 3), (-1, -2, -3)))
        assert any("occurrence count mismatch" in v for v in validate_2balanced(cnf).violations)


def undirected(arcs):
    return {frozenset(arc) for arc in arcs}


def degrees(vertices, arcs):
    deg = dict.fromkeys(vertices, 0)
    for a, b in arcs:
        deg[a] += 1
        deg[b] += 1
    return deg


class TestGadgets:
    # the gadgets' edge lists as the paper draws them
    CONNECTION_EDGES = (
        ("s", "u"), ("u", "v"), ("u", "w"), ("w", "wp"),
        ("wp", "v"), ("v", "t"), ("w", "l"), ("wp", "lp"),
    )
    RETICULATION_EDGES = (
        ("s", "u"), ("u", "v"), ("u", "vp"), ("v", "vp"), ("v", "w"),
        ("vp", "wp"), ("w", "l"), ("wp", "lp"), ("w", "r"), ("wp", "r"), ("r", "t"),
    )

    def test_arc_tables_orient_the_gadget_edges(self):
        assert undirected(sat.CONNECTION_FORWARD_ARCS) == undirected(self.CONNECTION_EDGES)
        assert undirected(sat.CONNECTION_BACKWARD_ARCS) == undirected(self.CONNECTION_EDGES)
        assert undirected(sat.RETICULATION_ARCS) == undirected(self.RETICULATION_EDGES)
        for arcs in (sat.CONNECTION_FORWARD_ARCS, sat.CONNECTION_BACKWARD_ARCS,
                     sat.RETICULATION_ARCS):
            assert len(undirected(arcs)) == len(arcs)

    def test_backward_arcs_are_the_mirror_image(self):
        assert set(sat.CONNECTION_BACKWARD_ARCS) == {
            ("t", "v"), ("v", "u"), ("v", "wp"), ("u", "w"),
            ("w", "wp"), ("u", "s"), ("w", "l"), ("wp", "lp"),
        }

    def test_connection_gadget_shape(self):
        deg = degrees(sat.CONNECTION_VERTICES, sat.CONNECTION_FORWARD_ARCS)
        assert deg["s"] == deg["t"] == 1
        assert deg["l"] == deg["lp"] == 1
        assert all(deg[v] == 3 for v in ("u", "v", "w", "wp"))
        # the forbidden-cycle square from the pinning argument
        for e in (("u", "v"), ("wp", "v"), ("w", "wp"), ("u", "w")):
            assert frozenset(e) in undirected(sat.CONNECTION_FORWARD_ARCS)

    def test_reticulation_gadget_shape(self):
        deg = degrees(sat.RETICULATION_VERTICES, sat.RETICULATION_ARCS)
        assert deg["s"] == deg["t"] == deg["l"] == deg["lp"] == 1
        assert all(deg[v] == 3 for v in ("u", "v", "vp", "w", "wp", "r"))
        # r is adjacent to w, wp and the t-terminal
        assert {frozenset(("w", "r")), frozenset(("wp", "r")),
                frozenset(("r", "t"))} <= undirected(sat.RETICULATION_ARCS)

    def test_each_gadget_has_two_leaves(self):
        for vertices, arcs in ((sat.CONNECTION_VERTICES, sat.CONNECTION_FORWARD_ARCS),
                               (sat.RETICULATION_VERTICES, sat.RETICULATION_ARCS)):
            deg = degrees(vertices, arcs)
            assert [v for v in vertices if deg[v] == 1 and v not in ("s", "t")] == ["l", "lp"]


class TestBuildUPhi:
    def test_bench_counts(self, phi_bench):
        net, gmap = build_u_phi(phi_bench)
        # n_r = 1 + 2n = 7, n_c = 3m + 2n = 18, |X| = 2 + 2(7 + 18) + 3*4 = 64
        assert sum(1 for g in gmap.gadgets if g.kind == "reticulation") == 7
        assert sum(1 for g in gmap.gadgets if g.kind == "connection") == 18
        assert len(net.leaf_labels) == 64
        assert validate_unrooted(net).ok

    def test_random_instances_validate(self):
        for seed in range(12):
            n = (3, 6, 9)[seed % 3]
            cnf = random_2balanced_cnf(n, seed)
            net, gmap = build_u_phi(cnf)
            assert validate_unrooted(net).ok
            nr, nc = 1 + 2 * n, 3 * cnf.m + 2 * n
            assert len(net.leaf_labels) == 2 + 2 * (nr + nc) + 3 * cnf.m
            assert sum(1 for g in gmap.gadgets if g.kind == "reticulation") == nr
            assert sum(1 for g in gmap.gadgets if g.kind == "connection") == nc

    def test_rejects_unbalanced(self):
        with pytest.raises(NotTwoBalanced):
            build_u_phi(CnfInstance(3, ((1, 2, 3), (-1, -2, -3))))

    def test_deterministic(self, phi_bench):
        from cutnets.formats import serialize_upn

        a, _ = build_u_phi(phi_bench)
        b, _ = build_u_phi(phi_bench)
        assert serialize_upn(a) == serialize_upn(b)


class TestBuildNPhi:
    def test_bench_assignment(self, phi_bench):
        beta = {1: True, 2: False, 3: False}
        rooted = build_n_phi(phi_bench, beta)
        assert validate_rooted(rooted).ok
        assert is_tree_child(rooted)

    def test_unsatisfying_assignment_rejected(self, phi_bench):
        with pytest.raises(UnsatisfiedAssignment):
            build_n_phi(phi_bench, {1: False, 2: True, 3: False})

    def test_forced_reticulation_gadget_arcs(self, phi_bench):
        beta = {1: True, 2: False, 3: False}
        rooted = build_n_phi(phi_bench, beta)
        _, gmap = build_u_phi(phi_bench)
        for g in gmap.gadgets:
            if g.kind != "reticulation":
                continue
            ids = g.vertex_ids
            for arc in ((ids["w"], ids["r"]), (ids["wp"], ids["r"]),
                        (ids["r"], ids["t"]), (ids["s"], ids["u"])):
                assert arc in rooted.arcs

    def test_hub_in_degree_at_most_two(self, phi_bench):
        for bits in itertools.product((False, True), repeat=3):
            beta = {i + 1: bits[i] for i in range(3)}
            if not assignment_satisfies(phi_bench, beta):
                continue
            rooted = build_n_phi(phi_bench, beta)
            _, gmap = build_u_phi(phi_bench)
            for j in range(1, phi_bench.m + 1):
                assert len(rooted.pred[gmap.named[f"z{j}"]]) <= 2

    @pytest.mark.parametrize("n, seed", [(3, None), (6, 11), (6, 12), (60, 760)])
    def test_orients_exactly_u_phi(self, phi_bench, n, seed):
        # build_n_phi drops U(phi) before it builds N(phi); the result
        # still directs each edge of U(phi) once, the root edge through the root
        if seed is None:
            cnf, beta = phi_bench, {1: True, 2: False, 3: False}
        else:
            cnf = random_2balanced_cnf(n, seed)
            beta = satisfying(cnf, seed)
        assert underlying_unrooted(build_n_phi(cnf, beta)).edges == build_u_phi(cnf)[0].edges


class TestAgainstReference:
    """``build_n_phi`` lays N(φ) down as the gadgets are built; the long
    way round U(φ) must give the same network, field by field."""

    def test_phi_bench_under_every_satisfying_assignment(self, phi_bench):
        checked = 0
        for bits in itertools.product((False, True), repeat=phi_bench.n):
            beta = {i + 1: bit for i, bit in enumerate(bits)}
            if assignment_satisfies(phi_bench, beta):
                assert rooted_fields(build_n_phi(phi_bench, beta)) == \
                    rooted_fields(reference_n_phi(phi_bench, beta))
                checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("n, seed", [(6, 3), (6, 8), (9, 5), (9, 14), (60, 760), (120, 820)])
    def test_seeded_formulas(self, n, seed):
        cnf = random_2balanced_cnf(n, seed)
        beta = satisfying(cnf, seed)
        assert rooted_fields(build_n_phi(cnf, beta)) == rooted_fields(reference_n_phi(cnf, beta))

    def test_unsatisfying_and_unbalanced_rejected_alike(self, phi_bench):
        with pytest.raises(UnsatisfiedAssignment):
            reference_n_phi(phi_bench, {1: False, 2: True, 3: False})
        unbalanced = CnfInstance(3, ((1, 2, 3), (-1, -2, -3)))
        for build in (build_n_phi, reference_n_phi):
            # the formula is checked before the assignment
            with pytest.raises(NotTwoBalanced):
                build(unbalanced, {1: False, 2: False, 3: False})

    def test_builds_no_undirected_network(self, monkeypatch):
        cnf = random_2balanced_cnf(60, 760)
        beta = satisfying(cnf, 60)
        calls = count_calls(monkeypatch, (sat, "build_u_phi"), (UndirectedNet, "adjacency"),
                            (UndirectedNet, "_trusted"), (sat, "_reduction"))
        build_n_phi(cnf, beta)
        assert calls == {"_reduction": 1}
        sat.build_u_phi(cnf)
        assert calls == {"_reduction": 2, "build_u_phi": 1, "_trusted": 1}


class TestExtract:
    def test_round_trip_bench(self, phi_bench):
        beta = {1: True, 2: False, 3: False}
        rooted = build_n_phi(phi_bench, beta)
        _, gmap = build_u_phi(phi_bench)
        out = extract_assignment(rooted, gmap)
        assert out == beta
        assert assignment_satisfies(phi_bench, out)

    def test_extract_survives_serialization(self, phi_bench):
        beta = {1: True, 2: False, 3: False}
        rooted = build_n_phi(phi_bench, beta)
        _, gmap = build_u_phi(phi_bench)
        reparsed = parse_enewick(serialize_enewick(rooted))
        assert extract_assignment(reparsed, gmap) == beta

    def test_not_tree_child_rejected(self, phi_bench):
        _, gmap = build_u_phi(phi_bench)
        from cutnets.nets import RootedNet

        stack = RootedNet.build(
            [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (3, 4), (4, 6), (5, 6), (6, 7)],
            1, {7: "a"})
        with pytest.raises(NotTreeChild):
            extract_assignment(stack, gmap)

    def test_gadget_map_with_an_unreadable_id_is_a_parse_error(self, phi_bench):
        # each id of a serialized map, in turn, made too long for int()
        _, gmap = build_u_phi(phi_bench)
        lines = sat.serialize_gmap(gmap).splitlines()
        for lineno in (2, len(lines)):   # the first G record and the last N record
            tokens = lines[lineno - 1].split()
            name, _, vid = tokens[-1].partition("=")
            tokens[-1] = (name + "=" if vid else "") + "9" * 4301
            bad = lines[:lineno - 1] + [" ".join(tokens)] + lines[lineno:]
            with pytest.raises(ParseError) as err:
                sat.parse_gmap("\n".join(bad))
            col = len(" ".join(tokens[:-1])) + 2 + (len(name) + 1 if vid else 0)
            assert (err.value.line, err.value.col) == (lineno, col)
        assert sat.parse_gmap(sat.serialize_gmap(gmap)) == gmap

    def test_round_trip_random(self):
        for seed in range(30):
            n = (3, 6, 9)[seed % 3]
            cnf = random_2balanced_cnf(n, 500 + seed)
            beta = sat_bruteforce(cnf)
            assert beta is not None  # small 2-balanced instances are satisfiable
            rooted = build_n_phi(cnf, beta)
            assert is_tree_child(rooted)
            _, gmap = build_u_phi(cnf)
            out = extract_assignment(rooted, gmap)
            assert assignment_satisfies(cnf, out)


class TestSatBruteforce:
    def test_phi_bench_satisfiable(self, phi_bench):
        beta = sat_bruteforce(phi_bench)
        assert beta is not None
        assert assignment_satisfies(phi_bench, beta)
        # the known assignment TFF also satisfies it
        assert assignment_satisfies(phi_bench, {1: True, 2: False, 3: False})

    def test_all_positive_satisfiable(self):
        cnf = CnfInstance(3, ((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3)))
        assert sat_bruteforce(cnf) is not None

    def test_against_truth_table(self):
        for seed in range(25):
            cnf = random_2balanced_cnf(3, seed)
            ours = sat_bruteforce(cnf)
            ref = truth_table_satisfiable(cnf)
            assert (ours is None) == (ref is None)
            if ours is not None:
                assert assignment_satisfies(cnf, ours)
                assert ours == ref  # both scan False-first lexicographically

    def test_budget(self):
        big = CnfInstance(30, tuple((1, 2, 3) for _ in range(40)))
        with pytest.raises(TooLarge):
            sat_bruteforce(big, max_vars=24)


class TestRandomCnf:
    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            random_2balanced_cnf(4, 0)

    def test_n3_gives_m4(self):
        cnf = random_2balanced_cnf(3, 1)
        assert cnf.m == 4
        assert validate_2balanced(cnf).ok

    def test_reproducible(self):
        assert random_2balanced_cnf(6, 42) == random_2balanced_cnf(6, 42)


class TestRoundTripWork:
    @pytest.mark.parametrize("n", [60, 120])
    def test_one_validation_per_rooted_network(self, monkeypatch, n):
        cnf = random_2balanced_cnf(n, 700 + n)
        beta = satisfying(cnf, n)
        _, gmap = build_u_phi(cnf)
        calls = count_calls(monkeypatch, (orient, "validate_rooted"), (formats, "validate_rooted"),
                            (RootedNet, "__init__"))
        rooted = build_n_phi(cnf, beta)
        assert calls == {"validate_rooted": 1, "__init__": 1}
        back = parse_enewick(serialize_enewick(rooted))
        assert extract_assignment(back, gmap) == beta
        assert calls == {"validate_rooted": 2, "__init__": 2}

    def test_round_trip_builds_no_arc_set(self):
        cnf = random_2balanced_cnf(60, 760)
        beta = satisfying(cnf, 60)
        _, gmap = build_u_phi(cnf)
        rooted = build_n_phi(cnf, beta)
        back = parse_enewick(serialize_enewick(rooted))
        assert extract_assignment(back, gmap) == beta
        assert rooted._arcs is None and back._arcs is None
