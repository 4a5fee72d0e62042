import pytest

from cutnets import GenConfig, labeled_isomorphic, random_q_cuttable, rooted_isomorphic
from cutnets.nets import RootedNet, UndirectedNet
from cutnets.errors import (
    ClauseArityError,
    DegreeError,
    NotBinary,
    ParseError,
    ValidationError,
)
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
from cutnets.generate import random_2balanced_cnf, random_tree
from cutnets.orient import tree_child_orient_2cuttable
from cutnets.sat import parse_gmap, serialize_gmap


class TestUpn:
    def test_two_leaf(self):
        net = parse_upn("UPN/1\nV 1\nV 2\nL 1 a\nL 2 b\nE 1 2\n")
        assert net.labels() == {"a", "b"}
        assert net.edges == {(1, 2)}

    def test_comments_and_blank_lines(self):
        net = parse_upn("# hello\n\nUPN/1\nV 1 # first\nV 2\nL 1 a\nL 2 b\nE 1 2\n")
        assert net.labels() == {"a", "b"}

    def test_duplicate_label_is_validation_error(self):
        text = "UPN/1\nV 1\nV 2\nV 3\nV 4\nL 1 a\nL 2 a\nL 4 c\nE 1 3\nE 2 3\nE 3 4\n"
        with pytest.raises(ValidationError):
            parse_upn(text)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_upn("V 1\n")

    def test_undeclared_vertex_position(self):
        with pytest.raises(ParseError) as err:
            parse_upn("UPN/1\nV 1\nE 1 2\n")
        assert err.value.line == 3

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_upn("")

    @pytest.mark.parametrize("text, message, line, col", [
        ("UPN/1\nV 1 2\n", "V record takes exactly one id", 2, 1),
        ("UPN/1\nV 1\nV 1\n", "vertex 1 declared twice", 3, 1),
        ("UPN/1\nV  x1\n", "expected a positive integer id, found 'x1'", 2, 4),
        ("UPN/1\nV 0\n", "expected a positive integer id, found '0'", 2, 3),
        ("UPN/1\nV 1\nL 1\n", "L record takes an id and a label", 3, 1),
        ("UPN/1\nL 1 a\n", "label references undeclared vertex 1", 2, 1),
        ("UPN/1\nV 1\nL 1 a\nL 1 b\n", "vertex 1 labeled twice", 4, 1),
        ("UPN/1\nV 1\nL 1 a,b\n", "bad label 'a,b'", 3, 5),
        ("UPN/1\nV 1\nE 1\n", "E record takes exactly two ids", 3, 1),
        ("UPN/1\nV 1\nE 1 -2\n", "expected a positive integer id, found '-2'", 3, 5),
        ("UPN/1\nV 1\nE 1 2\n", "edge references undeclared vertex 2", 3, 1),
        ("UPN/1\nV 1\nV 2\nE 1 2\nE 2 1\n", "duplicate edge (1, 2)", 5, 1),
        ("UPN/1\nV 1\n  X 1\n", "unknown record type 'X'", 3, 3),
        # the token's own place, not where its text first occurs in the line
        ("UPN/1\nV 10\nE 10 0\n", "expected a positive integer id, found '0'", 3, 6),
        # a digit to str.isdigit that int() rejects, and a decimal that is not ASCII
        ("UPN/1\nV \u00b2\n", "expected a positive integer id, found '\u00b2'", 2, 3),
        ("UPN/1\nV 1\nE 1 \u0663\n", "expected a positive integer id, found '\u0663'", 3, 5),
    ])
    def test_record_errors_name_line_and_column(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_upn(text)
        assert type(err.value) is ParseError
        assert str(err.value) == f"{message} (line {line}, col {col})"
        assert (err.value.line, err.value.col) == (line, col)

    def test_id_past_the_int_digit_limit_is_a_parse_error(self):
        # int() refuses more than 4300 digits with a ValueError
        huge = "1" * 5000
        for text, line, col in ((f"UPN/1\nV {huge}\n", 2, 3),
                                (f"UPN/1\nV 1\nL {huge} a\n", 3, 3),
                                (f"UPN/1\nV 1\nE 1 {huge}\n", 3, 5)):
            with pytest.raises(ParseError) as err:
                parse_upn(text)
            assert (err.value.line, err.value.col) == (line, col)
            assert str(err.value).startswith("expected a positive integer id")

    def test_serialize_is_canonical_fixed_point(self, cycle4):
        text = serialize_upn(cycle4)
        again = serialize_upn(parse_upn(text))
        assert text == again
        assert text.splitlines()[0] == "UPN/1"

    def test_roundtrip_corpus(self):
        texts = set()
        for seed in range(25):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 8,
                                              target_r=seed % 5, target_q=1 + seed % 3))
            text = serialize_upn(net)
            back = parse_upn(text)
            assert labeled_isomorphic(back, net)
            assert serialize_upn(back) == text
            assert text not in texts
            texts.add(text)


class TestENewick:
    def test_root_degree_error(self):
        with pytest.raises(DegreeError):
            parse_enewick("((a,b));")

    def test_single_reticulation(self):
        net = parse_enewick("((a,(b)#H1),(#H1,c));")
        assert net.reticulation_number() == 1
        assert net.labels() == {"a", "b", "c"}

    def test_hybrid_tags_are_numbers(self):
        # #H01 is #H1, and the bare form #1 is accepted as #H1
        expected = serialize_enewick(parse_enewick("((a,(b)#H1),(#H1,c));"))
        for text in ["((a,(b)#H01),(#H1,c));", "((a,(b)#H1),(#H001,c));", "((a,(b)#1),(#H1,c));"]:
            assert serialize_enewick(parse_enewick(text)) == expected, text
        with pytest.raises(DegreeError, match="hybrid #1 defined twice"):
            parse_enewick("((a,(b)#H01),((c)#H1,d));")

    @pytest.mark.parametrize("text", ["((a,(b)#H\u0663),(#H3,c));", "((a,(b)#\u0663),(#H3,c));"],
                             ids=["H-arabic-indic-3", "bare-arabic-indic-3"])
    def test_hybrid_tag_takes_ascii_digits_only(self, text):
        # '\u0663' is a Unicode digit three, which int() and \d both accept
        with pytest.raises(ParseError) as err:
            parse_enewick(text)
        assert str(err.value) == "malformed hybrid tag (line 1, col 8)"

    def test_overlong_hybrid_tag_is_a_parse_error(self):
        # more digits than int() converts is a syntax error, not a crash
        with pytest.raises(ParseError, match="hybrid tag number is too long"):
            parse_enewick(f"((a,(b)#H{'1' * 5000}),(#H1,c));")

    def test_undefined_hybrid(self):
        with pytest.raises(DegreeError):
            parse_enewick("((a,#H1),(b,c));")

    def test_parallel_arcs_rejected(self):
        # a child listed twice under an inner vertex, under the root and
        # after a sibling; the message names the arc by its parsed ids
        for text, message in [("(((a)#H1,#H1),b);", "parallel arcs (2,3)"),
                              ("((a)#H1,#H1);", "parallel arcs (1,2)"),
                              ("((b,(a)#H1,#H1),c);", "parallel arcs (2,4)")]:
            with pytest.raises(DegreeError) as info:
                parse_enewick(text)
            assert str(info.value) == message

    def test_root_label_or_tag_is_an_input_error(self):
        # the root is checked like any other node: a label must sit on a
        # leaf, and a hybrid has parents, which the root has not
        with pytest.raises(ValidationError) as info:
            parse_enewick("((a,b),c)x;")
        assert str(info.value) == "labeled vertex 1 is not a sink"
        for text, message in [("((a,b),c)#H1;", "hybrid #1 is the root"),
                              ("((a,(b)#H2),(#H2,c))x#H7;", "hybrid #7 is the root")]:
            with pytest.raises(DegreeError) as info:
                parse_enewick(text)
            assert str(info.value) == message

    def test_label_named_cycle_is_no_cycle_error(self):
        # violations are sorted by kind, not by the words in their messages
        with pytest.raises(ValidationError) as info:
            parse_enewick("((cycle,cycle),b);")
        assert "duplicate label 'cycle'" in str(info.value)

    def test_roundtrip_rooted_fixtures(self):
        for seed in range(20):
            net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed % 7,
                                              target_r=seed % 4, target_q=2))
            rooted = tree_child_orient_2cuttable(net)
            text = serialize_enewick(rooted)
            back = parse_enewick(text)
            assert rooted_isomorphic(rooted, back)
            assert serialize_enewick(back) == text


class TestNewickTree:
    def test_three_leaf_star(self):
        tree = parse_newick_tree("(a,b,c);")
        assert tree.reticulation_number() == 0
        center = next(iter(tree.internal_vertices()))
        assert tree.degree(center) == 3

    def test_quartet_split(self):
        tree = parse_newick_tree("((a,b),(c,d));")
        from cutnets import split_of_cut_edge
        internal = [e for e in tree.edges
                    if e[0] in tree.internal_vertices() and e[1] in tree.internal_vertices()]
        (edge,) = internal
        split = split_of_cut_edge(tree, edge)
        assert {tuple(sorted(split.side_a)), tuple(sorted(split.side_b))} == {("a", "b"), ("c", "d")}

    def test_not_binary(self):
        with pytest.raises(NotBinary):
            parse_newick_tree("((a,b),c,d,e);")

    def test_tags_rejected(self):
        with pytest.raises(ParseError):
            parse_newick_tree("((a)#H1,(#H1,b));")

    @pytest.mark.parametrize("text", ["((a,b),c,d)x;", "((a,b),c)x;", "((a,b),c)\n x ;"])
    def test_root_label_is_not_binary(self, text):
        # a three-child root is an inner vertex; a suppressed root's label
        # would have no vertex to sit on
        with pytest.raises(NotBinary) as info:
            parse_newick_tree(text)
        assert str(info.value) == "internal node labels are not supported"

    def test_roundtrip(self):
        for seed in range(20):
            labels = [f"t{i}" for i in range(1, 3 + seed % 9)]
            if len(labels) < 2:
                continue
            tree = random_tree(labels, seed)
            text = serialize_newick_tree(tree)
            back = parse_newick_tree(text)
            assert labeled_isomorphic(tree, back)
            assert serialize_newick_tree(back) == text


class TestNonAsciiLabels:
    # str.isalnum is true for these, but labels are ASCII letters, digits and _.-
    @pytest.mark.parametrize("parse", [parse_newick_tree, parse_enewick])
    @pytest.mark.parametrize("text, char, line, col", [
        ("(é,b);", "é", 1, 2),
        ("(a,\n  (b,²));", "²", 2, 6),
        ("((a,b)ß,c);", "ß", 1, 7),
    ])
    def test_parse_error_names_the_character(self, parse, text, char, line, col):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert f"character {char!r} is not allowed in a label" in str(info.value)
        assert (info.value.line, info.value.col) == (line, col)


class TestDimacs:
    def test_phi_bench_doc(self, phi_bench):
        text = "c phi\np cnf 3 4\n1 -2 3 0\n-1 2 -3 0\n1 2 -3 0\n-1 -2 3 0\n"
        assert parse_dimacs_cnf(text) == phi_bench

    def test_clause_arity(self):
        with pytest.raises(ClauseArityError):
            parse_dimacs_cnf("p cnf 2 1\n1 2 0\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_dimacs_cnf("")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError):
            parse_dimacs_cnf("p cnf 2 1\n1 2 5 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")

    @pytest.mark.parametrize("text, message, line, col", [
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "duplicate problem line", 2, 1),
        ("p dnf 3 1\n", "expected 'p cnf <vars> <clauses>'", 1, 1),
        ("p cnf 3\n", "expected 'p cnf <vars> <clauses>'", 1, 1),
        ("p cnf three 1\n", "non-integer counts in problem line", 1, 1),
        ("p cnf \u0663 1\n", "non-integer counts in problem line", 1, 1),
        ("1 2 3 0\np cnf 3 1\n", "clause before problem line", 1, 1),
        ("p cnf 3 1\n1 x 3 0\n", "expected a literal, found 'x'", 2, 3),
        ("p cnf 3 1\n1 \u0663 2 0\n", "expected a literal, found '\u0663'", 2, 3),
        ("p cnf 3 1\n1 0_3 2 0\n", "expected a literal, found '0_3'", 2, 3),
        ("p cnf 2 1\n1 2 5 0\n", "literal 5 out of range 1..2", 2, 5),
        ("", "empty document (missing problem line)", 1, 1),
        ("p cnf 3 1\n1 2 3\n", "unterminated clause at end of input", 1, 1),
        ("p cnf 3 2\n1 2 3 0\n", "problem line promises 2 clauses, found 1", 1, 1),
    ])
    def test_errors_name_line_and_column(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_dimacs_cnf(text)
        assert type(err.value) is ParseError
        assert str(err.value) == f"{message} (line {line}, col {col})"
        assert (err.value.line, err.value.col) == (line, col)

    def test_roundtrip(self):
        for seed in range(15):
            cnf = random_2balanced_cnf(3 * (1 + seed % 3), seed)
            text = serialize_dimacs_cnf(cnf)
            assert parse_dimacs_cnf(text) == cnf
            assert serialize_dimacs_cnf(parse_dimacs_cnf(text)) == text


class TestGmap:
    def test_roundtrip(self, phi_bench):
        from cutnets import build_u_phi

        _, gmap = build_u_phi(phi_bench)
        text = serialize_gmap(gmap)
        back = parse_gmap(text)
        assert back.named == gmap.named
        assert [g.name for g in back.gadgets] == [g.name for g in gmap.gadgets]
        assert all(a.vertex_ids == b.vertex_ids for a, b in zip(back.gadgets, gmap.gadgets))
        assert serialize_gmap(back) == text
        assert back == gmap
        assert back.variable_count == 3

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_gmap("GMAP/2\n")

    @pytest.mark.parametrize("name", ["Gx_1", "G1", "R", "Rr1", "C1_", "g1_1", "G1_1_l", "G٣_1"])
    def test_bad_gadget_name_names_its_line(self, name):
        # the bad name is on line 5: comment and blank lines count
        text = f"GMAP/1\n# a comment\n\nG Rr reticulation s=1\nG {name} connection s=2\n"
        with pytest.raises(ParseError, match=rf"bad gadget name '{name}' \(line 5, col 1\)"):
            parse_gmap(text)

    def test_non_ascii_digit_id_is_a_parse_error(self):
        # '²' is a digit to str.isdigit but not to int
        for text in ["GMAP/1\nG Rr reticulation s=²\n", "GMAP/1\nN lr ²\n"]:
            with pytest.raises(ParseError, match="line 2"):
                parse_gmap(text)

    @pytest.mark.parametrize("bad", ["\u00b2", "\u0663", "0", "1" * 5000],
                             ids=["superscript", "arabic-indic", "zero", "5000-digits"])
    def test_bad_id_names_its_line_and_column(self, bad):
        # '²' is a digit to str.isdigit but not to int, and int refuses more
        # than 4300 digits
        for text, col in ((f"GMAP/1\nG Rr reticulation s=1 t={bad}\n", 25),
                          (f"GMAP/1\n  N lr {bad}\n", 8)):
            with pytest.raises(ParseError) as err:
                parse_gmap(text)
            assert (err.value.line, err.value.col) == (2, col)
            assert str(err.value).startswith("expected a positive integer id")

    def test_gadget_number_past_the_int_digit_limit_is_a_parse_error(self):
        # variable_count reads the numbers in a gadget name with int()
        name = f"G{'1' * 5000}_1"
        with pytest.raises(ParseError, match=r"bad gadget name .* \(line 2, col 1\)"):
            parse_gmap(f"GMAP/1\nG {name} connection s=1\n")
        assert parse_gmap(f"GMAP/1\nG G{'1' * 4300}_1 connection s=1\n").variable_count > 0


def caterpillar_edges(n):
    """Unrooted caterpillar on t1..tn: spine 1..n-2, t1 and t2 on vertex 1,
    t(i+1) on vertex i, tn on vertex n-2; leaf ti is vertex n-2+i."""
    spine = [(i, i + 1) for i in range(1, n - 2)]
    pendant = [(1, n - 1)] + [(i, n - 1 + i) for i in range(1, n - 1)]
    pendant.append((n - 2, 2 * n - 2))
    return spine + pendant, {n - 2 + i: f"t{i}" for i in range(1, n + 1)}


def balanced_edges(n):
    """Unrooted tree on t1..tn from a complete binary tree in heap order
    (vertex v has children 2v and 2v+1) with its root suppressed."""
    total = 2 * n - 1
    edges = [(v // 2, v) for v in range(4, total + 1)] + [(2, 3)]
    return edges, {n - 1 + i: f"t{i}" for i in range(1, n + 1)}


def rooted_from(edges, labels, anchor):
    """Root an unrooted tree by subdividing the edge above leaf ``anchor``."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    (above,) = adj[anchor]
    root = max(adj) + 1
    arcs = [(root, anchor), (root, above)]
    parent = {anchor: root, above: root}
    order = [above]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                arcs.append((v, w))
                order.append(w)
    return RootedNet.build(arcs, root, labels)


def depth(text):
    level = deepest = 0
    for ch in text:
        level += (ch == "(") - (ch == ")")
        deepest = max(deepest, level)
    return deepest


class TestDeepInputs:
    """10^4-leaf trees round-trip byte for byte in all three formats, with
    no recursion limit in the way."""

    @pytest.mark.parametrize("shape, min_depth", [(caterpillar_edges, 9000),
                                                  (balanced_edges, 14)],
                             ids=["caterpillar", "balanced"])
    def test_round_trips(self, shape, min_depth):
        edges, labels = shape(10_000)
        tree = UndirectedNet.build(edges, labels)
        assert tree.reticulation_number() == 0 and len(tree.leaf_labels) == 10_000

        upn = serialize_upn(tree)
        assert serialize_upn(parse_upn(upn)) == upn

        newick = serialize_newick_tree(tree)
        assert depth(newick) >= min_depth
        assert serialize_newick_tree(parse_newick_tree(newick)) == newick

        rooted = rooted_from(edges, labels, tree.vertex_of_label("t1"))
        enewick = serialize_enewick(rooted)
        assert depth(enewick) >= min_depth
        assert serialize_enewick(parse_enewick(enewick)) == enewick
