import hashlib
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from cutnets import CnfInstance, formats, nets, orient, sat, sat_bruteforce
from cutnets.cli import cli
from cutnets.errors import (
    CutnetsError,
    CycleError,
    DegreeError,
    InconsistentGadgetState,
    InputError,
    InvalidN,
    InvalidQ,
    LabelSetMismatch,
    NotBinary,
    NotThreeCuttable,
    NotTreeChild,
    NotTwoBalanced,
    ParseError,
    ValidationError,
)
from cutnets.formats import (
    parse_dimacs_cnf,
    parse_enewick,
    parse_upn,
    serialize_dimacs_cnf,
    serialize_enewick,
    serialize_newick_tree,
    serialize_upn,
)
from cutnets.generate import random_tree
from cutnets.orient import is_tree_child

from conftest import count_calls, triangle_net

PHI = CnfInstance(3, ((1, -2, 3), (-1, 2, -3), (1, 2, -3), (-1, -2, 3)))


def write(path, text):
    path.write_text(text)
    return str(path)


def tree_file(tmp_path, name="tree.nwk", labels=("a", "b", "c", "d")):
    tree = random_tree(labels, 3)
    return write(tmp_path / name, serialize_newick_tree(tree) + "\n"), tree


class TestRecognize:
    def test_tree_is_cuttable(self, tmp_path):
        tree = random_tree(["a", "b", "c"], 1)
        path = write(tmp_path / "t.upn", serialize_upn(tree))
        result = CliRunner().invoke(cli, ["recognize", "--q", "3", path])
        assert result.exit_code == 0
        assert "q-cuttable: yes" in result.output

    def test_negative_with_witness(self, tmp_path, k4_sub):
        path = write(tmp_path / "k.upn", serialize_upn(k4_sub))
        result = CliRunner().invoke(cli, ["recognize", "--q", "1", path])
        assert result.exit_code == 1
        assert "witness cycle" in result.output

    def test_missing_file_is_usage_error(self):
        result = CliRunner().invoke(cli, ["recognize", "--q", "1", "nope.upn"])
        assert result.exit_code == 2

    def test_unwritable_output_is_usage_error(self, tmp_path):
        out = str(tmp_path / "missing" / "dir" / "x.nwk")
        result = CliRunner().invoke(cli, ["gen", "tree", "--leaves", "4", "-o", out])
        assert result.exit_code == 2
        assert f"error: cannot write {out}: No such file or directory" in result.output

    def test_undecodable_input_is_usage_error(self, tmp_path):
        path = tmp_path / "net.upn"
        path.write_bytes(b"UPN/1\n\xff\xfe\n")
        result = CliRunner().invoke(cli, ["stats", str(path)])
        assert result.exit_code == 2
        assert f"error: cannot read {path}: 'utf-8' codec can't decode" in result.output

    def test_parse_error_exit_2(self, tmp_path):
        path = write(tmp_path / "bad.upn", "not a network\n")
        result = CliRunner().invoke(cli, ["recognize", "--q", "1", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", ["\u00b2", "1" * 5000], ids=["superscript", "5000-digits"])
    def test_unreadable_id_exit_2(self, tmp_path, bad):
        # str.isdigit passes '²', which int() rejects, and int() refuses
        # more than 4300 digits
        path = write(tmp_path / "x.upn", f"UPN/1\nV {bad}\n")
        result = CliRunner().invoke(cli, ["recognize", "--q", "2", path])
        assert result.exit_code == 2, result.output
        assert "error: expected a positive integer id" in result.stderr
        assert "(line 2, col 3)" in result.stderr

    def test_invalid_q_exit_2(self, tmp_path, cycle4):
        path = write(tmp_path / "c4.upn", serialize_upn(cycle4))
        result = CliRunner().invoke(cli, ["recognize", "--q", "0", path])
        assert result.exit_code == 2
        assert "q must be an integer >= 1" in result.output


class TestStatsAndOrient:
    def test_stats_fields(self, tmp_path, cycle4):
        path = write(tmp_path / "c4.upn", serialize_upn(cycle4))
        result = CliRunner().invoke(cli, ["stats", path])
        assert result.exit_code == 0
        assert "leaves: 4" in result.output
        assert "reticulation number: 1" in result.output
        assert "max cuttability: 4" in result.output

    def test_stats_on_many_blobs(self, tmp_path):
        # recorded when each blob's edges came from a scan of every edge
        path = write(tmp_path / "tri.upn", serialize_upn(triangle_net()))
        result = CliRunner().invoke(cli, ["stats", path])
        assert result.exit_code == 0
        assert result.output.startswith("leaves: 4000\nvertices: 11996\nedges: 13994\n")
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "aab0f7075ea968b2c686bfd3f9db9720a670e256a627ee3b121810b691ae74e2")

    def test_orient_constructive(self, tmp_path, cycle4):
        path = write(tmp_path / "c4.upn", serialize_upn(cycle4))
        out = tmp_path / "c4.enwk"
        result = CliRunner().invoke(cli, ["orient", path, "-o", str(out)])
        assert result.exit_code == 0
        rooted = parse_enewick(out.read_text())
        assert is_tree_child(rooted)

    def test_orient_rejects_non_2cuttable(self, tmp_path, theta3):
        path = write(tmp_path / "th.upn", serialize_upn(theta3))
        result = CliRunner().invoke(cli, ["orient", path])
        assert result.exit_code == 1

    def test_orient_brute_none(self, tmp_path, theta3):
        path = write(tmp_path / "th.upn", serialize_upn(theta3))
        result = CliRunner().invoke(cli, ["orient", path, "--method", "brute"])
        assert result.exit_code == 1

    def test_check_tree_child(self, tmp_path):
        path = write(tmp_path / "n.enwk", "((a,(b)#H1),(#H1,c));\n")
        result = CliRunner().invoke(cli, ["check-tree-child", path])
        assert result.exit_code == 0
        assert "tree-child: yes" in result.output

    def test_check_tree_child_non_ascii_label_exit_2(self, tmp_path):
        path = write(tmp_path / "n.enwk", "((a,(b)#H1),(#H1,²));\n")
        result = CliRunner().invoke(cli, ["check-tree-child", path])
        assert result.exit_code == 2
        assert "character '²' is not allowed in a label (line 1, col 18)" in result.output

    @pytest.mark.parametrize("text, message", [
        ("((a,b),c)x;", "labeled vertex 1 is not a sink"),
        ("((a,b),c)#H1;", "hybrid #1 is the root"),
    ])
    def test_root_label_or_tag_exit_2(self, tmp_path, text, message):
        path = write(tmp_path / "n.enwk", text + "\n")
        result = CliRunner().invoke(cli, ["check-tree-child", path])
        assert result.exit_code == 2
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize("command, text, message", [
        ("check-tree-child", "((a,(b)#H\u0663),(#H3,c));\n", "malformed hybrid tag (line 1, col 8)"),
        ("sat reduce -o u.upn --gmap u.gmap", "p cnf 3 1\n1 \u0663 2 0\n",
         "expected a literal, found '\u0663' (line 2, col 3)"),
    ], ids=["enewick-tag", "dimacs-literal"])
    def test_non_ascii_digit_exit_2(self, tmp_path, monkeypatch, command, text, message):
        # '\u0663' is a Unicode digit three; only ASCII digits are numbers
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "in.txt", text)
        result = CliRunner().invoke(cli, command.split() + ["in.txt"])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.stderr

    def test_internal_error_exit_4(self, tmp_path, monkeypatch):
        # a failure inside the library is neither "no" (1) nor bad input (2)
        def broken(rooted):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(orient, "is_tree_child", broken)
        path = write(tmp_path / "n.enwk", "((a,(b)#H1),(#H1,c));\n")
        result = CliRunner().invoke(cli, ["check-tree-child", path])
        assert result.exit_code == 4
        assert "internal error: AssertionError: broken invariant" in result.stderr
        assert "tree-child" not in result.stdout


class TestContain:
    def test_conflicting_pair_exit_1_with_certificate(self, tmp_path, conflicting_pair):
        tree, net = conflicting_pair
        tpath = write(tmp_path / "t.nwk", serialize_newick_tree(tree) + "\n")
        npath = write(tmp_path / "u.upn", serialize_upn(net))
        trace = tmp_path / "trace.txt"
        result = CliRunner().invoke(cli, ["contain", tpath, npath, "--trace", str(trace)])
        assert result.exit_code == 1
        assert "SPLIT-CONFLICT" in result.output
        assert trace.read_text().startswith("TCTRACE/1\n")

    def test_displayed_pair(self, tmp_path, displayed_pair):
        tree, net = displayed_pair
        tpath = write(tmp_path / "t.nwk", serialize_newick_tree(tree) + "\n")
        npath = write(tmp_path / "u.upn", serialize_upn(net))
        result = CliRunner().invoke(cli, ["contain", tpath, npath])
        assert result.exit_code == 0
        assert "displays: yes" in result.output
        oracle = CliRunner().invoke(cli, ["contain", tpath, npath, "--oracle"])
        assert oracle.exit_code == 0

    @pytest.mark.parametrize("pair, code", [("displayed_pair", 0), ("conflicting_pair", 1)])
    def test_tree_is_validated_once(self, tmp_path, monkeypatch, request, pair, code):
        # parse_newick_tree checks the tree, and three_cuttable_tc finds it checked
        tree, net = request.getfixturevalue(pair)
        tpath = write(tmp_path / "t.nwk", serialize_newick_tree(tree) + "\n")
        npath = write(tmp_path / "u.upn", serialize_upn(net))

        def is_tree(graph):
            return graph.reticulation_number() == 0

        calls = count_calls(monkeypatch, (nets, "validate_unrooted", is_tree),
                            (formats, "validate_unrooted", is_tree))
        result = CliRunner().invoke(cli, ["contain", tpath, npath])
        assert result.exit_code == code
        assert calls == {"validate_unrooted": 1}

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_label_mismatch_exit_2(self, tmp_path, cycle4, oracle):
        tpath = write(tmp_path / "t.nwk", "((a,b),(c,x));\n")
        npath = write(tmp_path / "u.upn", serialize_upn(cycle4))
        result = CliRunner().invoke(cli, ["contain", tpath, npath, *oracle])
        assert result.exit_code == 2
        assert "error: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_non_ascii_label_exit_2(self, tmp_path, cycle4):
        tpath = write(tmp_path / "t.nwk", "(é,b);\n")
        npath = write(tmp_path / "u.upn", serialize_upn(cycle4))
        result = CliRunner().invoke(cli, ["contain", tpath, npath])
        assert result.exit_code == 2
        assert "character 'é' is not allowed in a label (line 1, col 2)" in result.output

    def test_root_label_exit_2(self, tmp_path, cycle4):
        tpath = write(tmp_path / "t.nwk", "((a,b),c,d)x;\n")
        npath = write(tmp_path / "u.upn", serialize_upn(cycle4))
        result = CliRunner().invoke(cli, ["contain", tpath, npath])
        assert result.exit_code == 2
        assert "error: internal node labels are not supported" in result.output

    def test_not_three_cuttable_exit_2(self, tmp_path, theta3):
        tpath = write(tmp_path / "t.nwk", "(a,b,c);\n")
        npath = write(tmp_path / "u.upn", serialize_upn(theta3))
        result = CliRunner().invoke(cli, ["contain", tpath, npath])
        assert result.exit_code == 2
        assert "error: network is not 3-cuttable" in result.output


class TestSatCommands:
    def test_reduce_orient_extract_pipeline(self, tmp_path):
        cnf_path = write(tmp_path / "phi.cnf", serialize_dimacs_cnf(PHI))
        net_path = tmp_path / "uphi.upn"
        gmap_path = tmp_path / "phi.gmap"
        runner = CliRunner()

        result = runner.invoke(cli, ["sat", "reduce", cnf_path,
                                     "-o", str(net_path), "--gmap", str(gmap_path)])
        assert result.exit_code == 0
        net = parse_upn(net_path.read_text())
        assert len(net.leaf_labels) == 64

        stats = runner.invoke(cli, ["stats", str(net_path)])
        assert "leaves: 64" in stats.output

        rooted_path = tmp_path / "nphi.enwk"
        result = runner.invoke(cli, ["sat", "orient", cnf_path, "--assignment", "TFF",
                                     "-o", str(rooted_path), "--gmap", str(gmap_path)])
        assert result.exit_code == 0

        check = runner.invoke(cli, ["check-tree-child", str(rooted_path)])
        assert check.exit_code == 0

        result = runner.invoke(cli, ["sat", "extract", str(rooted_path),
                                     "--gmap", str(gmap_path), "--cnf", cnf_path])
        assert result.exit_code == 0
        assert "assignment: TFF" in result.output
        assert "satisfies: yes" in result.output

    def test_unsatisfying_assignment_exit_1(self, tmp_path):
        cnf_path = write(tmp_path / "phi.cnf", serialize_dimacs_cnf(PHI))
        result = CliRunner().invoke(cli, ["sat", "orient", cnf_path, "--assignment", "FTF",
                                          "-o", str(tmp_path / "x.enwk"),
                                          "--gmap", str(tmp_path / "x.gmap")])
        assert result.exit_code == 1

    def test_orient_failure_other_than_unsatisfied_is_not_exit_1(self, tmp_path, monkeypatch):
        # exit 1 says the assignment does not satisfy the formula, nothing else
        def broken(cnf, assignment):
            raise CutnetsError("broken gadget")

        monkeypatch.setattr(sat, "_reduction", broken)
        cnf_path = write(tmp_path / "phi.cnf", serialize_dimacs_cnf(PHI))
        result = CliRunner().invoke(cli, ["sat", "orient", cnf_path, "--assignment", "TFF",
                                          "-o", str(tmp_path / "x.enwk"),
                                          "--gmap", str(tmp_path / "x.gmap")])
        assert result.exit_code == 4
        assert "internal error: CutnetsError: broken gadget" in result.stderr
        assert "no orientation produced" not in result.output

    def test_orient_builds_the_network_once(self, tmp_path, monkeypatch):
        # the gadget map and the orientation come from one construction
        calls = count_calls(monkeypatch, (sat, "_reduction"), (sat, "build_u_phi"))
        cnf_path = write(tmp_path / "phi.cnf", serialize_dimacs_cnf(PHI))
        result = CliRunner().invoke(cli, ["sat", "orient", cnf_path, "--assignment", "TFF",
                                          "-o", str(tmp_path / "x.enwk"),
                                          "--gmap", str(tmp_path / "x.gmap")])
        assert result.exit_code == 0
        assert calls == {"_reduction": 1}

    @pytest.mark.parametrize("command", [
        ["sat", "reduce"],
        ["sat", "orient", "--assignment", "TTT"],
    ], ids=["reduce", "orient"])
    def test_unbalanced_formula_exit_2(self, tmp_path, command):
        cnf_path = write(tmp_path / "u.cnf", "p cnf 3 1\n1 2 3 0\n")
        result = CliRunner().invoke(cli, command + [cnf_path, "-o", str(tmp_path / "x.out"),
                                                    "--gmap", str(tmp_path / "x.gmap")])
        assert result.exit_code == 2
        assert "error: " in result.output
        assert "occurs positively 1 times, expected 2" in result.output
        assert "no orientation produced" not in result.output

    @staticmethod
    def oriented(tmp_path, relabel=None):
        """Files for ``sat extract``: PHI's network oriented under TFF (its
        labels renamed by ``relabel``), the gadget map and PHI."""
        cnf_path = write(tmp_path / "phi.cnf", serialize_dimacs_cnf(PHI))
        rooted_path, gmap_path = tmp_path / "nphi.enwk", tmp_path / "phi.gmap"
        result = CliRunner().invoke(cli, ["sat", "orient", cnf_path, "--assignment", "TFF",
                                          "-o", str(rooted_path), "--gmap", str(gmap_path)])
        assert result.exit_code == 0
        if relabel:
            rooted = parse_enewick(rooted_path.read_text())
            labels = {v: relabel.get(lab, lab) for v, lab in rooted.leaf_labels.items()}
            rooted = nets.RootedNet(rooted.vertices, rooted.arcs, rooted.root, labels)
            rooted_path.write_text(serialize_enewick(rooted))
        return str(rooted_path), str(gmap_path), cnf_path

    def test_extract_unreadable_gmap_id_exit_2(self, tmp_path):
        rooted, gmap, cnf = self.oriented(tmp_path)
        lines = Path(gmap).read_text().splitlines()
        role = lines[-1].split()[1]
        lines[-1] = f"N {role} {'7' * 5000}"
        Path(gmap).write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(cli, ["sat", "extract", rooted, "--gmap", gmap, "--cnf", cnf])
        assert result.exit_code == 2, result.output
        assert f"(line {len(lines)}, col {len(role) + 4})" in result.stderr

    @pytest.mark.parametrize("record, message, col", [
        ("G G1_1 connection", "G record takes a name, a kind and vertex pairs", 1),
        ("G G1_1 connection s1", "bad vertex pair 's1'", 19),
        ("N lr", "N record takes a role and an id", 1),
        ("X lr 1", "unknown record type 'X'", 1),
    ], ids=["short-G", "pair", "short-N", "type"])
    def test_extract_bad_gmap_record_exit_2(self, tmp_path, record, message, col):
        rooted, gmap, cnf = self.oriented(tmp_path)
        lines = Path(gmap).read_text().splitlines() + [record]
        Path(gmap).write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(cli, ["sat", "extract", rooted, "--gmap", gmap, "--cnf", cnf])
        assert result.exit_code == 2, result.output
        assert f"error: {message} (line {len(lines)}, col {col})" in result.stderr

    def test_extract_unsatisfied_formula_exit_1(self, tmp_path):
        rooted, gmap, _ = self.oriented(tmp_path)
        cnf = write(tmp_path / "other.cnf", "p cnf 3 1\n-1 2 3 0\n")   # TFF falsifies it
        result = CliRunner().invoke(cli, ["sat", "extract", rooted, "--gmap", gmap, "--cnf", cnf])
        assert result.exit_code == 1
        assert "assignment: TFF" in result.output
        assert "satisfies: no" in result.output

    @pytest.mark.parametrize("relabel, message", [
        ({"G1_1_l": "G1_1_lp", "G1_1_lp": "G1_1_l"},
         "variable 1: terminal reticulation pattern is mixed"),
        ({"G1_1_lp": "G1_2_lp", "G1_2_lp": "G1_1_lp"}, "cannot locate u in G1_1"),
        ({"G2_1_lp": "stray"}, "gadget leaf G2_1_lp is missing from the network"),
    ], ids=["mixed-pattern", "no-u", "missing-leaf"])
    def test_extract_inconsistent_gadgets_exit_2(self, tmp_path, relabel, message):
        rooted, gmap, cnf = self.oriented(tmp_path, relabel)
        result = CliRunner().invoke(cli, ["sat", "extract", rooted, "--gmap", gmap, "--cnf", cnf])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_extract_bad_gadget_name_exit_2(self, tmp_path):
        # a generated formula reduced and oriented, then one G record of the
        # gadget map renamed to a name no gadget has
        runner = CliRunner()
        cnf_path, gmap_path = tmp_path / "phi.cnf", tmp_path / "phi.gmap"
        rooted_path = tmp_path / "nphi.enwk"
        assert runner.invoke(cli, ["gen", "cnf", "--vars", "6", "--seed", "1",
                                   "-o", str(cnf_path)]).exit_code == 0
        assert runner.invoke(cli, ["sat", "reduce", str(cnf_path), "-o", str(tmp_path / "u.upn"),
                                   "--gmap", str(gmap_path)]).exit_code == 0
        beta = sat_bruteforce(parse_dimacs_cnf(cnf_path.read_text()))
        truth = "".join("T" if beta[i] else "F" for i in sorted(beta))
        assert runner.invoke(cli, ["sat", "orient", str(cnf_path), "--assignment", truth,
                                   "-o", str(rooted_path),
                                   "--gmap", str(tmp_path / "o.gmap")]).exit_code == 0
        lines = gmap_path.read_text().splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("G G1_1 "))
        lines[lineno - 1] = lines[lineno - 1].replace("G G1_1 ", "G Gx_1 ")
        gmap_path.write_text("".join(lines))
        result = runner.invoke(cli, ["sat", "extract", str(rooted_path), "--gmap", str(gmap_path),
                                     "--cnf", str(cnf_path)])
        assert result.exit_code == 2, result.output
        assert f"error: bad gadget name 'Gx_1' (line {lineno}, col 1)" in result.stderr

    def test_extract_not_tree_child_exit_2(self, tmp_path):
        _, gmap, cnf = self.oriented(tmp_path)
        stack = write(tmp_path / "stack.enwk", "((((a)#H2)#H1,(#H2)#H3),(#H1,#H3));")
        assert not is_tree_child(parse_enewick(Path(stack).read_text()))
        result = CliRunner().invoke(cli, ["sat", "extract", stack, "--gmap", gmap, "--cnf", cnf])
        assert result.exit_code == 2, result.output
        assert "error: input is not a tree-child network" in result.output

    @pytest.mark.parametrize("variables", [2, 4])
    def test_extract_variable_count_mismatch_exit_2(self, tmp_path, variables):
        rooted, gmap, _ = self.oriented(tmp_path)
        cnf = write(tmp_path / "other.cnf", f"p cnf {variables} 1\n1 -2 {variables} 0\n")
        result = CliRunner().invoke(cli, ["sat", "extract", rooted, "--gmap", gmap, "--cnf", cnf])
        assert result.exit_code == 2, result.output
        assert (f"error: the formula has {variables} variables but the gadget map has 3"
                in result.output)
        assert isinstance(result.exception, SystemExit)

    def test_bad_assignment_string_exit_2(self, tmp_path):
        cnf_path = write(tmp_path / "phi.cnf", serialize_dimacs_cnf(PHI))
        result = CliRunner().invoke(cli, ["sat", "orient", cnf_path, "--assignment", "TX",
                                          "-o", str(tmp_path / "x.enwk"),
                                          "--gmap", str(tmp_path / "x.gmap")])
        assert result.exit_code == 2


class TestGen:
    def test_gen_tree_matches_library(self, tmp_path):
        result = CliRunner().invoke(cli, ["gen", "tree", "--leaves", "5", "--seed", "7"])
        assert result.exit_code == 0
        expected = serialize_newick_tree(random_tree([f"t{i}" for i in range(1, 6)], 7))
        assert result.output.strip() == expected

    def test_gen_net_roundtrips(self, tmp_path):
        out = tmp_path / "g.upn"
        result = CliRunner().invoke(cli, ["gen", "net", "--leaves", "5", "--r", "2",
                                          "--q", "2", "--seed", "3", "-o", str(out)])
        assert result.exit_code == 0
        net = parse_upn(out.read_text())
        assert net.reticulation_number() == 2

    def test_gen_cnf(self, tmp_path):
        result = CliRunner().invoke(cli, ["gen", "cnf", "--vars", "6", "--seed", "1"])
        assert result.exit_code == 0
        assert result.output.startswith("p cnf 6 8")

    @pytest.mark.parametrize("args", [
        ["cnf", "--vars", "4"],
        ["net", "--leaves", "2", "--r", "1"],
        ["net", "--leaves", "5", "--q", "0"],
        ["net", "--leaves", "5", "--r", "-1"],
        ["tree", "--leaves", "1"],
    ], ids=["cnf-vars", "net-leaves", "net-q", "net-r", "tree-leaves"])
    def test_bad_generator_argument_exit_2(self, args):
        result = CliRunner().invoke(cli, ["gen", *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_unknown_flag_rejected(self):
        result = CliRunner().invoke(cli, ["gen", "cnf", "--vars", "6", "--bogus", "1"])
        assert result.exit_code == 2


def caterpillar_enewick(n):
    """A rooted caterpillar on t1..tn, nested n - 1 deep."""
    return "(" * (n - 1) + "t1" + "".join(f",t{i})" for i in range(2, n + 1)) + ";\n"


class TestDeepInput:
    def test_check_tree_child_on_a_1500_leaf_caterpillar(self, tmp_path):
        path = write(tmp_path / "cat.enwk", caterpillar_enewick(1500))
        result = CliRunner().invoke(cli, ["check-tree-child", path])
        assert result.exit_code == 0, result.output
        assert "tree-child: yes" in result.output


NOT_TREE_CHILD = "((((a)#H2)#H1,(#H2)#H3),(#H1,#H3));\n"


def exit_code_matrix(tmp_path, fx) -> dict:
    """Per subcommand, the arguments of a yes input (exit 0), a no input
    where the command decides one (1), a bad input (2) and a directory
    given where a file belongs (2)."""
    d = str(tmp_path)
    f = {name: write(tmp_path / name, text) for name, text in {
        "c4.upn": serialize_upn(fx["cycle4"]),
        "k4.upn": serialize_upn(fx["k4_sub"]),
        "theta.upn": serialize_upn(fx["theta3"]),
        "bad.upn": "not a network\n",
        "tc.enwk": "((a,(b)#H1),(#H1,c));\n",
        "stack.enwk": NOT_TREE_CHILD,
        "bad.enwk": "((a,b));\n",
        "shown.nwk": serialize_newick_tree(fx["displayed_pair"][0]) + "\n",
        "shown.upn": serialize_upn(fx["displayed_pair"][1]),
        "conflict.nwk": serialize_newick_tree(fx["conflicting_pair"][0]) + "\n",
        "conflict.upn": serialize_upn(fx["conflicting_pair"][1]),
        "phi.cnf": serialize_dimacs_cnf(PHI),
        "unbalanced.cnf": "p cnf 3 1\n1 2 3 0\n",
        "falsified.cnf": "p cnf 3 1\n-1 2 3 0\n",   # TFF falsifies it
    }.items()}
    out = ["-o", str(tmp_path / "out"), "--gmap", str(tmp_path / "out.gmap")]
    oriented = ["sat", "orient", f["phi.cnf"], "--assignment", "TFF", "-o",
                str(tmp_path / "n.enwk"), "--gmap", str(tmp_path / "n.gmap")]
    assert CliRunner().invoke(cli, oriented).exit_code == 0
    n_enwk, n_gmap = str(tmp_path / "n.enwk"), str(tmp_path / "n.gmap")

    def extract(rooted, cnf):
        return ["sat", "extract", rooted, "--gmap", n_gmap, "--cnf", cnf]

    def contain(tree, net):
        return ["contain", tree, net]

    return {
        "recognize": (["recognize", "--q", "2", f["c4.upn"]],
                      ["recognize", "--q", "1", f["k4.upn"]],
                      ["recognize", "--q", "1", f["bad.upn"]],
                      ["recognize", "--q", "1", d]),
        "stats": (["stats", f["c4.upn"]], None, ["stats", f["bad.upn"]], ["stats", d]),
        "orient": (["orient", f["c4.upn"]], ["orient", f["theta.upn"]],
                   ["orient", f["bad.upn"]], ["orient", d]),
        "check-tree-child": (["check-tree-child", f["tc.enwk"]],
                             ["check-tree-child", f["stack.enwk"]],
                             ["check-tree-child", f["bad.enwk"]], ["check-tree-child", d]),
        "contain": (contain(f["shown.nwk"], f["shown.upn"]),
                    contain(f["conflict.nwk"], f["conflict.upn"]),
                    contain(f["shown.nwk"], f["c4.upn"]), contain(d, f["shown.upn"])),
        "sat reduce": (["sat", "reduce", f["phi.cnf"], *out], None,
                       ["sat", "reduce", f["unbalanced.cnf"], *out],
                       ["sat", "reduce", d, *out]),
        "sat orient": (["sat", "orient", f["phi.cnf"], "--assignment", "TFF", *out],
                       ["sat", "orient", f["phi.cnf"], "--assignment", "FTF", *out],
                       ["sat", "orient", f["unbalanced.cnf"], "--assignment", "TTT", *out],
                       ["sat", "orient", d, "--assignment", "TFF", *out]),
        "sat extract": (extract(n_enwk, f["phi.cnf"]), extract(n_enwk, f["falsified.cnf"]),
                        extract(f["stack.enwk"], f["phi.cnf"]), extract(d, f["phi.cnf"])),
        "gen tree": (["gen", "tree", "--leaves", "5"], None, ["gen", "tree", "--leaves", "1"],
                     ["gen", "tree", "--leaves", "5", "-o", d]),
        "gen net": (["gen", "net", "--leaves", "5", "--r", "1"], None,
                    ["gen", "net", "--leaves", "2", "--r", "1"],
                    ["gen", "net", "--leaves", "5", "-o", d]),
        "gen cnf": (["gen", "cnf", "--vars", "6"], None, ["gen", "cnf", "--vars", "4"],
                    ["gen", "cnf", "--vars", "6", "-o", d]),
    }


SUBCOMMANDS = ("recognize", "stats", "orient", "check-tree-child", "contain", "sat reduce",
               "sat orient", "sat extract", "gen tree", "gen net", "gen cnf")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_exit_code_matrix(tmp_path, command, cycle4, k4_sub, theta3, displayed_pair,
                          conflicting_pair):
    fixtures = {"cycle4": cycle4, "k4_sub": k4_sub, "theta3": theta3,
                "displayed_pair": displayed_pair, "conflicting_pair": conflicting_pair}
    yes, no, bad, directory = exit_code_matrix(tmp_path, fixtures)[command]
    for case, args, code in (("yes", yes, 0), ("no", no, 1), ("bad", bad, 2),
                             ("directory", directory, 2)):
        if args is None:
            continue
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == code, f"{case}: {result.output}"
        assert result.exception is None or isinstance(result.exception, SystemExit), case
        if code == 2:
            assert "error" in result.output.lower(), case   # click's "Error:" or ours


@pytest.mark.parametrize("error", [
    ParseError, ValidationError, DegreeError, CycleError, NotBinary, LabelSetMismatch,
    NotThreeCuttable, InvalidQ, InvalidN, NotTwoBalanced, NotTreeChild, InconsistentGadgetState,
], ids=lambda error: error.__name__)
def test_bad_input_errors_are_input_errors(error):
    # the CLI exits 2 on an InputError, so each of these is bad input, never "no"
    assert issubclass(error, InputError)


def test_every_subcommand_is_in_the_matrix():
    names = set()
    for name, command in cli.commands.items():
        if isinstance(command, click.Group):
            names.update(f"{name} {sub}" for sub in command.commands)
        else:
            names.add(name)
    assert names == set(SUBCOMMANDS)
