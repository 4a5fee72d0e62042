from pathlib import Path

import pytest
from click.testing import CliRunner

from cutnets import CnfInstance, orient
from cutnets.cli import cli
from cutnets.formats import (
    parse_enewick,
    parse_upn,
    serialize_dimacs_cnf,
    serialize_enewick,
    serialize_newick_tree,
    serialize_upn,
)
from cutnets.generate import random_tree
from cutnets.orient import is_tree_child

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

    def test_parse_error_exit_2(self, tmp_path):
        path = write(tmp_path / "bad.upn", "not a network\n")
        result = CliRunner().invoke(cli, ["recognize", "--q", "1", path])
        assert result.exit_code == 2

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

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_label_mismatch_exit_2(self, tmp_path, cycle4, oracle):
        tpath = write(tmp_path / "t.nwk", "((a,b),(c,x));\n")
        npath = write(tmp_path / "u.upn", serialize_upn(cycle4))
        result = CliRunner().invoke(cli, ["contain", tpath, npath, *oracle])
        assert result.exit_code == 2
        assert "error: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

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
            rooted_path.write_text(serialize_enewick(rooted.replace(leaf_labels=labels)))
        return str(rooted_path), str(gmap_path), cnf_path

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
