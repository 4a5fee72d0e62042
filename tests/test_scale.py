"""Commands at the north-star size, |X| ≈ 10⁴, run in-process.

Each run asserts its exit code and its output: the line the command
prints, or for the commands that print nothing on success, the one line
of the eNewick file they write or the size of the network they generate.
The file covers the SAT commands: ``sat reduce``, ``sat orient`` and ``sat
extract`` at n = 480 variables, whose reduction network has |X| = 9604
leaves; ``gen net`` at q = 2 and 3 on the seeded recipe at N = 9000 (|X| =
9056 and 9981); ``orient``, then ``check-tree-child`` on its output, on
the q = 2 network; ``stats`` and ``recognize`` (yes at q = 3, no at q = 4)
on the q = 3 network; and ``gen tree`` at 10⁴ leaves.  Still missing at
this size: ``contain``, which joins once containment runs at |X| ≈ 9000
in seconds.
"""

import random

import pytest
from click.testing import CliRunner

from cutnets.cli import cli
from cutnets.formats import parse_enewick, parse_newick_tree, parse_upn, serialize_dimacs_cnf
from cutnets.generate import random_2balanced_cnf

N_VARS = 480   # 3841 gadgets with two leaves each, 3m clause leaves, lr and lrp
LEAVES = 9604
SEED = 1
# the seeded recipe at N = 9000; the augmentation hangs more leaves
NET_N = 9000
NET_LEAVES = {2: 9056, 3: 9981}


def plant_assignment(cnf, rng: random.Random, max_flips: int = 20_000):
    """Seeded random-walk local search for a satisfying assignment, or None."""
    beta = {v: rng.random() < 0.5 for v in range(1, cnf.n + 1)}
    for _ in range(max_flips):
        unsat = [c for c in cnf.clauses if not any(beta[abs(lit)] == (lit > 0) for lit in c)]
        if not unsat:
            return beta
        var = abs(rng.choice(rng.choice(unsat)))
        beta[var] = not beta[var]
    return None


def invoke(*args):
    return CliRunner().invoke(cli, [str(a) for a in args])


@pytest.fixture(scope="module")
def formula(tmp_path_factory):
    """The work directory, the DIMACS file and the planted assignment as
    a T/F string."""
    cnf = random_2balanced_cnf(N_VARS, SEED)
    beta = plant_assignment(cnf, random.Random(SEED))
    assert beta is not None
    work = tmp_path_factory.mktemp("sat")
    path = work / "phi.cnf"
    path.write_text(serialize_dimacs_cnf(cnf))
    return work, path, "".join("T" if beta[v] else "F" for v in range(1, cnf.n + 1))


@pytest.fixture(scope="module")
def oriented(formula):
    """``sat orient``'s result and the eNewick and gadget-map files it wrote."""
    work, path, truth = formula
    enewick, gmap = work / "n.enw", work / "n.gmap"
    result = invoke("sat", "orient", path, "--assignment", truth, "-o", enewick, "--gmap", gmap)
    return result, enewick, gmap


def test_sat_reduce(formula):
    work, path, _ = formula
    upn, gmap = work / "u.upn", work / "u.gmap"
    result = invoke("sat", "reduce", path, "-o", upn, "--gmap", gmap)
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote {upn} ({LEAVES} leaves) and {gmap}\n"


def test_sat_orient(oriented):
    result, enewick, _ = oriented
    assert result.exit_code == 0, result.output
    assert result.output == ""
    (line,) = enewick.read_text().splitlines()
    assert len(parse_enewick(line).leaf_labels) == LEAVES


def test_sat_extract(formula, oriented):
    _, path, truth = formula
    _, enewick, gmap = oriented
    result = invoke("sat", "extract", enewick, "--gmap", gmap, "--cnf", path)
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == f"assignment: {truth}"


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """``gen net``'s result and the UPN file it wrote, for each q."""
    work = tmp_path_factory.mktemp("nets")
    out = {}
    for q in NET_LEAVES:
        upn = work / f"q{q}.upn"
        out[q] = invoke("gen", "net", "--leaves", NET_N, "--r", NET_N // 8, "--q", q,
                        "--seed", SEED, "-o", upn), upn
    return out


@pytest.mark.parametrize("q", sorted(NET_LEAVES))
def test_gen_net(generated, q):
    result, upn = generated[q]
    assert result.exit_code == 0, result.output
    assert result.output == ""
    assert len(parse_upn(upn.read_text()).leaf_labels) == NET_LEAVES[q]


@pytest.fixture(scope="module")
def rooted_file(generated):
    """``orient``'s result on the q = 2 network and the eNewick file it wrote."""
    _, upn = generated[2]
    enewick = upn.with_suffix(".enw")
    return invoke("orient", upn, "-o", enewick), enewick


def test_orient(rooted_file):
    result, enewick = rooted_file
    assert result.exit_code == 0, result.output
    assert result.output == ""
    (line,) = enewick.read_text().splitlines()
    assert len(parse_enewick(line).leaf_labels) == NET_LEAVES[2]


def test_check_tree_child(rooted_file):
    _, enewick = rooted_file
    result = invoke("check-tree-child", enewick)
    assert result.exit_code == 0, result.output
    assert result.output == "tree-child: yes\n"


def test_stats(generated):
    _, upn = generated[3]
    result = invoke("stats", upn)
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[:5] == [f"leaves: {NET_LEAVES[3]}", "vertices: 22210", "edges: 23334",
                         f"reticulation number: {NET_N // 8}", f"level: {NET_N // 8}"]
    assert lines[-1] == "max cuttability: 3"


def test_recognize_yes(generated):
    _, upn = generated[3]
    result = invoke("recognize", "--q", 3, upn)
    assert result.exit_code == 0, result.output
    assert result.output == "q-cuttable: yes\n"


def test_recognize_no_names_a_cycle(generated):
    _, upn = generated[3]
    result = invoke("recognize", "--q", 4, upn)
    assert result.exit_code == 1, result.output
    verdict, witness = result.output.splitlines()
    assert verdict == "q-cuttable: no"
    assert witness.startswith("witness cycle: ")
    cycle = [int(v) for v in witness.removeprefix("witness cycle: ").split("-")]
    net = parse_upn(upn.read_text())
    assert len(set(cycle)) == len(cycle) > 2
    assert all(net.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def test_gen_tree():
    result = invoke("gen", "tree", "--leaves", 10_000)
    assert result.exit_code == 0, result.output
    (line,) = result.output.splitlines()
    assert len(parse_newick_tree(line).leaf_labels) == 10_000
