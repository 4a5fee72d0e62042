"""Commands at the north-star size, |X| ≈ 10⁴, run in-process.

Each run asserts its exit code and its output: the line the command
prints, or for ``sat orient`` and ``orient``, which print nothing on
success, the one line of the eNewick file they write.  So far the file
covers the SAT commands: ``sat reduce``, ``sat orient`` and ``sat
extract`` at n = 480 variables, whose reduction network has |X| = 9604
leaves; and ``orient``, then ``check-tree-child`` on its output, on a
seeded 2-cuttable network with |X| = 9056.  Still missing at this size:
``gen net`` at q = 2 and 3, ``stats``, ``recognize`` (yes and no),
``gen tree`` at 10⁴ leaves, and ``contain``, which joins once containment
runs at |X| ≈ 9000 in seconds.
"""

import random

import pytest
from click.testing import CliRunner

from cutnets.cli import cli
from cutnets.formats import parse_enewick, serialize_dimacs_cnf, serialize_upn
from cutnets.generate import GenConfig, random_2balanced_cnf, random_q_cuttable

N_VARS = 480   # 3841 gadgets with two leaves each, 3m clause leaves, lr and lrp
LEAVES = 9604
SEED = 1
# the seeded q = 2 recipe; its augmentation hangs 56 more leaves
NET_CONFIG = GenConfig(seed=SEED, leaf_count=9000, target_r=9000 // 8, target_q=2)
NET_LEAVES = 9056


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
def rooted_file(tmp_path_factory):
    """``orient``'s result on the seeded 2-cuttable network and the eNewick
    file it wrote."""
    work = tmp_path_factory.mktemp("orient")
    upn, enewick = work / "net.upn", work / "net.enw"
    upn.write_text(serialize_upn(random_q_cuttable(NET_CONFIG)))
    return invoke("orient", upn, "-o", enewick), enewick


def test_orient(rooted_file):
    result, enewick = rooted_file
    assert result.exit_code == 0, result.output
    assert result.output == ""
    (line,) = enewick.read_text().splitlines()
    assert len(parse_enewick(line).leaf_labels) == NET_LEAVES


def test_check_tree_child(rooted_file):
    _, enewick = rooted_file
    result = invoke("check-tree-child", enewick)
    assert result.exit_code == 0, result.output
    assert result.output == "tree-child: yes\n"
