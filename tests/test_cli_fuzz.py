"""The exit-code contract under a seeded fuzz of the CLI's inputs.

Exit 1 means a negative decision and nothing else, and no input ends in a
traceback.  For each of ``contain``, ``recognize --q 3`` and
``check-tree-child``, about 200 seeded inputs run in-process through
``CliRunner``: desk texts with one or two textual edits (those of
``test_readers.mutate``), and for ``contain`` also structural edits that
reach the preconditions: a leaf relabelled, an ``E`` line dropped, two
tree leaves swapped.  Every run must exit with 0, 1, 2 or 3; exit 0 and 1
print the command's decision line (a ``contain`` no with one certificate),
and exit 2 an ``error:`` on stderr.
"""

import random

import pytest
from click.testing import CliRunner

from cutnets import GenConfig, formats, random_q_cuttable, sample_displayed_tree
from cutnets.cli import cli
from cutnets.generate import random_tree
from cutnets.orient import tree_child_orient_2cuttable
from test_readers import mutate

RUNS = 200
DECISIONS = {
    "contain": ("displays: yes", "displays: no"),
    "recognize": ("q-cuttable: yes", "q-cuttable: no"),
    "check-tree-child": ("tree-child: yes", "tree-child: no"),
}


def desk_nets(q: int, count: int):
    return [random_q_cuttable(GenConfig(seed=seed, leaf_count=4 + seed % 6,
                                        target_r=1 + seed % 3, target_q=q))
            for seed in range(count)]


def relabel_leaf(upn: str, rng: random.Random) -> str:
    lines = upn.splitlines()
    k = rng.choice([i for i, line in enumerate(lines) if line.startswith("L ")])
    kind, v, _ = lines[k].split()
    lines[k] = f"{kind} {v} {rng.choice(('a', 't1', 'x1', 'zz'))}"
    return "\n".join(lines) + "\n"


def drop_edge(upn: str, rng: random.Random) -> str:
    lines = upn.splitlines()
    del lines[rng.choice([i for i, line in enumerate(lines) if line.startswith("E ")])]
    return "\n".join(lines) + "\n"


def swap_tree_leaves(newick: str, rng: random.Random) -> str:
    tree = formats.parse_newick_tree(newick)
    a, b = rng.sample(sorted(tree.leaf_labels), 2)
    labels = dict(tree.leaf_labels)
    labels[a], labels[b] = labels[b], labels[a]
    return formats.serialize_newick_tree(tree.replace(leaf_labels=labels))


def contain_inputs(rng: random.Random):
    pairs = []
    for seed, net in enumerate(desk_nets(3, 12)):
        labels = sorted(net.labels())
        for tree in (sample_displayed_tree(net, seed), random_tree(labels, seed)):
            pairs.append((formats.serialize_newick_tree(tree), formats.serialize_upn(net)))
    for _ in range(RUNS):
        tree, net = rng.choice(pairs)
        edit = rng.randrange(5)
        if edit == 0:
            net = relabel_leaf(net, rng)
        elif edit == 1:
            net = drop_edge(net, rng)
        elif edit == 2:
            tree = swap_tree_leaves(tree, rng)
        elif edit == 3:
            tree = mutate(tree, rng)
        else:
            net = mutate(net, rng)
        yield ["contain"], [tree, net]


def recognize_inputs(rng: random.Random):
    texts = [formats.serialize_upn(net) for q in (2, 3) for net in desk_nets(q, 8)]
    for _ in range(RUNS):
        text = rng.choice(texts)
        edit = rng.randrange(4)
        if edit == 0:
            text = drop_edge(text, rng)
        elif edit == 1:
            text = relabel_leaf(text, rng)
        else:
            text = mutate(text, rng)
        yield ["recognize", "--q", "3"], [text]


def check_tree_child_inputs(rng: random.Random):
    texts = [formats.serialize_enewick(tree_child_orient_2cuttable(net))
             for net in desk_nets(2, 12)]
    # one tree-child network and one that is not: both children of its root have
    # two reticulations as children
    texts += ["((a,(b)#H1),(#H1,c));", "(((a)#H1,(b)#H2),(#H1,#H2));"] * 4
    for _ in range(RUNS):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng)
        yield ["check-tree-child"], [text]


@pytest.mark.parametrize("inputs, seed", [(contain_inputs, 1), (recognize_inputs, 2),
                                          (check_tree_child_inputs, 3)])
def test_exit_codes_keep_the_contract(tmp_path, inputs, seed):
    runner = CliRunner()
    codes = set()
    for args, texts in inputs(random.Random(seed)):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"in{i}"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        result = runner.invoke(cli, args + paths)
        context = (args, texts, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), context
        assert result.exit_code in (0, 1, 2, 3), context
        if result.exit_code in (0, 1):
            yes, no = DECISIONS[args[0]]
            first = result.stdout.splitlines()[0]
            assert first == (yes if result.exit_code == 0 else no), context
            if args[0] == "contain" and result.exit_code == 1:   # one certificate, the decisive one
                (certificate,) = result.stdout.splitlines()[1:]
                assert certificate.startswith(("certificate: SPLIT-CONFLICT ",
                                               "certificate: RULE ")), context
        if result.exit_code == 2:
            assert result.stderr.startswith("error: "), context
        codes.add(result.exit_code)
    # the fuzz reaches both decisions and the input errors
    assert {0, 1, 2} <= codes, codes
