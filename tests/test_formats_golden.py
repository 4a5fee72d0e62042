"""Newick and eNewick I/O, pinned to a recorded file.

``tests/data/formats_golden.json`` was recorded when the Newick readers
and both serializers still recursed.  Now one reader makes a single pass
over the text with an explicit stack of open nodes and hands both parsers
flat preorder lists, the serializers walk explicit stacks, and nothing
they return or raise may move: the same text, the same vertex ids, the
same exception type and message.  Each
network entry keeps the SHA-256 and length of the serialized text and the
SHA-256 of the sorted arcs (or edges) and labels that parsing that text
gives back; each malformed input keeps its exception in full.  The inputs
go up to ``build_n_phi`` at n = 120, the largest SAT network the recursive
code could still serialize.  Re-record with
``PYTHONPATH=src python tests/test_formats_golden.py > tests/data/formats_golden.json``
only for a deliberate change of output.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from cutnets import GenConfig, random_q_cuttable
from cutnets.errors import CutnetsError
from cutnets.formats import (
    parse_enewick,
    parse_newick_tree,
    serialize_enewick,
    serialize_newick_tree,
)
from cutnets.generate import random_2balanced_cnf, random_tree
from cutnets.orient import tree_child_orient_2cuttable
from cutnets.sat import assignment_satisfies, build_n_phi

GOLDEN = Path(__file__).parent / "data" / "formats_golden.json"

MALFORMED_ENEWICK = {
    "empty_document": "",
    "empty_node": "((a,),b);",
    "trailing_text": "((a,b),c); x",
    "missing_semicolon": "((a,b),c)",
    "unclosed_paren": "((a,b),(c,d);",
    "malformed_tag": "((a,b)#x,c);",
    "root_degree": "((a,b));",
    "undefined_hybrid": "((a,#H1),(b,c));",
    "hybrid_defined_twice": "((a)#H1,((b)#H1,c));",
    "parallel_inner": "(((a)#H1,#H1),b);",
    "parallel_root": "((a)#H1,#H1);",
    "parallel_after_sibling": "((b,(a)#H1,#H1),c);",
    "self_loop": "((#H1,a)#H1,b);",
    "unlabelled_leaf_hybrid": "((#H1)#H1,a);",
    "second_line": "((a,b),\n (c,)#H2);",
}

MALFORMED_NEWICK = {
    "hybrid_tag": "((a)#H1,(#H1,b));",
    "not_binary_root": "((a,b),c,d,e);",
    "not_binary_inner": "((a,b,c),d);",
    "inner_label": "((a,b)x,c);",
    "empty_node": "(a,,b);",
    "trailing_text": "(a,b);;",
    "repeated_label": "((a,b),a);",
}

# hand-written texts in no canonical order, with white space
TEXTS_ENEWICK = ("((c,(b)#H1), (#H1 ,a));", "(((a,#H7),(b)#H7),(c,d));", "(x,y);")
TEXTS_NEWICK = ("((d,c),(b,a));", "(b, (c,a), d);", "(a,b);", "(((e,d),c),(b,a));")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def satisfying(cnf, seed: int) -> dict[int, bool]:
    """Seeded random-walk local search; the formulas below all yield."""
    rng = random.Random(seed)
    beta = {v: rng.random() < 0.5 for v in range(1, cnf.n + 1)}
    while not assignment_satisfies(cnf, beta):
        unsat = [c for c in cnf.clauses
                 if not any(beta[abs(lit)] == (lit > 0) for lit in c)]
        var = abs(rng.choice(rng.choice(unsat)))
        beta[var] = not beta[var]
    return beta


def rooted_nets() -> dict:
    out = {}
    for n in (30, 60, 120):
        cnf = random_2balanced_cnf(n, 700 + n)
        out[f"n_phi-{n}"] = build_n_phi(cnf, satisfying(cnf, n))
    for seed in range(8):
        cfg = GenConfig(seed=900 + seed, leaf_count=4 + 6 * seed, target_r=1 + 2 * seed,
                        target_q=2)
        out[f"orient-s{cfg.seed}-n{cfg.leaf_count}-r{cfg.target_r}"] = \
            tree_child_orient_2cuttable(random_q_cuttable(cfg))
    return out


def trees() -> dict:
    return {f"tree-s{seed}-n{n}": random_tree([f"t{i}" for i in range(1, n + 1)], seed)
            for seed, n in ((1, 2), (2, 3), (3, 4), (4, 17), (5, 120), (6, 700))}


def failure(call) -> str:
    try:
        call()
    except CutnetsError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def record_rooted(net) -> dict:
    text = serialize_enewick(net)
    return {"sha256": sha(text), "length": len(text), "parsed": sha(parsed_rooted(text))}


def record_tree(tree) -> dict:
    text = serialize_newick_tree(tree)
    return {"sha256": sha(text), "length": len(text), "parsed": sha(parsed_tree(text))}


def parsed_rooted(text: str) -> str:
    net = parse_enewick(text)
    return json.dumps([sorted(net.arcs), sorted(net.leaf_labels.items()), net.root])


def parsed_tree(text: str) -> str:
    tree = parse_newick_tree(text)
    return json.dumps([sorted(tree.edges), sorted(tree.leaf_labels.items())])


def record() -> dict:
    return {
        "enewick_texts": {text: parsed_rooted(text) for text in TEXTS_ENEWICK},
        "newick_texts": {text: parsed_tree(text) for text in TEXTS_NEWICK},
        "enewick": {name: record_rooted(net) for name, net in rooted_nets().items()},
        "newick": {name: record_tree(tree) for name, tree in trees().items()},
        "enewick_errors": {name: failure(lambda t=text: parse_enewick(t))
                           for name, text in MALFORMED_ENEWICK.items()},
        "newick_errors": {name: failure(lambda t=text: parse_newick_tree(t))
                          for name, text in MALFORMED_NEWICK.items()},
    }


def test_outputs_match_recorded_golden():
    golden = json.loads(GOLDEN.read_text())
    got = record()
    assert sorted(got) == sorted(golden)
    for section in golden:
        assert got[section] == golden[section], section


def test_every_malformed_input_fails():
    golden = json.loads(GOLDEN.read_text())
    for section in ("enewick_errors", "newick_errors"):
        assert "no error" not in golden[section].values(), section


if __name__ == "__main__":
    # one line per entry keeps the file readable in a diff
    sections = []
    for section, entries in record().items():
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(value)}"
                          for name, value in entries.items())
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    sys.stdout.write("{\n" + ",\n".join(sections) + "\n}\n")
