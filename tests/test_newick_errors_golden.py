"""What the Newick readers make of malformed texts, pinned to a recorded file.

``tests/data/newick_errors_golden.json`` holds seeded mutations of the desk
eNewick and Newick texts (characters deleted, inserted from ``ALPHABET`` or
swapped) and a few handcrafted texts with two faults at once.  For each text
it keeps what ``parse_enewick`` and ``parse_newick_tree`` give: the
exception type and message in full, or the SHA-256 of the sorted arcs (or
edges) and labels when the text parses.  With two faults in one text the
recorded message says which one is reported first, so the order of the
checks is pinned as well as the checks.  Texts whose root carries a label or
a tag are left out.  Re-record with
``PYTHONPATH=src python tests/test_newick_errors_golden.py > tests/data/newick_errors_golden.json``
only for a deliberate change of behaviour.
"""

import json
import random
import sys
from pathlib import Path

from cutnets import GenConfig, random_q_cuttable
from cutnets.formats import parse_enewick, parse_newick_tree, serialize_enewick, \
    serialize_newick_tree
from cutnets.generate import random_tree
from cutnets.orient import tree_child_orient_2cuttable
from test_formats_golden import (
    MALFORMED_ENEWICK,
    MALFORMED_NEWICK,
    TEXTS_ENEWICK,
    TEXTS_NEWICK,
    failure,
    parsed_rooted,
    parsed_tree,
    sha,
)

GOLDEN = Path(__file__).parent / "data" / "newick_errors_golden.json"
ALPHABET = "(),;#H1 2\nab_é"
MUTANTS = 2000

# each has a hybrid defined twice and a parallel arc, or two parallel arcs
TWO_FAULTS = (
    "((#H1,#H1),((a)#H1,(b)#H1));",
    "((#H1,(a)#H1),(#H1,(b)#H1));",
    "(((a)#H1,#H1),(b)#H1);",
    "((a)#H1,((#H1,#H1),(b)#H1));",
    "((c,(#H2,#H2)),((a)#H1,((b)#H1,(d)#H2)));",
    "(((b)#H1,(a)#H1),(#H1,#H1));",
)


def desk_texts() -> list[str]:
    texts = [*TEXTS_ENEWICK, *MALFORMED_ENEWICK.values(), *TEXTS_NEWICK,
             *MALFORMED_NEWICK.values(), "((a,(b)#H1),(#H1,c));"]
    for seed in range(4):
        net = random_q_cuttable(GenConfig(seed=seed, leaf_count=3 + seed, target_r=1 + seed % 2,
                                          target_q=2))
        texts.append(serialize_enewick(tree_child_orient_2cuttable(net)))
        texts.append(serialize_newick_tree(random_tree(list("abcdefg")[:3 + seed], seed)))
    return texts


def mutate(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("delete", "insert", "swap"))
        if edit == "insert" or len(chars) < 2:
            chars.insert(rng.randint(0, len(chars)), rng.choice(ALPHABET))
        elif edit == "delete":
            del chars[rng.randrange(len(chars))]
        else:
            i, j = rng.sample(range(len(chars)), 2)
            chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def root_has_suffix(text: str) -> bool:
    """Whether a label or tag may follow the parenthesis that closes the
    root; leaving out every such text also leaves out some that fail before
    the root is read, which costs nothing."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == ")" and depth <= 0:
            rest = text[i + 1:].lstrip()
            return rest[:1] not in ("", ";", ",", ")", "(")
    return False


def texts() -> list[str]:
    rng = random.Random(20)
    bases = desk_texts()
    out = dict.fromkeys(TWO_FAULTS)
    while len(out) < len(TWO_FAULTS) + MUTANTS:
        text = mutate(rng.choice(bases), rng)
        if not root_has_suffix(text):
            out.setdefault(text)
    return list(out)


def outcome(parse, digest, text: str) -> str:
    got = failure(lambda: parse(text))
    return f"parsed {sha(digest(text))}" if got == "no error" else got


def record() -> list[list[str]]:
    return [[text, outcome(parse_enewick, parsed_rooted, text),
             outcome(parse_newick_tree, parsed_tree, text)] for text in texts()]


def test_outcomes_match_recorded_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for text, enewick, newick in golden:
        assert outcome(parse_enewick, parsed_rooted, text) == enewick, text
        assert outcome(parse_newick_tree, parsed_tree, text) == newick, text


def test_golden_covers_the_two_fault_texts():
    golden = {text: enewick for text, enewick, _ in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    assert len(golden) == len(TWO_FAULTS) + MUTANTS
    assert golden["((#H1,#H1),((a)#H1,(b)#H1));"] == "DegreeError: parallel arcs (2,3)"
    assert all(golden[text].startswith("DegreeError: ") for text in TWO_FAULTS)


if __name__ == "__main__":
    # one entry per line keeps the file readable in a diff
    rows = ",\n".join(" " + json.dumps(entry, ensure_ascii=False) for entry in record())
    sys.stdout.write("[\n" + rows + "\n]\n")
