"""The one-pass readers against the readers they replaced.

``reference_readers`` keeps ``parse_upn``, ``parse_newick_tree`` and
``parse_enewick`` as first written, with the sorted ``validate_unrooted``
they called.  On every golden input of the three formats, and on 2000
seeded mutations of desk texts per format, the reader in
``cutnets.formats`` and its reference must return equal networks, or raise
the same exception type with the same message (which names the line and
column of a parse error).  The mutations drop, duplicate or swap one
character, add a ``#`` comment, turn line ends into CRLF or blanks into
tabs, put in a non-ASCII digit (``٣``, ``²``) or a 5000-digit id, and drop
the ``;`` or write text after it.
"""

import json
import random
from pathlib import Path

import pytest

import reference_readers as ref
from cutnets import GenConfig, formats, random_q_cuttable
from cutnets.generate import random_tree
from cutnets.orient import tree_child_orient_2cuttable
from test_formats_golden import MALFORMED_ENEWICK, MALFORMED_NEWICK, TEXTS_ENEWICK, TEXTS_NEWICK

DATA = Path(__file__).parent / "data"
MUTANTS = 2000
LONG_ID = "7" * 5000   # past the 4300 digits ``int`` converts

UPN_TEXTS = (
    "UPN/1\nV 1\nV 2\nL 1 a\nL 2 b\nE 1 2\n",
    "# hello\n\nUPN/1\nV 1 # first\nV 2\nL 1 a\nL 2 b\nE 1 2\n",
    "UPN/1\nV 1\nV 2\nV 3\nV 4\nL 1 a\nL 2 a\nL 4 c\nE 1 3\nE 2 3\nE 3 4\n",
    "UPN/1\nV 01\nV 2\nL 1 a\nL 02 b\nE 2 001\n",
    "UPN/1\nV 1\nV 2\nV 3\nL 1 a\nL 2 b\nE 1 1\nE 1 2\nE 2 3\n",
    "",
)


def network_key(net):
    """What makes two networks equal, and the exception the same: the
    type and the message, which holds a parse error's line and column."""
    if isinstance(net, Exception):
        return type(net), str(net)
    rooted = getattr(net, "root", None)
    arcs = net.arcs if rooted is not None else net.edges
    return net.vertices, arcs, net.leaf_labels, net.next_id, rooted


def outcome(read, text):
    try:
        return network_key(read(text))
    except Exception as exc:   # any exception, so that a crash is a difference too
        return network_key(exc)


def desk_nets(count: int):
    """Seeded desk networks at 4-12 leaves, with q = 1, 2 and 3."""
    return [random_q_cuttable(GenConfig(seed=seed, leaf_count=4 + seed % 9,
                                        target_r=1 + seed % 3, target_q=1 + seed % 3))
            for seed in range(count)]


def upn_bases() -> list[str]:
    traces = json.loads((DATA / "tctrace_golden.json").read_text(encoding="utf-8"))
    return ([entry["net"] for entry in traces] + list(UPN_TEXTS)
            + [formats.serialize_upn(net) for net in desk_nets(12)])


def newick_bases() -> list[str]:
    traces = json.loads((DATA / "tctrace_golden.json").read_text(encoding="utf-8"))
    trees = [formats.serialize_newick_tree(random_tree([f"t{i}" for i in range(n)], n))
             for n in (2, 3, 4, 9, 17)]
    return ([entry["tree"] for entry in traces] + list(TEXTS_NEWICK)
            + list(MALFORMED_NEWICK.values()) + trees)


def enewick_bases() -> list[str]:
    oriented = [formats.serialize_enewick(tree_child_orient_2cuttable(net))
                for net in desk_nets(24) if net.reticulation_number()]
    return list(TEXTS_ENEWICK) + list(MALFORMED_ENEWICK.values()) + oriented


def golden_texts(section) -> list[str]:
    """The texts of ``formats_golden.json`` and ``newick_errors_golden.json``."""
    formats_golden = json.loads((DATA / "formats_golden.json").read_text(encoding="utf-8"))
    errors = json.loads((DATA / "newick_errors_golden.json").read_text(encoding="utf-8"))
    return list(formats_golden[section]) + [text for text, _, _ in errors]


def mutate(text: str, rng: random.Random) -> str:
    """One seeded edit of ``text``."""
    edit = rng.randrange(10)
    i = rng.randrange(len(text) + 1)
    if edit == 0 and text:   # drop a character
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1:]
    if edit == 1 and text:   # duplicate one
        i = min(i, len(text) - 1)
        return text[:i + 1] + text[i:]
    if edit == 2 and len(text) > 1:   # swap two
        i, j = sorted(rng.sample(range(len(text)), 2))
        return text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:]
    if edit == 3:   # a comment, at the end of a line or on its own
        return text[:i] + rng.choice(("# note", "#", "\n# x\n", " #H1")) + text[i:]
    if edit == 4:
        return text.replace("\n", "\r\n")
    if edit == 5:   # tabs for blanks, or a blank that is a tab
        return text.replace(" ", "\t") if " " in text else text[:i] + "\t" + text[i:]
    if edit == 6:   # a digit that is no ASCII digit, or an id too long for int
        return text[:i] + rng.choice(("٣", "²", LONG_ID)) + text[i:]
    if edit == 7:   # the ';' dropped
        return text.replace(";", "", 1) if ";" in text else text[:i]
    if edit == 8:   # text after the ';'
        return text + rng.choice((" x", "\n(a,b);", ";", "\n"))
    # a token swapped for a long or non-ASCII id
    tokens = text.split(" ")
    k = rng.randrange(len(tokens))
    tokens[k] = rng.choice((LONG_ID, "٣", "²", "0", "-1"))
    return " ".join(tokens)


def mutants(bases, seed: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    while len(out) < MUTANTS:
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng)
        out.append(text)
    return out


READERS = {
    "upn": (ref.parse_upn, formats.parse_upn),
    "newick": (ref.parse_newick_tree, formats.parse_newick_tree),
    "enewick": (ref.parse_enewick, formats.parse_enewick),
}


def compare(fmt, texts):
    old, new = READERS[fmt]
    outcomes = set()
    for text in texts:
        want = outcome(old, text)
        assert outcome(new, text) == want, text
        outcomes.add(want[0] if isinstance(want[0], type) else "parsed")
    return outcomes


@pytest.mark.parametrize("fmt, section", [("newick", "newick_texts"),
                                          ("enewick", "enewick_texts")])
def test_golden_texts(fmt, section):
    outcomes = compare(fmt, golden_texts(section))
    assert "parsed" in outcomes and len(outcomes) > 2


def test_golden_upn_texts():
    assert "parsed" in compare("upn", upn_bases())


@pytest.mark.parametrize("fmt, bases, seed", [("upn", upn_bases, 1),
                                              ("newick", newick_bases, 2),
                                              ("enewick", enewick_bases, 3)])
def test_seeded_mutations(fmt, bases, seed):
    outcomes = compare(fmt, mutants(bases(), seed))
    # the mutations reach the parse errors and the checks after a parse
    assert "parsed" in outcomes and len(outcomes) >= 3, outcomes


def test_mutations_cover_each_edit():
    rng = random.Random(0)
    text = "UPN/1\nV 1\nV 2\nL 1 a\nL 2 b\nE 1 2\n"
    seen = {mutate(text, rng) for _ in range(300)}
    assert any("\r\n" in t for t in seen) and any("\t" in t for t in seen)
    assert any(LONG_ID in t for t in seen) and any("٣" in t for t in seen)
    assert any("#" in t for t in seen)
