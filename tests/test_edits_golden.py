"""Outcomes of the public graph edits, pinned to a recorded file.

``tests/data/edits_golden.json`` was recorded when ``subdivide``,
``suppress`` and ``eliminate_edge`` still rebuilt frozensets themselves and
``reduce_pair`` chained its own ``replace``/``delete_vertex``/``suppress``
calls.  Each edit now runs on one working graph, and nothing it returns or
raises may move.  Per network and operation, every call gives one line: the
argument, then either the UPN text and ``next_id`` of the result or the
exception type and message.  The file keeps the SHA-256 of those lines and
a count of the outcome kinds; the cherry-picking pairs are kept as they
are.  Re-record with
``PYTHONPATH=src python tests/test_edits_golden.py > tests/data/edits_golden.json``
only for a deliberate change of output.
"""

import hashlib
import json
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

from cutnets import (
    GenConfig,
    UndirectedNet,
    cherry_picking_sequence,
    eliminate_edge,
    random_q_cuttable,
    reduce_pair,
    subdivide,
    suppress,
)
from cutnets.errors import CutnetsError
from cutnets.formats import serialize_upn

GOLDEN = Path(__file__).parent / "data" / "edits_golden.json"


def nets() -> dict:
    """Seeded desk-scale networks, dense q = 1 ones among them, and five
    invalid containers: a degree-4 vertex, two adjacent degree-4 vertices
    that each carry a leaf, a labelled inner vertex, two degree-2 vertices
    of which one is labelled, and a degree-2 vertex whose neighbours are
    adjacent."""
    out = {}
    for s in range(16):
        cfg = GenConfig(seed=1100 + s, leaf_count=3 + s % 10, target_r=1 + s % 4,
                        target_q=1 + s % 3)
        out[f"s{cfg.seed}-n{cfg.leaf_count}-r{cfg.target_r}-q{cfg.target_q}"] = \
            random_q_cuttable(cfg)
    out["degree_four"] = UndirectedNet.build(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 5), (4, 6), (1, 7)],
        {5: "a", 6: "b", 7: "c"})
    out["two_degree_four"] = UndirectedNet.build(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (2, 6), (3, 7), (4, 8)],
        {5: "a", 6: "b", 7: "c", 8: "d"})
    out["labelled_inner"] = UndirectedNet.build(
        [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (3, 6)], {3: "x", 4: "a", 5: "b", 6: "c"})
    out["degree_two"] = UndirectedNet.build(
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8)],
        {4: "x", 6: "a", 7: "b", 8: "c"})
    out["triangle"] = UndirectedNet.build([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5)],
                                          {4: "a", 5: "b"})
    return out


FAILURES = (CutnetsError, ValueError, KeyError)


def failure(exc) -> str:
    text = str(exc)
    if "values to unpack" in text:   # the interpreter words these per version
        text = "values to unpack"
    return f"{type(exc).__name__}: {text}"


def outcome(call) -> tuple[str, str]:
    """(kind, text) of one call: the result, or the exception it raised."""
    try:
        result = call()
    except FAILURES as exc:
        return type(exc).__name__, failure(exc)
    extra = ""
    if isinstance(result, tuple):   # subdivide's (network, new vertex)
        result, vertex = result
        extra = f"vertex {vertex}\n"
    return "ok", serialize_upn(result) + f"next_id {result.next_id}\n" + extra


def summary(calls) -> dict:
    kinds = Counter()
    lines = []
    for arg, call in calls:
        kind, text = outcome(call)
        kinds[kind] += 1
        lines.append(f"{arg}\n{text}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"sha256": digest, "outcomes": dict(sorted(kinds.items()))}


def record_net(net) -> dict:
    labels = sorted(net.labels())
    try:
        seq = cherry_picking_sequence(net)
        pairs = None if seq is None else [list(p) for p in seq.pairs]
    except FAILURES as exc:
        pairs = failure(exc)
    return {
        "subdivide": summary((e, lambda e=e: subdivide(net, e)) for e in sorted(net.edges)),
        "suppress": summary((v, lambda v=v: suppress(net, v)) for v in sorted(net.vertices)),
        "eliminate_edge": summary((e, lambda e=e: eliminate_edge(net, e))
                                  for e in sorted(net.edges)),
        "reduce_pair": summary((p, lambda p=p: reduce_pair(net, p))
                               for p in permutations(labels, 2)),
        "cherry_picking_sequence": pairs,
    }


def record() -> dict:
    # a JSON round trip turns tuples into lists, as in the recorded file
    return json.loads(json.dumps({name: record_net(net) for name, net in nets().items()}))


def test_outputs_match_recorded_golden():
    golden = json.loads(GOLDEN.read_text())
    got = record()
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name


def test_golden_reaches_every_outcome():
    kinds = {op: set() for op in ("subdivide", "suppress", "eliminate_edge", "reduce_pair")}
    for entry in json.loads(GOLDEN.read_text()).values():
        for op in kinds:
            kinds[op] |= set(entry[op]["outcomes"])
    assert kinds["subdivide"] == {"ok"}
    assert {"ok", "NotDegreeTwo", "WouldCreateParallelEdge", "ValueError"} <= kinds["suppress"]
    assert {"ok", "IsCutEdge", "NotDegreeTwo", "WouldCreateParallelEdge",
            "EndpointIsLeaf"} <= kinds["eliminate_edge"]
    assert {"ok", "NotReducible"} <= kinds["reduce_pair"]


if __name__ == "__main__":
    # one line per network and operation keeps the file readable in a diff
    sections = []
    for name, entry in record().items():
        rows = ",\n".join(f"  {json.dumps(op)}: {json.dumps(value)}" for op, value in entry.items())
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    sys.stdout.write("{\n" + ",\n".join(sections) + "\n}\n")
