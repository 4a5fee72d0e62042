"""Outputs of the callers of the shared graph helpers, pinned to a recorded file.

``tests/data/paths_golden.json`` was recorded when each module still had its
own union-find, component search, tree-path walk and topological sort.  The
union-find rule fixes the vertex ids of the SAT reduction, the BFS orders fix
which orientation, witness cycle and embedding is found first, so every
field must still match exactly.  Re-record with
``PYTHONPATH=src python tests/test_golden_paths.py > tests/data/paths_golden.json``
only for a deliberate change of output.
"""

import hashlib
import json
import sys
from pathlib import Path

from cutnets import (
    GenConfig,
    brute_force_tree_child_orientation,
    display_oracle,
    is_q_cuttable,
    random_2balanced_cnf,
    random_q_cuttable,
    random_tree,
    sample_displayed_tree,
    tree_child_orient_2cuttable,
)
from cutnets.formats import serialize_enewick, serialize_upn
from cutnets.reference import simple_cycles
from cutnets.sat import build_u_phi, serialize_gmap

GOLDEN = Path(__file__).parent / "data" / "paths_golden.json"


def _nets(seed0, count, leaves, r, q):
    for seed in range(seed0, seed0 + count):
        cfg = GenConfig(seed=seed, leaf_count=leaves(seed), target_r=r(seed), target_q=q)
        yield seed, random_q_cuttable(cfg)


def record_u_phi():
    out = {}
    for n in range(3, 31, 3):
        for seed in (1, 2):
            net, gmap = build_u_phi(random_2balanced_cnf(n, seed))
            text = serialize_upn(net) + serialize_gmap(gmap)
            out[f"n{n}-s{seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def record_orientations():
    nets = _nets(700, 12, lambda s: 4 + s % 9 * 3, lambda s: 1 + s % 6, 2)
    return {str(seed): serialize_enewick(tree_child_orient_2cuttable(net))
            for seed, net in nets}


def record_witness_cycles():
    out = {}
    for seed, net in _nets(720, 12, lambda s: 5 + s % 8 * 2, lambda s: 2 + s % 5, 1):
        out[str(seed)] = {str(q): list(is_q_cuttable(net, q).witness_cycle or ())
                          for q in (2, 3, 4, 5)}
    return out


def record_simple_cycles():
    nets = _nets(740, 10, lambda s: 4 + s % 5, lambda s: 1 + s % 5, 1)
    return {str(seed): [list(c) for c in simple_cycles(net)] for seed, net in nets}


def record_brute_force():
    out = {}
    for seed, net in _nets(760, 30, lambda s: 3 + s % 2, lambda s: 1 + s % 2, 1):
        if len(net.edges) <= 16:
            found = brute_force_tree_child_orientation(net)
            out[str(seed)] = None if found is None else serialize_enewick(found)
    return out


def record_embeddings():
    out = {}
    for seed, net in _nets(780, 16, lambda s: 4 + s % 3, lambda s: 1 + s % 3, 3):
        tree = sample_displayed_tree(net, seed) if seed % 2 == 0 else \
            random_tree(sorted(net.labels()), seed)
        emb = display_oracle(tree, net)
        out[str(seed)] = None if emb is None else {
            "vertex_map": sorted(emb.vertex_map.items()),
            "edge_map": sorted([list(e), list(p)] for e, p in emb.edge_map.items()),
        }
    return out


RECORDERS = {
    "u_phi_sha256": record_u_phi,
    "tree_child_orient_2cuttable": record_orientations,
    "witness_cycles": record_witness_cycles,
    "simple_cycles": record_simple_cycles,
    "brute_force_tree_child_orientation": record_brute_force,
    "display_oracle": record_embeddings,
}


def record() -> dict:
    # a JSON round trip turns tuples into lists, as in the recorded file
    return json.loads(json.dumps({name: fn() for name, fn in RECORDERS.items()}))


def test_outputs_match_recorded_golden():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(RECORDERS)
    got = record()
    for name in RECORDERS:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    # one line per instance keeps the file readable in a diff
    sections = []
    for name, section in record().items():
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in section.items())
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    sys.stdout.write("{\n" + ",\n".join(sections) + "\n}\n")
