"""Seeded generator outputs, pinned to a recorded file.

``tests/data/generate_golden.json`` was recorded when every generator edit
still rebuilt an immutable ``UndirectedNet``.  The generators now edit one
private working graph, and their output must not move: the same vertex ids,
the same ``serialize_upn`` text, the same ``next_id`` and the same random
draws.  Each entry is the SHA-256 of the UPN text followed by a
``next_id`` line.  Re-record with
``PYTHONPATH=src python tests/test_generate_golden.py > tests/data/generate_golden.json``
only for a deliberate change of output.
"""

import hashlib
import json
import sys
from pathlib import Path

from cutnets import GenConfig, random_q_cuttable, random_tree, sample_displayed_tree
from cutnets.formats import serialize_upn

GOLDEN = Path(__file__).parent / "data" / "generate_golden.json"
SEEDS = (1, 2)


def digest(net) -> str:
    text = serialize_upn(net) + f"next_id {net.next_id}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def configs():
    for n in (8, 16, 64, 256, 512):
        for q in (1, 2, 3, 4):
            for r in (0, n // 8):
                for seed in SEEDS:
                    yield GenConfig(seed=seed, leaf_count=n, target_r=r, target_q=q)


def record() -> dict:
    trees = {}
    for n in (2, 3, 50, 300):
        for seed in SEEDS:
            trees[f"n{n}-s{seed}"] = digest(random_tree([f"t{i}" for i in range(1, n + 1)], seed))
    nets = {}
    displayed = {}
    for cfg in configs():
        key = f"n{cfg.leaf_count}-q{cfg.target_q}-r{cfg.target_r}-s{cfg.seed}"
        net = random_q_cuttable(cfg)
        nets[key] = digest(net)
        displayed[key] = digest(sample_displayed_tree(net, 100 + cfg.seed))
    return {"random_tree": trees, "random_q_cuttable": nets,
            "sample_displayed_tree": displayed}


def test_outputs_match_recorded_golden():
    golden = json.loads(GOLDEN.read_text())
    got = record()
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    # one line per instance keeps the file readable in a diff
    sections = []
    for name, section in record().items():
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in section.items())
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    sys.stdout.write("{\n" + ",\n".join(sections) + "\n}\n")
