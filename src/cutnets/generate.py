"""Seeded deterministic generators for fixtures and property tests."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cuttable import is_q_cuttable
from .errors import InvalidN, WouldCreateParallelEdge
from .nets import UndirectedNet, canon_edge, eliminate_edge, subdivide
from .sat import CnfInstance, validate_2balanced


@dataclass(frozen=True)
class GenConfig:
    seed: int
    leaf_count: int
    target_r: int = 0
    target_q: int = 1

    def __post_init__(self):
        if self.leaf_count < 2:
            raise ValueError("need at least 2 leaves")
        if self.target_r > 0 and self.leaf_count < 3:
            # no simple binary network has 2 leaves and r = 1, and the handle
            # scheme needs two distinct tree edges anyway
            raise ValueError("reticulations need at least 3 leaves")
        if self.target_q < 1:
            raise ValueError("target_q must be >= 1")
        if self.target_r < 0:
            raise ValueError("target_r must be >= 0")


def random_tree(labels, seed: int) -> UndirectedNet:
    """Random binary tree by sequential leaf attachment; deterministic per seed."""
    labels = sorted(labels)
    if len(labels) < 2:
        raise ValueError("need at least 2 labels")
    rng = random.Random(seed)
    net = UndirectedNet({1, 2}, {(1, 2)}, {1: labels[0], 2: labels[1]})
    for label in labels[2:]:
        edge = rng.choice(net.sorted_edges())
        net, mid = subdivide(net, edge)
        leaf = net.next_id
        net = net.replace(
            vertices=net.vertices | {leaf},
            edges=net.edges | {canon_edge(mid, leaf)},
            leaf_labels={**net.leaf_labels, leaf: label},
            next_id=leaf + 1,
        )
    return net


def make_q_cuttable(net: UndirectedNet, q: int, seed: int = 0) -> UndirectedNet:
    """Insert leaf-decorated q-vertex paths into witness cycles until the
    recognizer accepts.  Insertions never create cycles, so this terminates;
    fresh leaves use the reserved ``aug_`` prefix."""
    counter = 1 + sum(1 for lab in net.labels() if lab.startswith("aug_"))
    while True:
        report = is_q_cuttable(net, q)
        if report.is_cuttable:
            return net
        cycle = report.witness_cycle
        edges = sorted(canon_edge(cycle[i], cycle[(i + 1) % len(cycle)])
                       for i in range(len(cycle)))
        attach, far = edges[0]
        for _ in range(q):
            net, mid = subdivide(net, canon_edge(attach, far))
            leaf = net.next_id
            net = net.replace(
                vertices=net.vertices | {leaf},
                edges=net.edges | {canon_edge(mid, leaf)},
                leaf_labels={**net.leaf_labels, leaf: f"aug_{counter}"},
                next_id=leaf + 1,
            )
            counter += 1
            attach = mid


def random_q_cuttable(config: GenConfig) -> UndirectedNet:
    """Random tree, then reticulation handles, then chain insertion until
    the target cuttability holds; reticulation number equals target_r."""
    labels = [f"t{i}" for i in range(1, config.leaf_count + 1)]
    rng = random.Random(config.seed)
    net = random_tree(labels, rng.randrange(2**32))
    for _ in range(config.target_r):
        e1, e2 = rng.sample(net.sorted_edges(), 2)
        net, m1 = subdivide(net, e1)
        net, m2 = subdivide(net, e2)
        net = net.replace(edges=net.edges | {canon_edge(m1, m2)})
    return make_q_cuttable(net, config.target_q, rng.randrange(2**32))


def sample_displayed_tree(net: UndirectedNet, seed: int) -> UndirectedNet:
    """Eliminate random non-cut edges down to a tree; the result is displayed
    by the input since every elimination preserves display upward."""
    rng = random.Random(seed)
    while net.reticulation_number() > 0:
        candidates = sorted(net.edges - net.cut_edges())
        rng.shuffle(candidates)
        for e in candidates:
            try:
                net = eliminate_edge(net, e)
                break
            except WouldCreateParallelEdge:
                continue
        else:
            raise WouldCreateParallelEdge("every non-cut edge elimination would "
                                          "create a parallel edge")
    return net


def random_2balanced_cnf(n: int, seed: int) -> CnfInstance:
    """Random 2-balanced instance: shuffle the 4n signed occurrence slots into
    clauses of three, resampling until no clause repeats a variable."""
    if n % 3 != 0 or n <= 0:
        raise InvalidN("variable count must be a positive multiple of 3")
    rng = random.Random(seed)
    slots = [i for i in range(1, n + 1) for _ in range(2)]
    slots += [-i for i in range(1, n + 1) for _ in range(2)]
    while True:
        rng.shuffle(slots)
        clauses = [tuple(slots[i:i + 3]) for i in range(0, len(slots), 3)]
        if all(len({abs(l) for l in clause}) == 3 for clause in clauses):
            cnf = CnfInstance(n, tuple(clauses))
            report = validate_2balanced(cnf)
            if not report.ok:
                raise AssertionError("generator produced an unbalanced instance: "
                                     + "; ".join(report.violations))
            return cnf
