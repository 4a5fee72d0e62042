"""The four benchmark workloads: seeded inputs, the timed op and its check.

Every workload keeps three size classes. An op is one user-level request and
always starts from serialized text or another cache-free value, so the
per-object caches of ``UndirectedNet`` never carry over from one op to the
next. ``check`` runs outside the timed span and must not share work with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cutnets import containment, cuttable, formats, generate, nets, orient, sat
from cutnets.generate import GenConfig


@dataclass(frozen=True)
class Item:
    """One op input: its size class, actual size (|X| or n), data and expectation."""
    cls: int
    size: int
    data: tuple
    expect: object
    primary: bool = True   # the contain no-instances are not primary


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def clause_satisfied(clause, beta) -> bool:
    return any(beta[abs(lit)] == (lit > 0) for lit in clause)


def plant_assignment(cnf, rng: random.Random, max_flips: int = 20_000) -> dict[int, bool] | None:
    """Seeded random-walk local search for a satisfying assignment."""
    beta = {v: rng.random() < 0.5 for v in range(1, cnf.n + 1)}
    for _ in range(max_flips):
        unsat = [c for c in cnf.clauses if not clause_satisfied(c, beta)]
        if not unsat:
            return beta
        var = abs(rng.choice(rng.choice(unsat)))
        beta[var] = not beta[var]
    return None


class Workload:
    """Base: ``classes`` are the size targets and ``pool`` the inputs per
    class; a run covers the whole pool at least once. Set-up warms up on
    ``warmup`` smallest-class inputs. ``mem_items`` ops of class
    ``mem_class`` are re-run under tracemalloc and ``cli_samples`` CLI
    requests are timed."""
    name = ""
    classes: tuple[int, ...] = ()
    pool = 1
    warmup = 1
    mem_class = 2
    mem_items = 1
    cli_samples = 15

    def make(self, rng: random.Random, cls: int, index: int) -> list[Item]:
        raise NotImplementedError

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> bool:
        raise NotImplementedError

    def events(self, out) -> dict[str, int]:
        """Per-op event counts the traced run reports (none by default)."""
        return {}

    def cli_request(self, item: Item, work) -> list[tuple[list[str], int, str]]:
        """Commands of one timed CLI request: (arguments, exit code, stdout needle)."""
        raise NotImplementedError

    def cli_extra(self, items: list[Item], work) -> list[tuple[list[str], int, str]]:
        """Commands run once for their exit code, outside the CLI timing."""
        return []


class Contain(Workload):
    name = "contain"
    classes = (16, 32, 48)
    pool = 20
    warmup = 8
    mem_items = 5   # trace snapshots make the peak vary between networks

    def make(self, rng, cls, index):
        leaves = self.classes[cls]
        while True:   # the no-instance needs a non-trivial cut-edge
            net = generate.random_q_cuttable(GenConfig(
                seed=_seed(rng), leaf_count=leaves, target_r=leaves // 8, target_q=3))
            nontrivial = sorted(net.cut_edges() - net.trivial_cut_edges())
            if nontrivial:
                break
        tree = generate.sample_displayed_tree(net, _seed(rng))
        # Swapping two leaves across a non-trivial cut-edge A|B replaces the
        # tree's split A|B by one incompatible with it, so the result is not
        # displayed: every displayed tree carries the split of a cut-edge.
        split = nets.split_of_cut_edge(net, rng.choice(nontrivial))
        a = rng.choice(sorted(split.side_a))
        b = rng.choice(sorted(split.side_b))
        labels = dict(tree.leaf_labels)
        va, vb = tree.vertex_of_label(a), tree.vertex_of_label(b)
        labels[va], labels[vb] = b, a
        swapped = tree.replace(leaf_labels=labels)
        net_text = formats.serialize_upn(net)
        size = len(net.leaf_labels)
        return [
            Item(cls, size, (formats.serialize_newick_tree(tree), net_text), True),
            Item(cls, size, (formats.serialize_newick_tree(swapped), net_text), False,
                 primary=False),
        ]

    def op(self, item):
        tree_text, net_text = item.data
        tree = formats.parse_newick_tree(tree_text)
        net = formats.parse_upn(net_text)
        verdict, trace = containment.three_cuttable_tc(tree, net)
        return verdict, containment.serialize_trace(trace)

    def check(self, item, out):
        verdict, trace_text = out
        last = trace_text.rstrip("\n").rsplit("\n", 1)[-1]
        return verdict is item.expect and last == ("YES" if item.expect else "NO")

    def events(self, out):
        counts: dict[str, int] = {}
        for line in out[1].splitlines()[1:]:
            kind = line.split(" ", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def cli_request(self, item, work):
        tree, net = work / "tree.nwk", work / "net.upn"
        tree.write_text(item.data[0])
        net.write_text(item.data[1])
        return [(["contain", str(tree), str(net)], 0, "displays: yes")]

    def cli_extra(self, items, work):
        no = next(i for i in items if i.cls == 0 and not i.primary)
        tree, net = work / "no.nwk", work / "no.upn"
        tree.write_text(no.data[0])
        net.write_text(no.data[1])
        return [(["contain", str(tree), str(net)], 1, "displays: no")]


class Analyze(Workload):
    name = "analyze"
    classes = (256, 512, 1024)
    pool = 1   # an op's cost varies little between networks of one size
    warmup = 3

    def make(self, rng, cls, index):
        leaves = self.classes[cls]
        net = generate.random_q_cuttable(GenConfig(
            seed=_seed(rng), leaf_count=leaves, target_r=leaves // 8, target_q=2))
        return [Item(cls, len(net.leaf_labels), (formats.serialize_upn(net),), None)]

    def op(self, item):
        net = formats.parse_upn(item.data[0])
        two = cuttable.is_q_cuttable(net, 2).is_cuttable
        three = cuttable.is_q_cuttable(net, 3).is_cuttable
        net.blobs()
        net.maximal_chains()
        best = cuttable.max_cuttability(net)
        rooted = orient.tree_child_orient_2cuttable(net)
        back = formats.parse_enewick(formats.serialize_enewick(rooted))
        return net, two, three, best, rooted, back, orient.is_tree_child(back)

    def check(self, item, out):
        net, two, three, best, rooted, back, tree_child = out
        return (two and tree_child and best is not None and best >= 2
                and two == cuttable.is_q_cuttable_via_chain_deletion(net, 2)
                and three == cuttable.is_q_cuttable_via_chain_deletion(net, 3)
                and back.labels() == net.labels()
                and len(back.arcs) == len(rooted.arcs))

    def cli_request(self, item, work):
        net = work / "net.upn"
        net.write_text(item.data[0])
        return [(["orient", str(net), "-o", str(work / "out.enw")], 0, "")]


class SatRoundtrip(Workload):
    name = "sat-roundtrip"
    classes = (60, 120, 180)
    pool = 4   # an op's cost is fixed by n
    warmup = 1
    # The n=180 ops fail today; the peak of an aborted op is no measure, and
    # fixing them must not read as a memory regression.
    mem_class = 1
    cli_samples = 7   # a request is three subprocesses

    def make(self, rng, cls, index):
        n = self.classes[cls]
        beta = None
        while beta is None:   # the op needs a satisfiable formula
            cnf = generate.random_2balanced_cnf(n, _seed(rng))
            beta = plant_assignment(cnf, rng)
        return [Item(cls, n, (cnf, beta), beta)]

    def op(self, item):
        cnf, beta = item.data
        net, gmap = sat.build_u_phi(cnf)
        formats.serialize_upn(net)
        gmap = sat.parse_gmap(sat.serialize_gmap(gmap))
        rooted = sat.build_n_phi(cnf, beta)
        back = formats.parse_enewick(formats.serialize_enewick(rooted))
        return sat.extract_assignment(back, gmap)

    def check(self, item, out):
        cnf = item.data[0]
        return out == item.expect and all(clause_satisfied(c, out) for c in cnf.clauses)

    def cli_request(self, item, work):
        cnf, beta = item.data
        path = work / "f.cnf"
        path.write_text(formats.serialize_dimacs_cnf(cnf))
        truth = "".join("T" if beta[v] else "F" for v in range(1, cnf.n + 1))
        oriented, gmap = str(work / "n.enw"), str(work / "n.gmap")
        return [
            (["sat", "reduce", str(path), "-o", str(work / "u.upn"),
              "--gmap", str(work / "u.gmap")], 0, "wrote"),
            (["sat", "orient", str(path), "--assignment", truth, "-o", oriented,
              "--gmap", gmap], 0, ""),
            (["sat", "extract", oriented, "--gmap", gmap, "--cnf", str(path)], 0,
             f"assignment: {truth}"),
        ]


class Generate(Workload):
    name = "generate"
    classes = (128, 256, 512)
    pool = 12
    warmup = 12
    mem_items = 2

    def make(self, rng, cls, index):
        leaves = self.classes[cls]
        config = GenConfig(seed=_seed(rng), leaf_count=leaves, target_r=leaves // 8,
                           target_q=2 + index % 2)
        return [Item(cls, leaves, (config, _seed(rng)), None)]

    def op(self, item):
        config, tree_seed = item.data
        net = generate.random_q_cuttable(config)
        return net, generate.sample_displayed_tree(net, tree_seed)

    def check(self, item, out):
        config = item.data[0]
        net, tree = out
        return (cuttable.is_q_cuttable_via_chain_deletion(net, config.target_q)
                and net.reticulation_number() == config.target_r
                and tree.reticulation_number() == 0 and tree.is_connected()
                and tree.labels() == net.labels())

    def cli_request(self, item, work):
        config = item.data[0]
        return [(["gen", "net", "--leaves", str(config.leaf_count),
                  "--r", str(config.target_r), "--q", str(config.target_q),
                  "--seed", str(config.seed), "-o", str(work / "gen.upn")], 0, "")]


WORKLOADS = {w.name: w for w in (Contain(), Analyze(), SatRoundtrip(), Generate())}

