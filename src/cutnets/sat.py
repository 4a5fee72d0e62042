"""2-Balanced 3-SAT instances and the reduction to Tree-Child Orientation.

The reduction composes two gadgets into one unrooted network per formula:

* connection gadget: a 4-cycle u-v-w'-w with two pendant leaves and two
  terminals; in any tree-child orientation whose root lies outside, flow
  runs terminal-to-terminal and can be forced either way,
* reticulation gadget: a rigid block that admits exactly one orientation
  pattern (up to its internal mirror symmetry), pinning arcs (w,r), (w',r),
  (r,t) and (s,u).

Leaf labels are structured strings scoped by gadget role, so a gadget map
survives serialization round trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    InconsistentGadgetState,
    NotTreeChild,
    NotTwoBalanced,
    ParseError,
    UnsatisfiedAssignment,
    parse_id,
    token_column,
)
from .nets import (
    RootedNet,
    UndirectedNet,
    UnionFind,
    ValidationReport,
    canon_edge,
)
from .orient import _assert_tree_child, _hang_root, is_tree_child

Assignment = dict[int, bool]


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula with 3-literal clauses; literals are signed 1-based ints."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def occurrences(self) -> tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
        """Positions (clause j, slot k), 1-based, of positive and negative
        occurrences per variable, in clause order."""
        pos: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, self.n + 1)}
        neg: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, self.n + 1)}
        for j, clause in enumerate(self.clauses, start=1):
            for k, lit in enumerate(clause, start=1):
                (pos if lit > 0 else neg).setdefault(abs(lit), []).append((j, k))
        return pos, neg

    @property
    def m(self) -> int:
        return len(self.clauses)


def validate_2balanced(cnf: CnfInstance) -> ValidationReport:
    """Empty report iff every clause has 3 literals and every variable occurs
    exactly twice positively and twice negatively."""
    bad = []
    for j, clause in enumerate(cnf.clauses, start=1):
        if len(clause) != 3:
            bad.append(f"clause {j} has {len(clause)} literals, expected 3")
        for lit in clause:
            if lit == 0 or abs(lit) > cnf.n:
                bad.append(f"clause {j} uses literal {lit} outside 1..{cnf.n}")
    if 3 * cnf.m != 4 * cnf.n:
        bad.append(f"occurrence count mismatch: 3m={3 * cnf.m} but 4n={4 * cnf.n}")
    pos, neg = cnf.occurrences()
    for i in range(1, cnf.n + 1):
        if len(pos.get(i, ())) != 2:
            bad.append(f"variable {i} occurs positively {len(pos.get(i, ()))} times, expected 2")
        if len(neg.get(i, ())) != 2:
            bad.append(f"variable {i} occurs negatively {len(neg.get(i, ()))} times, expected 2")
    return ValidationReport(tuple(bad))


def assignment_satisfies(cnf: CnfInstance, assignment: Assignment) -> bool:
    def value(lit: int) -> bool:
        return assignment[lit] if lit > 0 else not assignment[-lit]

    return all(i in assignment for i in range(1, cnf.n + 1)) and all(
        any(value(lit) for lit in clause) for clause in cnf.clauses
    )


# --- gadget shapes --------------------------------------------------------------
#
# Each gadget is its vertex names, in the order its ids are handed out, and
# one arc table; its edges are the arcs with the direction dropped.

CONNECTION_VERTICES = ("s", "t", "u", "v", "w", "wp", "l", "lp")
RETICULATION_VERTICES = ("s", "t", "u", "v", "vp", "w", "wp", "r", "l", "lp")

# Orientation with flow s -> t; the internal reticulation is w, whose child is
# the leaf, so the t-terminal may safely become a reticulation outside.
CONNECTION_FORWARD_ARCS = (
    ("s", "u"), ("u", "v"), ("u", "w"), ("v", "wp"),
    ("wp", "w"), ("v", "t"), ("w", "l"), ("wp", "lp"),
)

# Mirror image with flow t -> s, under the automorphism that swaps the two
# terminals and the two sides of the 4-cycle.
_MIRROR = {"s": "t", "t": "s", "u": "v", "v": "u", "w": "wp", "wp": "w", "l": "lp", "lp": "l"}
CONNECTION_BACKWARD_ARCS = tuple((_MIRROR[a], _MIRROR[b]) for a, b in CONNECTION_FORWARD_ARCS)

# The single admissible pattern (one of the two mirror images): reticulations
# at vp and r, with the forced arcs (w,r), (wp,r), (r,t), (s,u).
RETICULATION_ARCS = (
    ("s", "u"), ("u", "v"), ("u", "vp"), ("v", "vp"), ("v", "w"), ("vp", "wp"),
    ("w", "r"), ("wp", "r"), ("r", "t"), ("w", "l"), ("wp", "lp"),
)


# --- gadget map -------------------------------------------------------------------

@dataclass(frozen=True)
class Gadget:
    name: str            # "Rr", "R3", "C2_1", "G1_2"
    kind: str            # "reticulation" | "connection"
    vertex_ids: dict[str, int]


@dataclass(frozen=True)
class GadgetMap:
    gadgets: tuple[Gadget, ...]
    named: dict[str, int]   # p<k>, z<j>, lit<j>_<k>, r<i>_<h>, lr, lrp

    @property
    def variable_count(self) -> int:
        best = 0
        for g in self.gadgets:
            if g.name.startswith("G"):
                best = max(best, int(g.name[1:].split("_")[0]))
        return best


def serialize_gmap(gmap: GadgetMap) -> str:
    out = ["GMAP/1"]
    for g in gmap.gadgets:
        pairs = " ".join(f"{name}={vid}" for name, vid in sorted(g.vertex_ids.items()))
        out.append(f"G {g.name} {g.kind} {pairs}")
    for role in sorted(gmap.named):
        out.append(f"N {role} {gmap.named[role]}")
    return "\n".join(out) + "\n"


# the gadget names ``build_u_phi`` gives: Rr, R<k>, C<j>_<k> and G<i>_<h>;
# ``variable_count`` reads the numbers with ``int``, which takes at most 4300
# digits
_GADGET_NAME_RE = re.compile(r"Rr|R[0-9]{1,4300}|[CG][0-9]{1,4300}_[0-9]{1,4300}")


def parse_gmap(text: str) -> GadgetMap:
    # (line number, line, text) of each line that is not blank once its comment is cut
    lines = [(lineno, raw, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())]
    if not lines or lines[0][2] != "GMAP/1":
        raise ParseError("expected header 'GMAP/1'", lines[0][0] if lines else 1, 1)
    gadgets = []
    named = {}
    for lineno, raw, line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "G":
            if len(tokens) < 4:
                raise ParseError("G record takes a name, a kind and vertex pairs", lineno, 1)
            if not _GADGET_NAME_RE.fullmatch(tokens[1]):
                raise ParseError(f"bad gadget name {tokens[1]!r}", lineno, 1)
            vertex_ids = {}
            for i, pair in enumerate(tokens[3:], start=3):
                name, eq, vid = pair.partition("=")
                if not eq:
                    raise ParseError(f"bad vertex pair {pair!r}", lineno, token_column(raw, i))
                vertex_ids[name] = parse_id(vid, raw, i, lineno, len(name) + 1)
            gadgets.append(Gadget(tokens[1], tokens[2], vertex_ids))
        elif tokens[0] == "N":
            if len(tokens) != 3:
                raise ParseError("N record takes a role and an id", lineno, 1)
            named[tokens[1]] = parse_id(tokens[2], raw, 2, lineno)
        else:
            raise ParseError(f"unknown record type {tokens[0]!r}", lineno, 1)
    return GadgetMap(tuple(gadgets), named)


# --- the reduction ------------------------------------------------------------------

class _Builder(UnionFind):
    """Mutable scratch graph, frozen at the end.

    Vertices are identified by union; the smaller id survives, so the ids of
    the frozen network do not depend on the order of identifications.
    """

    def __init__(self):
        super().__init__(())
        self._next = 1
        self.edges: list[tuple[int, int]] = []
        self.labels: dict[int, str] = {}

    def fresh(self, count: int = 1):
        ids = tuple(range(self._next, self._next + count))
        self._next += count
        for i in ids:
            self.add(i)
        return ids if count > 1 else ids[0]

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def leaf(self, label: str) -> int:
        v = self.fresh()
        self.labels[v] = label
        return v

    def freeze(self) -> UndirectedNet:
        resolved = set()
        edges = set()
        for a, b in self.edges:
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                raise AssertionError(f"identification produced a self-loop at {ra}")
            e = canon_edge(ra, rb)
            if e in edges:
                raise AssertionError(f"identification produced a parallel edge {e}")
            edges.add(e)
            resolved.add(ra)
            resolved.add(rb)
        labels = {self.find(v): lab for v, lab in self.labels.items()}
        return UndirectedNet._trusted(frozenset(resolved), frozenset(edges), labels, self._next)


def _instantiate(builder: _Builder, kind: str, name: str, records: list) -> dict[str, int]:
    if kind == "connection":
        vertices, arcs = CONNECTION_VERTICES, CONNECTION_FORWARD_ARCS
    else:
        vertices, arcs = RETICULATION_VERTICES, RETICULATION_ARCS
    ids = {vn: builder.fresh() for vn in vertices}
    for a, b in arcs:
        builder.edge(ids[a], ids[b])
    builder.labels[ids["l"]] = f"{name}_l"
    builder.labels[ids["lp"]] = f"{name}_lp"
    records.append((name, kind, ids))
    return ids


def build_u_phi(cnf: CnfInstance) -> tuple[UndirectedNet, GadgetMap]:
    """The Tree-Child Orientation instance for a 2-balanced formula.

    Uses 1+2n reticulation gadgets (one root gadget plus one per variable
    terminal) and 3m+2n connection gadgets (three per clause, two per
    variable), glued by vertex identification.  Occurrence pairing is fixed:
    the first variable gadget takes each variable's first positive and first
    negative occurrence in clause order, the second takes the seconds.
    """
    report = validate_2balanced(cnf)
    if not report.ok:
        raise NotTwoBalanced("; ".join(report.violations))
    n, m = cnf.n, cnf.m
    nr = 1 + 2 * n
    builder = _Builder()
    records: list = []
    named: dict[str, int] = {}

    # root gadget
    root_gadget = _instantiate(builder, "reticulation", "Rr", records)
    ring = {k: _instantiate(builder, "reticulation", f"R{k}", records) for k in range(1, nr)}
    path = {k: builder.fresh() for k in range(1, nr - 1)}
    for k, v in path.items():
        named[f"p{k}"] = v
    builder.union(root_gadget["t"], path[1])
    lr = builder.leaf("lr")
    lrp = builder.leaf("lrp")
    named["lr"] = lr
    named["lrp"] = lrp
    builder.edge(root_gadget["s"], lr)
    builder.edge(root_gadget["s"], lrp)
    for k in range(1, nr - 1):
        builder.union(ring[k]["s"], path[k])
    builder.union(ring[nr - 1]["s"], path[nr - 2])
    for k in range(1, nr - 2):
        builder.edge(path[k], path[k + 1])

    # clause gadgets
    lit_vertex: dict[tuple[int, int], int] = {}
    for j in range(1, m + 1):
        z = builder.fresh()
        named[f"z{j}"] = z
        for k in range(1, 4):
            lit = builder.fresh()
            lit_vertex[(j, k)] = lit
            named[f"lit{j}_{k}"] = lit
            ell = builder.leaf(f"cl{j}_{k}")
            gadget = _instantiate(builder, "connection", f"C{j}_{k}", records)
            builder.edge(lit, gadget["t"])
            builder.edge(gadget["t"], ell)
            builder.union(gadget["s"], z)

    # variable gadgets
    var_gadgets: dict[tuple[int, int], dict[str, int]] = {}
    r_vertex: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        g1 = _instantiate(builder, "connection", f"G{i}_1", records)
        g2 = _instantiate(builder, "connection", f"G{i}_2", records)
        var_gadgets[(i, 1)], var_gadgets[(i, 2)] = g1, g2
        r1, r2 = builder.fresh(), builder.fresh()
        r_vertex[(i, 1)], r_vertex[(i, 2)] = r1, r2
        named[f"r{i}_1"], named[f"r{i}_2"] = r1, r2
        builder.edge(g1["s"], r2)
        builder.edge(r2, g2["t"])
        builder.edge(g1["t"], r1)
        builder.edge(r1, g2["s"])

    # connect root, clause, and variable gadgets
    pos, neg = cnf.occurrences()
    for i in range(1, n + 1):
        for h in (1, 2):
            builder.union(r_vertex[(i, h)], ring[2 * (i - 1) + h]["t"])
        for h, (j, k) in zip((1, 2), pos[i]):
            builder.union(var_gadgets[(i, h)]["s"], lit_vertex[(j, k)])
        for h, (j, k) in zip((1, 2), neg[i]):
            builder.union(var_gadgets[(i, h)]["t"], lit_vertex[(j, k)])

    net = builder.freeze()
    gadgets = tuple(
        Gadget(name, kind, {vn: builder.find(v) for vn, v in ids.items()})
        for name, kind, ids in records
    )
    named = {role: builder.find(v) for role, v in named.items()}
    return net, GadgetMap(gadgets, named)


def build_n_phi(cnf: CnfInstance, assignment: Assignment) -> RootedNet:
    """Tree-child orientation of the reduction network under a satisfying
    assignment: root above the lr leaf, rigid reticulation gadgets, variable
    gadgets oriented by truth value, clause gadgets by literal evaluation
    (with the all-true clause case split to keep the hub's in-degree at 2)."""
    return _orient_u_phi(cnf, assignment, *build_u_phi(cnf))


def _orient_u_phi(cnf: CnfInstance, assignment: Assignment, net: UndirectedNet,
                  gmap: GadgetMap) -> RootedNet:
    """``build_n_phi`` on the network and gadget map that ``build_u_phi``
    built for ``cnf``, for a caller that keeps them."""
    if not assignment_satisfies(cnf, assignment):
        raise UnsatisfiedAssignment("assignment does not satisfy the formula")
    n, m = cnf.n, cnf.m
    nr = 1 + 2 * n
    oriented: dict[tuple[int, int], tuple[int, int]] = {}

    def orient(a: int, b: int) -> None:
        e = canon_edge(a, b)
        if e not in net.edges:
            raise AssertionError(f"orienting a non-edge {e}")
        if oriented.get(e, (a, b)) != (a, b):
            raise AssertionError(f"conflicting orientation for {e}")
        oriented[e] = (a, b)

    def apply_pattern(ids: dict[str, int], arcs) -> None:
        for a, b in arcs:
            orient(ids[a], ids[b])

    def value(lit: int) -> bool:
        return assignment[lit] if lit > 0 else not assignment[-lit]

    ids = {g.name: g.vertex_ids for g in gmap.gadgets}
    retic_vertices = set()
    for g in gmap.gadgets:
        if g.kind == "reticulation":
            apply_pattern(g.vertex_ids, RETICULATION_ARCS)
            retic_vertices.update(g.vertex_ids.values())

    for k in range(1, nr - 2):
        orient(gmap.named[f"p{k}"], gmap.named[f"p{k + 1}"])

    for k in range(1, nr):
        tau = ids[f"R{k}"]["t"]
        for x in net.neighbors(tau):
            if x not in retic_vertices:
                orient(tau, x)

    for i in range(1, n + 1):
        pattern = CONNECTION_FORWARD_ARCS if assignment[i] else CONNECTION_BACKWARD_ARCS
        for h in (1, 2):
            apply_pattern(ids[f"G{i}_{h}"], pattern)

    for j, clause in enumerate(cnf.clauses, start=1):
        values = [value(lit) for lit in clause]
        for k in range(1, 4):
            orient(gmap.named[f"lit{j}_{k}"], ids[f"C{j}_{k}"]["t"])
            if all(values):
                pattern = CONNECTION_FORWARD_ARCS if k <= 2 else CONNECTION_BACKWARD_ARCS
            else:
                pattern = CONNECTION_FORWARD_ARCS if values[k - 1] else CONNECTION_BACKWARD_ARCS
            apply_pattern(ids[f"C{j}_{k}"], pattern)

    lr = gmap.named["lr"]
    s_root = ids["Rr"]["s"]
    root_edge = canon_edge(s_root, lr)
    for leaf in net.leaves():
        if leaf == lr:
            continue
        (neighbor,) = net.neighbors(leaf)
        orient(neighbor, leaf)

    missing = net.edges - set(oriented) - {root_edge}
    if missing:
        raise AssertionError(f"unoriented edges remain: {sorted(missing)}")
    rooted = _hang_root(net, root_edge, (arc for e, arc in oriented.items() if e != root_edge))
    _assert_tree_child(rooted, "orientation is not a valid rooted network: ",
                       "orientation is not tree-child")
    return rooted


def extract_assignment(net: RootedNet, gmap: GadgetMap) -> Assignment:
    """Read a satisfying assignment off a tree-child orientation of the
    reduction network.

    A variable is True when both t-terminals of its connection gadgets are
    reticulations and False when both s-terminals are; anything else means
    the input was not a tree-child orientation of the recorded network.
    Terminals are located through the structured leaf labels, so the input
    may have been round-tripped through eNewick (vertex ids need not match
    the gadget map).
    """
    if not is_tree_child(net):
        raise NotTreeChild("input is not a tree-child network")

    undirected = {v: {*cs, *net.pred[v]} for v, cs in net.succ.items()}

    def locate_terminals(gadget_name: str) -> tuple[int, int]:
        try:
            leaf_l = net.vertex_of_label(f"{gadget_name}_l")
            leaf_lp = net.vertex_of_label(f"{gadget_name}_lp")
        except KeyError as exc:
            raise InconsistentGadgetState(
                f"gadget leaf {exc.args[0]} is missing from the network") from None
        (w,) = undirected[leaf_l]
        (wp,) = undirected[leaf_lp]
        candidates_u = undirected[w] - {leaf_l, wp}
        if len(candidates_u) != 1:
            raise InconsistentGadgetState(f"cannot locate u in {gadget_name}")
        (u,) = candidates_u
        candidates_v = (undirected[u] & undirected[wp]) - {w}
        if len(candidates_v) != 1:
            raise InconsistentGadgetState(f"cannot locate v in {gadget_name}")
        (v,) = candidates_v
        (s,) = undirected[u] - {v, w}
        (t,) = undirected[v] - {u, wp}
        return s, t

    assignment: Assignment = {}
    for i in range(1, gmap.variable_count + 1):
        s_retic = []
        t_retic = []
        for h in (1, 2):
            s, t = locate_terminals(f"G{i}_{h}")
            s_retic.append(len(net.pred[s]) >= 2)
            t_retic.append(len(net.pred[t]) >= 2)
        if all(t_retic) and not any(s_retic):
            assignment[i] = True
        elif all(s_retic) and not any(t_retic):
            assignment[i] = False
        else:
            raise InconsistentGadgetState(
                f"variable {i}: terminal reticulation pattern is mixed "
                f"(s={s_retic}, t={t_retic})")
    return assignment
