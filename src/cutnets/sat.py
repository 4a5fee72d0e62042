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
from itertools import chain

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
    Arc,
    RootedNet,
    UndirectedNet,
    UnionFind,
    ValidationReport,
    canon_edge,
)
from .orient import _assert_tree_child, is_tree_child

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
    """Mutable working graph of the reduction, read once it is settled.

    Vertices are identified by union; the smaller id survives, so the ids of
    the frozen network do not depend on the order of identifications.  Each
    edge is recorded as the arc that N(φ) makes of it, so U(φ) is the arcs
    with their direction dropped.
    """

    def __init__(self):
        super().__init__(())
        self._next = 1
        self.arcs: list[Arc] = []
        self.root_arc = -1   # the index in ``arcs`` of the edge s_root–lr, which ρ subdivides
        self.labels: dict[int, str] = {}
        self.gadgets: list[tuple[str, str, dict[str, int]]] = []
        self.named: dict[str, int] = {}
        self.rep: list[int] = []

    def fresh(self) -> int:
        v = self._next
        self._next = v + 1
        self.parent[v] = v
        return v

    def arc(self, a: int, b: int) -> None:
        self.arcs.append((a, b))

    def leaf(self, label: str) -> int:
        v = self.fresh()
        self.labels[v] = label
        return v

    def gadget(self, name: str, kind: str, arcs) -> dict[str, int]:
        """Lay down one gadget, its edges directed by the arc table ``arcs``."""
        vertices = CONNECTION_VERTICES if kind == "connection" else RETICULATION_VERTICES
        ids = {vn: self.fresh() for vn in vertices}
        self.arcs.extend([(ids[a], ids[b]) for a, b in arcs])
        self.labels[ids["l"]] = f"{name}_l"
        self.labels[ids["lp"]] = f"{name}_lp"
        self.gadgets.append((name, kind, ids))
        return ids

    def settle(self) -> None:
        """Find each vertex's representative once every identification is made.

        ``fresh`` adds the ids 1, 2, ... to ``parent`` in order, so its keys
        index ``rep``.  Reading the keys, not a new range, makes each id in
        the networks built from ``rep`` the int object the builder holds,
        not a second copy of it."""
        self.rep = [0, *map(self.find, self.parent)]

    def _resolved_arcs(self) -> list[Arc]:
        """The arcs between representatives, in the order they were recorded;
        raises if an identification produced a self-loop or a parallel edge."""
        rep = self.rep
        arcs = [(rep[a], rep[b]) for a, b in self.arcs]
        seen = set()
        for arc in arcs:
            a, b = arc
            if a == b:
                raise AssertionError(f"identification produced a self-loop at {a}")
            if arc in seen or (b, a) in seen:
                raise AssertionError(f"identification produced a parallel edge {canon_edge(a, b)}")
            seen.add(arc)
        return arcs

    def _resolved_labels(self) -> dict[int, str]:
        rep = self.rep
        return {rep[v]: lab for v, lab in self.labels.items()}

    def freeze(self) -> UndirectedNet:
        """U(φ)."""
        arcs = self._resolved_arcs()
        edges = frozenset([(a, b) if a < b else (b, a) for a, b in arcs])
        return UndirectedNet._trusted(frozenset(chain.from_iterable(arcs)), edges,
                                      self._resolved_labels(), self._next)

    def gadget_map(self) -> GadgetMap:
        rep = self.rep
        gadgets = tuple(Gadget(name, kind, {vn: rep[v] for vn, v in ids.items()})
                        for name, kind, ids in self.gadgets)
        return GadgetMap(gadgets, {role: rep[v] for role, v in self.named.items()})

    def orientation(self) -> tuple[frozenset[int], list[Arc], int, dict[int, str], int]:
        """The vertices, arcs, root, labels and ``next_id`` of N(φ): the
        recorded arcs, with a fresh root ρ that subdivides s_root–lr."""
        arcs = self._resolved_arcs()
        rho = self._next
        s_root, lr = arcs[self.root_arc]
        arcs[self.root_arc] = (rho, s_root)
        arcs.append((rho, lr))
        return frozenset(chain.from_iterable(arcs)), arcs, rho, self._resolved_labels(), rho + 1


def _reduction(cnf: CnfInstance, assignment: Assignment | None = None) -> _Builder:
    """U(φ) laid down gadget by gadget, each edge recorded as the arc that
    N(φ) makes of it under ``assignment``; the builder comes back settled.

    Reticulation gadgets take their one pattern.  A variable gadget points
    from its true side, a clause gadget from its literal when it is true
    (the all-true clause splits two forward, one backward, so the hub keeps
    in-degree 2); without an assignment every connection gadget points
    forward, which only U(φ) reads.  The path runs p_k → p_{k+1}, each ring
    terminal points to its connection terminals, lit_{j,k} → C_{j,k}.t, and
    each leaf hangs below its neighbour.  Raises ``NotTwoBalanced``, and
    then ``UnsatisfiedAssignment`` for an assignment that does not satisfy
    ``cnf``.
    """
    report = validate_2balanced(cnf)
    if not report.ok:
        raise NotTwoBalanced("; ".join(report.violations))
    if assignment is not None and not assignment_satisfies(cnf, assignment):
        raise UnsatisfiedAssignment("assignment does not satisfy the formula")
    n, m = cnf.n, cnf.m
    nr = 1 + 2 * n
    builder = _Builder()
    named = builder.named

    def connection(name: str, forward: bool) -> dict[str, int]:
        arcs = CONNECTION_FORWARD_ARCS if forward else CONNECTION_BACKWARD_ARCS
        return builder.gadget(name, "connection", arcs)

    def value(lit: int) -> bool:
        return assignment[lit] if lit > 0 else not assignment[-lit]

    # root gadget
    root_gadget = builder.gadget("Rr", "reticulation", RETICULATION_ARCS)
    ring = {k: builder.gadget(f"R{k}", "reticulation", RETICULATION_ARCS) for k in range(1, nr)}
    path = {k: builder.fresh() for k in range(1, nr - 1)}
    for k, v in path.items():
        named[f"p{k}"] = v
    builder.union(root_gadget["t"], path[1])
    lr = builder.leaf("lr")
    lrp = builder.leaf("lrp")
    named["lr"] = lr
    named["lrp"] = lrp
    builder.root_arc = len(builder.arcs)
    builder.arc(root_gadget["s"], lr)
    builder.arc(root_gadget["s"], lrp)
    for k in range(1, nr - 1):
        builder.union(ring[k]["s"], path[k])
    builder.union(ring[nr - 1]["s"], path[nr - 2])
    for k in range(1, nr - 2):
        builder.arc(path[k], path[k + 1])

    # clause gadgets
    lit_vertex: dict[tuple[int, int], int] = {}
    for j, clause in enumerate(cnf.clauses, start=1):
        if assignment is None:
            forward = (True, True, True)
        else:
            forward = [value(lit) for lit in clause]
            if all(forward):
                forward = (True, True, False)
        z = builder.fresh()
        named[f"z{j}"] = z
        for k in range(1, 4):
            lit = builder.fresh()
            lit_vertex[(j, k)] = lit
            named[f"lit{j}_{k}"] = lit
            ell = builder.leaf(f"cl{j}_{k}")
            gadget = connection(f"C{j}_{k}", forward[k - 1])
            builder.arc(lit, gadget["t"])
            builder.arc(gadget["t"], ell)
            builder.union(gadget["s"], z)

    # variable gadgets; r_{i,h} becomes the t-terminal of ring gadget R_{2(i-1)+h}
    var_gadgets: dict[tuple[int, int], dict[str, int]] = {}
    r_vertex: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        forward = assignment is None or assignment[i]
        g1 = connection(f"G{i}_1", forward)
        g2 = connection(f"G{i}_2", forward)
        var_gadgets[(i, 1)], var_gadgets[(i, 2)] = g1, g2
        r1, r2 = builder.fresh(), builder.fresh()
        r_vertex[(i, 1)], r_vertex[(i, 2)] = r1, r2
        named[f"r{i}_1"], named[f"r{i}_2"] = r1, r2
        builder.arc(r2, g1["s"])
        builder.arc(r2, g2["t"])
        builder.arc(r1, g1["t"])
        builder.arc(r1, g2["s"])

    # connect root, clause, and variable gadgets
    pos, neg = cnf.occurrences()
    for i in range(1, n + 1):
        for h in (1, 2):
            builder.union(r_vertex[(i, h)], ring[2 * (i - 1) + h]["t"])
        for h, (j, k) in zip((1, 2), pos[i]):
            builder.union(var_gadgets[(i, h)]["s"], lit_vertex[(j, k)])
        for h, (j, k) in zip((1, 2), neg[i]):
            builder.union(var_gadgets[(i, h)]["t"], lit_vertex[(j, k)])

    builder.settle()
    return builder


def build_u_phi(cnf: CnfInstance) -> tuple[UndirectedNet, GadgetMap]:
    """The Tree-Child Orientation instance for a 2-balanced formula.

    Uses 1+2n reticulation gadgets (one root gadget plus one per variable
    terminal) and 3m+2n connection gadgets (three per clause, two per
    variable), glued by vertex identification.  Occurrence pairing is fixed:
    the first variable gadget takes each variable's first positive and first
    negative occurrence in clause order, the second takes the seconds.
    """
    builder = _reduction(cnf)
    return builder.freeze(), builder.gadget_map()


def build_n_phi(cnf: CnfInstance, assignment: Assignment) -> RootedNet:
    """Tree-child orientation of the reduction network under a satisfying
    assignment: root above the lr leaf, rigid reticulation gadgets, variable
    gadgets oriented by truth value, clause gadgets by literal evaluation
    (with the all-true clause case split to keep the hub's in-degree at 2).

    The arcs are read off the gadget builder as it laid them down, and the
    builder is gone before N(φ) is built; U(φ) itself is never built."""
    return _self_checked(RootedNet(*_reduction(cnf, assignment).orientation()))


def _orient(cnf: CnfInstance, assignment: Assignment) -> tuple[RootedNet, GadgetMap]:
    """``build_n_phi`` and the gadget map of U(φ), from one construction."""
    builder = _reduction(cnf, assignment)
    gmap, n_phi = builder.gadget_map(), builder.orientation()
    del builder
    return _self_checked(RootedNet(*n_phi)), gmap


def _self_checked(rooted: RootedNet) -> RootedNet:
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

    succ, pred = net.succ, net.pred

    def undirected(v: int) -> set[int]:
        return {*succ[v], *pred[v]}

    def locate_terminals(gadget_name: str) -> tuple[int, int]:
        try:
            leaf_l = net.vertex_of_label(f"{gadget_name}_l")
            leaf_lp = net.vertex_of_label(f"{gadget_name}_lp")
        except KeyError as exc:
            raise InconsistentGadgetState(
                f"gadget leaf {exc.args[0]} is missing from the network") from None
        (w,) = undirected(leaf_l)
        (wp,) = undirected(leaf_lp)
        candidates_u = undirected(w) - {leaf_l, wp}
        if len(candidates_u) != 1:
            raise InconsistentGadgetState(f"cannot locate u in {gadget_name}")
        (u,) = candidates_u
        candidates_v = (undirected(u) & undirected(wp)) - {w}
        if len(candidates_v) != 1:
            raise InconsistentGadgetState(f"cannot locate v in {gadget_name}")
        (v,) = candidates_v
        (s,) = undirected(u) - {v, w}
        (t,) = undirected(v) - {u, wp}
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
