"""Parsers and serializers for the on-disk formats.

Four formats live here:

* UPN/1 -- a line-oriented edge list for unrooted networks.  Newick cannot
  express unrooted reticulate graphs, so the package carries its own format:
  ``V <id>`` declares a vertex, ``L <id> <label>`` labels a leaf, and
  ``E <id> <id>`` declares an edge.  Ids are positive integers, labels match
  ``[A-Za-z0-9_.-]+``, ``#`` starts a comment, and the first significant
  line must be the header ``UPN/1``.
* extended Newick for rooted networks, with ``#H<k>`` hybrid tags.
* plain Newick for unrooted trees (the artificial root is suppressed when
  it has two children, kept when it has three).
* DIMACS CNF for SAT instances.

Serialization is canonical: equal in-memory values produce byte-identical
text.
"""

from __future__ import annotations

import re

from .errors import (
    ClauseArityError,
    CycleError,
    DegreeError,
    NotBinary,
    ParseError,
    ValidationError,
)
from .nets import (
    RootedNet,
    UndirectedNet,
    canon_edge,
    check_binary_tree,
    validate_rooted,
    validate_unrooted,
)
from .sat import CnfInstance

_LABEL_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_TAG_RE = re.compile(r"#H?(\d+)")


# --- UPN/1 ---------------------------------------------------------------------

def parse_upn(text: str) -> UndirectedNet:
    """Parse UPN/1 text into a validated unrooted network."""
    header_seen = False
    vertices: set[int] = set()
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    labels: dict[int, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not header_seen:
            if line.strip() != "UPN/1":
                raise ParseError(f"expected header 'UPN/1', found {line.strip()!r}",
                                 lineno, raw.index(line.strip()[0]) + 1)
            header_seen = True
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "V":
            if len(tokens) != 2:
                raise ParseError("V record takes exactly one id", lineno, 1)
            v = _parse_id(tokens[1], lineno, _token_col(raw, tokens[1]))
            if v in vertices:
                raise ParseError(f"vertex {v} declared twice", lineno, 1)
            vertices.add(v)
        elif kind == "L":
            if len(tokens) != 3:
                raise ParseError("L record takes an id and a label", lineno, 1)
            v = _parse_id(tokens[1], lineno, _token_col(raw, tokens[1]))
            if v not in vertices:
                raise ParseError(f"label references undeclared vertex {v}", lineno, 1)
            if v in labels:
                raise ParseError(f"vertex {v} labeled twice", lineno, 1)
            if not _LABEL_RE.fullmatch(tokens[2]):
                raise ParseError(f"bad label {tokens[2]!r}", lineno, _token_col(raw, tokens[2]))
            labels[v] = tokens[2]
        elif kind == "E":
            if len(tokens) != 3:
                raise ParseError("E record takes exactly two ids", lineno, 1)
            u = _parse_id(tokens[1], lineno, _token_col(raw, tokens[1]))
            v = _parse_id(tokens[2], lineno, _token_col(raw, tokens[2]))
            for x in (u, v):
                if x not in vertices:
                    raise ParseError(f"edge references undeclared vertex {x}", lineno, 1)
            e = canon_edge(u, v)
            if e in edge_set:
                raise ParseError(f"duplicate edge {e}", lineno, 1)
            edge_set.add(e)
            edges.append(e)
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno, _token_col(raw, kind))

    if not header_seen:
        raise ParseError("empty document (missing 'UPN/1' header)", 1, 1)
    net = UndirectedNet(vertices, edges, labels)
    report = validate_unrooted(net)
    if not report.ok:
        raise ValidationError(report.violations)
    return net


def serialize_upn(net: UndirectedNet) -> str:
    out = ["UPN/1"]
    out.extend(f"V {v}" for v in sorted(net.vertices))
    out.extend(f"L {v} {net.leaf_labels[v]}" for v in sorted(net.leaf_labels))
    out.extend(f"E {u} {v}" for u, v in sorted(net.edges))
    return "\n".join(out) + "\n"


def _parse_id(token: str, line: int, col: int) -> int:
    if not token.isdigit() or int(token) <= 0:
        raise ParseError(f"expected a positive integer id, found {token!r}", line, col)
    return int(token)


def _token_col(raw: str, token: str) -> int:
    idx = raw.find(token)
    return idx + 1 if idx >= 0 else 1


# --- Newick scanning ------------------------------------------------------------

class _Node:
    __slots__ = ("children", "label", "tag")

    def __init__(self):
        self.children = []
        self.label = None
        self.tag = None


def _linecol(text: str, idx: int) -> tuple[int, int]:
    line = text.count("\n", 0, idx) + 1
    last = text.rfind("\n", 0, idx)
    return line, idx - last


class _NewickScanner:
    def __init__(self, text: str, allow_tags: bool):
        self.text = text
        self.pos = 0
        self.allow_tags = allow_tags

    def error(self, message: str) -> ParseError:
        line, col = _linecol(self.text, min(self.pos, max(len(self.text) - 1, 0)))
        return ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def parse_document(self) -> _Node:
        root = self.parse_node()
        self.expect(";")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing text after ';'")
        return root

    def parse_node(self) -> _Node:
        """One node and its subtree; the nodes whose ``(`` is read and whose
        ``)`` is not yet are kept on a stack, innermost last."""
        open_nodes: list[_Node] = []
        while True:
            if self.peek() == "(":
                self.pos += 1
                open_nodes.append(_Node())
                continue
            node = self.parse_suffix(_Node())
            while open_nodes:
                open_nodes[-1].children.append(node)
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                node = self.parse_suffix(open_nodes.pop())
            else:
                return node

    def parse_suffix(self, node: _Node) -> _Node:
        """The optional label and hybrid tag after a node's children."""
        c = self.peek()
        m = _LABEL_RE.match(self.text, self.pos)
        if m:
            node.label = m.group(0)
            self.pos = m.end()
        elif c.isalnum():   # a letter or digit outside the label alphabet, such as 'é'
            raise self.error(f"character {c!r} is not allowed in a label")
        if self.peek() == "#":
            if not self.allow_tags:
                raise self.error("hybrid tags are not allowed in plain Newick trees")
            m = _TAG_RE.match(self.text, self.pos)
            if not m:
                raise self.error("malformed hybrid tag")
            node.tag = m.group(1)
            self.pos = m.end()
        if not node.children and node.label is None and node.tag is None:
            raise self.error("empty node")
        return node


def _materialize(spec: _Node, vid: int, enter, link) -> int:
    """Walk the subtree below ``spec`` (vertex ``vid``) as a recursive
    preorder would: ``enter(child)`` hands out each child's vertex on the way
    down, and ``link(parent, child, cid)`` runs once the child's own subtree
    is done.  Returns ``vid``."""
    stack = [(spec, vid, iter(spec.children))]
    while stack:
        child = next(stack[-1][2], None)
        if child is None:
            node, nid, _ = stack.pop()
            if stack:
                link(stack[-1][1], node, nid)
        else:
            stack.append((child, enter(child), iter(child.children)))
    return vid


def _render(root: int, expand) -> str:
    """Newick text of the subtree below ``root``.  ``expand(v)`` returns
    either the text of ``v`` itself or ``(children, close)``: the ordered
    children, written in parentheses and followed by ``close``."""
    pieces = []
    stack: list = [root]   # vertex ids and literal text, next item last
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        step = expand(item)
        if type(step) is str:
            pieces.append(step)
            continue
        children, close = step
        pieces.append("(")
        stack.append(close)
        for i, c in enumerate(reversed(children)):
            if i:
                stack.append(",")
            stack.append(c)
    return "".join(pieces)


# --- extended Newick -------------------------------------------------------------

def parse_enewick(text: str) -> RootedNet:
    """Parse an extended-Newick rooted network with #H hybrid tags."""
    top = _NewickScanner(text, allow_tags=True).parse_document()
    if len(top.children) != 2:
        raise DegreeError(f"root must have exactly two children, found {len(top.children)}")

    ids = iter(range(1, 10**9))
    tag_ids: dict[str, int] = {}
    tag_defined: dict[str, bool] = {}
    arcs: list[tuple[int, int]] = []
    # an untagged child always gets a fresh vertex, so only an arc into a
    # hybrid can repeat
    hybrid_arcs: set[tuple[int, int]] = set()
    labels: dict[int, str] = {}

    def enter(spec: _Node) -> int:
        if spec.tag is not None:
            if spec.tag not in tag_ids:
                tag_ids[spec.tag] = next(ids)
                tag_defined[spec.tag] = False
            vid = tag_ids[spec.tag]
            if spec.children or spec.label is not None:
                if tag_defined[spec.tag]:
                    raise DegreeError(f"hybrid #{spec.tag} defined twice")
                tag_defined[spec.tag] = True
        else:
            vid = next(ids)
        if spec.label is not None:
            labels[vid] = spec.label
        return vid

    def link(vid: int, child: _Node, cid: int) -> None:
        if child.tag is not None:
            if (vid, cid) in hybrid_arcs:
                raise DegreeError(f"parallel arcs ({vid},{cid})")
            hybrid_arcs.add((vid, cid))
        arcs.append((vid, cid))

    root = _materialize(top, next(ids), enter, link)
    for tag, defined in tag_defined.items():
        if not defined:
            raise DegreeError(f"hybrid #{tag} is referenced but never defined")

    vertices = {root} | {u for a in arcs for u in a}
    net = RootedNet(vertices, arcs, root, labels)
    report = validate_rooted(net)
    if not report.ok:
        if not net.is_acyclic():
            raise CycleError("; ".join(report.violations))
        if any("label" in v for v in report.violations):
            raise ValidationError(report.violations)
        raise DegreeError("; ".join(report.violations))
    return net


def serialize_enewick(net: RootedNet) -> str:
    """Canonical eNewick: children ordered by smallest reachable leaf label,
    hybrid tags numbered in traversal order."""
    labels, succ, pred = net.leaf_labels, net.succ, net.pred
    # smallest reachable leaf label, children first; None marks a vertex
    # whose children are still on the stack
    min_leaf: dict[int, str | None] = {}
    stack = list(succ[net.root])
    while stack:
        v = stack[-1]
        if v not in min_leaf:
            if v in labels:
                min_leaf[v] = labels[v]
                stack.pop()
            else:
                min_leaf[v] = None
                stack.extend(c for c in succ[v] if c not in min_leaf)
            continue
        stack.pop()
        if min_leaf[v] is None:
            keys = [min_leaf[c] for c in succ[v]]
            if None in keys:   # a child still open is an ancestor
                raise CycleError(f"directed cycle through vertex {v}")
            min_leaf[v] = min(keys)

    hybrid_no: dict[int, int] = {}

    def expand(v: int):
        if len(pred[v]) >= 2:
            if v in hybrid_no:
                return f"#H{hybrid_no[v]}"
            hybrid_no[v] = len(hybrid_no) + 1
            close = f")#H{hybrid_no[v]}"
        elif v in labels:
            return labels[v]
        else:
            close = ")"
        return sorted(succ[v], key=lambda c: (min_leaf[c], c)), close

    return _render(net.root, expand) + ";"


# --- plain Newick trees ------------------------------------------------------------

def parse_newick_tree(text: str) -> UndirectedNet:
    """Read a Newick tree as an unrooted binary tree (r = 0).

    A two-child artificial root is suppressed; a three-child root becomes an
    internal vertex.  Any other child count is not binary.
    """
    top = _NewickScanner(text, allow_tags=False).parse_document()
    ids = iter(range(1, 10**9))
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}

    def enter(spec: _Node) -> int:
        vid = next(ids)
        if spec.children:
            if len(spec.children) != 2:
                raise NotBinary(f"internal node has {len(spec.children)} children, expected 2")
            if spec.label is not None:
                raise NotBinary("internal node labels are not supported")
        else:
            labels[vid] = spec.label
        return vid

    def link(vid: int, child: _Node, cid: int) -> None:
        edges.append(canon_edge(vid, cid))

    if len(top.children) == 2:
        a, b = (_materialize(child, enter(child), enter, link) for child in top.children)
        edges.append(canon_edge(a, b))
    elif len(top.children) == 3:
        _materialize(top, next(ids), enter, link)
    else:
        raise NotBinary(f"root has {len(top.children)} children, expected 2 or 3")

    net = UndirectedNet.build(edges, labels)
    check_binary_tree(net)
    return net


def serialize_newick_tree(net: UndirectedNet) -> str:
    """Canonical Newick for an unrooted binary tree: rooted at the internal
    vertex next to the smallest leaf label, children ordered by smallest
    descendant label."""
    if net.reticulation_number() != 0:
        raise ValueError("not a tree")
    labels = net.leaf_labels
    if len(labels) == 2:
        a, b = sorted(labels.values())
        return f"({a},{b});"
    anchor_leaf = net.vertex_of_label(min(labels.values()))
    root = net.neighbors(anchor_leaf)[0]

    # root the tree at ``root``; a leaf ends its branch
    parent = {root: None}
    children: dict[int, list[int]] = {}
    order = [root]
    for v in order:
        if v in labels and v != root:
            continue
        children[v] = [w for w in net.neighbors(v) if w != parent[v]]
        for w in children[v]:
            if w in parent:
                raise ValueError("not a tree")
            parent[w] = v
            order.append(w)
    min_label: dict[int, str] = {}
    for v in reversed(order):
        min_label[v] = min(min_label[w] for w in children[v]) if v in children else labels[v]

    def expand(v: int):
        if v not in children:
            return labels[v]
        return sorted(children[v], key=min_label.__getitem__), ")"

    return _render(root, expand) + ";"


# --- DIMACS CNF --------------------------------------------------------------------

def parse_dimacs_cnf(text: str) -> CnfInstance:
    """Standard DIMACS CNF; clauses must have exactly three literals."""
    n = m = None
    literals: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem line", lineno, 1)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno, 1)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in problem line", lineno, 1) from None
            continue
        if n is None:
            raise ParseError("clause before problem line", lineno, 1)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"expected a literal, found {token!r}",
                                 lineno, _token_col(raw, token)) from None
            if lit != 0 and not (1 <= abs(lit) <= n):
                raise ParseError(f"literal {lit} out of range 1..{n}",
                                 lineno, _token_col(raw, token))
            literals.append(lit)
    if n is None:
        raise ParseError("empty document (missing problem line)", 1, 1)

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise ClauseArityError(
                    f"clause {len(clauses) + 1} has {len(current)} literals, expected 3")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ParseError("unterminated clause at end of input", 1, 1)
    if len(clauses) != m:
        raise ParseError(f"problem line promises {m} clauses, found {len(clauses)}", 1, 1)
    return CnfInstance(n, tuple(clauses))


def serialize_dimacs_cnf(cnf: CnfInstance) -> str:
    out = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    out.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(out) + "\n"
