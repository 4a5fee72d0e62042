"""The readers of UPN/1, plain Newick and extended Newick as first written,
kept as differential references for the one-pass readers in
``cutnets.formats``, with the sorted ``validate_unrooted`` they called.

Each reader here makes a separate pass for each step: ``_read_newick``
fills per-node lists that ``parse_newick_tree`` and ``_enewick_arcs`` walk
again, a network is built through the checking constructor, and the
validation sorts every edge, vertex and label.  ``tests/test_readers.py``
holds the new readers to them: on every input both return equal networks
or raise the same exception type with the same message.
"""

from __future__ import annotations

import re

from cutnets.errors import (
    CycleError,
    DegreeError,
    NotBinary,
    ParseError,
    ValidationError,
    parse_id,
    token_column,
)
from cutnets.nets import (
    RootedNet,
    UndirectedNet,
    ValidationReport,
    VertexId,
    canon_edge,
    validate_rooted,
)

_LABEL_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_TAG_RE = re.compile(r"#H?([0-9]+)")
_WS_RE = re.compile(r"\s*")


def validate_unrooted(net: UndirectedNet) -> ValidationReport:
    """Report every violation of the unrooted-network invariants; never raises."""
    bad = []
    if not net.vertices:
        return ValidationReport(("network is empty",))
    for u, v in sorted(net.edges):
        if u == v:
            bad.append(f"self-loop at vertex {u}")
    if not net.is_connected():
        bad.append("network is disconnected")
    labeled = net.leaves()
    for v in sorted(net.vertices):
        d = net.degree(v)
        if d not in (1, 3):
            bad.append(f"vertex {v} has degree {d} (expected 1 or 3)")
        if d == 1 and v not in labeled:
            bad.append(f"degree-1 vertex {v} is unlabeled")
        if v in labeled and d != 1:
            bad.append(f"labeled vertex {v} has degree {d} (leaves must have degree 1)")
    seen: dict[str, VertexId] = {}
    for v in sorted(net.leaf_labels):
        lab = net.leaf_labels[v]
        if lab in seen:
            bad.append(f"duplicate label {lab!r} on vertices {seen[lab]} and {v}")
        else:
            seen[lab] = v
    if not net.leaf_labels:
        bad.append("network has no labeled leaves")
    return ValidationReport(tuple(bad))


def check_binary_tree(net: UndirectedNet) -> None:
    """``nets.check_binary_tree`` on the sorted validation, remembering nothing."""
    report = validate_unrooted(net)
    if not report.ok:
        raise ValidationError(report.violations)
    if net.reticulation_number() != 0:
        u, _ = min(net.edges - net.cut_edges())
        raise NotBinary(f"input is not a tree: vertex {u} lies on a cycle")


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
            v = parse_id(tokens[1], raw, 1, lineno)
            if v in vertices:
                raise ParseError(f"vertex {v} declared twice", lineno, 1)
            vertices.add(v)
        elif kind == "L":
            if len(tokens) != 3:
                raise ParseError("L record takes an id and a label", lineno, 1)
            v = parse_id(tokens[1], raw, 1, lineno)
            if v not in vertices:
                raise ParseError(f"label references undeclared vertex {v}", lineno, 1)
            if v in labels:
                raise ParseError(f"vertex {v} labeled twice", lineno, 1)
            if not _LABEL_RE.fullmatch(tokens[2]):
                raise ParseError(f"bad label {tokens[2]!r}", lineno, token_column(raw, 2))
            labels[v] = tokens[2]
        elif kind == "E":
            if len(tokens) != 3:
                raise ParseError("E record takes exactly two ids", lineno, 1)
            u = parse_id(tokens[1], raw, 1, lineno)
            v = parse_id(tokens[2], raw, 2, lineno)
            for x in (u, v):
                if x not in vertices:
                    raise ParseError(f"edge references undeclared vertex {x}", lineno, 1)
            e = canon_edge(u, v)
            if e in edge_set:
                raise ParseError(f"duplicate edge {e}", lineno, 1)
            edge_set.add(e)
            edges.append(e)
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno, token_column(raw, 0))

    if not header_seen:
        raise ParseError("empty document (missing 'UPN/1' header)", 1, 1)
    net = UndirectedNet(vertices, edges, labels)
    report = validate_unrooted(net)
    if not report.ok:
        raise ValidationError(report.violations)
    return net


def _syntax_error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at ``pos``, clamped to the last character of ``text``."""
    idx = min(pos, max(len(text) - 1, 0))
    return ParseError(message, text.count("\n", 0, idx) + 1, idx - text.rfind("\n", 0, idx))


def _read_newick(text: str, allow_tags: bool):
    """Read one Newick document in a single pass.

    Returns ``(labels, tags, degrees, arcs)``.  The first three list the
    label, hybrid tag (its number) and child count of every node in
    preorder, so a node's index is the order of its ``(`` or its leaf label
    in the text and the root is node 0.  ``arcs`` lists ``(parent, child,
    stamp)`` in the order the children's subtrees close, where ``stamp`` is
    the number of nodes read at that moment.  The nodes whose ``(`` is read
    and whose ``)`` is not yet are kept on a stack, innermost last.  A
    syntax error names the first non-blank character at or after the
    point of failure.
    """
    labels: list[str | None] = []
    tags: list[int | None] = []
    degrees: list[int] = []
    arcs: list[tuple[int, int, int]] = []
    open_nodes: list[int] = []
    skip = _WS_RE.match
    pos = skip(text).end()
    while True:
        node = len(labels)
        labels.append(None)
        tags.append(None)
        degrees.append(0)
        if text.startswith("(", pos):
            open_nodes.append(node)
            pos = skip(text, pos + 1).end()
            continue
        while True:   # the suffix of ``node``, then the ``,`` or ``)`` after it
            m = _LABEL_RE.match(text, pos)
            if m:
                labels[node] = m.group()
                pos = skip(text, m.end()).end()
            elif text[pos:pos + 1].isalnum():   # outside the label alphabet, such as 'é'
                raise _syntax_error(text, f"character {text[pos]!r} is not allowed in a label",
                                    pos)
            if text.startswith("#", pos):
                if not allow_tags:
                    raise _syntax_error(text, "hybrid tags are not allowed in plain Newick trees",
                                        pos)
                m = _TAG_RE.match(text, pos)
                if not m:
                    raise _syntax_error(text, "malformed hybrid tag", pos)
                try:   # hybrids are numbered, so #H01 is #H1
                    tags[node] = int(m.group(1))
                except ValueError:   # more digits than int() takes
                    raise _syntax_error(text, "hybrid tag number is too long", pos) from None
                pos = skip(text, m.end()).end()
            if not degrees[node] and labels[node] is None and tags[node] is None:
                raise _syntax_error(text, "empty node", pos)
            if not open_nodes:
                if not text.startswith(";", pos):
                    raise _syntax_error(text, f"expected ';', found {text[pos:pos + 1]!r}", pos)
                pos = skip(text, pos + 1).end()
                if pos != len(text):
                    raise _syntax_error(text, "trailing text after ';'", pos)
                return labels, tags, degrees, arcs
            parent = open_nodes[-1]
            degrees[parent] += 1
            arcs.append((parent, node, len(labels)))
            if text.startswith(",", pos):
                pos = skip(text, pos + 1).end()
                break
            if not text.startswith(")", pos):
                raise _syntax_error(text, f"expected ')', found {text[pos:pos + 1]!r}", pos)
            pos = skip(text, pos + 1).end()
            node = open_nodes.pop()


def parse_enewick(text: str) -> RootedNet:
    """Parse an extended-Newick rooted network with #H hybrid tags."""
    count, arcs, labels = _enewick_arcs(text)
    net = RootedNet(range(1, count + 1), arcs, 1, labels)
    report = validate_rooted(net)
    if not report.ok:
        if not net.is_acyclic():
            raise CycleError("; ".join(report.violations))
        if any("label" in v for v in report.violations):
            raise ValidationError(report.violations)
        raise DegreeError("; ".join(report.violations))
    return net


def _enewick_arcs(text: str) -> tuple[int, list[tuple[int, int]], dict[int, str]]:
    """The vertex count, arcs and leaf labels of an eNewick text.  Apart
    from ``parse_enewick`` so that the reader's node lists are freed before
    the network is built and validated.

    Vertex ids are handed out in preorder from 1 for the root, one per
    untagged node and one per tag at its first occurrence.  Each node is
    checked as it is reached in preorder and each arc once its child's
    subtree has closed, so of two faults the one a preorder walk meets
    first is reported.
    """
    labels, tags, degrees, arcs = _read_newick(text, allow_tags=True)
    if degrees[0] != 2:
        raise DegreeError(f"root must have exactly two children, found {degrees[0]}")
    if tags[0] is not None:
        raise DegreeError(f"hybrid #{tags[0]} is the root")

    vid: list[int] = []   # the vertex of each node reached so far
    count = 0   # vertices handed out
    tag_ids: dict[int, int] = {}
    defined: set[int] = set()
    vertex_labels: dict[int, str] = {}
    out: list[tuple[int, int]] = []
    # an untagged child always gets a fresh vertex, so only an arc into a
    # hybrid can repeat
    hybrid_arcs: set[tuple[int, int]] = set()
    for parent, child, stamp in arcs:
        for node in range(len(vid), stamp):   # the nodes read before this arc closed
            tag, label = tags[node], labels[node]
            if tag is None:
                count += 1
                v = count
            else:
                v = tag_ids.get(tag)
                if v is None:
                    count += 1
                    v = tag_ids[tag] = count
                if degrees[node] or label is not None:
                    if tag in defined:
                        raise DegreeError(f"hybrid #{tag} defined twice")
                    defined.add(tag)
            vid.append(v)
            if label is not None:
                vertex_labels[v] = label
        arc = (vid[parent], vid[child])
        if tags[child] is not None:
            if arc in hybrid_arcs:
                raise DegreeError(f"parallel arcs ({arc[0]},{arc[1]})")
            hybrid_arcs.add(arc)
        out.append(arc)
    for tag in tag_ids:
        if tag not in defined:
            raise DegreeError(f"hybrid #{tag} is referenced but never defined")
    return count, out, vertex_labels


def parse_newick_tree(text: str) -> UndirectedNet:
    """Read a Newick tree as an unrooted binary tree (r = 0).

    A two-child artificial root is suppressed; a three-child root becomes an
    internal vertex.  Any other child count is not binary.  Vertex ids are
    handed out in preorder from 1; a suppressed root takes none.
    """
    labels, _, degrees, arcs = _read_newick(text, allow_tags=False)
    if degrees[0] not in (2, 3):
        raise NotBinary(f"root has {degrees[0]} children, expected 2 or 3")
    shift = 0 if degrees[0] == 2 else 1   # vertex id minus preorder index
    leaf_labels: dict[int, str] = {}
    for node, (label, degree) in enumerate(zip(labels, degrees)):
        if degree:
            if node and degree != 2:
                raise NotBinary(f"internal node has {degree} children, expected 2")
            if label is not None:
                raise NotBinary("internal node labels are not supported")
        else:
            leaf_labels[node + shift] = label

    edges = [(parent + shift, child + shift) for parent, child, _ in arcs if parent or shift]
    if not shift:   # the suppressed root's two children are joined
        a, b = (child for parent, child, _ in arcs if not parent)
        edges.append((a, b))
    net = UndirectedNet.build(edges, leaf_labels)
    check_binary_tree(net)
    return net

