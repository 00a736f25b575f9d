"""XPath-lite: a small path language over bXDM.

§5.1 of the paper: "since bXDM is extended from XDM, any XDM-based XML
processing (e.g. XPath or XSLT) should be able to run with binary XML with
minor modification."  This module demonstrates that point with a useful
subset of XPath 1.0 location paths, evaluated directly on bXDM trees —
meaning the *same* query runs over a document regardless of whether it
arrived as textual XML or BXSA.

Supported grammar::

    path        := step ('/' step | '//' step)*  | '//' step ...
    step        := nametest predicate*
    nametest    := NAME | '*' | '{uri}NAME'
    predicate   := '[' INTEGER ']'                 positional (1-based)
                 | '[@' NAME '="' VALUE '"' ']'    attribute equality
                 | '[@' NAME ']'                   attribute presence
                 | '[' NAME '="' VALUE '"' ']'     child text equality

Examples::

    evaluate(doc, "Envelope/Body/*")
    evaluate(doc, "//reading[@station]")
    evaluate(doc, "//item[3]")
    evaluate(doc, "//port[location=\\"svc\\"]")

Absolute vs relative makes no difference here: evaluation always starts at
the node you pass (document or element).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.xdm.errors import XDMError
from repro.xdm.nodes import ArrayElement, DocumentNode, ElementNode, LeafElement, Node
from repro.xdm.qname import QName


class XPathError(XDMError):
    """Malformed path expression."""


# ---------------------------------------------------------------------------
# parsing

_STEP_RE = re.compile(
    r"""
    (?P<name>\{[^}]*\}[^\W\d][\w.\-]* | [^\W\d][\w.\-]* | \*)
    (?P<preds>(?:\[[^\]]*\])*)
    """,
    re.VERBOSE | re.UNICODE,
)
_PRED_RE = re.compile(r"\[([^\]]*)\]")
_ATTR_EQ_RE = re.compile(r'@([^\W\d][\w.\-]*)\s*=\s*"([^"]*)"', re.UNICODE)
_ATTR_PRESENT_RE = re.compile(r"@([^\W\d][\w.\-]*)$", re.UNICODE)
_CHILD_EQ_RE = re.compile(r'([^\W\d][\w.\-]*)\s*=\s*"([^"]*)"', re.UNICODE)


@dataclass(frozen=True)
class _Step:
    name: str  #: local name, Clark name, or "*"
    descendant: bool  #: True for '//' axis
    predicates: tuple


def _parse_predicate(text: str):
    text = text.strip()
    if text.isdigit():
        index = int(text)
        if index < 1:
            raise XPathError(f"positional predicates are 1-based, got [{text}]")
        return ("index", index)
    m = _ATTR_EQ_RE.fullmatch(text)
    if m:
        return ("attr-eq", m.group(1), m.group(2))
    m = _ATTR_PRESENT_RE.fullmatch(text)
    if m:
        return ("attr-present", m.group(1))
    m = _CHILD_EQ_RE.fullmatch(text)
    if m:
        return ("child-eq", m.group(1), m.group(2))
    raise XPathError(f"unsupported predicate [{text}]")


def parse_path(path: str) -> list[_Step]:
    """Compile a path expression into steps."""
    if not path or path in ("/", "//"):
        raise XPathError(f"empty path {path!r}")
    steps: list[_Step] = []
    if path.startswith("//"):
        descendant, pos = True, 2
    elif path.startswith("/"):
        descendant, pos = False, 1
    else:
        descendant, pos = False, 0
    while pos < len(path):
        m = _STEP_RE.match(path, pos)
        if not m or m.end() == pos:
            raise XPathError(f"cannot parse step at {path[pos:]!r}")
        predicates = tuple([
            _parse_predicate(p) for p in _PRED_RE.findall(m.group("preds"))
        ])
        steps.append(_Step(m.group("name"), descendant, predicates))
        pos = m.end()
        if pos == len(path):
            break
        if path.startswith("//", pos):
            descendant, pos = True, pos + 2
        elif path.startswith("/", pos):
            descendant, pos = False, pos + 1
        else:
            raise XPathError(f"expected '/' at {path[pos:]!r}")
    if not steps:
        raise XPathError(f"no steps in path {path!r}")
    return steps


# ---------------------------------------------------------------------------
# evaluation


def _matches_name(node: ElementNode, name: str) -> bool:
    if name == "*":
        return True
    if name.startswith("{"):
        return node.name == QName.parse(name)
    return node.name.local == name


def _child_elements(node: Node):
    if isinstance(node, (DocumentNode, ElementNode)) and not isinstance(
        node, (LeafElement, ArrayElement)
    ):
        for child in node.children:
            if isinstance(child, ElementNode):
                yield child


def _descendant_elements(node: Node):
    stack = list(_child_elements(node))[::-1]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(list(_child_elements(current))[::-1])


def _passes(node: ElementNode, predicate, position: int) -> bool:
    kind = predicate[0]
    if kind == "index":
        return position == predicate[1]
    if kind == "attr-present":
        return node.attribute(predicate[1]) is not None
    if kind == "attr-eq":
        attr = node.attribute(predicate[1])
        if attr is None:
            return False
        from repro.xdm.types import format_lexical

        return format_lexical(attr.atype, attr.value) == predicate[2]
    if kind == "child-eq":
        for child in _child_elements(node):
            if child.name.local == predicate[1] and child.text_content() == predicate[2]:
                return True
        return False
    raise XPathError(f"unknown predicate kind {kind!r}")  # pragma: no cover


def evaluate(node: Node, path: str) -> list[ElementNode]:
    """Evaluate a path expression; returns matches in document order."""
    steps = parse_path(path)
    current: list[ElementNode] = [node]  # type: ignore[list-item]
    for step in steps:
        gathered: list[ElementNode] = []
        for context in current:
            axis = _descendant_elements(context) if step.descendant else _child_elements(context)
            candidates = [e for e in axis if _matches_name(e, step.name)]
            for predicate in step.predicates:
                candidates = [
                    e
                    for position, e in enumerate(candidates, start=1)
                    if _passes(e, predicate, position)
                ]
            gathered.extend(candidates)
        # de-duplicate while keeping order ('//' from overlapping contexts)
        seen: set[int] = set()
        current = [e for e in gathered if not (id(e) in seen or seen.add(id(e)))]
    return current


def evaluate_one(node: Node, path: str) -> ElementNode:
    """Like :func:`evaluate` but requires exactly one match."""
    matches = evaluate(node, path)
    if len(matches) != 1:
        raise LookupError(f"path {path!r} matched {len(matches)} nodes, expected 1")
    return matches[0]
