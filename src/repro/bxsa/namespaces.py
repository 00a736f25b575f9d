"""Namespace scope tracking for BXSA's tokenized QName references.

Both the encoder and the decoder walk the element tree maintaining a stack
of per-frame namespace tables.  A QName on the wire is a ``(scope depth,
table index)`` pair — depth 1 is the innermost (current) frame — so lookups
here are what replace the prefix strings of textual XML.

The stack keeps a reverse index (URI → chronological binding positions) so
:meth:`ScopeStack.find` is O(1) regardless of nesting depth — a deep chain
of qualified elements would otherwise pay O(depth) per element, O(n²) per
document.
"""

from __future__ import annotations

from repro.bxsa.errors import BXSADecodeError
from repro.xdm.nodes import NamespaceNode


class ScopeStack:
    """Stack of namespace tables, innermost last.

    Each table is a list of ``(prefix, uri)`` pairs in declaration order —
    order matters because wire references are positional indexes.  Tables
    must only be extended through :meth:`declare` (never mutated directly)
    so the reverse index stays consistent.
    """

    def __init__(self) -> None:
        self._tables: list[list[tuple[str, str]]] = []
        # uri -> chronological [(table position, entry index)]; the tail is
        # always the innermost, latest binding (XML shadowing semantics)
        self._index: dict[str, list[tuple[int, int]]] = {}

    def push(self, declarations: list[tuple[str, str]]) -> None:
        position = len(self._tables)
        self._tables.append(declarations)
        for entry, (_prefix, uri) in enumerate(declarations):
            self._index.setdefault(uri, []).append((position, entry))

    def pop(self) -> None:
        table = self._tables.pop()
        # this table's bindings are at the tails of their per-URI lists
        # (chronological order, and anything deeper was popped already)
        for _prefix, uri in reversed(table):
            self._index[uri].pop()

    def declare(self, prefix: str, uri: str) -> int:
        """Append a binding to the innermost table; returns its index."""
        table = self._tables[-1]
        table.append((prefix, uri))
        entry = len(table) - 1
        self._index.setdefault(uri, []).append((len(self._tables) - 1, entry))
        return entry

    @property
    def depth(self) -> int:
        return len(self._tables)

    def all_prefixes(self) -> set[str]:
        """Every prefix bound anywhere in the current scope chain."""
        return {prefix for table in self._tables for prefix, _uri in table}

    def resolve(self, scope_depth: int, index: int, own=None) -> tuple[str, str]:
        """Wire reference → (prefix, uri).  Depth 1 = innermost table.

        ``own`` stands in for an innermost table that is not pushed: a
        frame's own declarations while its header is still being read.
        """
        extra = own is not None
        if not 1 <= scope_depth <= len(self._tables) + extra:
            raise BXSADecodeError(
                f"namespace scope depth {scope_depth} exceeds nesting "
                f"{len(self._tables) + extra}"
            )
        table = own if extra and scope_depth == 1 else self._tables[extra - scope_depth]
        if not 0 <= index < len(table):
            raise BXSADecodeError(
                f"namespace index {index} out of range for table of {len(table)}"
            )
        return table[index]

    def find(self, uri: str) -> tuple[int, int] | None:
        """(scope depth, index) of the innermost binding of ``uri``, or None.

        The nearest declaration wins, and later duplicates within one table
        win over earlier ones, mirroring XML prefix shadowing.
        """
        positions = self._index.get(uri)
        if not positions:
            return None
        table_position, entry = positions[-1]
        return len(self._tables) - table_position, entry


def to_nodes(table: list[tuple[str, str]]) -> list[NamespaceNode]:
    return [NamespaceNode(prefix, uri) for prefix, uri in table]
