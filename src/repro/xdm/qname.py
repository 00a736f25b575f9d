"""Qualified names and the well-known namespace URIs bXDM cares about."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Reserved namespace bound to the ``xmlns`` prefix itself.
XMLNS_URI = "http://www.w3.org/2000/xmlns/"
#: Reserved namespace bound to the ``xml`` prefix.
XML_URI = "http://www.w3.org/XML/1998/namespace"
#: XML Schema datatypes (``xsd:int`` and friends).
XSD_URI = "http://www.w3.org/2001/XMLSchema"
#: XML Schema instance attributes (``xsi:type``).
XSI_URI = "http://www.w3.org/2001/XMLSchema-instance"


@dataclass(frozen=True, slots=True)
class QName:
    """An expanded XML name: ``(namespace URI, local name)``.

    ``prefix`` is only a serialization *hint* — two QNames with the same URI
    and local name are equal regardless of prefix, exactly as in the XDM
    (and as required for BXSA's tokenized namespace references, which drop
    prefixes from the wire format entirely).
    """

    local: str
    uri: str = ""
    prefix: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.local:
            raise ValueError("QName local part must be non-empty")

    def clark(self) -> str:
        """James Clark notation: ``{uri}local`` (or just ``local``)."""
        return f"{{{self.uri}}}{self.local}" if self.uri else self.local

    @classmethod
    def parse(cls, name: str) -> "QName":
        """Parse Clark notation (``{uri}local``) or a bare local name."""
        if name.startswith("{"):
            uri, _, local = name[1:].partition("}")
            return cls(local, uri)
        return cls(name)

    def __str__(self) -> str:
        if self.prefix:
            return f"{self.prefix}:{self.local}"
        return self.local

    def __repr__(self) -> str:
        return f"QName({self.clark()!r})"
