"""Textual XML 1.0 codec for bXDM.

This package is the ``XML 1.0`` leg of the paper's encoding layer (Figure 3):
a from-scratch, namespace-aware XML parser and serializer that map between
byte streams and bXDM trees.

Typed values travel through ``xsi:type`` annotations, "as required by the
SOAP encoding rule" (§4.2 of the paper): with ``emit_types=True`` (the
default) a :class:`~repro.xdm.nodes.LeafElement` serializes as
``<n xsi:type="xsd:int">5</n>`` and an ``ArrayElement`` as an item list with
a ``bx:itemType`` annotation, so a schema-less reader can reconstruct the
typed bXDM tree.  With ``emit_types=False`` the output is plain XML — the
"schema assumed" mode the paper's Table 1 measures (namespace-free, shortest
tag names).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "XMLError": "errors",
        "XMLParseError": "errors",
        "XMLSerializeError": "errors",
        "escape_attribute": "escape",
        "escape_text": "escape",
        "unescape": "escape",
        "XMLParser": "parser",
        "parse_document": "parser",
        "parse_fragment": "parser",
        "XMLSerializer": "serializer",
        "serialize": "serializer",
        "BX_URI": "typed",
        "DEFAULT_ITEM_NAME": "typed",
    },
)
