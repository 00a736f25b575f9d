"""bXDM: the paper's scientific-data-friendly extension of the XDM data model.

bXDM keeps the seven node kinds of the XQuery/XPath Data Model (Document,
Element, Attribute, Namespace, Processing Instruction, Text, Comment) and
refines Element with two subtypes designed for numeric data:

* :class:`LeafElement` — an element whose content is a single *typed atomic
  value* held in native machine form (a Python/numpy scalar), so that
  serializers that understand types (BXSA) never pay the float↔ASCII
  conversion the paper identifies as the SOAP bottleneck;
* :class:`ArrayElement` — an element whose content is a packed 1-D numpy
  array of one primitive type, the data-model counterpart of a netCDF
  variable or a Fortran/C array.

Everything above the data model (the SOAP engine, XPath-style queries, the
WS-* layers in Figure 3 of the paper) is written against these classes and is
therefore ignorant of whether a message was, or will be, serialized as
textual XML 1.0 or as BXSA frames.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "XDMError": "errors",
        "XDMTypeError": "errors",
        "QName": "qname",
        "XMLNS_URI": "qname",
        "XSD_URI": "qname",
        "XSI_URI": "qname",
        "AtomicType": "types",
        "atomic_type_for_code": "types",
        "atomic_type_for_dtype": "types",
        "atomic_type_for_xsd": "types",
        "format_lexical": "types",
        "parse_lexical": "types",
        "ArrayElement": "nodes",
        "AttributeNode": "nodes",
        "CommentNode": "nodes",
        "DocumentNode": "nodes",
        "ElementNode": "nodes",
        "LeafElement": "nodes",
        "NamespaceNode": "nodes",
        "NodeKind": "nodes",
        "PINode": "nodes",
        "TextNode": "nodes",
        "TreeBuilder": "builder",
        "array": "builder",
        "comment": "builder",
        "doc": "builder",
        "element": "builder",
        "leaf": "builder",
        "pi": "builder",
        "text": "builder",
        "deep_equal": "compare",
        "explain_difference": "compare",
        "canonical_digest": "digest",
        "canonical_signature": "digest",
        "children_named": "path",
        "find_all": "path",
        "find_first": "path",
        "select": "path",
        "Visitor": "visitor",
        "walk": "visitor",
    },
)
