"""XML databinding: Python dataclasses ↔ bXDM elements.

The paper's Figure 3 places an "XML databinding" box directly on the SOAP
layer — the layer that lets application code exchange typed objects without
hand-assembling message trees.  This package is that box: declare a
dataclass, and :func:`to_element` / :func:`from_element` map it to and from
bXDM using the same atomic-type machinery both codecs share, so a bound
object rides textual XML or BXSA unchanged.

Supported field types: ``int``/``float``/``bool``/``str`` (typed leaves),
``numpy.ndarray`` (packed ArrayElement — annotate the dtype with
:class:`Array`), ``Optional`` of any of those, nested bound dataclasses,
and ``list`` of nested bound dataclasses.

Example::

    @dataclass
    class Reading:
        station: int
        tick: int
        channels: Array["f4"]

    element = to_element(Reading(3, 99, np.zeros(8, "f4")))
    reading = from_element(Reading, element)
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Array": "fields",
        "BindingError": "mapper",
        "from_element": "mapper",
        "to_element": "mapper",
    },
)
