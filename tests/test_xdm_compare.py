"""The whole-tree readers of ``repro.xdm.compare`` and ``repro.xdm.digest``
against the formulas they replaced.

``_arrays_equal`` and ``_first_mismatch`` compare block by block, and say
"equal" without reading when both arrays read the same bytes the same way;
they must answer exactly what the whole-array formulas answered.
``canonical_digest`` feeds a hasher field by field; two trees must feed
the same bytes exactly when their ``canonical_signature`` (without
namespace declarations) is equal.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bxsa import decode, encode
from repro.xbs import BIG_ENDIAN
from repro.xdm import array, doc, element, leaf, text
from repro.xdm import compare
from repro.xdm.compare import _arrays_equal, _first_mismatch
from repro.xdm.digest import canonical_digest, canonical_signature

from tests.strategies import documents


def whole_array_equal(x, y) -> bool:
    """The formula ``_arrays_equal`` replaced."""
    if (x == y).all():
        return True
    return x.dtype.kind == "f" and bool(np.array_equal(x, y, equal_nan=True))


def whole_array_first_mismatch(x, y) -> int:
    """The formula ``_first_mismatch`` replaced."""
    if x.dtype.kind == "f":
        neq = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    else:
        neq = x != y
    return int(np.argmax(neq))


#: Every ArrayElement dtype, in both byte orders where it has one.
DTYPES = [
    order + code
    for code in ("f8", "f4", "i8", "i4", "i2", "u8", "u4", "u2")
    for order in "<>"
] + ["i1", "u1", "?"]
SPECIAL = [0.0, -0.0, 1.0, 1.5, -2.0, np.inf, -np.inf, np.nan, 7.0]


@st.composite
def array_pairs(draw):
    """Two arrays of one length: equal, NaN-equal, one element off, another
    byte order or dtype, the same memory, strided or empty."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    n = draw(st.integers(0, 40))
    picks = draw(st.lists(st.sampled_from(SPECIAL), min_size=n, max_size=n))
    if dtype.kind != "f":
        picks = [0.0 if np.isnan(v) or np.isinf(v) else abs(v) for v in picks]
    step = draw(st.sampled_from([1, 2, 3]))
    base = np.zeros(n * step, dtype=dtype)
    base[::step] = np.asarray(picks).astype(dtype)
    x = base[::step]
    how = draw(
        st.sampled_from(
            ["same", "copy", "swapped", "reread", "other-dtype", "changed", "strided"]
        )
    )
    if how == "same":
        y = x
    elif how == "copy":
        y = x.copy()
    elif how == "swapped":
        y = x.astype(dtype.newbyteorder("S"))
    elif how == "reread":  # the same memory under the other byte order
        y = x.view(dtype.newbyteorder("S"))
    elif how == "other-dtype":
        with np.errstate(invalid="ignore"):  # inf and NaN have no integer
            y = x.astype(draw(st.sampled_from(["f8", "i8", "?", ">f4"])))
    elif how == "strided":
        wide = np.zeros(n * 2, dtype=dtype)
        wide[1::2] = x
        y = wide[1::2]
    else:
        y = x.copy()
        if n:
            i = draw(st.integers(0, n - 1))
            if dtype.kind == "f":
                y[i] = draw(st.sampled_from(SPECIAL))
            else:
                y[i] = not y[i] if dtype.kind == "b" else y[i] ^ 1
    return x, y


@pytest.mark.slow
@pytest.mark.parametrize("block", [3, compare._BLOCK])
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one value, set alike
)
@given(pair=array_pairs())
def test_blockwise_compare_answers_what_the_whole_array_one_did(monkeypatch, block, pair):
    monkeypatch.setattr(compare, "_BLOCK", block)
    x, y = pair
    with np.errstate(invalid="ignore"):
        assert _arrays_equal(x, y) == whole_array_equal(x, y)
        if not whole_array_equal(x, y):
            assert _first_mismatch(x, y) == whole_array_first_mismatch(x, y)


def test_the_same_memory_read_another_way_is_read():
    """Identity needs the same address *and* the same reading: the same
    bytes under another byte order, or one element off, are compared by
    value."""
    values = np.arange(1.0, 9.0)
    assert _arrays_equal(values, values)
    assert not _arrays_equal(values, values.view(values.dtype.newbyteorder(">")))
    shifted = np.arange(0.0, 10.0)
    assert not _arrays_equal(shifted[1:9], shifted[0:8])
    nan = np.array([np.nan, 1.0])
    assert _arrays_equal(nan, nan) and _arrays_equal(nan, nan.copy())


class Collect:
    """A "hasher" that keeps every byte it is fed."""

    def __init__(self) -> None:
        self.data = bytearray()

    def update(self, data) -> None:
        self.data += memoryview(data).cast("B")


def fed(node) -> bytes:
    sink = Collect()
    canonical_digest(node, sink)
    return bytes(sink.data)


def signature(node):
    return canonical_signature(node, include_ns_decls=False)


def assert_digest_follows_signature(nodes) -> None:
    for a in nodes:
        for b in nodes:
            assert (fed(a) == fed(b)) == (signature(a) == signature(b)), (a, b)


def _hand_picked():
    values = np.arange(6.0)
    strided = np.repeat(values, 2)[::2]
    nan_bits = np.array([np.nan, 1.0])
    other_nan = nan_bits.copy()
    other_nan.view("u8")[0] ^= 1  # another NaN payload: another signature
    as_array = array("v", values)
    as_strided = array("v", values)
    as_strided.values = strided  # as a decoder could leave it
    big = array("v", values)
    big.values = values.astype(">f8")
    return [
        element("e", as_array),
        element("e", as_strided),
        element("e", big),
        element("e", array("v", values.astype("f4"))),
        element("e", array("v", nan_bits)),
        element("e", array("v", other_nan)),
        element("e", array("v", np.array([0.0, 1.0]))),
        element("e", array("v", np.array([-0.0, 1.0]))),
        element("e", leaf("x", 0.0, "double")),
        element("e", leaf("x", -0.0, "double")),
        element("e", leaf("x", float("nan"), "double")),
        element("e", leaf("x", "NaN", "string")),
        element("e", leaf("x", 1, "double")),
        element("e", leaf("x", 1, "int")),
        element("e", leaf("x", True, "boolean")),
        element("e", leaf("x", 1.5, "double")),
        element("e", attributes={"a": "1", "b": "2"}),
        element("e", attributes={"b": "2", "a": "1"}),
        element("e", attributes={"a": "2", "b": "1"}),
        element("e", namespaces={"p": "urn:1"}),
        element("{urn:1}e"),
        element("e", text("ab")),
        element("e", text("a"), text("b")),
        doc(element("e")),
    ]


def test_digest_follows_the_signature_on_hand_picked_trees():
    corpus = _hand_picked()
    assert_digest_follows_signature(corpus)
    # spot checks of the two directions
    assert fed(corpus[0]) == fed(corpus[1]) == fed(corpus[2])
    assert fed(corpus[4]) != fed(corpus[5])
    assert fed(corpus[8]) == fed(corpus[9])
    assert fed(corpus[16]) == fed(corpus[17]) != fed(corpus[18])


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(trees=st.lists(documents(), min_size=1, max_size=4))
def test_digest_follows_the_signature_on_generated_trees(trees):
    """Each generated tree, its big-endian BXSA round trip (equal, arrays
    swapped) and every other tree of the draw."""
    corpus = []
    for tree in trees:
        corpus.append(tree)
        corpus.append(decode(encode(tree, BIG_ENDIAN)))
    assert_digest_follows_signature(corpus)
