"""Tests for the security policy — §5's "just add more policies" claim."""

import hashlib
import hmac
import os
import struct

import numpy as np
import pytest

from repro.core import (
    BXSAEncoding,
    HmacSigningPolicy,
    NullSecurity,
    SECURITY_FAULT,
    SecretKey,
    SoapEngine,
    SoapEnvelope,
    SoapFault,
    SoapTcpClient,
    SoapTcpService,
    XMLEncoding,
    check_security_policy,
)
from repro.core.concepts import PolicyConceptError
from repro.core.security import (
    ChunkSignatureError,
    ChunkSigner,
    ChunkVerifier,
    sign_stream,
    verify_stream,
)
from repro.services import echo_dispatcher
from repro.transport import MemoryNetwork
from repro.workloads.lead import lead_dataset
from repro.xbs.varint import encode_vls
from repro.xdm import array, element, leaf
from repro.xdm.path import children_named
from tests.conftest import traced_peak


@pytest.fixture()
def key():
    return SecretKey.generate()


class TestSigningUnit:
    def test_sign_adds_header(self, key):
        env = SoapEnvelope.wrap(element("Op", leaf("x", 1, "int")))
        HmacSigningPolicy(key).sign(env)
        header = env.header("Signature")
        assert header is not None
        fields = {c.name.local for c in header.elements()}
        assert fields == {"keyId", "algorithm", "value"}

    def test_verify_accepts_own_signature(self, key):
        policy = HmacSigningPolicy(key)
        env = SoapEnvelope.wrap(element("Op", array("v", np.arange(10.0))))
        policy.sign(env)
        policy.verify(env)  # must not raise

    def test_resigning_replaces_header(self, key):
        policy = HmacSigningPolicy(key)
        env = SoapEnvelope.wrap(element("Op"))
        policy.sign(env)
        policy.sign(env)
        assert sum(1 for b in env.header_blocks if b.name.local == "Signature") == 1

    def test_tampered_body_rejected(self, key):
        policy = HmacSigningPolicy(key)
        env = SoapEnvelope.wrap(element("Op", leaf("amount", 10, "int")))
        policy.sign(env)
        children_named(env.body_root, "amount")[0].value = 1_000_000
        with pytest.raises(SoapFault, match="signature"):
            policy.verify(env)

    def test_wrong_key_rejected(self, key):
        env = SoapEnvelope.wrap(element("Op"))
        HmacSigningPolicy(key).sign(env)
        other = HmacSigningPolicy(SecretKey.generate(key_id=key.key_id))
        with pytest.raises(SoapFault):
            other.verify(env)

    def test_unknown_key_id_rejected(self, key):
        env = SoapEnvelope.wrap(element("Op"))
        HmacSigningPolicy(SecretKey.generate(key_id="other")).sign(env)
        with pytest.raises(SoapFault, match="key id"):
            HmacSigningPolicy(key).verify(env)

    def test_unsigned_rejected_by_default(self, key):
        with pytest.raises(SoapFault, match="not signed"):
            HmacSigningPolicy(key).verify(SoapEnvelope.wrap(element("Op")))

    def test_unsigned_tolerated_when_optional(self, key):
        HmacSigningPolicy(key, require_signature=False).verify(
            SoapEnvelope.wrap(element("Op"))
        )

    def test_signature_survives_reencoding(self, key):
        """The MAC covers the data model, not the bytes: XML → bXDM → BXSA
        → bXDM keeps it valid (the intermediary/transcoding property)."""
        policy = HmacSigningPolicy(key)
        env = SoapEnvelope.wrap(element("Op", array("v", np.arange(64.0))))
        policy.sign(env)
        for encoding in (XMLEncoding(), BXSAEncoding()):
            rebuilt = SoapEnvelope.from_document(
                encoding.decode(encoding.encode(env.to_document()))
            )
            policy.verify(rebuilt)

    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_signature_survives_either_byte_order(self, key, byte_order):
        """Regression: the MAC hashed array bytes in the array's own order,
        so a message sent as big-endian BXSA (decoded into ``>f8``/``>i4``
        arrays) failed verification although its data model was equal."""
        policy = HmacSigningPolicy(key)
        env = SoapEnvelope.wrap(
            element("Op", array("v", np.arange(64.0)), array("n", np.arange(8, dtype=np.int32)))
        )
        policy.sign(env)
        encoding = BXSAEncoding(byte_order=byte_order)
        rebuilt = SoapEnvelope.from_document(encoding.decode(encoding.encode(env.to_document())))
        policy.verify(rebuilt)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SecretKey(b"short")

    def test_concept_check(self, key):
        check_security_policy(HmacSigningPolicy(key))
        check_security_policy(NullSecurity())
        with pytest.raises(PolicyConceptError):
            check_security_policy(object())

    def test_engine_rejects_bad_security_policy(self, key):
        class FakeBinding:
            def send_request(self, p, c): ...

            def receive_response(self): ...

        with pytest.raises(PolicyConceptError):
            SoapEngine(XMLEncoding(), FakeBinding(), security=object())


class TestBodyDigest:
    """The MAC is HMAC-SHA256 over ``canonical_digest`` of each body child
    (DESIGN.md §5, *The body digest*), fed as the tree is walked."""

    def test_mac_is_the_documented_format(self, key):
        env = SoapEnvelope.wrap(element("Op", leaf("x", 1, "int", attributes={"a": "b"})))
        HmacSigningPolicy(key).sign(env)

        def field(data: bytes) -> bytes:
            return len(data).to_bytes(8, "little") + data

        count = lambda n: field(n.to_bytes(8, "little"))  # noqa: E731
        expected = b"".join([
            field(b"elem"), field(b"Op"), count(0), count(1),
            field(b"leaf"), field(b"x"),
            count(1), field(b"a"), field(b"string"), field(b"sb"),
            field(b"int"), field(b"n1"),
        ])
        mac = hmac.new(key._key, expected, hashlib.sha256).hexdigest()
        header = env.header("Signature")
        assert {c.name.local: c.value for c in header.elements()}["value"] == mac

    def test_sign_and_verify_read_the_body_where_it_lies(self, key):
        """On the 1.2 MB bulk envelope, at either byte order: at most 0.1
        payload of traced peak each (2.5 when ``pickle`` serialised
        ``tobytes`` copies of the arrays)."""
        env = SoapEnvelope.wrap(element("Echo", lead_dataset(100_000, seed=7).to_bxdm()))
        payload = len(BXSAEncoding(session=False).encode(env.to_document()))
        assert payload > 1_000_000
        policy = HmacSigningPolicy(key)
        policy.sign(env)  # warm
        assert traced_peak(policy.sign, env) <= 0.1 * payload
        assert traced_peak(policy.verify, env) <= 0.1 * payload
        encoding = BXSAEncoding(byte_order=1)
        swapped = SoapEnvelope.from_document(encoding.decode(encoding.encode(env.to_document())))
        assert traced_peak(policy.verify, swapped) <= 0.1 * payload


class TestSecuredService:
    @pytest.mark.parametrize("encoding_cls", [XMLEncoding, BXSAEncoding])
    def test_end_to_end_signed_exchange(self, key, encoding_cls):
        net = MemoryNetwork()
        security = HmacSigningPolicy(key)
        with SoapTcpService(net.listen("sec"), echo_dispatcher(), security=security):
            client = SoapTcpClient(
                lambda: net.connect("sec"),
                encoding=encoding_cls(),
                security=HmacSigningPolicy(key),
            )
            response = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 5, "int"))))
            assert children_named(response.body_root, "x")[0].value == 5
            client.close()

    def test_unsigned_client_rejected(self, key):
        net = MemoryNetwork()
        with SoapTcpService(
            net.listen("sec"), echo_dispatcher(), security=HmacSigningPolicy(key)
        ):
            client = SoapTcpClient(lambda: net.connect("sec"))
            with pytest.raises(SoapFault, match=SECURITY_FAULT.replace("sec:", "")):
                client.call(SoapEnvelope.wrap(element("Echo")))
            client.close()

    def test_wrong_key_client_rejected(self, key):
        net = MemoryNetwork()
        with SoapTcpService(
            net.listen("sec"), echo_dispatcher(), security=HmacSigningPolicy(key)
        ):
            client = SoapTcpClient(
                lambda: net.connect("sec"),
                security=HmacSigningPolicy(SecretKey.generate(key_id=key.key_id)),
            )
            with pytest.raises(SoapFault):
                client.call(SoapEnvelope.wrap(element("Echo")))
            client.close()

    def test_http_service_signed(self, key):
        from repro.core import SoapHttpClient, SoapHttpService

        net = MemoryNetwork()
        with SoapHttpService(
            net.listen("sech"), echo_dispatcher(), security=HmacSigningPolicy(key)
        ):
            client = SoapHttpClient(
                lambda: net.connect("sech"), security=HmacSigningPolicy(key)
            )
            response = client.call(SoapEnvelope.wrap(element("Echo", leaf("y", 2, "int"))))
            assert children_named(response.body_root, "y")[0].value == 2
            client.close()

    def test_fault_responses_are_signed(self, key):
        """Server faults remain verifiable by the client's policy."""
        net = MemoryNetwork()
        with SoapTcpService(
            net.listen("sec"), echo_dispatcher(), security=HmacSigningPolicy(key)
        ):
            client = SoapTcpClient(
                lambda: net.connect("sec"), security=HmacSigningPolicy(key)
            )
            with pytest.raises(SoapFault, match="no such operation"):
                client.call(SoapEnvelope.wrap(element("Nope")))
            client.close()


class TestChunkSigning:
    """The non-blocking chunk-signature layer (Kohring & Lo Iacono):
    per-chunk MACs verified in flight, a chained trailer sealing the
    whole flow — O(chunk) memory at both ends."""

    def test_roundtrip_byte_at_a_time(self, key):
        payloads = [b"alpha", b"beta-beta", b"\x00" * 1000]
        signer = ChunkSigner(key)
        wire = b"".join([signer.wrap(p) for p in payloads] + [signer.trailer()])
        verifier = ChunkVerifier(key)
        out = []
        for i in range(len(wire)):  # worst-case fragmentation
            out.extend(verifier.feed(wire[i : i + 1]))
        verifier.close()
        assert verifier.done
        assert out == payloads

    def test_wire_is_the_documented_format(self, key):
        """``VLS(len) payload mac_i`` per chunk, ``VLS(0) final-mac`` last,
        with the MACs of the comment block above ``ChunkSigner``."""
        payloads = [b"alpha", memoryview(b"beta-beta"), bytearray(300)]
        signer = ChunkSigner(key)
        wire = b"".join([signer.wrap(p) for p in payloads] + [signer.trailer()])

        def mac(*parts) -> bytes:
            return hmac.new(key._key, b"".join(parts), hashlib.sha256).digest()

        macs = [
            mac(b"repro:chunk", struct.pack(">Q", i), bytes(p)) for i, p in enumerate(payloads)
        ]
        chain = hashlib.sha256(b"".join(macs)).digest()
        expected = b"".join(
            [encode_vls(len(p)) + bytes(p) + m for p, m in zip(payloads, macs)]
            + [encode_vls(0), mac(b"repro:final", struct.pack(">Q", 3), chain)]
        )
        assert wire == expected

    def test_a_chunk_is_copied_once(self, key):
        """Into the signed chunk that goes out, and nowhere else (three
        copies when the MAC input was a concatenation)."""
        chunk = memoryview(bytes(1 << 20))
        signer = ChunkSigner(key)
        signer.wrap(chunk)  # warm
        assert traced_peak(signer.wrap, chunk) < 1.05 * len(chunk)
        verifier = ChunkVerifier(key)
        wire = ChunkSigner(key).wrap(chunk)
        verifier.feed(wire[:64])
        assert traced_peak(verifier.feed, wire[64:]) < 2.1 * len(chunk)

    def test_a_verified_chunk_is_resident_once(self, key):
        """A payload lands in a buffer of its own size and is checked
        there: 2.06 chunks when it grew in the verifier's buffer and was
        copied out of it."""
        chunk = memoryview(os.urandom(1 << 20))
        wire = memoryview(ChunkSigner(key).wrap(chunk))
        pieces = [wire[i : i + (64 << 10)] for i in range(0, len(wire), 64 << 10)]

        def verify():
            verifier = ChunkVerifier(key)
            return [payload for piece in pieces for payload in verifier.feed(piece)]

        (payload,) = verify()
        assert payload == chunk and payload.readonly
        assert traced_peak(verify) <= 1.25 * len(chunk)

    def test_stream_generators_roundtrip(self, key):
        payloads = [bytes([i]) * (100 + i) for i in range(1, 20)]
        assert list(verify_stream(sign_stream(iter(payloads), key), key)) == payloads

    def test_tampered_chunk_detected(self, key):
        signer = ChunkSigner(key)
        wire = bytearray(signer.wrap(b"payload-under-test") + signer.trailer())
        wire[10] ^= 0x01  # flip one payload bit
        verifier = ChunkVerifier(key)
        with pytest.raises(ChunkSignatureError):
            verifier.feed(bytes(wire))

    def test_truncation_detected(self, key):
        signer = ChunkSigner(key)
        wire = signer.wrap(b"first") + signer.wrap(b"second")  # no trailer
        verifier = ChunkVerifier(key)
        assert verifier.feed(wire) == [b"first", b"second"]
        with pytest.raises(ChunkSignatureError, match="trailer"):
            verifier.close()

    def test_reordered_chunks_detected(self, key):
        signer = ChunkSigner(key)
        first, second = signer.wrap(b"first-chunk"), signer.wrap(b"second-chunk")
        verifier = ChunkVerifier(key)
        with pytest.raises(ChunkSignatureError):
            verifier.feed(second + first + signer.trailer())

    def test_data_past_trailer_rejected(self, key):
        signer = ChunkSigner(key)
        wire = signer.wrap(b"only") + signer.trailer()
        verifier = ChunkVerifier(key)
        with pytest.raises(ChunkSignatureError):
            verifier.feed(wire + b"x")

    def test_wrong_key_rejected(self, key):
        signer = ChunkSigner(key)
        wire = signer.wrap(b"data") + signer.trailer()
        with pytest.raises(ChunkSignatureError):
            ChunkVerifier(SecretKey.generate()).feed(wire)

    def test_empty_chunk_rejected(self, key):
        with pytest.raises(ChunkSignatureError):
            ChunkSigner(key).wrap(b"")

    def test_signer_single_use_after_trailer(self, key):
        signer = ChunkSigner(key)
        signer.wrap(b"x")
        signer.trailer()
        with pytest.raises(ChunkSignatureError):
            signer.wrap(b"y")

    def test_bounded_memory_end_to_end(self, key):
        """A multi-MiB flow verifies chunk-by-chunk: at no point does the
        verifier hold more than one signed chunk in its buffer."""
        chunk = b"\xab" * (256 * 1024)
        verifier = ChunkVerifier(key)
        out_bytes = 0
        for piece in sign_stream((chunk for _ in range(64)), key):
            for payload in verifier.feed(piece):
                out_bytes += len(payload)
            assert len(verifier._buf) <= len(chunk) + 64
        verifier.close()
        assert out_bytes == 64 * len(chunk)
