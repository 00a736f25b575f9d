"""WSDL-lite: service descriptions carrying encoding/binding choices.

§2 of the paper: "Users are free to specify the alternative message
encoding/binding scheme in the WSDL file, though most implementations
support this flexibility either poorly or not at all."  This module is the
generic engine's answer: a small service-description document (a WSDL 1.1
subset with two extension attributes) that names the operations, the
endpoint, the transport binding and the message encoding — and a factory
that configures a ready client from it.

Description document shape (itself serialized with either of this
project's codecs — it is just bXDM)::

    wsdl:definitions  name="VerificationService"
      wsdl:portType
        wsdl:operation  name="VerifyData"
        wsdl:operation  name="VerifyDataByReference"
      wsdl:binding      transport="tcp"  bx:encoding="application/bxsa"
      wsdl:service
        wsdl:port       location="svc"        (a connector key, host:port, ...)

``bx:encoding`` is the extension the paper says real WSDL tooling lacked:
its value is a wire content type, resolved through the same registry the
engine's content negotiation uses, so any registered policy — including
compressed ones — can be declared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.client import SoapHttpClient, SoapTcpClient
from repro.core.policies import encoding_for_content_type
from repro.xdm.nodes import AttributeNode, DocumentNode, ElementNode
from repro.xdm.qname import QName
from repro.xmlcodec.typed import BX_URI

#: WSDL 1.1 namespace (the subset we model).
WSDL_URI = "http://schemas.xmlsoap.org/wsdl/"

_DEFINITIONS = QName("definitions", WSDL_URI, "wsdl")
_PORT_TYPE = QName("portType", WSDL_URI, "wsdl")
_OPERATION = QName("operation", WSDL_URI, "wsdl")
_BINDING = QName("binding", WSDL_URI, "wsdl")
_SERVICE = QName("service", WSDL_URI, "wsdl")
_PORT = QName("port", WSDL_URI, "wsdl")

_ENCODING_ATTR = QName("encoding", BX_URI, "bx")

#: Transport names accepted in the binding element.
SUPPORTED_TRANSPORTS = ("tcp", "http")


class WsdlError(ValueError):
    """Malformed or unsupported service description."""


@dataclass(frozen=True)
class ServiceDescription:
    """The useful content of a WSDL-lite document."""

    name: str
    operations: tuple[str, ...]
    transport: str  #: "tcp" or "http"
    encoding_content_type: str  #: e.g. "application/bxsa"
    location: str  #: connector key / address string
    http_target: str = "/soap"

    def __post_init__(self) -> None:
        if self.transport not in SUPPORTED_TRANSPORTS:
            raise WsdlError(
                f"unsupported transport {self.transport!r} "
                f"(supported: {', '.join(SUPPORTED_TRANSPORTS)})"
            )
        if not self.operations:
            raise WsdlError("a service must declare at least one operation")

    # ------------------------------------------------------------------
    # document mapping

    def to_document(self) -> DocumentNode:
        definitions = ElementNode(_DEFINITIONS)
        definitions.declare_namespace("wsdl", WSDL_URI)
        definitions.declare_namespace("bx", BX_URI)
        definitions.set_attribute("name", self.name)

        port_type = ElementNode(_PORT_TYPE)
        port_type.set_attribute("name", f"{self.name}PortType")
        for operation in self.operations:
            op = ElementNode(_OPERATION)
            op.set_attribute("name", operation)
            port_type.children.append(op)
        definitions.children.append(port_type)

        binding = ElementNode(_BINDING)
        binding.set_attribute("name", f"{self.name}Binding")
        binding.set_attribute("transport", self.transport)
        binding.attributes.append(
            AttributeNode(_ENCODING_ATTR, self.encoding_content_type)
        )
        definitions.children.append(binding)

        service = ElementNode(_SERVICE)
        service.set_attribute("name", self.name)
        port = ElementNode(_PORT)
        port.set_attribute("location", self.location)
        if self.transport == "http":
            port.set_attribute("target", self.http_target)
        service.children.append(port)
        definitions.children.append(service)
        return DocumentNode([definitions])

    @classmethod
    def from_document(cls, document: DocumentNode) -> "ServiceDescription":
        root = document.root
        if root.name != _DEFINITIONS:
            raise WsdlError(f"root element is {root.name.clark()}, expected wsdl:definitions")
        name_attr = root.attribute("name")
        if name_attr is None:
            raise WsdlError("wsdl:definitions lacks a name")

        port_types = [c for c in root.elements() if c.name == _PORT_TYPE]
        if not port_types:
            raise WsdlError("no wsdl:portType declared")
        operations = tuple([
            op.attribute("name").value
            for pt in port_types
            for op in pt.elements()
            if op.name == _OPERATION and op.attribute("name") is not None
        ])

        bindings = [c for c in root.elements() if c.name == _BINDING]
        if not bindings:
            raise WsdlError("no wsdl:binding declared")
        binding = bindings[0]
        transport_attr = binding.attribute("transport")
        encoding_attr = binding.attribute(_ENCODING_ATTR)
        if transport_attr is None:
            raise WsdlError("wsdl:binding lacks a transport")
        if encoding_attr is None:
            raise WsdlError("wsdl:binding lacks the bx:encoding extension attribute")

        services = [c for c in root.elements() if c.name == _SERVICE]
        ports = [p for s in services for p in s.elements() if p.name == _PORT]
        if not ports:
            raise WsdlError("no wsdl:port declared")
        location_attr = ports[0].attribute("location")
        if location_attr is None:
            raise WsdlError("wsdl:port lacks a location")
        target_attr = ports[0].attribute("target")

        return cls(
            name=str(name_attr.value),
            operations=operations,
            transport=str(transport_attr.value),
            encoding_content_type=str(encoding_attr.value),
            location=str(location_attr.value),
            http_target=str(target_attr.value) if target_attr is not None else "/soap",
        )

    # ------------------------------------------------------------------
    # client configuration

    def make_client(self, connect: Callable, *, security=None):
        """Build a ready client from the description.

        ``connect`` maps the port's ``location`` to a channel factory:
        ``connect(location) -> () -> Channel`` — for a
        :class:`~repro.transport.MemoryNetwork` that's
        ``lambda loc: lambda: net.connect(loc)``; for sockets, parse the
        location into host/port and return a ``connect_tcp`` thunk.
        """
        encoding = encoding_for_content_type(self.encoding_content_type)
        channel_factory = connect(self.location)
        if self.transport == "tcp":
            return SoapTcpClient(channel_factory, encoding=encoding, security=security)
        return SoapHttpClient(
            channel_factory, encoding=encoding, security=security, target=self.http_target
        )
