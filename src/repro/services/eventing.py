"""WS-Eventing-lite: publish/subscribe over the generic engine.

Figure 3 of the paper stacks WS-Eventing directly on the SOAP layer,
"ignorant of the underlying encoding and transport layers".  This module is
a compact rendition of that box:

* an :class:`EventSource` service accepts ``Subscribe`` / ``Unsubscribe``
  operations (delivery address + optional XPath-lite filter) and pushes
  each published event to every matching subscriber as a *one-way* SOAP
  message — the non-request-response MEP §2 mentions;
* a :class:`NotificationSink` listens for those one-way messages and hands
  the event bodies to a callback.

Both directions run on the same engine/policy machinery as everything
else, so a subscriber may ask for XML delivery while the source's own
clients speak BXSA — and filters are evaluated on bXDM with
:mod:`repro.xdm.xpath`, i.e. against the logical structure, never the
wire bytes.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass
from typing import Callable

from repro.core.dispatcher import Dispatcher
from repro.core.engine import SoapEngine
from repro.core.envelope import SoapEnvelope
from repro.core.fault import CLIENT_FAULT, SoapFault
from repro.core.policies import EncodingPolicy, XMLEncoding, encoding_for_content_type
from repro.transport.base import BufferedChannel, Channel, Listener, TransportError
from repro.transport.host import ConnectionHost
from repro.transport.tcp_binding import TcpClientBinding, TcpServerBinding
from repro.xdm.builder import element, leaf
from repro.xdm.nodes import ElementNode, Node
from repro.xdm.path import children_named
from repro.xdm.xpath import XPathError, evaluate, parse_path


@dataclass
class Subscription:
    """One active subscription."""

    subscription_id: str
    address: str  #: connector key of the subscriber's notification sink
    xpath_filter: str | None  #: deliver only events matching this path
    content_type: str  #: encoding the subscriber asked to receive


class EventSource:
    """The subscription manager + publisher half.

    Parameters
    ----------
    connect:
        ``(address) -> Channel`` used to reach subscribers' sinks.
    dispatcher:
        Optional existing dispatcher to add the eventing operations to
        (a source can share a service with ordinary operations).
    """

    def __init__(
        self,
        connect: Callable[[str], Channel],
        dispatcher: Dispatcher | None = None,
    ) -> None:
        self._connect = connect
        self._subscriptions: dict[str, Subscription] = {}
        self._lock = threading.Lock()
        self.dispatcher = dispatcher if dispatcher is not None else Dispatcher()
        self.dispatcher.register("Subscribe", self._on_subscribe)
        self.dispatcher.register("Unsubscribe", self._on_unsubscribe)
        #: Count of delivery failures (dead sinks), for monitoring.
        self.delivery_failures = 0

    # ------------------------------------------------------------------
    # subscription operations (server side)

    def _on_subscribe(self, request: SoapEnvelope):
        body = request.body_root
        address_nodes = children_named(body, "address")
        if not address_nodes:
            raise SoapFault(CLIENT_FAULT, "Subscribe requires <address>")
        address = str(address_nodes[0].value)
        filter_nodes = children_named(body, "filter")
        xpath_filter = str(filter_nodes[0].value) if filter_nodes else None
        if xpath_filter:
            try:
                parse_path(xpath_filter)
            except XPathError as exc:
                raise SoapFault(CLIENT_FAULT, f"bad filter: {exc}") from exc
        encoding_nodes = children_named(body, "encoding")
        content_type = (
            str(encoding_nodes[0].value) if encoding_nodes else XMLEncoding.content_type
        )
        try:
            encoding_for_content_type(content_type)
        except ValueError as exc:
            raise SoapFault(CLIENT_FAULT, str(exc)) from exc

        subscription = Subscription(uuid.uuid4().hex, address, xpath_filter or None, content_type)
        with self._lock:
            self._subscriptions[subscription.subscription_id] = subscription
        return element(
            "SubscribeResponse",
            leaf("subscriptionId", subscription.subscription_id, "string"),
        )

    def _on_unsubscribe(self, request: SoapEnvelope):
        id_nodes = children_named(request.body_root, "subscriptionId")
        if not id_nodes:
            raise SoapFault(CLIENT_FAULT, "Unsubscribe requires <subscriptionId>")
        subscription_id = str(id_nodes[0].value)
        with self._lock:
            removed = self._subscriptions.pop(subscription_id, None)
        if removed is None:
            raise SoapFault(CLIENT_FAULT, f"unknown subscription {subscription_id!r}")
        return element("UnsubscribeResponse")

    # ------------------------------------------------------------------
    # publishing

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def publish(self, event: Node) -> int:
        """Push one event element to every matching subscriber.

        Returns the number of deliveries attempted.  Filters are evaluated
        against a wrapper element so paths address the event by its own
        name (e.g. ``reading[@station="3"]``).
        """
        probe = element("published", event)
        with self._lock:
            targets = list(self._subscriptions.values())
        delivered = 0
        for subscription in targets:
            if subscription.xpath_filter:
                try:
                    if not evaluate(probe, subscription.xpath_filter):
                        continue
                except XPathError:
                    continue  # validated at subscribe; defensive
            if self._deliver(subscription, event):
                delivered += 1
        return delivered

    def _deliver(self, subscription: Subscription, event: Node) -> bool:
        envelope = SoapEnvelope.wrap(
            element(
                "Notify",
                leaf("subscriptionId", subscription.subscription_id, "string"),
                event,
            )
        )
        try:
            channel = self._connect(subscription.address)
        except TransportError:
            self.delivery_failures += 1
            return False
        try:
            encoding = encoding_for_content_type(subscription.content_type)
            engine = SoapEngine(encoding, TcpClientBinding(channel))
            engine.send(envelope)  # one-way: no response expected
            return True
        except TransportError:
            self.delivery_failures += 1
            return False
        finally:
            channel.close()


class NotificationSink(ConnectionHost):
    """Subscriber half: receives one-way Notify messages on a listener,
    one per connection (``start``/``stop``/``with`` are the host's)."""

    def __init__(
        self,
        listener: Listener,
        on_event: Callable[[str, ElementNode], None],
        *,
        encoding: EncodingPolicy | None = None,
        name: str = "event-sink",
    ) -> None:
        super().__init__(listener, self._receive_one, name=name)
        self._on_event = on_event
        self._encoding = encoding if encoding is not None else XMLEncoding()

    def _receive_one(self, channel: BufferedChannel) -> None:
        engine = SoapEngine(self._encoding, TcpServerBinding(channel))
        try:
            envelope, _content_type = self.receive(channel, lambda _channel: engine.receive())
            body = envelope.body_root
            if body.name.local != "Notify":
                return  # not a notification; drop (one-way: nobody to fault)
            subscription_id = str(children_named(body, "subscriptionId")[0].value)
            event = next(
                child
                for child in body.elements()
                if child.name.local != "subscriptionId"
            )
            self._on_event(subscription_id, event)
        except (TransportError, SoapFault, StopIteration):
            pass  # a malformed one-way message has no error channel
