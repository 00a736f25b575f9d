"""Shared plumbing for the separated-scheme data channels."""

from __future__ import annotations

from typing import Protocol, runtime_checkable


class DataChannelError(Exception):
    """Publishing or fetching through a data channel failed."""


@runtime_checkable
class DataChannel(Protocol):
    """What the separated scheme needs from a channel implementation."""

    scheme: str

    def publish(self, name: str, blob: bytes) -> str:
        """Store ``blob`` under ``name``; returns the URL for the control
        message."""
        ...

    def fetch(self, url: str) -> bytes | memoryview:
        """Resolve a URL previously returned by :meth:`publish`; the file's
        bytes as a read-only buffer."""
        ...


class UrlResolver:
    """Scheme-dispatching fetch function for the verification server."""

    def __init__(self) -> None:
        self._channels: dict[str, DataChannel] = {}

    def register(self, channel: DataChannel) -> "UrlResolver":
        self._channels[channel.scheme] = channel
        return self

    def fetch(self, url: str) -> bytes | memoryview:
        scheme, sep, _rest = url.partition("://")
        if not sep:
            raise DataChannelError(f"malformed data URL {url!r}")
        channel = self._channels.get(scheme)
        if channel is None:
            raise DataChannelError(f"no data channel registered for scheme {scheme!r}")
        return channel.fetch(url)


def split_url(url: str, expected_scheme: str) -> tuple[str, str]:
    """``scheme://authority/name`` → (authority, /name)."""
    scheme, sep, rest = url.partition("://")
    if not sep or scheme != expected_scheme:
        raise DataChannelError(f"expected a {expected_scheme} URL, got {url!r}")
    authority, slash, name = rest.partition("/")
    if not slash or not name:
        raise DataChannelError(f"URL {url!r} lacks a file path")
    return authority, "/" + name
