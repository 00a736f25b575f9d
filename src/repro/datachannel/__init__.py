"""The conventional "separated" data channels (§1, §6 of the paper).

In the separated scheme the SOAP message carries only a URL; the bulk data
travels out of band as a netCDF file served over HTTP or a GridFTP-like
striped transfer.  These classes package that pattern:

* ``publish`` writes the file to a real spool directory (the disk I/O the
  paper charges the separated scheme for) and returns the URL to put in
  the control message;
* ``fetch`` resolves a URL back to bytes on the consumer side (the
  verification server), downloading over the corresponding protocol.

A :class:`UrlResolver` dispatches on URL scheme so one service can accept
references to either channel.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "DataChannelError": "base",
        "UrlResolver": "base",
        "HttpDataChannel": "httpchannel",
        "GridFTPDataChannel": "gridftpchannel",
    },
)
