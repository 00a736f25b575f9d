"""A GridFTP-like striped file transfer service.

The paper's separated scheme pulls netCDF files with the Globus GridFTP
C client; this package implements the behaviours that drive its measured
curves, as a real protocol over :mod:`repro.transport` channels:

* a **control channel** with a GSI-style multi-round-trip authentication
  handshake (:mod:`~repro.gridftp.auth`) — the fixed cost that dominates
  GridFTP's small-message response time in Figure 4;
* **MODE E-style striped data transfer**: the file is cut into blocks,
  each sent as ``(offset, length, flags)`` + payload over one of *n*
  parallel data channels; the receiver reassembles by offset and counts
  every backward reposition — the "seek" operations that degrade LAN
  parallel performance in Figure 5;
* single-stream transfer as the degenerate case ``n = 1``.

The client reports a :class:`~repro.gridftp.client.TransferStats` with
control round trips, auth rounds, per-stream bytes and out-of-order block
counts — exactly the quantities the experiment harness feeds into the
netsim cost model.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "GSI_CRYPTO_TIME": "auth",
        "AuthenticationError": "auth",
        "HostCredential": "auth",
        "client_handshake": "auth",
        "server_handshake": "auth",
        "GridFTPClient": "client",
        "TransferStats": "client",
        "GridFTPError": "errors",
        "StripeTimeout": "errors",
        "GridFTPServer": "server",
    },
)
