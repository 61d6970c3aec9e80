"""Wire protocol for the networked query server: length-prefixed JSON.

Every message -- request or response -- is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Framing first means the stream never needs a sentinel scan, a partial
read is always detectable, and a malformed payload poisons exactly one
frame, not the connection.

Requests are objects with an ``op``:

* ``{"op": "query", "sql": "...", "step": 40}`` -- evaluate, return the
  scalar;
* ``{"op": "mask", "sql": "...", "step": 40}`` -- COUNT queries only:
  also return the WHERE bitvector (compressed words, base64);
* ``{"op": "stats"}`` -- live counters: the server block (served /
  rejected / errors, per-shard dispatch counts and respawns, and the
  replication state -- epoch, routes, last placement cycle) plus one
  entry per shard worker (service counters, cache hit rates, and the
  hot-set snapshot: access frequencies and replica inventory).
  ``repro serve-stats`` renders this payload;
* ``{"op": "ping"}`` -- liveness.

Responses carry ``{"ok": true, ...}`` or a structured error
``{"ok": false, "error": {"type": ..., "message": ...}}`` where ``type``
is one of ``overload`` (admission rejected -- retry later), ``query``
(the SQL is at fault), ``protocol`` (the frame is at fault), or
``internal``.  The server answers *every* well-framed request -- errors
are data, never dropped connections -- which is what lets a load
generator distinguish rejection from failure.

Bitvectors cross the wire compressed: the WAH word array is sent verbatim
(base64 of the little-endian ``uint32`` buffer), so the network cost of a
mask result tracks its compressed size, the same economy the paper's
storage argument makes.

Both asyncio (server side) and blocking-socket (client side) frame
helpers live here, plus :class:`ServiceClient`, the minimal client the
CLI examples and the load generator use.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any

import numpy as np

from repro.bitmap.wah import WAHBitVector

#: Frame length header: 4-byte big-endian unsigned.
_HEADER = struct.Struct(">I")
#: Hard per-frame ceiling; a length beyond this is a protocol error, not
#: an allocation.  Masks are WAH-compressed, so real frames sit far below.
MAX_FRAME_BYTES = 64 << 20

PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """Raised for malformed frames or payloads."""


# ------------------------------------------------------------------ frames
def encode_frame(payload: dict[str, Any]) -> bytes:
    """One message -> header + JSON bytes."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    """JSON bytes -> message, with protocol-typed failures."""
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def check_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds limit {MAX_FRAME_BYTES}"
        )
    return length


async def read_frame(reader) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(header))
        if not more:
            raise ProtocolError("connection closed mid-header")
        header += more
    length = check_length(_HEADER.unpack(header)[0])
    try:
        body = await reader.readexactly(length)
    except Exception as exc:  # IncompleteReadError and friends
        raise ProtocolError(f"connection closed mid-frame: {exc}") from exc
    return decode_body(body)


async def write_frame(writer, payload: dict[str, Any]) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(payload))
    await writer.drain()


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Blocking-socket frame write (client side)."""
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking-socket frame read; ``None`` on clean EOF at a boundary."""
    header = _recv_exactly(sock, _HEADER.size, "mid-header", eof_ok=True)
    if header is None:
        return None
    length = check_length(_HEADER.unpack(header)[0])
    return decode_body(_recv_exactly(sock, length, "mid-frame"))


def _recv_exactly(
    sock: socket.socket, n: int, where: str, *, eof_ok: bool = False
) -> bytearray | None:
    """Read exactly ``n`` bytes into one preallocated buffer (growing
    ``bytes`` chunk by chunk is quadratic in ``n``); ``None`` when
    ``eof_ok`` and the peer closed before sending any."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:], min(1 << 16, n - got))
        if not read:
            if eof_ok and not got:
                return None
            raise ProtocolError(f"connection closed {where}")
        got += read
    return buf


# ------------------------------------------------------------- bitvectors
def encode_mask(vector: WAHBitVector) -> dict[str, Any]:
    """WAH bitvector -> JSON-safe payload (compressed words, base64)."""
    words = np.ascontiguousarray(vector.words, dtype="<u4")
    return {
        "n_bits": int(vector.n_bits),
        "words": base64.b64encode(words.tobytes()).decode("ascii"),
    }


def decode_mask(payload: dict[str, Any]) -> WAHBitVector:
    """Inverse of :func:`encode_mask`; word-exact round trip."""
    try:
        raw = base64.b64decode(payload["words"], validate=True)
        n_bits = int(payload["n_bits"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad mask payload: {exc}") from exc
    if len(raw) % 4:
        raise ProtocolError(f"mask byte length {len(raw)} not word-aligned")
    words = np.frombuffer(raw, dtype="<u4").astype(np.uint32)
    return WAHBitVector(words, n_bits)


# ----------------------------------------------------------------- errors
def error_response(kind: str, message: str) -> dict[str, Any]:
    """The structured failure shape every error takes on the wire."""
    return {"ok": False, "error": {"type": kind, "message": message}}


class RemoteQueryError(RuntimeError):
    """Client-side image of a server-reported error."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


class RemoteOverloadError(RemoteQueryError):
    """The server's admission control rejected the query; retry later."""

    def __init__(self, message: str) -> None:
        super().__init__("overload", message)


def raise_for_error(response: dict[str, Any]) -> dict[str, Any]:
    """Return ``response`` if ok, else raise the matching client error."""
    if response.get("ok"):
        return response
    err = response.get("error") or {}
    kind = err.get("type", "internal")
    message = err.get("message", "unknown server error")
    if kind == "overload":
        raise RemoteOverloadError(message)
    raise RemoteQueryError(kind, message)


# ----------------------------------------------------------------- client
class ServiceClient:
    """Minimal blocking client for the query server.

    One socket, sequential request/response::

        with ServiceClient("127.0.0.1", 7421) as client:
            result = client.query("SELECT MI FROM temperature, salinity")
            print(result["value"], result["stats"]["total_s"])

    Raises :class:`RemoteOverloadError` when the server sheds load and
    :class:`RemoteQueryError` for query/protocol faults, mirroring the
    in-process service's exception split.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7421, *, timeout: float = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def _call(self, request: dict[str, Any]) -> dict[str, Any]:
        send_frame(self._sock, request)
        response = recv_frame(self._sock)
        if response is None:
            raise ProtocolError("server closed the connection")
        return raise_for_error(response)

    def query(self, sql: str, *, step: int | None = None) -> dict[str, Any]:
        """Evaluate ``sql``; returns the response dict (``value`` etc.)."""
        return self._call({"op": "query", "sql": sql, "step": step})

    def mask(self, sql: str, *, step: int | None = None) -> dict[str, Any]:
        """COUNT query returning the WHERE bitvector.

        The response's ``mask`` field is decoded to a
        :class:`~repro.bitmap.wah.WAHBitVector` in place.
        """
        response = self._call({"op": "mask", "sql": sql, "step": step})
        response["mask"] = decode_mask(response["mask"])
        return response

    def stats(self) -> dict[str, Any]:
        return self._call({"op": "stats"})

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("ok"))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
