"""Length-prefixed TCP framing for the distributed sweep service.

Every frame is a 9-byte header — one message-type byte, a 4-byte
big-endian payload length, and a CRC32 of the payload — followed by
the payload.  The checksum turns in-transit payload corruption (bit
rot, a buggy middlebox, a truncated write from a dying worker)
into a :class:`WireError` the executor can heal by redispatching,
instead of silently unpickling damaged data.  Control frames
(``HELLO``, ``DONE``, job submissions, streamed reports) carry UTF-8
JSON; shard dispatch and results carry pickle, because task kwargs and
:class:`~repro.workload.report.TransferReport` values are arbitrary
Python data.

Security model: the protocol is **trust-the-network** — pickle over
TCP executes arbitrary code on unpickling, so workers must only
listen on loopback or an otherwise trusted/tunnelled network, exactly
like the SSH-launched compute helpers this replaces.  The ``HELLO``
handshake carries the sender's wire version and source-tree
fingerprint; a worker refuses mismatched clients so two checkouts can
never silently mix results.

Message types
-------------
``HELLO``      both directions, JSON ``{version, fingerprint, pid}``
``SHARD``      client -> worker, pickle ``(shard_id, [SimTask...])``
``RESULT``     worker -> client, pickle ``(shard_id, [(value, wall, pid)...])``
``SHARD_ERR``  worker -> client, JSON ``{shard_id, error}``
``HEARTBEAT``  worker -> client, empty (legacy liveness) or JSON
               ``STATS`` payload ``{pid, tasks_done, in_flight,
               queue_depth, tasks_per_s, rss_kb, uptime_s,
               interval_s}``; both forms prove liveness while a shard
               runs, the payload additionally feeds the telemetry
               bus (:mod:`repro.obs.telemetry`).  An empty payload
               stays valid so the frame semantics are unchanged —
               no ``WIRE_VERSION`` bump (the fingerprint handshake
               already pins both sides to one source tree).
``SHUTDOWN``   client -> worker, empty; close the connection
``JOB``        client -> service, JSON workload submission
``REPORT``     service -> client, JSON one streamed task result
``DONE``       service -> client, JSON final stats/summary
``REFUSED``    either direction, JSON ``{error}`` before closing
"""

import argparse
import contextlib
import json
import os
import pickle
import socket
import struct
import zlib
from typing import Any, Callable, Optional, Tuple

from repro.core.errors import ConfigurationError, ReproError

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "MSG_HELLO",
    "MSG_SHARD",
    "MSG_RESULT",
    "MSG_SHARD_ERR",
    "MSG_HEARTBEAT",
    "MSG_SHUTDOWN",
    "MSG_JOB",
    "MSG_REPORT",
    "MSG_DONE",
    "MSG_REFUSED",
    "HEARTBEAT_TIMEOUT_S",
    "MAX_HEARTBEAT_INTERVAL_S",
    "accept_hello",
    "client_hello",
    "close_quietly",
    "dial",
    "listen_address",
    "parse_address",
    "recv_frame",
    "recv_json",
    "send_frame",
    "send_json",
    "send_pickle",
    "serve_connections",
]

#: Bump on any incompatible framing or message-semantics change.
#: v2: the frame header grew a CRC32 of the payload.
WIRE_VERSION = 2

#: Refuse absurd frames before allocating for them (corrupt peer,
#: port scanner, wrong protocol): 256 MiB is far above any shard.
MAX_FRAME_BYTES = 256 * 1024 * 1024

MSG_HELLO = 1
MSG_SHARD = 2
MSG_RESULT = 3
MSG_SHARD_ERR = 4
MSG_HEARTBEAT = 5
MSG_SHUTDOWN = 6
MSG_JOB = 7
MSG_REPORT = 8
MSG_DONE = 9
MSG_REFUSED = 10

_HEADER = struct.Struct(">BII")
_NO_LOCK = contextlib.nullcontext()

#: recv deadline between frames while a shard runs: a worker silent
#: for this long is declared dead and its shard redispatched.
HEARTBEAT_TIMEOUT_S = 10.0
#: Longest heartbeat interval a worker may be started with — the
#: telemetry bus's own rule (stale past 3x the interval) applied to the
#: deadline above, so a healthy worker always gets three beats in.
MAX_HEARTBEAT_INTERVAL_S = HEARTBEAT_TIMEOUT_S / 3

#: How long the accepting side waits for a new connection's HELLO.
HANDSHAKE_TIMEOUT_S = 30.0


class WireError(ReproError):
    """The peer hung up, timed out, or sent a malformed frame."""


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"",
               lock=None) -> None:
    """Send one frame; ``lock`` serializes concurrent senders."""
    header = _HEADER.pack(msg_type, len(payload), zlib.crc32(payload))
    with lock if lock is not None else _NO_LOCK:
        sock.sendall(header + payload)


def send_json(sock: socket.socket, msg_type: int, obj: Any,
              lock=None) -> None:
    send_frame(sock, msg_type, json.dumps(obj).encode("utf-8"), lock=lock)


def send_pickle(sock: socket.socket, msg_type: int, obj: Any,
                lock=None) -> None:
    send_frame(sock, msg_type,
               pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
               lock=lock)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout:
            raise WireError(f"peer silent past the {sock.gettimeout():g}s "
                            f"receive deadline")
        except OSError as exc:
            raise WireError(f"connection lost: {exc}")
        if not chunk:
            raise WireError("peer closed the connection mid-frame"
                            if chunks or remaining != nbytes
                            else "peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               timeout_s: Optional[float] = None) -> Tuple[int, bytes]:
    """Receive one frame as ``(msg_type, payload)``.

    ``timeout_s`` bounds the wait for *this* frame (``None`` keeps the
    socket's current timeout).  Raises :class:`WireError` on EOF,
    timeout, a malformed header, or a payload checksum mismatch.
    """
    if timeout_s is not None:
        sock.settimeout(timeout_s)
    header = _recv_exact(sock, _HEADER.size)
    msg_type, length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap (protocol mismatch?)")
    payload = _recv_exact(sock, length) if length else b""
    if zlib.crc32(payload) != crc:
        raise WireError(f"frame checksum mismatch on message {msg_type} "
                        f"(payload corrupted in transit)")
    return msg_type, payload


def recv_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed JSON payload: {exc}")


def hello_payload() -> dict:
    """The handshake body both sides exchange on connect."""
    from repro.parallel.cache import code_fingerprint

    return {
        "version": WIRE_VERSION,
        "fingerprint": code_fingerprint(),
        "pid": os.getpid(),
    }


def check_hello(local: dict, remote: dict, who: str) -> Optional[str]:
    """Return an error string when two HELLOs must not work together."""
    if remote.get("version") != local["version"]:
        return (f"{who} speaks wire version {remote.get('version')!r}, "
                f"this side speaks {local['version']}")
    if remote.get("fingerprint") != local["fingerprint"]:
        return (f"{who} runs a different repro source tree "
                f"(fingerprint mismatch) — results would not be "
                f"comparable; update both checkouts to the same revision")
    return None


def close_quietly(sock: socket.socket) -> None:
    """Close a socket whose peer may already have torn it down."""
    try:
        sock.close()
    except OSError:
        pass


def accept_hello(conn: socket.socket, log: Callable[[str], None]) -> bool:
    """Server side of the handshake: HELLO in, check, REFUSED | HELLO out.

    Returns False after answering REFUSED (the caller just closes).
    """
    local_hello = hello_payload()
    msg_type, payload = recv_frame(conn, timeout_s=HANDSHAKE_TIMEOUT_S)
    if msg_type != MSG_HELLO:
        send_json(conn, MSG_REFUSED, {"error": "expected HELLO"})
        return False
    problem = check_hello(local_hello, recv_json(payload), who="client")
    if problem is not None:
        log(f"refusing client: {problem}")
        send_json(conn, MSG_REFUSED, {"error": problem})
        return False
    send_json(conn, MSG_HELLO, local_hello)
    return True


def client_hello(conn: socket.socket, timeout_s: float, who: str) -> None:
    """Client side: NODELAY, HELLO out, expect HELLO | REFUSED, check.

    ``who`` names the peer in error text.  Raises :class:`WireError`
    when the peer refuses, answers out of protocol, or must not be
    mixed with this side (wire version / source fingerprint).
    """
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    local_hello = hello_payload()
    send_json(conn, MSG_HELLO, local_hello)
    msg_type, payload = recv_frame(conn, timeout_s=timeout_s)
    if msg_type == MSG_REFUSED:
        raise WireError(f"{who} refused: {recv_json(payload).get('error')}")
    if msg_type != MSG_HELLO:
        raise WireError(f"expected HELLO, got message {msg_type}")
    problem = check_hello(local_hello, recv_json(payload), who=who)
    if problem is not None:
        raise WireError(problem)


def dial(address: Tuple[str, int], timeout_s: float,
         who: str) -> socket.socket:
    """Connect to ``address`` and complete the client handshake."""
    conn = socket.create_connection(address, timeout=timeout_s)
    try:
        client_hello(conn, timeout_s, who)
    except BaseException:
        close_quietly(conn)
        raise
    return conn


def parse_address(text: str, allow_port_zero: bool = False) -> Tuple[str, int]:
    """Parse one ``HOST:PORT``; port 0 only where the kernel may pick.

    The listener is IPv4, so a host with ``:``, ``[]`` or spaces is refused.
    """
    part = text.strip()
    host, sep, port_text = part.rpartition(":")
    host = host.strip()
    if (not sep or not host or "," in part
            or any(c in ":[]" or c.isspace() for c in host)):
        raise ConfigurationError(f"address must be one HOST:PORT with an "
                                 f"IPv4 or named host, got {part!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"port must be an integer: {part!r}")
    lowest = 0 if allow_port_zero else 1
    if not lowest <= port < 65536:
        raise ConfigurationError(f"port out of range: {part!r}")
    return host, port


def listen_address(text: str) -> Tuple[str, int]:
    """argparse ``type=`` for ``--listen HOST:PORT`` (port 0 allowed)."""
    try:
        return parse_address(text, allow_port_zero=True)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def serve_connections(
    address: Tuple[str, int],
    name: str,
    handle: Callable[[socket.socket], None],
    log: Callable[[str], None],
    once: bool = False,
    on_listening: Optional[Callable[[], None]] = None,
) -> int:
    """Bind, announce, and serve one connection at a time.

    Prints exactly one ``<name> listening on HOST:PORT pid=N`` line on
    stdout (launchers binding port 0 scrape it), then calls
    ``on_listening`` and loops ``accept -> handle(conn) -> close``.
    Per-connection isolation: nothing one connection does — a crashing
    job, a mid-frame disconnect, a protocol violation — ends the loop.
    Returns the process exit code (``once`` stops after one connection,
    Ctrl-C stops cleanly).
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind(address)
        server.listen(4)
        bound_host, bound_port = server.getsockname()[:2]
        print(f"{name} listening on {bound_host}:{bound_port} "
              f"pid={os.getpid()}", flush=True)
        if on_listening is not None:
            on_listening()
        while True:
            conn, peer = server.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            log(f"connection from {peer[0]}:{peer[1]}")
            try:
                handle(conn)
            except WireError as exc:
                log(f"connection error: {exc}")
            except Exception as exc:  # noqa: BLE001 - stay serving
                log(f"connection failed: {type(exc).__name__}: {exc}")
            finally:
                close_quietly(conn)
            if once:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        server.close()
