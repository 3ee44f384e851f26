"""Recorded app sessions: the unit the replay engine consumes.

A session is what RecordShell captures while a user launches an app or
clicks inside it: a set of TCP connections, each carrying one or more
HTTP transactions.  Offsets are relative to the session start (the
moment the app issues its first connection).
"""

from dataclasses import dataclass, field
from typing import List

from repro.core.errors import ConfigurationError
from repro.httpreplay.message import HttpRequest, HttpResponse

__all__ = ["Transaction", "RecordedConnection", "AppSession"]


@dataclass
class Transaction:
    """One request/response exchange on a connection."""

    request: HttpRequest
    response: HttpResponse
    #: Client-side gap after the previous response on this connection
    #: (0 for the first transaction).
    client_think_s: float = 0.0
    #: Server processing time before the response starts.
    server_think_s: float = 0.0

    def __post_init__(self) -> None:
        if self.client_think_s < 0 or self.server_think_s < 0:
            raise ConfigurationError("think times must be >= 0")


@dataclass
class RecordedConnection:
    """One TCP connection the app opened."""

    connection_id: int
    open_offset_s: float
    transactions: List[Transaction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.open_offset_s < 0:
            raise ConfigurationError("open offset must be >= 0")

    @property
    def response_bytes(self) -> int:
        return sum(t.response.body_bytes for t in self.transactions)

    @property
    def request_bytes(self) -> int:
        return sum(t.request.wire_bytes for t in self.transactions)

    @property
    def total_bytes(self) -> int:
        return self.response_bytes + self.request_bytes


@dataclass
class AppSession:
    """Everything recorded during one app launch or user interaction."""

    name: str
    connections: List[RecordedConnection] = field(default_factory=list)

    @property
    def connection_count(self) -> int:
        return len(self.connections)

    @property
    def total_bytes(self) -> int:
        return sum(c.total_bytes for c in self.connections)

    @property
    def largest_connection_bytes(self) -> int:
        if not self.connections:
            return 0
        return max(c.response_bytes for c in self.connections)

    def __repr__(self) -> str:
        return (
            f"AppSession({self.name}: {self.connection_count} connections, "
            f"{self.total_bytes / 1024:.0f} KB total)"
        )
