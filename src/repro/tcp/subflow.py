"""One TCP subflow: handshake, data transfer, and teardown on a path.

A plain TCP connection is a single subflow; an MPTCP connection owns
several.  The client always initiates the handshake (as in the paper's
setup, where the multi-homed laptop connects to the single-homed MIT
server).  ``direction`` selects which side sources the data:
``"down"`` (server to client — the paper's default presentation) or
``"up"``.
"""

import enum
from typing import List, Optional

from repro.core.events import EventLoop, Timer, noop
from repro.core.packet import Packet, PacketFlags
from repro.net.fabric import AttachedPath
from repro.tcp.cc.base import CongestionControl
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import SubflowReceiver
from repro.tcp.rtt import RttEstimator
from repro.tcp.sender import SubflowSender
from repro.tcp.source import Chunk

__all__ = ["Subflow", "SubflowState"]

#: The flags of all but the handshake and teardown packets of a
#: transfer.  Flag members are singletons, so ``is`` tests "exactly
#: ACK" without going through ``enum.Flag`` operators.
_PLAIN_ACK = PacketFlags.ACK


class SubflowState(enum.Enum):
    CLOSED = "closed"
    CONNECTING = "connecting"
    ESTABLISHED = "established"
    CLOSING = "closing"
    DONE = "done"
    DEAD = "dead"


_SENDING_STATES = (SubflowState.ESTABLISHED, SubflowState.CLOSING)


class Subflow:
    """A single TCP flow between the client and the server on one path."""

    def __init__(
        self,
        loop: EventLoop,
        attached: AttachedPath,
        flow_id: int,
        subflow_id: int,
        direction: str,
        cc: CongestionControl,
        config: TcpConfig,
        is_primary: bool = True,
        backup: bool = False,
        join: bool = False,
    ) -> None:
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up': {direction}")
        self.loop = loop
        self.attached = attached
        self.flow_id = flow_id
        self.subflow_id = subflow_id
        self.direction = direction
        self._down = direction == "down"
        self.config = config
        self.is_primary = is_primary
        self.backup = backup
        self.join = join

        self.state = SubflowState.CLOSED
        self.obs = None  # optional TraceRecorder (attach_recorder)
        self.client_established = False
        self.server_established = False
        self.syn_sent_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.handshake_rtt: Optional[float] = None

        self.rtt = RttEstimator(config)
        if direction == "down":
            data_tx = attached.server_send
            self._ack_tx = attached.client_send
        else:
            data_tx = attached.client_send
            self._ack_tx = attached.server_send
        self.sender = SubflowSender(
            loop, config, cc, self.rtt, data_tx, flow_id, subflow_id
        )
        self._data_tx = data_tx
        self.receiver = SubflowReceiver(
            send_ack=self._send_ack,
            on_data=self._receiver_data,
            loop=loop,
            delayed_acks=config.delayed_acks,
            delayed_ack_timeout_s=config.delayed_ack_timeout_s,
            receive_window_bytes=config.receive_window_bytes,
        )

        self._syn_timer = Timer(loop, self._retransmit_syn)
        self._synack_timer = Timer(loop, self._retransmit_synack)
        self._syn_retries = 0
        self._synack_retries = 0
        self._synack_sent_at: Optional[float] = None
        self._fin_sent = False
        self._peer_fin_seen = False

        # Connection-level callbacks, called with this subflow (and the
        # data range or acked chunks for on_data_arrived/on_data_acked).
        self._reset_callbacks()

        self.sender.on_data_acked = lambda chunks: self.on_data_acked(self, chunks)
        self.sender.on_window_open = lambda: self.on_window_open(self)
        self.sender.on_dead = self._die
        self.sender.on_rto_event = lambda: self.on_rto(self)

        attached.register(
            flow_id, subflow_id, self._client_receive, self._server_receive
        )

    def _reset_callbacks(self) -> None:
        self.on_established = self.on_data_arrived = self.on_data_acked = noop
        self.on_window_open = self.on_dead = self.on_closed = noop
        self.on_rto = noop

    def release(self) -> None:
        """Put every callback slot that points back at an owner (here,
        in the sender, receiver, controller and timers) back on
        :func:`~repro.core.events.noop`."""
        self._reset_callbacks()
        self._syn_timer.release()
        self._synack_timer.release()
        self.sender.release()
        self.receiver.release()

    def attach_recorder(self, recorder) -> None:
        """Route this subflow's (and its sender's) events to ``recorder``."""
        self.obs = recorder
        self.sender.obs = recorder
        self.sender.obs_path = self.name

    # ------------------------------------------------------------------
    # Convenience properties
    # ------------------------------------------------------------------
    @property
    def path(self):
        return self.attached.path

    @property
    def name(self) -> str:
        return self.attached.name

    @property
    def srtt(self) -> float:
        return self.rtt.smoothed_rtt

    @property
    def sender_established(self) -> bool:
        """Whether the data-sourcing side has completed its handshake."""
        if self.direction == "down":
            return self.server_established
        return self.client_established

    @property
    def alive(self) -> bool:
        return self.state not in (SubflowState.DEAD,)

    def can_send(self) -> bool:
        """Whether the scheduler may assign a data chunk right now."""
        # ESTABLISHED/CLOSING already means alive, and a dead sender
        # reports no window space.
        return (
            self.state in _SENDING_STATES
            and (self.server_established if self._down
                 else self.client_established)
            and self.sender.window_space() > 0
        )

    def send_chunk(self, chunk: Chunk) -> None:
        """Transmit one data chunk assigned by the connection scheduler."""
        self.sender.send_chunk(chunk)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Client initiates the three-way handshake."""
        if self.state != SubflowState.CLOSED:
            return
        self.state = SubflowState.CONNECTING
        self.syn_sent_at = self.loop.now
        self._send_syn()

    def _send_syn(self) -> None:
        flags = PacketFlags.SYN
        if self.join:
            flags |= PacketFlags.MP_JOIN
        if self.obs is not None:
            self.obs.emit(
                "syn", self.loop.now, path=self.name,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                retries=self._syn_retries, join=self.join,
                backup=self.backup,
            )
        self.attached.client_send(
            Packet(flow_id=self.flow_id, subflow_id=self.subflow_id, flags=flags)
        )
        self._syn_timer.start(self.config.initial_rto_s * (2 ** self._syn_retries))

    def _retransmit_syn(self) -> None:
        if self.client_established or self.state == SubflowState.DEAD:
            return
        self._syn_retries += 1
        if self._syn_retries > self.config.max_syn_retries:
            self._die()
            return
        self._send_syn()

    def _send_synack(self) -> None:
        self._synack_sent_at = self.loop.now
        self.attached.server_send(
            Packet(
                flow_id=self.flow_id,
                subflow_id=self.subflow_id,
                flags=PacketFlags.SYN | PacketFlags.ACK,
            )
        )
        self._synack_timer.start(
            self.config.initial_rto_s * (2 ** self._synack_retries)
        )

    def _retransmit_synack(self) -> None:
        if self.server_established or self.state == SubflowState.DEAD:
            return
        self._synack_retries += 1
        if self._synack_retries > self.config.max_syn_retries:
            return
        self._send_synack()

    # ------------------------------------------------------------------
    # Packet reception — client side
    # ------------------------------------------------------------------
    def _client_receive(self, packet: Packet) -> None:
        if self.state == SubflowState.DEAD:
            return
        if packet.flags is _PLAIN_ACK:
            # Data segment (down) or acknowledgment (up): everything
            # between handshake and teardown.
            if not self._down:
                self.sender.on_ack_packet(packet)
            elif packet.payload_bytes > 0:
                self.receiver.on_data_packet(packet)
            return
        if packet.is_syn and packet.is_ack:
            self._handle_synack()
            return
        if packet.is_fin:
            self._handle_fin(receiving_side="client")
            return
        if self.direction == "down" and packet.payload_bytes > 0:
            self.receiver.on_data_packet(packet)
            return
        if self.direction == "up" and packet.is_ack:
            self.sender.on_ack_packet(packet)

    def _handle_synack(self) -> None:
        if not self.client_established:
            self.client_established = True
            self._syn_timer.stop()
            self.state = SubflowState.ESTABLISHED
            self.established_at = self.loop.now
            if self.syn_sent_at is not None:
                self.handshake_rtt = self.loop.now - self.syn_sent_at
                if self.direction == "up":
                    self.rtt.add_sample(self.handshake_rtt)
            if self.obs is not None:
                self.obs.emit(
                    "handshake", self.loop.now, path=self.name,
                    flow_id=self.flow_id, subflow_id=self.subflow_id,
                    rtt_s=self.handshake_rtt, join=self.join,
                    backup=self.backup,
                )
            self.on_established(self)
        # Complete (or re-complete, if our ACK was lost) the handshake.
        self.attached.client_send(
            Packet(flow_id=self.flow_id, subflow_id=self.subflow_id,
                   flags=PacketFlags.ACK)
        )
        if self.direction == "up":
            self.on_window_open(self)

    # ------------------------------------------------------------------
    # Packet reception — server side
    # ------------------------------------------------------------------
    def _server_receive(self, packet: Packet) -> None:
        if self.state == SubflowState.DEAD:
            return
        if packet.flags is _PLAIN_ACK and self.server_established:
            if self._down:
                if packet.payload_bytes == 0:
                    self.sender.on_ack_packet(packet)
            elif packet.payload_bytes > 0:
                self.receiver.on_data_packet(packet)
            return
        if packet.is_syn and not packet.is_ack:
            self._send_synack()
            return
        if packet.is_fin:
            self._handle_fin(receiving_side="server")
            return
        if not self.server_established and packet.is_ack:
            self.server_established = True
            self._synack_timer.stop()
            if self.direction == "down":
                if self._synack_sent_at is not None:
                    self.rtt.add_sample(self.loop.now - self._synack_sent_at)
                self.on_window_open(self)
            # Fall through: the establishing packet may carry data ("up").
        if self.direction == "up" and packet.payload_bytes > 0:
            self.receiver.on_data_packet(packet)
            return
        if self.direction == "down" and packet.is_ack and packet.payload_bytes == 0:
            self.sender.on_ack_packet(packet)

    # ------------------------------------------------------------------
    # Receiver plumbing
    # ------------------------------------------------------------------
    def _send_ack(self, rcv_nxt, echo_ts=None, sack=(), rwnd=None):
        self._ack_tx(
            Packet(
                flow_id=self.flow_id,
                subflow_id=self.subflow_id,
                ack=rcv_nxt,
                flags=PacketFlags.ACK,
                echo_ts=echo_ts,
                sack=tuple(sack) if sack else None,
                rwnd=rwnd,
            )
        )

    def _receiver_data(self, data_seq: int, length: int) -> None:
        self.on_data_arrived(self, data_seq, length)

    # ------------------------------------------------------------------
    # Teardown (four-way FIN exchange, initiated by the data sender)
    # ------------------------------------------------------------------
    def start_close(self) -> None:
        """Send a FIN from the data-sourcing side once the sender drains."""
        if self._fin_sent or self.state not in (
            SubflowState.ESTABLISHED, SubflowState.CLOSING
        ):
            return
        self._fin_sent = True
        self.state = SubflowState.CLOSING
        self._data_tx(
            Packet(flow_id=self.flow_id, subflow_id=self.subflow_id,
                   flags=PacketFlags.FIN | PacketFlags.ACK)
        )

    def _handle_fin(self, receiving_side: str) -> None:
        data_receiver_side = "client" if self.direction == "down" else "server"
        reply = (
            self._ack_tx if receiving_side == data_receiver_side else self._data_tx
        )
        if receiving_side == data_receiver_side:
            if self._peer_fin_seen:
                return
            self._peer_fin_seen = True
            # ACK the FIN, then send our own FIN (4-way close).
            reply(Packet(flow_id=self.flow_id, subflow_id=self.subflow_id,
                         flags=PacketFlags.ACK))
            reply(Packet(flow_id=self.flow_id, subflow_id=self.subflow_id,
                         flags=PacketFlags.FIN | PacketFlags.ACK))
            self._finish()
        else:
            # The data sender got the responder's FIN: final ACK.
            reply(Packet(flow_id=self.flow_id, subflow_id=self.subflow_id,
                         flags=PacketFlags.ACK))
            self._finish()

    def _finish(self) -> None:
        if self.state != SubflowState.DEAD:
            self.state = SubflowState.DONE
            self.on_closed(self)

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def _die(self) -> None:
        if self.state == SubflowState.DEAD:
            return
        self.state = SubflowState.DEAD
        self._syn_timer.stop()
        self._synack_timer.stop()
        self.on_dead(self)

    def fail(self) -> List[Chunk]:
        """Administratively kill the subflow; return undelivered chunks."""
        chunks = self.sender.fail()
        self._die()
        return chunks

    def send_window_update(self) -> None:
        """Emit a bare window-update packet from the client.

        Used to reproduce the single window-update packet the paper
        observed on the backup subflow in Fig. 15g.
        """
        self.attached.client_send(
            Packet(
                flow_id=self.flow_id,
                subflow_id=self.subflow_id,
                flags=PacketFlags.ACK | PacketFlags.WINDOW_UPDATE,
            )
        )

    def __repr__(self) -> str:
        role = "primary" if self.is_primary else "secondary"
        if self.backup:
            role += "/backup"
        return (
            f"Subflow({self.flow_id}.{self.subflow_id} on {self.name}, "
            f"{self.direction}, {role}, {self.state.value})"
        )
