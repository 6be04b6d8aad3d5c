"""Message types of the libharp ↔ HARP RM protocol (Fig. 3).

Every message is a frozen dataclass with a ``TYPE`` tag; the codec maps
dataclasses to JSON dictionaries and back.  The set mirrors the paper's
control flow:

1. ``RegisterRequest`` / ``RegisterReply`` — application registration with
   PID, allocation granularity and adaptivity capabilities.
2. ``OperatingPointsMessage`` — operating points from the application
   description file, plus the utility-subscription flag.
3. ``ActivateOperatingPoint`` — RM → application push: selected ERV, the
   derived parallelization degree, the opaque knob payload, and the
   concrete hardware threads of the allocation.
4. ``UtilityRequest`` / ``UtilityReply`` — periodic utility feedback.
5. ``DeregisterRequest`` — graceful exit.
6. ``ObservabilityQuery`` / ``ObservabilityReply`` — harpobs extension:
   allocator hot-path counters and a telemetry-registry snapshot, for
   dashboards and operator tooling (``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from functools import cache


class ProtocolViolation(ValueError):
    """A structurally invalid or unknown message."""


#: Exact types of the immutable leaves ``_tree_copy`` keeps as they are.
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@dataclass
class _Boxed:
    """One value, so ``asdict`` can copy a value on its own."""

    value: object


def _tree_copy(value: object) -> object:
    """``dataclasses.asdict``'s copy of one field value, without its
    ``copy.deepcopy`` of every leaf: immutable leaves (``str``, ``int``,
    ``float``, ``bool``, ``None`` and their subclasses, such as
    ``numpy.float64``) are kept, plain ``dict``, ``list`` and ``tuple``
    values are rebuilt (one C-level copy when they hold only leaves of
    those exact types), and anything else (a nested dataclass, a
    container subclass, an array) is copied by ``asdict`` itself."""
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    all_leaves = _LEAF_TYPES.issuperset
    if cls is dict:
        if all_leaves(map(type, value)) and all_leaves(
            map(type, value.values())
        ):
            return dict(value)
        return {_tree_copy(k): _tree_copy(v) for k, v in value.items()}
    if cls is list:
        if all_leaves(map(type, value)):
            return list(value)
        return [_tree_copy(v) for v in value]
    if cls is tuple:
        if all_leaves(map(type, value)):
            return value  # immutable all the way down
        return tuple(_tree_copy(v) for v in value)
    if isinstance(value, (str, int, float)):
        return value
    return asdict(_Boxed(value))["value"]


@dataclass(frozen=True)
class Message:
    """Base class; subclasses define a unique ``TYPE`` tag."""

    TYPE = "message"

    def to_dict(self) -> dict[str, object]:
        """``{**dataclasses.asdict(self), "type": TYPE}``, sharing no
        container with this message."""
        data = {
            name: _tree_copy(getattr(self, name))
            for name in _field_names(type(self))
        }
        data["type"] = self.TYPE
        return data


@dataclass(frozen=True)
class RegisterRequest(Message):
    """Application → RM: initial registration (§4.1.1 step 1)."""

    TYPE = "register"

    pid: int
    app_name: str
    granularity: str = "coarse"  # "coarse" | "fine"
    adaptivity: str = "static"  # "static" | "scalable" | "custom"
    provides_utility: bool = False
    push_socket: str | None = None

    def __post_init__(self) -> None:
        if self.granularity not in ("coarse", "fine"):
            raise ProtocolViolation(f"bad granularity {self.granularity!r}")
        if self.adaptivity not in ("static", "scalable", "custom"):
            raise ProtocolViolation(f"bad adaptivity {self.adaptivity!r}")


@dataclass(frozen=True)
class RegisterReply(Message):
    """RM → application: registration outcome."""

    TYPE = "register_reply"

    ok: bool
    session_id: int = 0
    error: str | None = None


@dataclass(frozen=True)
class OperatingPointsMessage(Message):
    """Application → RM: points from the description file (step 2)."""

    TYPE = "operating_points"

    pid: int
    points: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class ActivateOperatingPoint(Message):
    """RM → application: allocation decision push (step 3)."""

    TYPE = "activate"

    pid: int
    erv: list[int] = field(default_factory=list)
    degree: int = 1
    knobs: dict[str, object] = field(default_factory=dict)
    hw_threads: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class UtilityRequest(Message):
    """RM → application: utility poll (step 4)."""

    TYPE = "utility_request"

    pid: int


@dataclass(frozen=True)
class UtilityReply(Message):
    """Application → RM: current application-specific utility."""

    TYPE = "utility_reply"

    pid: int
    utility: float | None = None


@dataclass(frozen=True)
class DeregisterRequest(Message):
    """Application → RM: graceful shutdown."""

    TYPE = "deregister"

    pid: int


@dataclass(frozen=True)
class ObservabilityQuery(Message):
    """Client → RM: request allocator stats and a telemetry snapshot.

    Part of the harpobs layer (``docs/observability.md``): any connected
    client (an application, a dashboard scraper, an operator tool) can ask
    the RM for its solver hot-path counters and the metric snapshot of the
    telemetry registry without touching the RM process.
    """

    TYPE = "observability_query"

    pid: int = 0
    include_registry: bool = True


@dataclass(frozen=True)
class ObservabilityReply(Message):
    """RM → client: allocator counters plus the registry snapshot."""

    TYPE = "observability_reply"

    ok: bool = True
    allocator: dict[str, float] = field(default_factory=dict)
    registry: dict[str, object] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class Ack(Message):
    """Generic acknowledgement."""

    TYPE = "ack"

    ok: bool = True
    error: str | None = None


@dataclass(frozen=True)
class ErrorReply(Message):
    """RM → peer: the request could not be understood or served.

    Sent instead of dropping the connection when the RM receives a frame
    it cannot decode (garbage JSON, unknown TYPE, malformed fields) or a
    request its handler cannot process.  ``recoverable`` tells the peer
    whether the stream is still in sync (a well-framed but undecodable
    message) or about to be closed (framing integrity lost).
    """

    TYPE = "error"

    error: str = ""
    recoverable: bool = True


# -- fleet protocol (coordinator ↔ node, docs/robustness.md §6) -------------------
#
# The hierarchical RM speaks the same framed codec as the application
# protocol: a node registers with the coordinator, sends one batched
# ``NodeReport`` per fleet epoch (heartbeat + app statuses + energy), and
# receives one batched ``NodeDirective`` back.  Migrations and adoption
# are synchronous rpc exchanges because the coordinator needs the reply
# (the suspend snapshot, the running-app inventory) before it can act.


@dataclass(frozen=True)
class NodeRegister(Message):
    """Node → coordinator: join the fleet."""

    TYPE = "node_register"

    node_id: int
    capacity_slots: int


@dataclass(frozen=True)
class NodeRegisterReply(Message):
    """Coordinator → node: registration outcome and current epoch."""

    TYPE = "node_register_reply"

    ok: bool
    epoch: int = 0
    error: str | None = None


@dataclass(frozen=True)
class NodeReport(Message):
    """Node → coordinator: batched per-epoch heartbeat.

    One report per fleet epoch carries everything the coordinator needs:
    liveness (its arrival refreshes the node lease), per-app progress and
    cumulative energy (the re-admission checkpoint if this node dies),
    and free capacity for the next admission solve.
    """

    TYPE = "node_report"

    node_id: int
    epoch: int
    time_s: float = 0.0
    energy_j: float = 0.0
    free_slots: int = 0
    apps: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class NodeDirective(Message):
    """Coordinator → node: batched per-epoch placement directive."""

    TYPE = "node_directive"

    node_id: int
    epoch: int
    admissions: list[dict] = field(default_factory=list)
    kills: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class MigrateOut(Message):
    """Coordinator → node rpc: suspend an app and hand back its snapshot."""

    TYPE = "migrate_out"

    app_id: str


@dataclass(frozen=True)
class MigrateOutReply(Message):
    """Node → coordinator: the suspend snapshot (or a refusal)."""

    TYPE = "migrate_out_reply"

    ok: bool
    snapshot: dict = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class MigrateIn(Message):
    """Coordinator → node rpc: resume an app from a suspend snapshot."""

    TYPE = "migrate_in"

    snapshot: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NodeAdoptQuery(Message):
    """Restarted coordinator → node rpc: inventory for re-adoption."""

    TYPE = "node_adopt_query"

    epoch: int = 0


@dataclass(frozen=True)
class NodeAdoptReply(Message):
    """Node → coordinator: running apps and capacity for re-adoption."""

    TYPE = "node_adopt_reply"

    node_id: int
    capacity_slots: int = 0
    time_s: float = 0.0
    energy_j: float = 0.0
    apps: list[dict] = field(default_factory=list)


_MESSAGE_TYPES: dict[str, type[Message]] = {
    cls.TYPE: cls
    for cls in (
        RegisterRequest,
        RegisterReply,
        OperatingPointsMessage,
        ActivateOperatingPoint,
        UtilityRequest,
        UtilityReply,
        DeregisterRequest,
        ObservabilityQuery,
        ObservabilityReply,
        Ack,
        ErrorReply,
        NodeRegister,
        NodeRegisterReply,
        NodeReport,
        NodeDirective,
        MigrateOut,
        MigrateOutReply,
        MigrateIn,
        NodeAdoptQuery,
        NodeAdoptReply,
    )
}


def encode_message(message: Message) -> dict[str, object]:
    """Message → JSON-compatible dictionary."""
    return message.to_dict()


def decode_message(data: dict[str, object]) -> Message:
    """JSON dictionary → typed message; raises ProtocolViolation on junk."""
    if not isinstance(data, dict) or "type" not in data:
        raise ProtocolViolation("message without a type tag")
    tag = data["type"]
    cls = _MESSAGE_TYPES.get(tag)
    if cls is None:
        raise ProtocolViolation(f"unknown message type {tag!r}")
    payload = dict(data)
    del payload["type"]
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ProtocolViolation(f"malformed {tag} message: {exc}") from exc
