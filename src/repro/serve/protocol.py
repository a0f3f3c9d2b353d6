"""JSON-line wire protocol for the WCM job server.

Every message — request or response — is one JSON object on one
``\\n``-terminated line over a Unix domain socket. One connection may
carry any number of requests; the server answers each in order on the
same connection. The framing is deliberately dumb: any language (or
``nc -U``) can speak it, a torn line is detected by the missing
newline, and a hostile or confused client can at worst cost the
server one bounded read buffer.

Requests carry an ``op``:

``ping``
    liveness + drain status.
``submit``
    ``{"op": "submit", "kind": K, "params": {...},
    "priority": "interactive"|"normal"|"batch",
    "deadline_s": S, "wait": bool, "timeout_s": T}``.
    The response reports the admission verdict: ``queued`` /
    ``coalesced`` (single-flight attach to an identical in-flight
    job) / ``cached`` (served from the result cache without running
    anything) / ``shed`` (queue full or draining; carries
    ``retry_after_s``) / ``quarantined`` (circuit breaker open for
    this job's die). With ``wait`` the response arrives only once the
    job is terminal (or ``timeout_s`` elapses).
``wait``
    block until a job id is terminal (bounded by ``timeout_s``).
``jobs`` / ``stats``
    queue snapshot / counters, breaker and worker state.
``drain``
    begin graceful drain (finish in-flight, checkpoint the rest).

Responses always carry ``"ok": true|false``; job-bearing responses
carry ``job_id``, ``state`` and — when terminal — ``result`` or
``error``.

Slow-client protection lives at this layer: reads are bounded by
:data:`MAX_LINE` bytes and by the socket timeout the server sets, so
a client that dribbles bytes or stops reading is disconnected without
ever touching the scheduler (its jobs keep running; results remain
addressable by job id and by content fingerprint).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from repro.util.errors import ReproError
from repro.util.fingerprint import fingerprint

#: wire-format / job-identity schema; bump on incompatible change
PROTOCOL_VERSION = 1

#: largest accepted message line (a submit with a big edit stream is
#: a few KiB; anything near this is hostile or broken)
MAX_LINE = 4 * 1024 * 1024

# -- job states -------------------------------------------------------------
QUEUED = "queued"          # admitted, waiting for a worker
RUNNING = "running"        # on a worker (or inline, for eco jobs)
DONE = "done"              # terminal: result available
FAILED = "failed"          # terminal: non-retryable error or retries spent
SHED = "shed"              # terminal: load-shed / deadline / drain refusal
QUARANTINED = "quarantined"  # terminal: circuit breaker open for this die

TERMINAL_STATES = (DONE, FAILED, SHED, QUARANTINED)

# -- priority classes (lower rank wins) -------------------------------------
PRIORITIES = ("interactive", "normal", "batch")
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


class ProtocolError(ReproError):
    """Malformed message: not JSON, not an object, or oversized."""


def job_fingerprint(kind: str, params: Dict[str, Any]) -> str:
    """Content identity of a job: two submissions with equal
    fingerprints are the same computation (single-flight + cache key).
    """
    return fingerprint({"kind": "serve-job", "schema": PROTOCOL_VERSION,
                        "job_kind": kind, "params": params})


def encode(message: Dict[str, Any]) -> bytes:
    """One message as one compact JSON line."""
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}")
    return message


class LineChannel:
    """Buffered line-oriented reader/writer over one socket.

    Owns its read buffer so partial lines survive between reads;
    honors the socket's timeout for both directions. ``recv`` returns
    ``None`` on a clean EOF and raises :class:`ProtocolError` when the
    peer exceeds :data:`MAX_LINE` without a newline (the caller should
    drop the connection — there is no way to resynchronize).
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = b""

    def recv(self) -> Optional[Dict[str, Any]]:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1:]
                if not line.strip():
                    continue  # tolerate blank keep-alive lines
                return decode(line)
            if len(self._buffer) > MAX_LINE:
                raise ProtocolError(
                    f"message exceeds {MAX_LINE} bytes without a newline")
            chunk = self.sock.recv(65536)
            if not chunk:
                if self._buffer.strip():
                    raise ProtocolError("connection closed mid-message")
                return None
            self._buffer += chunk

    def send(self, message: Dict[str, Any]) -> None:
        self.sock.sendall(encode(message))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def validate_priority(priority: str) -> str:
    if priority not in PRIORITY_RANK:
        raise ProtocolError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}")
    return priority
