"""The parent-side lifecycle of one worker slot, as an I/O-free machine.

A *slot* is one ``(shard, replica)`` of the fleet; its *incarnations*
are the worker processes that serve it one after another, numbered by
generation.  :class:`Lifecycle` owns every decision about them — the
current generation, the requests pending on it, the fence that keeps a
frame from completing a request of another generation, reporting a
request lost exactly once when its incarnation ends, and when to
terminate a hung worker and spawn the next one — and does none of the
work itself: it is *fed events* and *returns actions*.

==========================  ===========================================
event (method)              meaning
==========================  ===========================================
``sent(rid)``               request ``rid`` is about to be written
``refused(rid)``            ... and the socket refused it
``frame(gen, rid)``         a response to ``rid`` stamped ``gen`` arrived
``abandon(rid)``            the sender forgot ``rid``
``eof()``                   the incarnation's socket ended
``tick(now, beat, alive)``  a health sweep: wall clock, the worker's
                            last heartbeat stamp, is its process alive
``spawned(gen)``            incarnation ``gen`` is up
``close()``                 the fleet shuts down
==========================  ===========================================

Actions are :class:`Complete`, :class:`Terminate` and :class:`Spawn`.
:class:`~repro.serving.supervisor.ShardRuntime` performs them against
the sockets and processes, feeding every event under one lock; the
machine imports no I/O, thread or clock module.

An incarnation is *up* until its socket ends (``eof``), which reports
its pending requests lost at once.  It is replaced only when a tick
sees its process dead, or alive with a heartbeat older than
``heartbeat_timeout`` (then it is terminated first), so a slot respawns
at most once per health sweep.  A request sent while no incarnation is
up is lost at once, without reaching a socket.
"""

from __future__ import annotations

from typing import NamedTuple, Union


class Complete(NamedTuple):
    """Fire ``rid``'s completion hook: with the response frame when
    ``ok``, with ``None`` when the request can never be answered."""

    rid: int
    ok: bool


class Terminate(NamedTuple):
    """Signal incarnation ``generation``'s process to stop."""

    generation: int


class Spawn(NamedTuple):
    """Start incarnation ``generation`` and report it with
    ``spawned(generation)``; ``reason`` is ``"crash"`` or ``"hung"``."""

    generation: int
    reason: str


Action = Union[Complete, Terminate, Spawn]

#: States of a slot: its incarnation's socket is open; it ended and the
#: process is not yet seen dead or stale; the next one was asked for;
#: the fleet closed.
UP, DOWN, RESPAWNING, CLOSED = "up", "down", "respawning", "closed"


class Lifecycle:
    """One slot's incarnations, from ``generation`` on."""

    def __init__(self, heartbeat_timeout: float, generation: int = 0) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        self.generation = generation
        self.state = UP
        #: rid -> the generation it was sent to, until it completes or
        #: is abandoned.
        self._pending: dict[int, int] = {}

    def sent(self, rid: int) -> list[Complete]:
        if self.state != UP:
            return [Complete(rid, False)]
        self._pending[rid] = self.generation
        return []

    def frame(self, generation: int, rid: int) -> list[Complete]:
        # The fence: only the incarnation a request went to answers it.
        if rid not in self._pending or self._pending[rid] != generation:
            return []
        del self._pending[rid]
        return [Complete(rid, True)]

    def abandon(self, rid: int) -> list[Complete]:
        self._pending.pop(rid, None)
        return []

    #: A send the socket refused is forgotten at once: it never completes.
    refused = abandon

    def eof(self) -> list[Complete]:
        if self.state != UP:
            return []
        self.state = DOWN
        return self._lose()

    def tick(self, now: float, beat: float, alive: bool) -> list[Action]:
        beating = alive and now - beat <= self.heartbeat_timeout
        if self.state not in (UP, DOWN) or beating:
            return []
        actions: list[Action] = list(self._lose())
        if alive:
            actions.append(Terminate(self.generation))
        actions.append(Spawn(self.generation + 1, "hung" if alive else "crash"))
        self.state = RESPAWNING
        return actions

    def spawned(self, generation: int) -> list[Complete]:
        if self.state == RESPAWNING and generation == self.generation + 1:
            self.generation = generation
            self.state = UP
        return []

    def close(self) -> list[Complete]:
        self.state = CLOSED
        return self._lose()

    def _lose(self) -> list[Complete]:
        lost = [Complete(rid, False) for rid in self._pending]
        self._pending.clear()
        return lost
