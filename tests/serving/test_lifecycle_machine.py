"""Exhaustive check of the worker-slot lifecycle machine.

:class:`repro.serving.lifecycle.Lifecycle` is fed events and returns
actions, so the fleet's loss, fencing and respawn decisions can be
checked without a process, a socket or a clock.  The first half
explores **every** event sequence up to a stated bound and asserts the
machine's invariants on each; the second half pins single decisions
with directed cases.

The bound: one slot, incarnations 0 and 1 (a third may be asked for,
never reported spawned), request ids 1, 2 and 3 sent in that order, and
these events in any order and any number: each send accepted or
refused by the socket; a frame stamped generation 0 or 1 for every id
ever sent; ``abandon`` of any id sent; ``eof``; a tick that sees the
process alive and beating, alive with a stale beat, or dead;
``spawned(1)``, early, on time or again; and ``close``.  Sequences are
not replayed one by one: the harness state holds everything an
invariant reads (the machine's own state and each id's history), so
checking every event out of every reachable state checks every
sequence, of any length.  About 4,800 states and 66,000 events, a few
seconds.
"""

from __future__ import annotations

import copy

from repro.serving.lifecycle import (
    CLOSED,
    DOWN,
    RESPAWNING,
    UP,
    Complete,
    Lifecycle,
    Spawn,
    Terminate,
)

TIMEOUT = 2.0
NOW = 100.0
RIDS = (1, 2, 3)
#: tick kind -> (beat, alive)
TICKS = {
    "fresh": (NOW - TIMEOUT / 2, True),
    "stale": (NOW - TIMEOUT * 2, True),
    "dead": (NOW - TIMEOUT / 2, False),
}


class Harness:
    """Plays the runtime: feeds events, keeps the books the invariants
    are checked against."""

    def __init__(self):
        self.machine = Lifecycle(TIMEOUT)
        #: rid -> [how it was sent, generation it went to, abandoned
        #: before completing, completions (True = response, False = lost)]
        self.rids: dict[int, list] = {}
        self.closed = False
        #: generations whose end already asked for a successor
        self.replaced: set[int] = set()

    def key(self):
        machine = self.machine
        return (
            machine.generation,
            machine.state,
            tuple(sorted(machine._pending.items())),
            tuple(
                (rid, how, gen, abandoned, tuple(done))
                for rid, (how, gen, abandoned, done) in sorted(
                    self.rids.items()
                )
            ),
            self.closed,
            tuple(sorted(self.replaced)),
        )

    def choices(self):
        out = []
        unsent = [rid for rid in RIDS if rid not in self.rids]
        if unsent:
            out += [("send", unsent[0]), ("refuse", unsent[0])]
        for rid in self.rids:
            out += [("frame", gen, rid) for gen in (0, 1)]
            if not self.rids[rid][2]:
                out.append(("abandon", rid))
        out += [("eof",), ("spawned", 1), ("close",)]
        out += [("tick", kind) for kind in TICKS]
        return out

    def deliver(self, event):
        machine = self.machine
        generation, state = machine.generation, machine.state
        kind = event[0]
        if kind in ("send", "refuse"):
            rid = event[1]
            actions = machine.sent(rid)
            how = "accepted" if not actions else "lost-at-send"
            if kind == "refuse" and not actions:
                # The runtime writes only what the machine accepted; the
                # socket refusing it is reported straight away.
                actions = machine.refused(rid)
                how = "refused"
            self.rids[rid] = [how, generation, False, []]
        elif kind == "frame":
            actions = machine.frame(event[1], event[2])
        elif kind == "abandon":
            actions = machine.abandon(event[1])
            record = self.rids[event[1]]
            record[2] = not record[3]
        elif kind == "eof":
            actions = machine.eof()
        elif kind == "tick":
            beat, alive = TICKS[event[1]]
            actions = machine.tick(NOW, beat, alive)
        elif kind == "spawned":
            actions = machine.spawned(event[1])
        else:
            actions = machine.close()
            self.closed = True
        self.check(event, actions, generation, state)

    def check(self, event, actions, generation, state):
        """The invariants, on one event and what it returned."""
        for action in actions:
            if isinstance(action, Complete):
                how, sent_to, abandoned, done = self.rids[action.rid]
                # exactly once, never for a refused or abandoned id
                assert not done, (event, action)
                assert how != "refused", (event, action)
                assert not abandoned, (event, action)
                if action.ok:
                    # only the incarnation it went to answers, never
                    # once the fleet closed
                    assert event == ("frame", sent_to, action.rid)
                    assert not self.closed and state != CLOSED
                done.append(action.ok)
            elif isinstance(action, Terminate):
                # only a live incarnation whose beat is stale
                assert event == ("tick", "stale"), event
                assert action.generation == generation
                assert state in (UP, DOWN)
            else:
                assert isinstance(action, Spawn)
                assert event[0] == "tick" and event[1] != "fresh"
                assert action.generation == generation + 1
                assert generation not in self.replaced
                self.replaced.add(generation)
                assert not self.closed
        if event[0] == "frame" and event[1] != self.rids[event[2]][1]:
            # a fenced frame completes nothing
            assert actions == [], event
        ended = event[0] in ("eof", "close") or any(
            isinstance(action, Spawn) for action in actions
        )
        for rid, (how, sent_to, abandoned, done) in self.rids.items():
            if how == "refused" or abandoned:
                continue
            if ended and sent_to == generation:
                # the end of an incarnation loses what was pending on it
                assert done, (event, rid)
            if self.closed:
                # by close every id sent and not abandoned completed
                assert done == [False] or done == [True], (event, rid)


def explore():
    start = Harness()
    seen = {start.key()}
    stack = [start]
    edges = 0
    while stack:
        harness = stack.pop()
        for event in harness.choices():
            successor = copy.deepcopy(harness)
            successor.deliver(event)
            edges += 1
            key = successor.key()
            if key not in seen:
                seen.add(key)
                stack.append(successor)
    return len(seen), edges


def test_every_event_sequence_keeps_the_invariants():
    states, edges = explore()
    # The exploration is not vacuous.
    assert states >= 1000 and edges >= 10 * states


# ---------------------------------------------------------------------------
# directed cases
# ---------------------------------------------------------------------------


def test_response_completes_its_request_once():
    machine = Lifecycle(TIMEOUT)
    assert machine.sent(1) == []
    assert machine.frame(0, 1) == [Complete(1, True)]
    assert machine.frame(0, 1) == []


def test_eof_loses_what_is_pending_and_respawn_waits_for_the_tick():
    machine = Lifecycle(TIMEOUT)
    machine.sent(1)
    machine.sent(2)
    assert machine.eof() == [Complete(1, False), Complete(2, False)]
    # Alive and beating: the process has not exited yet.
    assert machine.tick(NOW, NOW, True) == []
    assert machine.tick(NOW, NOW, False) == [Spawn(1, "crash")]
    assert machine.sent(3) == [Complete(3, False)]
    machine.spawned(1)
    assert machine.state == UP and machine.generation == 1
    assert machine.sent(4) == []


def test_hung_worker_is_terminated_then_replaced():
    machine = Lifecycle(TIMEOUT)
    machine.sent(1)
    assert machine.tick(NOW, NOW - TIMEOUT - 0.1, True) == [
        Complete(1, False),
        Terminate(0),
        Spawn(1, "hung"),
    ]
    assert machine.state == RESPAWNING
    # No second respawn before the first is reported up.
    assert machine.tick(NOW, NOW - TIMEOUT - 0.1, True) == []


def test_late_frame_of_a_replaced_incarnation_is_fenced():
    machine = Lifecycle(TIMEOUT)
    machine.tick(NOW, NOW, False)
    machine.spawned(1)
    machine.sent(1)
    assert machine.frame(0, 1) == []
    assert machine.frame(1, 1) == [Complete(1, True)]


def test_close_loses_everything_and_stops_supervision():
    machine = Lifecycle(TIMEOUT)
    machine.sent(1)
    assert machine.close() == [Complete(1, False)]
    assert machine.frame(0, 1) == []
    assert machine.tick(NOW, 0.0, False) == []
    assert machine.sent(2) == [Complete(2, False)]
    assert machine.state == CLOSED
