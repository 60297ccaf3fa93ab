"""Exhaustive check of the degradation-ladder machine.

:class:`repro.serving.ladder.ShardCall` is fed events and returns
actions, so every rung decision can be checked without a process, a
thread or a clock.  The first half enumerates **every** event sequence
up to a stated bound and asserts the ladder's invariants on each; the
second half pins individual rungs (deadline slicing, rotation, the
breaker gate) with directed cases.

The bound: 2 replicas, ``shard_retries=1`` (two attempts, each with at
most one hedge, so at most four requests), statement lists of length 1
and 2, with and without a deadline, with the transport refusing any one
send, and these events in every order that a driver could deliver them:
for each request ever sent — still wanted or long abandoned — an ok
response, a response whose first or last item failed, a failed
response, or its loss; each timer the machine set, early, late or
stale; and ``cancel`` at any point — against a half-open breaker, so every way
of ending is also checked for the probe slot it took.  About 53,000
sequences, a few seconds.
"""

from __future__ import annotations

import marshal
from types import SimpleNamespace

import pytest

from repro.serving.ladder import (
    Abandon,
    Resolve,
    Send,
    SetTimer,
    ShardLadder,
)

START = 100.0
DEADLINE = 10.0
HEDGE_DELAY = 0.05
RESPONSES = ("ok", "item-error", "tail-error", "failed", "lost")


class RecordingBreaker:
    """Half-open whenever it lets a call through: ``allow()`` hands out
    the one probe slot, and only a recorded outcome or ``release_probe()``
    gives it back."""

    def __init__(self, allows=True):
        self.allows = allows
        self.state = "half-open" if allows else "open"
        self.log = []
        self.probing = False

    def allow(self):
        self.log.append("allow")
        if not self.allows or self.probing:
            return False
        self.probing = True
        return True

    def record_success(self):
        self.log.append("success")
        self.probing = False

    def record_failure(self):
        self.log.append("failure")
        self.probing = False

    def release_probe(self):
        self.log.append("release")
        self.probing = False

    @property
    def records(self):
        return [
            entry for entry in self.log if entry in ("success", "failure")
        ]


def rows_of(tag, statement):
    """Rows only this (request, statement) pair could have produced."""
    return [(f"{statement}@{tag}", 1, b"\x00")]


class Harness:
    """Plays the driver: performs actions, keeps the books the
    invariants are checked against."""

    def __init__(
        self, statements, deadline=DEADLINE, refuse=None, allows=True,
        hedge=True, replicas=2, retries=1,
    ):
        self.statements = statements
        self.breaker = RecordingBreaker(allows)
        self.counts = {"hedges": 0, "retries": 0, "breaker_short_circuits": 0}
        self.ladder = ShardLadder(
            3,
            replicas,
            SimpleNamespace(hedge_delay=HEDGE_DELAY, shard_retries=retries),
            self.breaker,
            self.count,
        )
        self.now = START
        self.call = self.ladder.call(
            statements, None if deadline is None else START + deadline, hedge
        )
        self.refuse = refuse
        self.sends = []  # Send actions, by order of emission
        self.hedge_sends = []  # the subset answering a hedge timer
        self.rids = {}  # tag -> transport id
        self.abandoned = []
        self.timers = []  # (due, token)
        self.resolved = []
        self.cancelled = False
        self.carried = {}  # statement -> set of row-lists delivered ok
        self.trace = []

    def count(self, key):
        self.counts[key] += 1

    @property
    def over(self):
        return bool(self.resolved) or self.cancelled

    def perform(self, actions, cause):
        was_over = self.over
        todo = list(actions)
        while todo:
            action = todo.pop(0)
            self.trace.append((cause, action))
            assert not was_over, f"{action} after the call was over"
            if isinstance(action, Send):
                assert not self.resolved, "send after resolve"
                index = len(self.sends)
                self.sends.append(action)
                if cause[0] == "timer" and cause[1][0] == "hedge":
                    self.hedge_sends.append(action)
                if index == self.refuse:
                    todo.extend(self.call.lost(action.tag, self.now))
                else:
                    self.rids[action.tag] = 1000 + action.tag
                    self.call.sent(action.tag, self.rids[action.tag])
            elif isinstance(action, SetTimer):
                self.timers.append((self.now + action.delay, action.token))
            elif isinstance(action, Abandon):
                self.abandoned.append(action.rid)
            else:
                assert isinstance(action, Resolve)
                self.resolved.append(action.outcomes)

    def start(self):
        self.perform(self.call.start(self.now), ("start",))

    def choices(self):
        """Every event a driver could deliver next."""
        out = [("cancel",)] if not self.cancelled else []
        out += [("timer", index) for index in range(len(self.timers))]
        for send in self.sends:
            if send.tag in self.rids:
                out += [
                    ("request", send.tag, kind)
                    for kind in RESPONSES
                    # On a one-statement request the tail is the head.
                    if kind != "tail-error" or len(send.statements) > 1
                ]
        return out

    def deliver(self, choice):
        if choice[0] == "cancel":
            self.perform(self.call.cancel(), choice)
            self.cancelled = True
        elif choice[0] == "timer":
            due, token = self.timers.pop(choice[1])
            self.now = max(self.now, due)
            self.perform(self.call.timer(token, self.now), ("timer", token))
        else:
            _, tag, kind = choice
            self.now += 0.001
            del self.rids[tag]  # one completion per request
            send = next(s for s in self.sends if s.tag == tag)
            if kind == "lost":
                actions = self.call.lost(tag, self.now)
            else:
                actions = self.call.response(
                    tag, self.payload(send, kind), self.now
                )
            self.perform(actions, choice)

    def payload(self, send, kind):
        if kind == "failed":
            return {"ok": False, "error_kind": "storage", "error": "boom"}
        items = []
        for position, statement in enumerate(send.statements):
            if (kind, position) in (
                ("item-error", 0),
                ("tail-error", len(send.statements) - 1),
            ):
                items.append(
                    {"ok": False, "error_kind": "limit", "error": "too big"}
                )
                continue
            rows = rows_of(send.tag, statement)
            # Only a response the machine still wants can carry rows
            # into an outcome; record what was on offer either way.
            self.carried.setdefault(statement, []).append(rows)
            items.append({"ok": True, "rows": rows})
        return {"ok": True, "items": marshal.dumps(items)}


def check(harness):
    """The invariants, on a finished sequence."""
    h = harness
    primaries = [send for send in h.sends if send not in h.hedge_sends]
    # resolve exactly once — never after a cancel that came first
    assert len(h.resolved) <= 1
    if not h.cancelled:
        assert len(h.resolved) == 1, h.trace
    # every rid it sent is abandoned exactly once, and nothing else is
    sent_rids = sorted(
        1000 + send.tag
        for index, send in enumerate(h.sends)
        if index != h.refuse
    )
    assert sorted(h.abandoned) == sent_rids, h.trace
    # attempts <= shard_retries + 1, at most one hedge per attempt
    assert len(primaries) <= 2
    assert len(h.hedge_sends) <= len(primaries)
    assert h.counts["hedges"] == len(h.hedge_sends)
    assert h.counts["retries"] == max(len(primaries) - 1, 0)
    hedge_tokens = [
        action.token
        for _, action in h.trace
        if isinstance(action, SetTimer) and action.token[0] == "hedge"
    ]
    assert len(hedge_tokens) == len(set(hedge_tokens))
    for send in h.sends:
        assert 0 <= send.replica < 2
        assert send.statements and set(send.statements) <= set(h.statements)
    if len(primaries) == 2:
        assert primaries[0].replica != primaries[1].replica
    # the breaker hears of every attempt once; a cancelled attempt says
    # nothing about the shard
    records = h.breaker.records
    in_flight_at_cancel = h.cancelled and not h.resolved
    assert len(records) in (
        (len(primaries) - 1, len(primaries))
        if in_flight_at_cancel
        else (len(primaries),)
    ), (records, h.trace)
    assert h.breaker.log.count("allow") <= 1
    # however the call ended — cancel included — the probe slot its
    # allow() took is back, and a cancel is the only thing that releases
    # one without an outcome
    assert not h.breaker.probing, h.trace
    assert h.breaker.log.count("release") <= int(h.cancelled)
    if "release" in h.breaker.log:
        assert not records
    assert records.count("success") <= 1
    if "success" in records:
        assert records[-1] == "success"
    # an outcome is ok only if a response carried those rows
    for outcomes in h.resolved:
        assert len(outcomes) == len(h.statements)
        for statement, outcome in zip(h.statements, outcomes):
            assert outcome.shard == 3
            assert outcome.attempts <= 2
            if outcome.ok:
                assert outcome.rows in h.carried.get(statement, [])
                assert outcome.kind is None and outcome.error is None
            else:
                assert outcome.kind is not None
        assert all(o.ok for o in outcomes) == (
            bool(records) and records[-1] == "success"
        )


def replay(choices, **setup):
    harness = Harness(**setup)
    harness.start()
    for choice in choices:
        harness.deliver(choice)
    return harness


def drain(harness):
    """Deliver everything still deliverable; once the call is over none
    of it may cause an action (``perform`` asserts).  Which completion
    a straggler gets rotates with the length of the sequence, so across
    the enumeration every kind follows every way of ending."""
    turn = len(harness.trace)
    while True:
        remaining = [c for c in harness.choices() if c[0] != "cancel"]
        if not remaining:
            return
        turn += 1
        harness.deliver(remaining[turn % len(remaining)])


def explore(**setup):
    """Depth-first over every deliverable event at every step, until the
    call is over; then drain the stragglers and check."""
    sequences = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        harness = replay(prefix, **setup)
        if harness.over:
            # Also cancel after the fact: must be a no-op.
            if not harness.cancelled:
                harness.perform(harness.call.cancel(), ("cancel",))
            drain(harness)
            check(harness)
            sequences += 1
            continue
        for choice in harness.choices():
            stack.append(prefix + (choice,))
    return sequences


@pytest.mark.parametrize("statements", [["s0"], ["s0", "s1"]])
@pytest.mark.parametrize("deadline", [DEADLINE, None])
@pytest.mark.parametrize("refuse", [None, 0, 1, 2, 3])
def test_every_event_sequence_keeps_the_invariants(
    statements, deadline, refuse
):
    sequences = explore(
        statements=statements, deadline=deadline, refuse=refuse
    )
    # The enumeration is not vacuous.
    assert sequences >= 50


def test_open_breaker_short_circuits_without_sending():
    harness = Harness(["s0", "s1"], allows=False)
    harness.start()
    assert [type(action) for _, action in harness.trace] == [Resolve]
    (outcomes,) = harness.resolved
    assert [o.kind for o in outcomes] == ["breaker-open", "breaker-open"]
    assert all(o.attempts == 0 for o in outcomes)
    assert harness.counts["breaker_short_circuits"] == 1
    assert harness.breaker.records == []


def test_expired_call_resolves_without_taking_a_probe_slot():
    harness = Harness(["s0"], deadline=0.0)
    harness.start()
    (outcomes,) = harness.resolved
    assert outcomes[0].kind == "deadline"
    assert not harness.sends
    # A half-open breaker hands out one probe slot until an outcome is
    # recorded; a call that will never attempt must not take it.
    assert harness.breaker.log == []


def test_cancelled_probe_returns_its_slot_to_a_half_open_breaker():
    from repro.serving.supervisor import CircuitBreaker

    now = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown=1.0, clock=lambda: now[0]
    )
    breaker.record_failure()
    now[0] = 2.0
    assert breaker.state == "half-open"
    ladder = ShardLadder(
        0,
        2,
        SimpleNamespace(hedge_delay=None, shard_retries=0),
        breaker,
        lambda key: None,
    )
    probe = ladder.call(["s0"], None, False)
    assert [type(action) for action in probe.start(now[0])] == [Send]
    assert not breaker.allow()  # the probe holds the only slot
    probe.cancel()
    # The caller went away mid-probe: the next call gets to probe
    # instead of being short-circuited until a restart.
    retry = ladder.call(["s0"], None, False)
    assert [type(action) for action in retry.start(now[0])] == [Send]
    assert breaker.state == "half-open"


def test_deadline_is_sliced_evenly_over_the_attempts_left():
    harness = Harness(["s0"], retries=2, hedge=False)
    harness.start()
    first = harness.sends[0]
    assert first.timeout == pytest.approx(DEADLINE / 3)
    assert harness.timers == [
        (pytest.approx(START + DEADLINE / 3), ("budget", 1))
    ]
    # The first attempt fails after one second: the two attempts left
    # split the nine seconds that remain.
    harness.now = START + 1.0
    harness.perform(
        harness.call.response(
            first.tag, harness.payload(first, "failed"), harness.now
        ),
        ("request", first.tag, "failed"),
    )
    assert harness.sends[1].timeout == pytest.approx(9.0 / 2)
    assert harness.abandoned == [1000 + first.tag]
    assert harness.counts["retries"] == 1


def test_hedge_goes_to_the_next_replica_with_the_time_left():
    harness = Harness(["s0"], retries=0)
    harness.start()
    (primary,) = harness.sends
    harness.deliver(("timer", 1))  # [budget, hedge]
    hedge = harness.sends[1]
    assert hedge.replica == (primary.replica + 1) % 2
    assert hedge.statements == primary.statements
    assert hedge.timeout == pytest.approx(DEADLINE - HEDGE_DELAY)
    # First answer wins — here the hedge's — and both are abandoned.
    harness.deliver(("request", hedge.tag, "ok"))
    (outcomes,) = harness.resolved
    assert outcomes[0].rows == rows_of(hedge.tag, "s0")
    assert outcomes[0].hedged and outcomes[0].attempts == 1
    assert sorted(harness.abandoned) == [1000, 1001]


def test_no_hedge_without_a_second_replica_or_when_gated_off():
    for setup in ({"replicas": 1}, {"hedge": False}):
        harness = Harness(["s0"], **setup)
        harness.start()
        assert [token for _, token in harness.timers] == [("budget", 1)]


def test_retry_resends_only_what_is_still_owed():
    harness = Harness(["s0", "s1"], hedge=False)
    harness.start()
    first = harness.sends[0]
    assert first.statements == ["s0", "s1"]
    harness.deliver(("request", first.tag, "item-error"))  # s0 fails
    retry = harness.sends[1]
    assert retry.statements == ["s0"]
    assert retry.replica != first.replica
    harness.deliver(("request", retry.tag, "ok"))
    (outcomes,) = harness.resolved
    assert [o.attempts for o in outcomes] == [2, 1]
    assert outcomes[0].rows == rows_of(retry.tag, "s0")
    assert outcomes[1].rows == rows_of(first.tag, "s1")
    assert harness.breaker.records == ["failure", "success"]


def test_successive_calls_rotate_their_first_primary():
    harness = Harness(["s0"])
    primaries = []
    for _ in range(4):
        call = harness.ladder.call(["s0"], None, False)
        (send,) = call.start(START)
        primaries.append(send.replica)
        call.cancel()  # hand the probe slot to the next one
    # The harness's own call took replica 0.
    assert primaries == [1, 0, 1, 0]


def test_all_incarnations_lost_fails_over_at_once():
    harness = Harness(["s0"], hedge=False)
    harness.start()
    harness.deliver(("request", harness.sends[0].tag, "lost"))
    assert len(harness.sends) == 2  # no waiting for the budget timer
    harness.deliver(("request", harness.sends[1].tag, "lost"))
    (outcomes,) = harness.resolved
    assert outcomes[0].kind == "worker-crashed"
    assert harness.breaker.records == ["failure", "failure"]
