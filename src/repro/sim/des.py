"""A small discrete-event simulation engine.

Two styles of use:

* **Callback style** (the original API): schedule callables at future times;
  the simulator pops them in time order.  Used by the data-pipeline worker
  pool and anything that is naturally event-shaped.
* **Process style**: a generator-based coroutine helper (:class:`Process`)
  in the spirit of SimPy.  A process yields *commands* — a number (sleep
  that many simulated seconds), an :class:`Event` (wait until it fires), or
  another :class:`Process` (join) — and the engine resumes it when the
  command completes.  Typed resources (:class:`Resource`, :class:`Barrier`,
  :class:`FifoQueue`) model the CPU dispatch clock, GPU compute stream,
  comm stream / NIC and loader queues of the timing stack, and a
  :class:`Timeline` collects attributed busy/wait intervals so overlap is
  an inspectable artifact rather than a hand-tuned subtraction.

Boundary semantics of :meth:`Simulator.run` (pinned by
``tests/sim/test_des_semantics.py``):

* ``run(until=T)`` processes every event with ``time <= T`` — the boundary
  is **inclusive**, matching ``schedule_at(T)`` which is legal while
  ``now == T``.  After it returns, ``now == max(now, T)`` and events
  strictly later than ``T`` remain pending; calling ``run`` again resumes
  them.
* The ``max_events`` runaway guard **raises** :class:`RuntimeError` instead
  of silently returning, so an accidental zero-delay loop cannot produce a
  bogus-but-plausible timing result.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

# ----------------------------------------------------------------------
# Schedule auditing.  When a hook is installed (repro.analysis.sched does
# this), Resource and Barrier emit structured events — acquire/release and
# barrier arrivals attributed to the process that performed them — which the
# schedule analyzer turns into a resource-acquisition-order graph and
# barrier-participation accounting.  With no hook installed the cost is one
# ``is None`` check per operation.
# ----------------------------------------------------------------------
_AUDIT_HOOK: Optional[Callable[[Dict[str, Any]], None]] = None
_PROCESS_STACK: List["Process"] = []


def current_process() -> Optional["Process"]:
    """The :class:`Process` whose generator is currently executing.

    Event callbacks run synchronously inside ``succeed``, so a process
    resumed by another's release executes nested; the innermost wins.
    """
    return _PROCESS_STACK[-1] if _PROCESS_STACK else None


def set_audit(hook: Optional[Callable[[Dict[str, Any]], None]]) -> None:
    """Install (or with ``None`` remove) the global schedule-audit hook."""
    global _AUDIT_HOOK
    _AUDIT_HOOK = hook


@contextlib.contextmanager
def audit(hook: Callable[[Dict[str, Any]], None]) -> Iterator[None]:
    """Install ``hook`` for the duration of the block (not re-entrant)."""
    if _AUDIT_HOOK is not None:
        raise RuntimeError("a schedule audit hook is already installed")
    set_audit(hook)
    try:
        yield
    finally:
        set_audit(None)


def _actor_name() -> str:
    proc = current_process()
    return proc.name or f"process#{id(proc):x}" if proc is not None else ""


def _audit_event(kind: str, obj: str, actor: Optional[str] = None,
                 **extra: Any) -> None:
    if _AUDIT_HOOK is None:
        return
    event: Dict[str, Any] = {"kind": kind, "object": obj,
                             "actor": _actor_name() if actor is None else actor}
    event.update(extra)
    _AUDIT_HOOK(event)


class Simulator:
    """Event loop over simulated seconds."""

    _instance_counter = itertools.count()

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._running = False
        # Distinguishes audit events from different simulator instances that
        # reuse the same resource/barrier names (e.g. every distributed-step
        # simulation names its DAP barrier "dap-sync").
        self.audit_id = next(Simulator._instance_counter)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000) -> None:
        """Process events until the heap drains or ``until`` passes.

        Events scheduled exactly at ``until`` ARE processed (inclusive
        boundary — consistent with ``schedule_at(until)`` being legal when
        ``now == until``).  Raises :class:`RuntimeError` when more than
        ``max_events`` events fire (runaway guard).
        """
        processed = 0
        while self._heap:
            if processed >= max_events:
                raise RuntimeError(f"event budget exhausted at t={self.now}")
            time, _seq, callback = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            self.now = time
            callback()
            processed += 1
        if until is not None:
            self.now = max(self.now, until)

    def step(self) -> bool:
        """Process the single next pending event; False when none is left.

        For callers that drive the loop until a condition holds (an event
        firing) rather than up to a time.
        """
        if not self._heap:
            return False
        time, _seq, callback = heapq.heappop(self._heap)
        self.now = time
        callback()
        return True

    def process(self, generator: Generator, name: str = "") -> "Process":
        """Start a :class:`Process` driving ``generator`` (begins at ``now``)."""
        return Process(self, generator, name=name)

    @property
    def pending(self) -> int:
        return len(self._heap)


class Event:
    """A one-shot signal processes can wait on.

    ``succeed(value)`` fires the event; waiters registered before the fire
    are called synchronously (in registration order), waiters registered
    after see the stored value immediately.

    ``wait`` returns a *token* (``None`` when the callback ran inline
    because the event had already fired) that ``cancel_wait`` accepts to
    deregister a still-pending callback.  Long-lived events raced over and
    over — the cluster model's fail event is ``any_of``-raced against a
    timeout on *every* training step — would otherwise accumulate one dead
    loser callback per race for the lifetime of the event.
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def waiter_count(self) -> int:
        """Callbacks still parked on this event (leak checks read this)."""
        return len(self._callbacks)

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def wait(self, callback: Callable[[Any], None]) -> Optional[object]:
        """Register ``callback``; returns a cancellation token.

        ``None`` means the event had already fired and the callback ran
        synchronously (there is nothing to cancel).
        """
        if self.triggered:
            callback(self.value)
            return None
        self._callbacks.append(callback)
        return callback

    def cancel_wait(self, token: Optional[object]) -> bool:
        """Deregister a callback registered by :meth:`wait`.

        Returns True when the callback was found and removed; False for a
        ``None`` token, an already-fired event (the callbacks list was
        consumed by ``succeed``) or a token that was already cancelled.
        """
        if token is None or self.triggered:
            return False
        try:
            self._callbacks.remove(token)
        except ValueError:
            return False
        return True


def timeout(sim: Simulator, delay: float, value: Any = None) -> Event:
    """An :class:`Event` that fires ``delay`` simulated seconds from now."""
    event = Event(sim)
    sim.schedule(delay, lambda: event.succeed(value))
    return event


def any_of(sim: Simulator, *events: Event) -> Event:
    """An :class:`Event` firing when the FIRST of ``events`` fires.

    The combined event's value is ``(index, value)`` of the winner.  When
    the race resolves, the losers' callbacks are *deregistered* — not
    merely ignored — so racing a long-lived event (the fault injector's
    fail event, a serving batcher's new-arrival event) many times leaves
    no residue: the loser keeps O(1) pending callbacks instead of one per
    race, and a late fire runs only live waiters instead of a backlog of
    stale winner checks.
    """
    if not events:
        raise ValueError("any_of needs at least one event")
    combined = Event(sim)
    tokens: List[Optional[object]] = []

    def _winner(index: int) -> Callable[[Any], None]:
        def callback(value: Any) -> None:
            if combined.triggered:
                return
            combined.succeed((index, value))
            for i, token in enumerate(tokens):
                if i != index:
                    events[i].cancel_wait(token)
        return callback

    for index, event in enumerate(events):
        tokens.append(event.wait(_winner(index)))
        if combined.triggered:
            # An already-fired event won during registration; stop adding
            # waiters (the winner callback above detached the earlier ones).
            break
    return combined


class Process:
    """Generator-based coroutine running inside a :class:`Simulator`.

    The generator yields commands:

    * ``float | int`` — sleep that many simulated seconds;
    * :class:`Event` — wait until it fires (resumed with its value);
    * :class:`Process` — wait until that process finishes.

    ``done`` is an :class:`Event` fired with the generator's return value.
    """

    __slots__ = ("sim", "gen", "name", "done")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = Event(sim)
        sim.schedule(0.0, self._advance)

    def _advance(self, value: Any = None) -> None:
        # Loop instead of recursing so that yielding an already-triggered
        # event resumes inline without re-entering the generator.  The
        # process stack (for ``current_process`` attribution) must be
        # push/popped around the generator body: event callbacks fire
        # synchronously inside ``succeed``, so a process resumed by another
        # process's release executes nested inside the releaser's frame.
        _PROCESS_STACK.append(self)
        try:
            while True:
                try:
                    cmd = self.gen.send(value)
                except StopIteration as stop:
                    self.done.succeed(getattr(stop, "value", None))
                    return
                if isinstance(cmd, (int, float)):
                    self.sim.schedule(float(cmd), self._advance)
                    return
                if isinstance(cmd, Process):
                    cmd = cmd.done
                if isinstance(cmd, Event):
                    if cmd.triggered:
                        value = cmd.value
                        continue
                    cmd._callbacks.append(self._advance)
                    return
                raise TypeError(f"process {self.name!r} yielded {cmd!r}; "
                                "expected a delay (seconds), Event, or Process")
        finally:
            _PROCESS_STACK.pop()


class Resource:
    """A serially-shared resource (NIC, eval pool, ...) with FIFO grants."""

    _anon_counter = itertools.count()

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        # Anonymous resources get a deterministic per-run name so audit
        # events (and finding fingerprints) stay stable across runs.
        self.name = name or f"resource#{next(Resource._anon_counter)}"
        self.in_use = 0
        self._waiting: List[Event] = []

    @property
    def waiting_count(self) -> int:
        """Pending acquires (post-run liveness checks read this)."""
        return len(self._waiting)

    def acquire(self) -> Event:
        """Event that fires when the caller holds one capacity slot."""
        event = Event(self.sim)
        if _AUDIT_HOOK is not None:
            actor = _actor_name()
            _audit_event("acquire_request", self.name, actor=actor,
                         capacity=self.capacity, sim=self.sim.audit_id)
            # Registered before any grant below (and before the process
            # parks on the event), so the grant is recorded — attributed to
            # the *requesting* actor — the moment the slot is handed over.
            event.wait(lambda _v, a=actor: _audit_event(
                "acquire_grant", self.name, actor=a, sim=self.sim.audit_id))
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiting.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        _audit_event("release", self.name, sim=self.sim.audit_id)
        if self._waiting:
            # Hand the slot straight to the next waiter.
            self._waiting.pop(0).succeed(self)
        else:
            self.in_use -= 1


class Barrier:
    """Cyclic synchronization barrier for ``parties`` processes."""

    _anon_counter = itertools.count()

    def __init__(self, sim: Simulator, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.sim = sim
        self.parties = parties
        self.name = name or f"barrier#{next(Barrier._anon_counter)}"
        self.generation = 0
        self._arrived: List[Event] = []

    @property
    def waiting_count(self) -> int:
        """Arrivals parked in the current (incomplete) generation."""
        return len(self._arrived)

    def arrive(self) -> Event:
        """Event firing when all parties of this generation have arrived."""
        event = Event(self.sim)
        _audit_event("barrier_arrive", self.name,
                     generation=self.generation, parties=self.parties,
                     sim=self.sim.audit_id)
        self._arrived.append(event)
        if len(self._arrived) == self.parties:
            arrived, self._arrived = self._arrived, []
            self.generation += 1
            _audit_event("barrier_release", self.name, actor="",
                         generation=self.generation - 1, parties=self.parties,
                         sim=self.sim.audit_id)
            for ev in arrived:
                ev.succeed(self.generation)
        return event


@dataclass
class Interval:
    """One attributed span of simulated time on a named resource."""

    resource: str   # e.g. "gpu", "nic", "loader"
    tag: str        # e.g. "compute", "dap_comm", "ddp_wait", "imbalance"
    start: float
    end: float
    rank: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Interval log: every busy/stall span attributed to a resource+tag.

    The additive step breakdown is *derived* from this log (sum the
    durations per tag) instead of being composed analytically.
    """

    intervals: List[Interval] = field(default_factory=list)

    def record(self, resource: str, tag: str, start: float, end: float,
               rank: int = 0) -> None:
        if end > start:
            self.intervals.append(Interval(resource, tag, start, end, rank))

    def seconds(self, tag: Optional[str] = None,
                resource: Optional[str] = None,
                rank: Optional[int] = None) -> float:
        return sum(iv.duration for iv in self.intervals
                   if (tag is None or iv.tag == tag)
                   and (resource is None or iv.resource == resource)
                   and (rank is None or iv.rank == rank))

    def by_tag(self, rank: Optional[int] = None) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for iv in self.intervals:
            if rank is not None and iv.rank != rank:
                continue
            out[iv.tag] = out.get(iv.tag, 0.0) + iv.duration
        return out


class FifoQueue:
    """A simulated queue: items arrive via ``put``, consumers register
    ``get`` callbacks that fire as soon as an item (per discipline) exists.

    ``priority=True`` delivers the smallest item first (the non-blocking
    loader's best-effort index ordering); ``in_order=True`` additionally
    refuses to deliver item k before items 0..k-1 (the PyTorch DataLoader
    discipline that causes Figure 5(i)'s stall).
    """

    def __init__(self, sim: Simulator, priority: bool = False,
                 in_order: bool = False) -> None:
        self.sim = sim
        self.priority = priority
        self.in_order = in_order
        self._items: List[Any] = []
        self._waiters: List[Callable[[Any], None]] = []
        self._next_expected = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self._items.append(item)
        if self.priority or self.in_order:
            self._items.sort()
        self._dispatch()

    def get(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)
        self._dispatch()

    def get_event(self) -> Event:
        """Process-style get: an :class:`Event` fired with the item."""
        event = Event(self.sim)
        self.get(event.succeed)
        return event

    def _deliverable(self) -> bool:
        if not self._items:
            return False
        if self.in_order:
            head = self._items[0]
            index = head[0] if isinstance(head, tuple) else head
            return index == self._next_expected
        return True

    def _dispatch(self) -> None:
        while self._waiters and self._deliverable():
            item = self._items.pop(0)
            self._next_expected += 1
            callback = self._waiters.pop(0)
            callback(item)
