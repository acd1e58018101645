"""Cooperative multi-session scheduling over one simulated device.

One slow USB key, several client terminals: the device can only serve
one request at a time, so concurrency here means *interleaving*, not
parallelism.  The natural preemption point already exists in the
engine -- every operator's :meth:`batches` window boundary, which
:meth:`Executor.execute_steps` surfaces as a ``yield`` -- and the
scheduler simply decides whose window runs next.

Fairness is deficit round-robin (DRR) in **simulated seconds**: each
runnable query accrues one quantum of device time per round and steps
until its deficit is spent; the true cost of each step (measured off
the device clock, which only this session advanced while activated)
is charged against the deficit, and unused deficit carries over.  A
heavy tenant whose windows are expensive therefore gets *fewer*
windows per round, not more -- device time, the contended resource, is
what is equalised.

Everything is driven by the simulated clock and the admission order:
no wall time, no randomness, no thread interleavings.  The same
(sessions, statements, seed) always replays to the identical grant
sequence, which the flight recorder journals (``sched_*`` events) so a
postmortem shows exactly who held the device when.

DML statements are a single atomic step (a rebuild transaction cannot
be preempted mid-flight); SELECTs yield every batch window.  A write is
also a barrier: it starts only when no other statement is in flight,
and no statement submitted after it starts until it has run, so no
rebuild commits inside a statement and every statement reads one
catalog version.  A fault aborts only the ticket that hit it -- except
power loss, which kills the device out from under everyone: every
pending ticket is aborted and torn down, and the core is flagged for
remount.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.session import SessionContext, SessionError
from repro.faults import GhostDBFaultError, PowerCutError
from repro.obs import get_logger

log = get_logger(__name__)

#: One DRR quantum in simulated device seconds.  Around 5 ms: a few
#: flash page reads, so light queries finish within a round or two while
#: scan-heavy windows still cannot monopolise the device.
DEFAULT_QUANTUM_S = 0.005


def jain_index(values) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly even; ``1/n`` means one value took everything.
    Degenerate inputs (no values, all zero) count as fair.
    """
    values = [float(v) for v in values]
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


@dataclass
class QueryTicket:
    """One submitted statement's lifecycle under the scheduler.

    Timestamps are simulated seconds on the *device* clock (the global
    interleaved timeline), so ``latency_s`` is what the client waited,
    queueing included; the session's counters hold its pure service
    time.
    """

    index: int
    session: str
    sql: str
    submitted_at: float
    started_at: float | None = None
    completed_at: float | None = None
    #: Batch windows granted (DML counts as one).
    steps: int = 0
    result: object = None
    error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency_s(self) -> float | None:
        """Simulated submit-to-complete latency, queueing included."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


@dataclass(eq=False)
class _Runner:
    ticket: QueryTicket
    session: SessionContext
    gen: object
    #: UPDATE or DELETE: runs behind the write barrier.
    write: bool
    deficit: float = 0.0


@dataclass
class Scheduler:
    """Deficit-round-robin interleaver for leased sessions.

    Usage::

        sched = Scheduler(db.core)
        t1 = sched.submit(alice, "SELECT ...")
        t2 = sched.submit(bob, "SELECT ...")
        sched.run()          # drives both to completion, interleaved
        t1.result.rows       # bit-identical to a serial run

    ``submit`` builds the statement's step generator but runs nothing;
    ``run`` interleaves all pending tickets to completion.  Submitting
    more and calling ``run`` again is fine -- ticket numbering and the
    flight journal continue.

    A session has one statement in flight: each session keeps a FIFO
    of its pending tickets, and a round visits the sessions in the order
    of their heads' ticket indexes and services only the heads, so its
    statements run in submission order, one after another.  A ticket's
    metrics are lease-counter diffs, which a sibling ticket running in
    between would inflate.  Tickets submitted before a write keep their
    turn, so a write never overtakes an earlier read.
    """

    core: object
    quantum_s: float = DEFAULT_QUANTUM_S
    tickets: list[QueryTicket] = field(default_factory=list)
    #: Session name -> its pending runners, oldest first.
    _queues: dict[str, deque] = field(default_factory=dict)
    #: Pending DML runners, oldest first.
    _writes: deque = field(default_factory=deque)

    def submit(self, session: SessionContext, sql: str) -> QueryTicket:
        """Enqueue one statement on a session admitted by this core
        (the console, a closed session and another device's session
        are refused)."""
        if self.core.sessions.get(session.name) is not session:
            raise SessionError(
                f"session {session.name!r} is not open on this core"
            )
        # Parse/validate first so an unsupported statement fails at
        # submit, not mid-schedule, and takes no ticket.
        gen, write = session.statement_steps(sql)
        ticket = QueryTicket(
            index=len(self.tickets),
            session=session.name,
            sql=sql,
            submitted_at=self.core.device.clock.now,
        )
        self.tickets.append(ticket)
        runner = _Runner(ticket=ticket, session=session, gen=gen, write=write)
        self._queues.setdefault(session.name, deque()).append(runner)
        if write:
            self._writes.append(runner)
        self.core.flight.record(
            "sched_submit", ticket=ticket.index, session=session.name
        )
        return ticket

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def run(self) -> list[QueryTicket]:
        """Interleave every pending ticket to completion, one in flight
        per session; returns all tickets ever submitted (completed ones
        included)."""
        while self._queues:
            heads = sorted(
                self._queues.values(), key=lambda queue: queue[0].ticket.index
            )
            for queue in heads:
                if not queue:
                    continue  # aborted by a power cut this round
                runner = queue[0]
                if runner.ticket.started_at is None and self._held(runner):
                    continue
                runner.deficit += self.quantum_s
                self._service(runner)
        return self.tickets

    def abort_all(self, cause: BaseException) -> None:
        """Power loss (or a failed serve round) killed every pending
        statement: tear each one down, oldest first (releasing its
        reservations into its own lease), and mark its ticket aborted."""
        now = self.core.device.clock.now
        pending = sorted(
            (runner for queue in self._queues.values() for runner in queue),
            key=lambda runner: runner.ticket.index,
        )
        for runner in pending:
            try:
                with self.core.activated(runner.session.lease):
                    runner.gen.close()
            except GhostDBFaultError:
                pass  # teardown tripped the dead device again
            self._abort(runner, cause, now)

    # ------------------------------------------------------------------

    def _held(self, runner: _Runner) -> bool:
        """Whether the write barrier keeps a not-yet-started head back."""
        if not self._writes:
            return False
        first = self._writes[0]
        if runner is first:
            return any(
                queue[0].ticket.started_at is not None
                for queue in self._queues.values()
            )
        return runner.ticket.index > first.ticket.index

    def _service(self, runner: _Runner) -> None:
        """Step one runner until its deficit is spent or it finishes."""
        core = self.core
        clock = core.device.clock
        flight = core.flight
        ticket = runner.ticket
        if ticket.started_at is None:
            ticket.started_at = clock.now
            flight.record(
                "sched_start", ticket=ticket.index, session=ticket.session
            )
        while runner.deficit > 0.0:
            before = clock.now
            try:
                with core.activated(runner.session.lease):
                    next(runner.gen)
            except StopIteration as stop:
                ticket.result = stop.value
                self._finish(runner, clock.now)
                return
            except GhostDBFaultError as exc:
                self._abort(runner, exc, clock.now)
                if isinstance(exc, PowerCutError):
                    self.abort_all(exc)
                return
            except Exception as exc:
                # A statement error (bad binding, unknown table...) is
                # the submitting session's problem, never the device's:
                # abort that ticket alone and keep scheduling.  Callers
                # that want the exception re-raise ``ticket.error``.
                self._abort(runner, exc, clock.now)
                return
            ticket.steps += 1
            runner.deficit -= clock.now - before

    def _finish(self, runner: _Runner, now: float) -> None:
        ticket = runner.ticket
        ticket.steps += 1
        ticket.completed_at = now
        self._retire(runner)
        core = self.core
        core.flight.record(
            "sched_done",
            ticket=ticket.index,
            session=ticket.session,
            steps=ticket.steps,
        )
        registry = core.registry
        registry.counter("ghostdb_session_queries_total").inc(
            session=ticket.session
        )
        registry.counter("ghostdb_session_steps_total").inc(
            ticket.steps, session=ticket.session
        )
        metrics = getattr(ticket.result, "metrics", None)
        if metrics is not None:
            registry.counter("ghostdb_session_sim_seconds_total").inc(
                metrics.elapsed_seconds, session=ticket.session
            )
        registry.gauge("ghostdb_session_ram_high_water_bytes").set_max(
            runner.session.lease.ram.high_water, session=ticket.session
        )

    def _abort(self, runner: _Runner, exc: BaseException, now: float) -> None:
        ticket = runner.ticket
        ticket.error = exc
        ticket.completed_at = now
        self._retire(runner)
        self.core.flight.record(
            "sched_abort",
            ticket=ticket.index,
            session=ticket.session,
            reason=type(exc).__name__,
        )
        self.core.registry.counter("ghostdb_session_aborts_total").inc(
            session=ticket.session
        )

    def _retire(self, runner: _Runner) -> None:
        """Drop a finished or aborted runner, its session's head."""
        name = runner.ticket.session
        queue = self._queues[name]
        queue.popleft()
        if not queue:
            del self._queues[name]
        if runner.write:
            self._writes.remove(runner)
