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
be preempted mid-flight); SELECTs yield every batch window.  A fault
aborts only the ticket that hit it -- except power loss, which kills
the device out from under everyone: every in-flight ticket is aborted
and torn down, and the core is flagged for remount.
"""

from __future__ import annotations

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
    queueing included; the session's private clock holds its pure
    service time.
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


@dataclass
class _Runner:
    ticket: QueryTicket
    session: SessionContext
    gen: object
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

    A session has one statement in flight: each round services only
    its oldest pending ticket, so its statements run in submission
    order, one after another.  A ticket's metrics are lease-counter
    diffs, which a sibling ticket running in between would inflate.
    """

    core: object
    quantum_s: float = DEFAULT_QUANTUM_S
    tickets: list[QueryTicket] = field(default_factory=list)
    _runners: list[_Runner] = field(default_factory=list)

    def submit(self, session: SessionContext, sql: str) -> QueryTicket:
        """Enqueue one statement on a leased session."""
        if session.lease is None:
            raise SessionError(
                "only leased sessions are schedulable; open one with "
                "open_session()"
            )
        if session.core is not self.core:
            raise SessionError(
                f"session {session.name!r} belongs to a different device"
            )
        # Parse/validate first so an unsupported statement fails at
        # submit, not mid-schedule, and takes no ticket.
        gen = session.statement_steps(sql)
        ticket = QueryTicket(
            index=len(self.tickets),
            session=session.name,
            sql=sql,
            submitted_at=self.core.device.clock.now,
        )
        self.tickets.append(ticket)
        self._runners.append(_Runner(ticket=ticket, session=session, gen=gen))
        self.core.obs.flight.record(
            "sched_submit", ticket=ticket.index, session=session.name
        )
        return ticket

    @property
    def pending(self) -> int:
        return len(self._runners)

    def run(self) -> list[QueryTicket]:
        """Interleave every pending ticket to completion, one in flight
        per session; returns all tickets ever submitted (completed ones
        included)."""
        while self._runners:
            serviced = set()
            for runner in list(self._runners):
                if runner not in self._runners:
                    continue  # aborted by a power cut this round
                if runner.ticket.session in serviced:
                    continue  # an older ticket of its session ran
                serviced.add(runner.ticket.session)
                runner.deficit += self.quantum_s
                self._service(runner)
        return self.tickets

    # ------------------------------------------------------------------

    def _service(self, runner: _Runner) -> None:
        """Step one runner until its deficit is spent or it finishes."""
        core = self.core
        clock = core.device.clock
        flight = core.obs.flight
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
                    self._abort_survivors(exc, clock.now)
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
        self._runners.remove(runner)
        core = self.core
        core.obs.flight.record(
            "sched_done",
            ticket=ticket.index,
            session=ticket.session,
            steps=ticket.steps,
        )
        registry = core.obs.registry
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
        self._runners.remove(runner)
        self.core.obs.flight.record(
            "sched_abort",
            ticket=ticket.index,
            session=ticket.session,
            reason=type(exc).__name__,
        )
        self.core.obs.registry.counter("ghostdb_session_aborts_total").inc(
            session=ticket.session
        )

    def _abort_survivors(self, cause: BaseException, now: float) -> None:
        """Power loss (or a failed serve round) killed every in-flight
        query: tear each one down (releasing its reservations into its
        own lease) and mark its ticket aborted."""
        for other in list(self._runners):
            try:
                with self.core.activated(other.session.lease):
                    other.gen.close()
            except GhostDBFaultError:
                pass  # teardown tripped the dead device again
            self._abort(other, cause, now)
