"""The redaction gate: nothing hidden may enter a trace.

Telemetry is itself a side channel.  ObliDB-style threat models (see
PAPERS.md) treat any observable execution artefact -- timings, counters,
debug output -- as visible to the adversary, so GhostDB's tracing layer
must uphold the same invariant as the USB link: **spans may carry shapes
and counts, never hidden values**.

The gate is default-deny for text.  Every string attribute routed into a
span is tokenised, and any token that is not part of the registered
*structural vocabulary* (operator names, plan labels, schema identifiers,
engine keywords -- never data values) is replaced with ``?``.  Numbers,
booleans and ``None`` pass as-is: instrumentation only attaches counts
and sizes as numbers, and the vocabulary never contains data, so a hidden
``Patient.Name = 'Dupont'`` predicate can only ever appear in a trace as
``Patient.Name = '?'``.

The guarantee is verified from the outside: the test suite feeds exported
traces through the adversarial :class:`~repro.privacy.leakcheck.LeakChecker`
built from the raw dataset.
"""

from __future__ import annotations

import re

#: Tokens are maximal alphanumeric runs; everything between tokens
#: (punctuation, quotes, spaces, underscores) is structural and passes
#: through, so ``flash_page_reads`` is vetted word by word.
_TOKEN = re.compile(r"[A-Za-z0-9]+")

#: Replacement for tokens outside the vocabulary.
REDACTED = "?"

#: Structural engine vocabulary: names the code base itself uses.  These
#: are compile-time identifiers, never data values, so they are safe to
#: show.  Schema identifiers (table/column names) are added per session.
ENGINE_VOCAB = frozenset(
    {
        # operator / plan node names
        "op", "climbing", "select", "visible", "scan", "convert", "merge",
        "intersect", "union", "skt", "access", "bloom", "filter", "probe",
        "store", "project", "ids", "tuples", "rows", "aggregate", "order",
        "limit", "by", "to", "device", "host", "operator", "operators",
        # strategy / predicate structure
        "pre", "post", "cross", "eq", "neq", "range", "in", "and", "or",
        "not", "true", "false", "none", "null", "no", "predicates",
        # span / category names
        "query", "execute", "executor", "lower", "run", "optimizer",
        "rank", "candidate", "choose", "optimize", "plan", "plans",
        "hardware", "flash", "usb", "ram", "cpu", "engine", "session",
        "trace", "load", "append", "maintenance",
        # DML span / event / attribute names
        "dml", "update", "delete", "set", "matched", "changed", "table",
        "statement",
        # common attribute words
        "est", "ms", "sim", "wall", "seconds", "bytes", "count", "date",
        "key", "index", "heap", "fan", "batch", "recheck", "residual",
        "hidden", "expected", "fp", "rate", "hashes", "bits", "inserted",
        "result", "candidates", "candidate", "chosen", "fitting", "self",
        "out", "high", "water", "page", "reads", "writes", "erases",
        "block", "messages", "sql", "pulled", "error", "detail",
        "finished", "strategy", "probed", "passed", "inputs", "dropped",
        "via", "cached",
        # leakage metering (shape-derived names, never data values)
        "leak", "leakage", "observable", "shape", "shapes", "entropy",
        "signature", "signatures", "gap", "gaps", "mean", "duration",
        "retransmissions", "repeated", "ratio", "observed", "profiled",
        "fingerprint", "classifier", "accuracy", "chance", "label",
        "labels", "family", "families", "band", "trials", "meter",
        "scorecard", "clean",
        # SQL keywords (query *structure* is an accepted revelation;
        # constants still scrub to '?')
        "from", "where", "group", "having", "distinct", "as", "on",
        "between", "like", "sum", "avg", "min", "max", "insert", "into",
        "create", "values", "integer", "char", "varchar", "float",
        "primary", "references",
        # flight recorder / postmortem bundle (event kinds, ledger and
        # bundle field names, fault-site identifiers, typed-abort class
        # names -- all compile-time identifiers, never data values)
        "flight", "recorder", "ledger", "dump", "postmortem", "bundle",
        "doctor", "slo", "quantile", "quantiles", "seq", "kind", "data",
        "events", "event", "begin", "end", "abort", "aborted", "fault",
        "faults", "retry", "retries", "attempt", "reason", "site",
        "remap", "remaps", "remount", "remounts", "recovery", "recover",
        "cache", "hits", "misses", "evictions", "invalidations", "shed",
        "pressure", "exhausted", "torn", "scanned", "pages", "capacity",
        "recorded", "total", "totals", "window", "cumulative", "queries",
        "entries", "spans", "state", "summary", "schema", "version",
        "created", "profile", "seed", "corrupt", "cut", "power",
        "unplugged", "transfer", "deferred", "injected", "scheduled",
        "unplug", "drop", "stall", "truncate", "bitflip", "bad",
        "invalidate", "ftl", "counter", "gauge", "histogram",
        "deviceunpluggederror", "powercuterror", "usbtransfererror",
        "usbdroppederror", "frameerror", "ramexhaustederror",
        "ghostdbfaulterror", "ghostdb",
    }
)


#: Distinct input strings :meth:`Redactor.scrub` remembers before it
#: starts over.  Span names, categories, attribute keys and operator
#: details repeat from statement to statement, so a small memo answers
#: nearly every scrub.
SCRUB_MEMO_SIZE = 4096


class Redactor:
    """Token-level scrubber with a registered safe vocabulary."""

    def __init__(self, vocabulary: set[str] | None = None):
        self._vocab: set[str] = set(ENGINE_VOCAB)
        if vocabulary:
            self._vocab.update(t.lower() for t in vocabulary)
        #: How many tokens were redacted so far (a health signal: a
        #: spike means instrumentation is trying to log raw text).
        self.redacted_tokens = 0
        #: text -> (scrubbed text, tokens redacted), valid for the
        #: current vocabulary; never pickled.
        self._memo: dict[str, tuple[str, int]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo = {}

    # ------------------------------------------------------------------
    # Vocabulary management
    # ------------------------------------------------------------------

    def allow(self, *tokens: str) -> None:
        """Register structural tokens (identifiers, not values).

        A token new to the vocabulary drops the scrub memo, whose
        entries were gated against the smaller vocabulary."""
        size = len(self._vocab)
        for token in tokens:
            for part in _TOKEN.findall(str(token)):
                self._vocab.add(part.lower())
        if len(self._vocab) != size:
            self._memo.clear()

    def allow_schema(self, schema) -> None:
        """Register every table and column *name* of a schema.

        Names are part of the accepted revelation (requests on the wire
        already carry them); values never are.
        """
        for table in schema:
            self.allow(table.name)
            for column in table.columns:
                self.allow(column.name)

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    def scrub(self, text: str) -> str:
        """Replace every out-of-vocabulary token with ``?``.

        Each distinct ``text`` is gated once per vocabulary: a repeat
        returns the memoized result and counts its redacted tokens
        again, so :attr:`redacted_tokens` is what gating every call
        would give.
        """
        entry = self._memo.get(text)
        if entry is None:
            redacted = 0

            def _gate(match: re.Match) -> str:
                nonlocal redacted
                token = match.group(0)
                if token.lower() in self._vocab:
                    return token
                redacted += 1
                return REDACTED

            entry = (_TOKEN.sub(_gate, text), redacted)
            if len(self._memo) >= SCRUB_MEMO_SIZE:
                self._memo.clear()
            self._memo[text] = entry
        self.redacted_tokens += entry[1]
        return entry[0]

    def value(self, value):
        """Gate one attribute value.

        Numbers, booleans and ``None`` pass (counts and shapes are the
        whole point of the subsystem); strings are scrubbed; containers
        are gated recursively; anything else is reduced to its scrubbed
        ``str()`` form so arbitrary objects cannot smuggle values.
        """
        if value is None or isinstance(value, (bool, int, float)):
            return value
        if isinstance(value, str):
            return self.scrub(value)
        if isinstance(value, (list, tuple)):
            return [self.value(v) for v in value]
        if isinstance(value, dict):
            return {self.scrub(str(k)): self.value(v) for k, v in value.items()}
        return self.scrub(str(value))
