"""Privacy-aware query mediation.

Every query is decomposed into (provider, attribute, accessor) lineages.
The ledger's latest seq of a lineage's stream alone says which version
is current, and both records of that version are read back from disk,
on every query: the policy.db line the store holds at that seq and the
ledger record there.  Between queries the mediator alone keeps, per
lineage whose check passed, its VerificationEntry (which holds the seq),
the row of its stream in the ledger's index, the fingerprint of the two
records' bytes and the preferences; and per run of several lineages
whose checks all passed, keyed by the run's first seq, its last seq, the
policy.db row of its first line, the digest of its bytes in both files
(SHA-256 fed the policy bytes and then the ledger bytes) and what each
of its lineages kept.  It never keeps a failed check or an access
decision.

A query looks each lineage up once: a kept lineage's latest seq is read
at its kept row, and only a lineage with no entry has its stream's name
formatted.  Where a kept run begins at a lineage's latest seq, it stands
whole if the query's seqs from there on are the run's consecutive seqs,
each of its lineages still holds the very entry it held when the run was
kept, and the run's bytes, read with one os.pread per file, give its
digest; its kept entries and preferences are then handed out as they
are.  That is sound: a run is kept only after every lineage in it passed
its check on exactly the bytes hashed; both indexes are append-only, so
the same seqs are the same rows and offsets; a record's seq fixes its
stream, so the same seqs are the same lineages; a check a lineage fails,
in a query of any shape, drops its entry and the run kept at its seq;
and the bytes are still read and hashed, so any change on disk to either
record is seen.

The other lineages, and those of a run whose digest differs or whose
read is refused or short, are checked one by one.  In analysis order
they form runs: stretches whose latest seqs are consecutive and whose
policy.db lines are consecutive rows one LF apart, at most
store.RUN_BYTES of them, each file's bytes of a run read with one
os.pread.  Each lineage is checked on its slices of the two reads, which
SHA-256 fingerprints in turn, unless the fingerprint is the one kept for
the lineage at that seq: the commitment published in the ledger record
must equal SHA-256 of the nonce and the tuple bytes of the policy.db
line, a slice of the bytes read, with nothing decoded or re-encoded
first (tuples.commit).  Only then are the tuple's preferences decoded,
and its provider, attribute, accessor and version cross-checked against
the lineage and the index.  A run of several is then kept if all its
lineages passed, and any other run drops what was kept at its first seq.
So a check costs one SHA-256 over bytes already read and no key
stretching; a warm engine repeats it only after a change on disk to
either record.  A lineage without a stream has no policy and reads
nothing from the store; a single mismatch, including a published item
with no readable instance at its seq, aborts the whole request with zero
disclosed cells.  Verified lineages then pass through policy evaluation,
the query is rewritten to the allowed attribute set, executed once, and
each disclosed cell is transformed to its granted granularity.  A stored
policy record that fails its read back, its pattern or its decode, a
payload that is not the commitment (whatever its form), or a ledger
record that fails its read back (changed on disk since open, cut short,
or not matching its digest), is a mismatch too, never a pass; a read the
system refuses fails only the lineages whose records it covers.

Filtered attributes are lineages like requested ones.  A conjunct sees a
stored value only where its lineage grants Specific; elsewhere the cell
is NULL and the row drops out (LeFevre et al., VLDB 2004).
"""

from __future__ import annotations

import datetime as dt
import time
from enum import Enum
from hashlib import sha256
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

from .ledger import LINEAGE_STREAM, Ledger, LedgerError
from .config import Record
from .policy import GranularityMode, PreferenceSet, apply_granularity, evaluate_access
from .store import CorruptRecord, Store, UnknownProvider
from .tuples import commit


class MediationStatus(str, Enum):
    COMPLETED = "Completed"
    ABORTED = "Aborted"


WITHHELD = "WITHHELD"

# Denial vocabulary seen in mediation results: the four policy reasons plus
# the two mediator-level outcomes below.
NO_PUBLISHED_POLICY = "NoPublishedPolicy"
INTEGRITY_ABORT = "IntegrityAbort"

VERIFIED_OK = "ok"
VERIFIED_MISMATCH = "mismatch"
VERIFIED_NO_POLICY = "no-policy"

PROVIDER_ID = "provider_id"  # the one conjunct name that is not an attribute


class QueryRequest(Record):
    __slots__ = _fields = ("accessor_id", "requested_purpose", "attributes", "predicate", "provider_id")

    def __init__(
        self,
        accessor_id: int,
        requested_purpose: str,
        attributes,
        predicate: dict | None = None,
        provider_id: int | None = None,  # None means every provider
    ):
        attributes = tuple(attributes)
        if not attributes:
            raise ValueError("a query must request at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise ValueError("requested attributes must be distinct")
        self._set(
            accessor_id,
            requested_purpose,
            attributes,
            {} if predicate is None else predicate,
            provider_id,
        )


class VerificationEntry(NamedTuple):
    lineage: tuple[int, int, int]  # (provider_id, attribute_id, accessor_id)
    seq: int | None
    verified: bool
    note: str  # ok | mismatch | no-policy


class _Kept(NamedTuple):
    """What the mediator keeps of a lineage's version whose check passed."""

    row: int  # the ledger's stream_row of the lineage's stream
    entry: VerificationEntry  # handed out as is while the version stands
    fingerprint: bytes  # _digest of its policy.db line and ledger record
    preferences: PreferenceSet


class _Run(NamedTuple):
    """What the mediator keeps of a run of several lineages, by its first
    seq, whose checks all passed."""

    last: int  # its last seq
    row: int  # the policy.db row of its first line
    digest: bytes  # _digest of its policy.db lines and ledger records
    kept: list  # each lineage's _Kept when the digest was taken


_ENTRY, _PREFERENCES = attrgetter("entry"), attrgetter("preferences")


def _digest(policy, records) -> bytes | None:
    """SHA-256 fed bytes read from policy.db and then bytes read from the
    ledger, or None where either is None or a refused read's OSError.  No
    read returns more than the length the index gives, so a digest kept
    matches only the very bytes it was taken of."""
    if policy is None or records is None:
        return None
    if isinstance(policy, OSError) or isinstance(records, OSError):
        return None
    hasher = sha256(policy)
    hasher.update(records)
    return hasher.digest()


class ResultRow(NamedTuple):
    provider_id: int
    cells: tuple


class Timing(NamedTuple):
    native_ms: float
    total_ms: float


class OpCounters(SimpleNamespace):
    """Instrumented operation counts for one query execution."""

    def __init__(self):
        super().__init__(ledger_reads=0, hash_verifications=0, policy_evaluations=0, selects=0)


class MediationResult(NamedTuple):
    status: MediationStatus
    columns: tuple[str, ...]
    rows: tuple[ResultRow, ...]
    denials: tuple[tuple[str, str], ...]
    verification: tuple[VerificationEntry, ...]
    timing: Timing
    ops: OpCounters


class NativeResult(NamedTuple):
    columns: tuple[str, ...]
    rows: tuple[ResultRow, ...]
    duration_ms: float
    ops: OpCounters


def _projection(columns, predicate: dict) -> list[str]:
    """The columns, then each attribute the predicate filters on that is not
    among them."""
    filtered = (name for name in predicate if name != PROVIDER_ID)
    return [*columns, *(name for name in filtered if name not in columns)]


def _conjuncts(predicate: dict, names: list[str]) -> list[tuple[str, int | None, object]]:
    """Each conjunct as (name, position of its column in names, wanted
    value); a provider_id conjunct has no column."""
    return [
        (name, None if name == PROVIDER_ID else names.index(name), wanted)
        for name, wanted in predicate.items()
    ]


def _conjuncts_hold(conjuncts, provider_id: int, values: list, readable) -> bool:
    """Whether a projected row meets every conjunct.  Outside a provider_id
    conjunct the stored value is compared only where
    readable(provider_id, name) holds; elsewhere the cell is NULL and the
    conjunct fails."""
    return all(
        provider_id == wanted
        if position is None
        else readable(provider_id, name) and values[position] == wanted
        for name, position, wanted in conjuncts
    )


class Mediator:
    """Mediates queries between accessors, the store and the ledger."""

    def __init__(self, store: Store, ledger: Ledger):
        self._store = store
        self._ledger = ledger
        # Lineage -> what is kept of its version at the latest ledger seq
        # whose two records a query verified.  Other bytes at that seq, or a
        # later seq, drop it.
        self._kept: dict[tuple[int, int, int], _Kept] = {}
        # First seq of a run of several lineages -> what is kept of it, each
        # key the seq of a kept entry: one that is dropped drops the run
        # keyed at its seq.
        self._runs: dict[int, _Run] = {}

    # -- analysis -----------------------------------------------------------

    def analyze(
        self, request: QueryRequest, names: dict | None = None
    ) -> list[tuple[int, int, int]]:
        """Lineages touched by a request, as (provider_id, attribute_id,
        accessor_id), provider then attribute ascending: one per requested
        or filtered attribute, however often it is named.  names, if given,
        takes each of those attributes' id -> name."""
        by_name = self._store.catalog.by_name
        id_to_name = {
            by_name(name).attribute_id: name
            for name in _projection(request.attributes, request.predicate)
        }
        if names is not None:
            names.update(id_to_name)
        if request.provider_id is None:
            providers = self._store.provider_ids()
        else:
            if not self._store.has_provider(request.provider_id):
                raise UnknownProvider(f"no provider with id {request.provider_id}")
            providers = [request.provider_id]
        accessor_id = request.accessor_id
        self._store.get_accessor(accessor_id)
        attribute_ids = sorted(id_to_name)
        return [
            (provider_id, attribute_id, accessor_id)
            for provider_id in sorted(providers)
            for attribute_id in attribute_ids
        ]

    # -- mediation ----------------------------------------------------------

    def mediate(self, request: QueryRequest, now: dt.date | None = None) -> MediationResult:
        """Run one privacy-aware query.

        Hash inconsistency on any touched lineage aborts the whole
        request before anything is read from content.  Lineages without
        a published policy are denied, not aborted.  Equal requests over
        unchanged state produce equal results.  Only if the pass over the
        lineages verified every published one are their policies evaluated.
        """
        started = time.perf_counter()
        now = now or dt.date.today()
        accessor = self._store.get_accessor(request.accessor_id)
        id_to_name: dict[int, str] = {}
        lineages = self.analyze(request, id_to_name)

        ops = OpCounters()
        entries, preferences, aborted = self._verify(lineages, ops)
        if aborted:
            total = (time.perf_counter() - started) * 1000.0
            return MediationResult(
                status=MediationStatus.ABORTED,
                columns=request.attributes,
                rows=(),
                denials=tuple(
                    (name, INTEGRITY_ABORT) for name in request.attributes
                ),
                verification=tuple(entries),
                timing=Timing(native_ms=0.0, total_ms=total),
                ops=ops,
            )

        # Per-lineage access decisions.  A provider-specific denial withholds
        # that provider's cell; an attribute denied on every lineage is
        # reported in the denial table.
        granted: dict[tuple[int, str], str] = {}  # a GranularityMode token per cell
        first_reason: dict[str, str] = {}
        evaluations = 0
        for (provider_id, attribute_id, _), prefs in zip(lineages, preferences):
            name = id_to_name[attribute_id]
            if prefs is None:
                first_reason.setdefault(name, NO_PUBLISHED_POLICY)
                continue
            decision = evaluate_access(prefs, accessor, request.requested_purpose, now)
            evaluations += 1
            if decision.allowed:
                granted[(provider_id, name)] = decision.granularity
            elif name not in first_reason:
                first_reason[name] = decision.reason
        ops.policy_evaluations = evaluations

        granted_names = {name for _, name in granted}
        allowed_names = [
            name for name in request.attributes if name in granted_names
        ]
        denials = tuple(
            (name, first_reason[name])
            for name in request.attributes
            if name not in allowed_names
        )

        native_ms = 0.0
        rows: list[ResultRow] = []
        if allowed_names:
            names = _projection(allowed_names, request.predicate)
            select_started = time.perf_counter()
            raw = self._store.select_rows(names, request.provider_id)
            native_ms = (time.perf_counter() - select_started) * 1000.0
            ops.selects += 1

            def specific(provider_id: int, name: str) -> bool:
                return granted.get((provider_id, name)) == GranularityMode.SPECIFIC

            conjuncts = _conjuncts(request.predicate, names)
            # Each requested column with its position in the projection.
            positions = [
                (name, names.index(name) if name in names else None)
                for name in request.attributes
            ]
            for provider_id, values in raw:
                if not _conjuncts_hold(conjuncts, provider_id, values, specific):
                    continue
                cells = []
                for name, position in positions:
                    mode = granted.get((provider_id, name))
                    if position is not None and mode is not None:
                        cells.append(apply_granularity(values[position], mode))
                    else:
                        cells.append(WITHHELD)
                rows.append(ResultRow(provider_id, tuple(cells)))

        total = (time.perf_counter() - started) * 1000.0
        return MediationResult(
            status=MediationStatus.COMPLETED,
            columns=request.attributes,
            rows=tuple(rows),
            denials=denials,
            verification=tuple(entries),
            timing=Timing(native_ms=native_ms, total_ms=total),
            ops=ops,
        )

    def _verify(self, lineages, ops: OpCounters):
        """Check both records of the current version of each lineage, in
        order: returns its VerificationEntry per lineage, per lineage the
        preferences to evaluate (None where none is published or
        verified), and whether any is a mismatch, and counts the ledger
        records read and the hashes verified in ops.  A kept run stands
        whole where the query's seqs there are its seqs, each lineage
        still holds the entry it held when the run was kept, and its
        bytes, read with one os.pread per file, give its digest; the
        lineages between such runs are checked by _check_runs.  Nothing
        it read outlives it."""
        kept, runs = self._kept, self._runs
        held = list(map(kept.get, lineages))
        seqs = self._ledger.latest_seqs(lineages, held)
        entries: list[VerificationEntry] = []
        preferences: list[PreferenceSet | None] = []  # None: no published policy to evaluate
        aborted = False
        stood = 0  # lineages of runs that stood whole
        start = at = 0  # lineages[start:at] wait for _check_runs
        while at < len(seqs):
            first = seqs[at]
            run = runs.get(first)
            if run is not None:
                count = run.last - first + 1
                stop = at + count
                if (
                    held[at:stop] == run.kept
                    and seqs[at:stop] == list(range(first, run.last + 1))
                    and _digest(
                        self._store.read_lines(run.row, count),
                        self._ledger.read_records(first, count),
                    )
                    == run.digest
                ):
                    if start < at:
                        aborted |= self._check_runs(
                            lineages[start:at], seqs[start:at], entries, preferences, ops
                        )
                    entries += map(_ENTRY, run.kept)
                    preferences += map(_PREFERENCES, run.kept)
                    stood += count
                    start = at = stop
                    continue
            at += 1
        if start < at:
            aborted |= self._check_runs(lineages[start:], seqs[start:], entries, preferences, ops)
        ops.ledger_reads += stood
        ops.hash_verifications += stood
        return entries, preferences, aborted

    def _check_runs(self, lineages, seqs, entries, preferences, ops: OpCounters) -> bool:
        """Check each lineage, with its latest seq in seqs, on its slices
        of one read per file per run of store.policy_runs, appending its
        entry and preferences; returns whether any is a mismatch.  A run
        of several whose lineages all passed is kept, by its first seq;
        any other run drops what was kept at its first seq."""
        store, ledger, runs = self._store, self._ledger, self._runs
        aborted = False
        for start, stop, row, policy in store.policy_runs(seqs):
            first = seqs[start]
            if first is None:
                entries.append(VerificationEntry(lineages[start], None, False, VERIFIED_NO_POLICY))
                preferences.append(None)
                continue
            count = stop - start
            run = lineages[start:stop]
            records = ledger.read_records(first, count)
            if count == 1:  # policy and records are its two records, as read
                digest, checked = None, [self._check(run[0], first, policy, records, ops)]
            else:
                digest = _digest(policy, records)
                lines = store.lines(row, count, policy)
                records = ledger.records(first, count, records)
                checked = [
                    self._check(lineage, seq, line, record, ops)
                    for lineage, seq, line, record in zip(run, seqs[start:stop], lines, records)
                ]
            if digest is not None and None not in checked:
                runs[first] = _Run(first + count - 1, row, digest, checked)
            else:
                runs.pop(first, None)
            for lineage, seq, passed in zip(run, seqs[start:stop], checked):
                if passed is None:
                    aborted = True
                    entries.append(VerificationEntry(lineage, seq, False, VERIFIED_MISMATCH))
                    preferences.append(None)
                else:
                    entries.append(passed.entry)
                    preferences.append(passed.preferences)
        return aborted

    def _check(self, lineage, seq: int, line, record, ops: OpCounters) -> _Kept | None:
        """What is kept of the lineage's version at seq if its two records
        pass, as read back (line None where policy.db holds none; either an
        OSError where its read was refused), else None; counts in ops.
        Where their fingerprint is the one kept for the lineage at seq,
        its verdict stands; otherwise the commitment in the ledger record
        is checked against the nonce and tuple bytes of the policy.db line,
        as read, and only if it holds are the preferences decoded and the
        tuple cross-checked; the version is kept only if all pass."""
        kept = self._kept
        fingerprint = _digest(line, record)
        held = kept.get(lineage)
        if held is not None:
            if held.fingerprint == fingerprint and held.entry.seq == seq:
                ops.ledger_reads += 1
                ops.hash_verifications += 1
                return held
            del kept[lineage]
            self._runs.pop(held.entry.seq, None)
        if record is None or isinstance(record, OSError):
            return None
        name = LINEAGE_STREAM.format(*lineage)
        try:
            payload = self._ledger.latest_item(name, record).payload
            ops.ledger_reads += 1
            if line is None or isinstance(line, OSError):
                return None
            stored = self._store.latest_tuple_instance(lineage, seq, line)
            ops.hash_verifications += 1
            if commit(stored.nonce, stored.encoded) != payload:
                return None
            prefs = self._store.preferences(lineage, seq, stored.encoded)
        except (LedgerError, CorruptRecord):
            return None
        entry = VerificationEntry(lineage, seq, True, VERIFIED_OK)
        held = kept[lineage] = _Kept(self._ledger.stream_row(name), entry, fingerprint, prefs)
        return held

    # -- native baseline ----------------------------------------------------

    def native_query(self, request: QueryRequest) -> NativeResult:
        """Direct select with no ledger reads, verification or policy;
        every conjunct reads the stored value.

        In-process benchmark baseline only; no command exposes it.
        """
        started = time.perf_counter()
        ops = OpCounters()
        names = _projection(request.attributes, request.predicate)
        raw = self._store.select_rows(names, request.provider_id)
        ops.selects += 1
        width = len(request.attributes)
        conjuncts = _conjuncts(request.predicate, names)
        rows = tuple(
            ResultRow(provider_id, tuple(values[:width]))
            for provider_id, values in raw
            if _conjuncts_hold(conjuncts, provider_id, values, lambda *_: True)
        )
        duration = (time.perf_counter() - started) * 1000.0
        return NativeResult(
            columns=request.attributes, rows=rows, duration_ms=duration, ops=ops
        )

