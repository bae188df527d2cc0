"""Privacy-aware query mediation.

Every query is decomposed into (provider, attribute, accessor) lineages.
One pass over them re-hashes each stored tuple instance's canonical
encoding (derived once per stored version) and checks it against the
hash published on the lineage's ledger stream, on every query; a single
mismatch aborts the whole request with zero disclosed cells.  Between
queries only the parse of each lineage's latest published hash record is
kept, with its seq, never a verification outcome or an access decision;
the ledger item is read again only when the stream's latest seq is
another.  Verified lineages then pass through policy evaluation, the
query is rewritten to the allowed attribute set, executed once, and each
disclosed cell is transformed to its granted granularity.  A stored policy record that
fails to decode on first touch, or a ledger record that fails its read
back (changed on disk since open, or not matching its digest), is a
mismatch too, never a pass.

Filtered attributes are lineages like requested ones.  A conjunct sees a
stored value only where its lineage grants Specific; elsewhere the cell
is NULL and the row drops out (LeFevre et al., VLDB 2004).
"""

from __future__ import annotations

import datetime as dt
import time
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

from .ledger import LINEAGE_STREAM, Ledger, LedgerError, UnknownStream
from .config import Record
from .policy import GranularityMode, apply_granularity, evaluate_access
from .store import CorruptRecord, Store, TupleInstance, UnknownProvider
from .tuples import HashRecord, MalformedRecord, verify_hash


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
        # Stream name -> (seq, parsed payload) of the latest ledger item a
        # query read on it; a later item replaces the entry.
        self._records: dict[str, tuple[int, HashRecord]] = {}

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

        stream_name = LINEAGE_STREAM.format
        latest_instance = self._store.latest_tuple_instance
        latest_seq = self._ledger.latest_seq
        latest_item = self._ledger.latest_item
        records = self._records
        entries: list[VerificationEntry] = []
        instances: list[TupleInstance | None] = []  # None: no published policy to evaluate
        aborted = False
        ledger_reads = hash_verifications = 0
        for lineage in lineages:
            stream = stream_name(*lineage)
            try:
                instance = latest_instance(lineage)
                readable = True
            except CorruptRecord:
                instance, readable = None, False
            try:
                seq = latest_seq(stream)
            except UnknownStream:  # a lineage stream has items from its start
                note = VERIFIED_NO_POLICY if readable else VERIFIED_MISMATCH
                seq, ok, instance = None, False, None
            else:
                # The parse of the latest hash record read on each stream is
                # kept with its seq, so a repeat query reads and parses
                # nothing.  A ledger read that fails, or a payload that does
                # not parse, keeps nothing: every query reads it again.  A
                # published hash with no readable stored plaintext cannot be
                # verified.
                kept = records.get(stream)
                if kept is not None and kept[0] == seq:
                    ledger_reads += 1
                else:
                    kept = None
                    try:
                        payload = latest_item(stream).payload
                        ledger_reads += 1
                        if instance is not None:
                            kept = records[stream] = (seq, HashRecord.from_string(payload))
                    except (LedgerError, MalformedRecord):
                        pass
                if kept is None or instance is None:
                    ok = False
                else:
                    ok = verify_hash(instance.encoded, kept[1])
                    hash_verifications += 1
                note = VERIFIED_OK if ok else VERIFIED_MISMATCH
            aborted = aborted or note == VERIFIED_MISMATCH
            entries.append(VerificationEntry(lineage, seq, ok, note))
            instances.append(instance)

        ops = OpCounters()
        ops.ledger_reads = ledger_reads
        ops.hash_verifications = hash_verifications
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
        for (provider_id, attribute_id, _), instance in zip(lineages, instances):
            name = id_to_name[attribute_id]
            if instance is None:
                first_reason.setdefault(name, NO_PUBLISHED_POLICY)
                continue
            prefs = instance.privacy_tuple.prefs
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

