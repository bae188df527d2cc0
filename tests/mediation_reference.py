"""Query mediation as it was before Mediator.mediate verified the
lineages in one pass, kept as the reference for that pass.

ReferenceMediator.mediate is the mediation as it was then: each lineage
is verified by its own method, which asks the ledger for the stream's
latest seq, the store for the instance stored at that seq and the ledger
for the item at it, and parses the item's hash record through a method
that keeps the parse per stream in the reference's own dict (the
package's mediator keeps a fingerprint per lineage instead, and hashes
only records whose bytes it has not verified), then hashes the
instance's canonical encoding on every call.  Its ledger_reads counts
each ledger item read back whole and intact, one per lineage with a
stream whose latest record passes its read back; the package's mediator
reads that record once per query as well, and counts the same reads.
The entries are collected in a list and the instances in a dict keyed by
Lineage, a named tuple built from each of analyze's plain ones; a second
scan of the entries looks for a mismatch; and then each lineage's policy
is decided.

reference_evaluate_access is the access decision as it was before it
returned shared decisions: it builds the union of the roles the policy
permits and ends the retention window at the effective date plus the
duration, with one fix: where that end lies past the last calendar
date, the window is open, which is where the date arithmetic used to
raise OverflowError instead.
"""

from __future__ import annotations

import datetime as dt
import time
from typing import NamedTuple

from privledger.ledger import LINEAGE_STREAM, LedgerError, StreamItem, UnknownStream
from privledger.mediator import (
    INTEGRITY_ABORT,
    NO_PUBLISHED_POLICY,
    VERIFIED_MISMATCH,
    VERIFIED_NO_POLICY,
    VERIFIED_OK,
    WITHHELD,
    MediationResult,
    MediationStatus,
    Mediator,
    OpCounters,
    QueryRequest,
    ResultRow,
    Timing,
    VerificationEntry,
    _conjuncts,
    _conjuncts_hold,
    _projection,
)
from privledger.policy import (
    AccessDecision,
    AccessorProfile,
    DenialReason,
    GranularityMode,
    PreferenceSet,
    PurposeMode,
    RetentionPolicy,
    apply_granularity,
)
from privledger.store import CorruptRecord, TupleInstance
from privledger.tuples import HashRecord, MalformedRecord, canonical_encode, verify_hash


class Lineage(NamedTuple):
    provider_id: int
    attribute_id: int
    accessor_id: int

    @property
    def stream(self) -> str:
        return LINEAGE_STREAM.format(*self)


def reference_retention_active(retention: RetentionPolicy, now: dt.date) -> bool:
    if now < retention.effective_date:
        return False
    if retention.duration_days == 0:
        return True
    try:
        end = retention.effective_date + dt.timedelta(days=retention.duration_days)
    except OverflowError:  # the window ends past the last calendar date
        return True
    return now < end


def reference_evaluate_access(
    prefs: PreferenceSet,
    accessor: AccessorProfile,
    requested_purpose: str,
    now: dt.date,
) -> AccessDecision:
    permitted = prefs.visibility.allowed_roles | prefs.third_party_accessors
    if accessor.role not in permitted:
        return AccessDecision(allowed=False, reason=DenialReason.VISIBILITY_VIOLATION)
    if prefs.sensitivity > accessor.permission_level:
        return AccessDecision(allowed=False, reason=DenialReason.SENSITIVITY_EXCEEDED)
    if (
        prefs.purpose.mode == PurposeMode.REUSE_SELECTED
        and requested_purpose != prefs.purpose.declared_purpose
    ):
        return AccessDecision(allowed=False, reason=DenialReason.PURPOSE_MISMATCH)
    if not reference_retention_active(prefs.retention, now):
        return AccessDecision(allowed=False, reason=DenialReason.RETENTION_EXPIRED)
    return AccessDecision(allowed=True, granularity=prefs.granularity.mode)


class ReferenceMediator(Mediator):
    """A mediator whose mediate is the two-pass reference; analysis and the
    native baseline are the package's."""

    def __init__(self, store, ledger):
        super().__init__(store, ledger)
        # Stream name -> (seq, parsed payload) of the latest item read on it.
        self._records: dict[str, tuple[int, HashRecord]] = {}

    def _hash_record(self, item: StreamItem) -> HashRecord:
        kept = self._records.get(item.stream)
        if kept is not None and kept[0] == item.seq:
            return kept[1]
        record = HashRecord.from_string(item.payload)
        self._records[item.stream] = (item.seq, record)
        return record

    def _verify_lineage(
        self, lineage: Lineage, ops: OpCounters
    ) -> tuple[VerificationEntry, TupleInstance | None]:
        try:
            seq = self._ledger.latest_seq(lineage.stream)
        except UnknownStream:
            return (VerificationEntry(lineage, None, False, VERIFIED_NO_POLICY), None)
        try:
            instance = self._store.latest_tuple_instance(tuple(lineage), seq)
        except CorruptRecord:
            instance = None
        try:
            item = self._ledger.item(seq)
        except LedgerError:
            return (VerificationEntry(lineage, seq, False, VERIFIED_MISMATCH), None)
        ops.ledger_reads += 1
        if instance is None:
            return (
                VerificationEntry(lineage, item.seq, False, VERIFIED_MISMATCH),
                None,
            )
        try:
            record = self._hash_record(item)
        except MalformedRecord:
            ok = False
        else:
            ok = verify_hash(canonical_encode(instance.privacy_tuple), record)
            ops.hash_verifications += 1
        note = VERIFIED_OK if ok else VERIFIED_MISMATCH
        return (VerificationEntry(lineage, item.seq, ok, note), instance)

    def mediate(self, request: QueryRequest, now: dt.date | None = None) -> MediationResult:
        started = time.perf_counter()
        now = now or dt.date.today()
        ops = OpCounters()
        accessor = self._store.get_accessor(request.accessor_id)
        lineages = [Lineage(*lineage) for lineage in self.analyze(request)]

        entries: list[VerificationEntry] = []
        instances: dict[Lineage, TupleInstance | None] = {}
        for lineage in lineages:
            entry, instance = self._verify_lineage(lineage, ops)
            entries.append(entry)
            instances[lineage] = instance

        if any(entry.note == VERIFIED_MISMATCH for entry in entries):
            total = (time.perf_counter() - started) * 1000.0
            return MediationResult(
                status=MediationStatus.ABORTED,
                columns=request.attributes,
                rows=(),
                denials=tuple((name, INTEGRITY_ABORT) for name in request.attributes),
                verification=tuple(entries),
                timing=Timing(native_ms=0.0, total_ms=total),
                ops=ops,
            )

        id_to_name = {
            self._store.catalog.by_name(name).attribute_id: name
            for name in _projection(request.attributes, request.predicate)
        }
        granted: dict[tuple[int, str], GranularityMode] = {}
        first_reason: dict[str, str] = {}
        for lineage in lineages:
            name = id_to_name[lineage.attribute_id]
            instance = instances[lineage]
            if instance is None:
                first_reason.setdefault(name, NO_PUBLISHED_POLICY)
                continue
            decision = reference_evaluate_access(
                instance.privacy_tuple.prefs,
                accessor,
                request.requested_purpose,
                now,
            )
            ops.policy_evaluations += 1
            if decision.allowed:
                granted[(lineage.provider_id, name)] = decision.granularity
            else:
                first_reason.setdefault(name, decision.reason)

        granted_names = {name for _, name in granted}
        allowed_names = [name for name in request.attributes if name in granted_names]
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
