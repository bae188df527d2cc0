"""Mediation in one pass answers as the two-pass reference does.

Mediator.mediate verifies every lineage in one pass and then decides the
verified ones' policies.  tests/mediation_reference.py keeps the
mediation as it was before: a method per lineage, a dict of instances, a
second scan for a mismatch, and the access decision that built a role
union and a window end per call.  The reference reads, decodes and
hashes both records of every lineage on every call, where the mediator
hashes only records whose bytes differ from those it verified.  For
random point, all-provider and filtered requests over a population that
meets every denial reason, with unpublished lineages and with damage
drawn per lineage (a tampered stored tuple, a ledger payload that is
no commitment, a stored record that does not decode, a ledger record that
fails its read back), both give equal results in every field but
timing, their operation counts included, on a first query and on its
repeat.  Between the two, the stored tuple of an undamaged lineage the
request touches, drawn, may be tampered in place, keeping the line's
length, so that the repeat must notice the change on disk.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WORDS, make_accessor, make_engine, random_prefs
from mediation_reference import ReferenceMediator
from privledger.config import LEDGER_FILE
from privledger.engine import Engine, EngineConfig
from privledger.ledger import LINEAGE_STREAM, LedgerError
from privledger.mediator import INTEGRITY_ABORT, NO_PUBLISHED_POLICY, QueryRequest
from privledger.policy import AccessorRole, DenialReason, Sensitivity
from privledger.store import POLICY_FILE, StoreError

PROVIDERS = (1, 2, 3, 4)
ACCESSORS = {
    1: (AccessorRole.CLINICAL_PHYSICIAN, Sensitivity.LEVEL4_RESTRICTED),
    2: (AccessorRole.THIRD_PARTY_ALLIED, Sensitivity.LEVEL2_INTERNAL_USE),
    3: (AccessorRole.CLINICAL_NURSE, Sensitivity.LEVEL3_CONFIDENTIAL),
}
ATTRIBUTES = ("first_name", "street_name", "city", "chart_number", "witness_city")
VALUES = ("Calgary", "Leduc", "Quinn", "CH-00001")
PURPOSES = WORDS[:3]
DATES = (dt.date(2019, 6, 1), dt.date(2021, 7, 1), dt.date(2024, 1, 1))
DAMAGES = ("tampered", "malformed-payload", "undecodable", "read-back")


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    """The data directory of four providers, three accessors and random
    policies, some lineages unpublished and some republished, and the
    lineages it publishes."""
    rng = random.Random("mediation-pass")
    with contextlib.closing(make_engine(tmp_path_factory.mktemp("population"))) as engine:
        for accessor_id, (role, level) in ACCESSORS.items():
            engine.add_accessor(f"login-{accessor_id}", "secret", make_accessor(accessor_id, role, level))
        catalog = engine.store.catalog
        published = []
        for provider_id in PROVIDERS:
            values = {name: rng.choice(VALUES) for name in ATTRIBUTES if rng.random() < 0.8}
            engine.add_provider(provider_id, values)
            for name in ATTRIBUTES:
                attribute_id = catalog.by_name(name).attribute_id
                for accessor_id in ACCESSORS:
                    if rng.random() < 0.2:
                        continue  # no policy published
                    for _ in range(rng.choice((1, 1, 2))):
                        engine.set_policy(provider_id, accessor_id, random_prefs(rng, attribute_id))
                    published.append((provider_id, attribute_id, accessor_id))
    return engine.config, published


@st.composite
def requests(draw):
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3, unique=True))
    predicate = draw(st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES), max_size=2))
    if draw(st.booleans()):
        predicate["provider_id"] = draw(st.sampled_from(PROVIDERS))
    return QueryRequest(
        accessor_id=draw(st.sampled_from(sorted(ACCESSORS))),
        requested_purpose=draw(st.sampled_from(PURPOSES)),
        attributes=tuple(attributes),
        predicate=predicate,
        provider_id=draw(st.one_of(st.none(), st.sampled_from(PROVIDERS))),
    )


def _latest_line_span(path: Path, stream: str) -> tuple[int, int]:
    """Start and end of the last policy.db line on the stream."""
    start, span, field = 0, None, f'"stream": "{stream}"'.encode()
    for line in path.read_bytes().splitlines(keepends=True):
        if field in line:  # a line another damage left undecodable holds none
            span = (start, start + len(line))
        start += len(line)
    return span


def _overwrite(path: Path, start: int, data: bytes):
    content = path.read_bytes()
    path.write_bytes(content[:start] + data + content[start + len(data) :])


def _tamper(data_dir: Path, stream: str):
    """Change the stored tuple the stream's latest hash was taken from."""
    path = data_dir / "policy.db"
    start, end = _latest_line_span(path, stream)
    content = path.read_bytes()
    record = json.loads(content[start:end])
    record["tuple"]["prefs"]["purpose"]["declared_purpose"] += "-tampered"
    line = json.dumps(record, sort_keys=True).encode() + b"\n"
    path.write_bytes(content[:start] + line + content[end:])


def _tamper_in_place(data_dir: Path, stream: str):
    """Change one byte of the declared purpose in the stored tuple the
    stream's latest hash was taken from, keeping the line's length."""
    path = data_dir / "policy.db"
    start, end = _latest_line_span(path, stream)
    content = path.read_bytes()
    field = b'"declared_purpose": "'
    at = content.index(field, start, end) + len(field)
    _overwrite(path, at, b"1" if content[at : at + 1] == b"0" else b"0")


def _damage_after_open(engine: Engine, stream: str, kind: str):
    if kind == "malformed-payload":
        engine.ledger.publish(stream, "key-bad", b"$pbkdf2$8$not-a-salt")
    elif kind == "undecodable":
        path = engine.config.data_dir / "policy.db"
        start, end = _latest_line_span(path, stream)
        _overwrite(path, start, b"{" * (end - start - 1))
    elif kind == "read-back":
        # A payload digit changed: the record no longer gives its digest.
        seq = engine.ledger.stream(stream).seqs[-1]
        path = engine.ledger.path
        at = 0
        for line in path.read_bytes().splitlines(keepends=True):
            if line.startswith(f"{seq}\t".encode()):
                payload_end = at + len(b"\t".join(line.split(b"\t")[:6]))
                digit = line.split(b"\t")[5][-1:]
                _overwrite(path, payload_end - 1, b"1" if digit == b"0" else b"0")
                break
            at += len(line)


def _outcome(mediate, request, now):
    """The result with its timing left out, or the error raised."""
    try:
        return mediate(request, now=now)._replace(timing=None)
    except (LedgerError, StoreError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(
    request=requests(),
    now=st.sampled_from(DATES),
    damage=st.data(),
)
def test_one_pass_mediation_equals_the_reference(population, request, now, damage):
    config, published = population
    damaged = damage.draw(
        st.dictionaries(st.sampled_from(published), st.sampled_from(DAMAGES), max_size=2)
    )
    with tempfile.TemporaryDirectory() as scratch:
        data_dir = Path(scratch) / "data"
        shutil.copytree(config.data_dir, data_dir)
        for lineage, kind in damaged.items():
            if kind == "tampered":
                _tamper(data_dir, LINEAGE_STREAM.format(*lineage))
        with contextlib.closing(Engine.open(EngineConfig(data_dir, config.hash_cost))) as engine:
            # A publication first: it reads the ledger's last record.
            for lineage, kind in sorted(damaged.items(), key=lambda pair: pair[1] != "malformed-payload"):
                if kind != "tampered":
                    _damage_after_open(engine, LINEAGE_STREAM.format(*lineage), kind)
            reference = ReferenceMediator(engine.store, engine.ledger)
            touched = [
                lineage
                for lineage in engine.mediator.analyze(request)
                if lineage in published and lineage not in damaged
            ]
            tampered_between = damage.draw(st.sampled_from([None, *touched]))
            for repeat in range(2):
                if repeat and tampered_between is not None:
                    _tamper_in_place(data_dir, LINEAGE_STREAM.format(*tampered_between))
                assert _outcome(engine.mediate, request, now) == _outcome(
                    reference.mediate, request, now
                )


def _latest_record_byte(engine: Engine, lineage, name: str) -> tuple[Path, int]:
    """The file and offset of one byte of the lineage's latest record in
    file name that _flip changes in place: the first of the declared
    purpose in its policy.db line, or the last of the payload in its
    ledger record."""
    stream = LINEAGE_STREAM.format(*lineage)
    if name == POLICY_FILE:
        path = engine.config.data_dir / POLICY_FILE
        start, end = _latest_line_span(path, stream)
        field = b'"declared_purpose": "'
        return path, path.read_bytes().index(field, start, end) + len(field)
    seq = engine.ledger.latest_seq(stream)
    at = 0
    for line in engine.ledger.path.read_bytes().splitlines(keepends=True):
        if line.startswith(f"{seq}\t".encode()):
            return engine.ledger.path, at + len(b"\t".join(line.split(b"\t")[:6])) - 1
        at += len(line)
    raise AssertionError(f"no ledger record at seq {seq}")


def _flip(path: Path, at: int) -> bytes:
    """Change the byte at offset at in place; returns the byte it replaced."""
    with open(path, "r+b") as fh:
        fh.seek(at)
        old = fh.read(1)
        fh.seek(at)
        fh.write(b"1" if old == b"0" else b"0")
    return old


def _put_back(path: Path, at: int, old: bytes):
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(old)


# Policies for one accessor on some attributes of some providers, in
# analysis order: their records lie back to back, so a query of those
# lineages forms runs.
publish_steps = st.tuples(
    st.just("publish"),
    st.lists(st.sampled_from(PROVIDERS), min_size=1, unique=True),
    st.sampled_from(sorted(ACCESSORS)),
    st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=4, unique=True),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), requests()),
        publish_steps,
        # The steps below pick, by index, the lineages of a publish step
        # and one of them.
        st.tuples(st.just("query-published"), st.sampled_from(PURPOSES), st.integers(0, 15)),
        st.tuples(st.just("republish"), st.integers(0, 15), st.integers(0, 15)),
        st.tuples(
            st.just("edit"),
            st.integers(0, 15),
            st.integers(0, 15),
            st.sampled_from([POLICY_FILE, LEDGER_FILE]),
        ),
        st.just(("restore",)),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(first=publish_steps, steps=steps)
def test_a_warm_engine_answers_as_a_fresh_one(population, first, steps):
    """Publishes, republishes, same-length edits of either record of a
    lineage's latest version, and their restores, between queries: each
    query, and its repeat, on an engine kept open answers as an engine
    opened afresh on the same directory, at the latest seq of each
    lineage."""
    config, published = population
    now = DATES[1]
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as scratch:
        data_dir = Path(scratch) / "data"
        shutil.copytree(config.data_dir, data_dir)
        fresh_config = EngineConfig(data_dir, config.hash_cost)
        edits = []  # (path, offset, byte replaced), last first to restore
        publishes = []  # per publish step (providers, accessor, names, lineages)
        with contextlib.closing(Engine.open(fresh_config)) as engine:
            catalog = engine.store.catalog

            def publish(lineage):
                engine.set_policy(lineage[0], lineage[2], random_prefs(rng, lineage[1]))

            def lineages_of(index):
                return publishes[index % len(publishes)][3]

            def request_of(index, purpose):
                """A query of the lineages of a publish step."""
                provider_ids, accessor_id, names, _ = publishes[index % len(publishes)]
                provider_id = provider_ids[0] if len(provider_ids) == 1 else None
                return QueryRequest(accessor_id, purpose, names, provider_id=provider_id)

            def answers(request):
                with contextlib.closing(Engine.open(fresh_config)) as fresh:
                    expected = fresh.mediate(request, now=now)._replace(timing=None)
                for _ in range(2):
                    warm = engine.mediate(request, now=now)._replace(timing=None)
                    assert warm == expected
                lineages = engine.mediator.analyze(request)
                assert [e.seq for e in warm.verification] == engine.ledger.latest_seqs(lineages)

            # A publication first: it reads the ledger's last record, which
            # an edit may change.
            publish(published[0])
            for step in [first, *steps]:
                if step[0] == "publish":
                    _, provider_ids, accessor_id, names = step
                    attribute_ids = sorted(catalog.by_name(name).attribute_id for name in names)
                    lineages = [(p, a, accessor_id) for p in sorted(provider_ids) for a in attribute_ids]
                    for lineage in lineages:
                        publish(lineage)
                    publishes.append((provider_ids, accessor_id, names, lineages))
                elif step[0] == "query":
                    answers(step[1])
                elif step[0] == "query-published":
                    answers(request_of(step[2], step[1]))
                elif step[0] == "republish":
                    # Between two queries of the lineages it is one of.
                    _, index, which = step
                    request = request_of(index, PURPOSES[0])
                    answers(request)
                    lineages = lineages_of(index)
                    publish(lineages[which % len(lineages)])
                    answers(request)
                elif step[0] == "edit":
                    lineages = lineages_of(step[1])
                    path, at = _latest_record_byte(engine, lineages[step[2] % len(lineages)], step[3])
                    edits.append((path, at, _flip(path, at)))
                elif edits:
                    _put_back(*edits.pop())


def test_the_population_meets_every_outcome(population, tmp_path):
    """The generated requests can meet every denial reason and an abort."""
    config, published = population
    with contextlib.closing(Engine.open(config)) as engine:
        reference = ReferenceMediator(engine.store, engine.ledger)
        reasons = set()
        for accessor_id in ACCESSORS:
            for purpose in PURPOSES:
                for now in DATES:
                    request = QueryRequest(accessor_id, purpose, ATTRIBUTES)
                    reasons |= {reason for _, reason in reference.mediate(request, now=now).denials}
    assert reasons == set(DenialReason.TOKENS) | {NO_PUBLISHED_POLICY}
    # A tampered tuple aborts.
    data_dir = tmp_path / "data"
    shutil.copytree(config.data_dir, data_dir)
    _tamper(data_dir, LINEAGE_STREAM.format(*published[0]))
    with contextlib.closing(Engine.open(EngineConfig(data_dir, config.hash_cost))) as engine:
        request = QueryRequest(published[0][2], PURPOSES[0], ATTRIBUTES)
        result = engine.mediate(request, now=DATES[1])
        assert {reason for _, reason in result.denials} == {INTEGRITY_ABORT}
