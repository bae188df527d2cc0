"""Policy commitments in data format 4.

A published version's ledger payload is SHA-256(nonce || T) in hex, where
T is the tuple's canonical encoding, which its policy.db line holds
verbatim.  A one-byte edit to any region of a touched lineage's records
(the nonce, the line's seq or stream, the tuple's bytes, or the ledger
payload) leaves nothing disclosed, whether a fresh engine opens the
directory or a warm one that verified the lineage before queries it; a
payload that is not the commitment, whatever its form, is a mismatch and
never an exception.  Every line a publish writes is what
json.dumps(record, sort_keys=True) writes of it, and the bytes a check
hashes are the canonical encoding of its tuple.  The policy path runs no
PBKDF2: a publish runs none, a cold query runs one, for its login, however
many lineages it touches, and a warm query runs none.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import json
import re
import shutil
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    BENCH_ACCESSOR_ID,
    BENCH_ACCESSOR_LOGIN,
    BENCH_ACCESSOR_PASSWORD,
    BENCH_PURPOSE,
    DEMO_ACCESSOR_ID,
    DEMO_LINEAGE_A,
    DEMO_PROVIDER_ID,
    DEMO_PURPOSE,
    install_archetype_fixture,
    install_demo_fixture,
    make_engine,
    make_prefs,
    policy_line,
    stored_instance,
)
from privledger.cli import main
from privledger.engine import Engine, EngineConfig
from privledger.ledger import LINEAGE_STREAM, LedgerError
from privledger.mediator import MediationStatus, QueryRequest
from privledger.store import StoreError
from privledger.tuples import bind_tuple, canonical_encode, commit

NOW = dt.date(2021, 7, 1)
STREAM = LINEAGE_STREAM.format(*DEMO_LINEAGE_A)
REQUEST = QueryRequest(
    accessor_id=DEMO_ACCESSOR_ID,
    requested_purpose=DEMO_PURPOSE,
    attributes=("street_name", "first_name"),
    provider_id=DEMO_PROVIDER_ID,
)
REGIONS = ("nonce", "seq", "stream", "tuple", "payload")
# A policy.db line's header fields and its tuple, as groups.
LINE_RE = re.compile(
    rb'\{"nonce": "([0-9a-f]+)", "seq": ([0-9]+), "stream": "([^"]+)", "tuple": (.*)\}'
)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """The demo's data directory, closed, with its checkpoints."""
    engine = make_engine(tmp_path_factory.mktemp("demo"))
    install_demo_fixture(engine)
    engine.close()
    return engine.config


@contextlib.contextmanager
def copy_of(config):
    with tempfile.TemporaryDirectory() as scratch:
        data_dir = Path(scratch) / "data"
        shutil.copytree(config.data_dir, data_dir)
        yield EngineConfig(data_dir, config.hash_cost)


def region_spans(config, seq: int) -> dict[str, tuple[Path, int, int]]:
    """Each region of the two records at seq: its file, and the offsets of
    its first byte and the byte after its last."""
    spans = {}
    policy = config.data_dir / "policy.db"
    at = 0
    for line in policy.read_bytes().splitlines(keepends=True):
        match = LINE_RE.fullmatch(line.rstrip(b"\n"))
        if int(match[2]) == seq:
            for group, region in enumerate(REGIONS[:4], start=1):
                spans[region] = (policy, at + match.start(group), at + match.end(group))
        at += len(line)
    ledger = config.ledger_file
    at = 0
    for line in ledger.read_bytes().splitlines(keepends=True):
        fields = line.split(b"\t")
        if fields[0] == str(seq).encode():
            start = at + len(b"\t".join(fields[:5])) + 1
            spans["payload"] = (ledger, start, start + len(fields[5]))
        at += len(line)
    assert sorted(spans) == sorted(REGIONS)
    return spans


def edit_byte(span, pick: int, byte: int):
    """Replace one byte of the span, the pick-th modulo its length, with
    byte; the caller assumes it differs."""
    path, start, end = span
    at = start + pick % (end - start)
    data = bytearray(path.read_bytes())
    assume(data[at] != byte)
    data[at] = byte
    path.write_bytes(bytes(data))


def assert_nothing_disclosed(result):
    assert result.status is MediationStatus.ABORTED
    assert result.rows == ()
    [entry] = [e for e in result.verification if e.lineage == DEMO_LINEAGE_A]
    assert entry.note == "mismatch"


# ---------------------------------------------------------------------------
# tampering
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    region=st.sampled_from(REGIONS),
    pick=st.integers(min_value=0, max_value=2**16),
    # A hex digit keeps most edits inside the line's pattern; any byte also
    # breaks it.
    byte=st.sampled_from(b"0123456789abcdef") | st.integers(min_value=0, max_value=255),
)
def test_a_one_byte_edit_to_any_region_discloses_nothing(demo_dir, region, pick, byte):
    with copy_of(demo_dir) as config:
        with contextlib.closing(Engine.open(config)) as warm:
            first = warm.mediate(REQUEST, now=NOW)
            assert first.status is MediationStatus.COMPLETED
            seq = warm.ledger.latest_seq(STREAM)
            edit_byte(region_spans(config, seq)[region], pick, byte)
            # The engine that verified the lineage reads both records again.
            for _ in range(2):
                assert_nothing_disclosed(warm.mediate(REQUEST, now=NOW))
        # A fresh engine refuses the directory or aborts the query.
        try:
            fresh = Engine.open(config)
        except (StoreError, LedgerError):
            return
        with contextlib.closing(fresh):
            assert_nothing_disclosed(fresh.mediate(REQUEST, now=NOW))


PAYLOAD_TEXT = st.text(alphabet=string.printable[:94], max_size=80)  # the ledger's payload rule


@settings(max_examples=60, deadline=None)
@given(payload=PAYLOAD_TEXT, upper=st.booleans())
def test_a_payload_other_than_the_commitment_is_a_mismatch(demo_dir, payload, upper):
    with copy_of(demo_dir) as config:
        with contextlib.closing(Engine.open(config)) as engine:
            latest = stored_instance(config.data_dir, engine.ledger.latest_seq(STREAM))
            t = latest.privacy_tuple
            bound = bind_tuple(DEMO_PROVIDER_ID, t.attribute, t.prefs, t.accessor, t.version)
            true = commit(latest.nonce, canonical_encode(bound))
            # The commitment in capitals, or any other text the ledger takes.
            payload = true.upper() if upper else payload.encode("ascii")
            assume(payload != true)
            bad = engine.ledger.publish(STREAM, "key18", payload)
            engine.store.put_tuple_instance(STREAM, bad.seq, latest.nonce, canonical_encode(bound))
            result = engine.mediate(REQUEST, now=NOW)
            assert_nothing_disclosed(result)
            assert [e.seq for e in result.verification if e.note == "mismatch"] == [bad.seq]
        with contextlib.closing(Engine.open(config)) as fresh:
            assert fresh.mediate(REQUEST, now=NOW).verification == result.verification


def test_a_committed_tuple_of_another_lineage_is_a_mismatch(demo_dir):
    # A writer of both files files first_name's tuple under street_name's
    # stream, at street_name's next version, with a commitment that holds:
    # the tuple's own ids disagree with the lineage.
    with copy_of(demo_dir) as config, contextlib.closing(Engine.open(config)) as engine:
        street = stored_instance(config.data_dir, engine.ledger.latest_seq(STREAM))
        first_name = stored_instance(config.data_dir, engine.ledger.latest_seq("stream-4-1-3"))
        t = first_name.privacy_tuple
        other = bind_tuple(DEMO_PROVIDER_ID, t.attribute, t.prefs, t.accessor, street.version)
        item = engine.ledger.publish(STREAM, "key18", commit(street.nonce, canonical_encode(other)))
        engine.store.put_tuple_instance(STREAM, item.seq, street.nonce, canonical_encode(other))
        assert_nothing_disclosed(engine.mediate(REQUEST, now=NOW))


# ---------------------------------------------------------------------------
# the stored form
# ---------------------------------------------------------------------------


def test_every_line_a_publish_writes_is_its_records_sorted_json(tmp_path):
    engine = make_engine(tmp_path)
    with contextlib.closing(engine):
        install_demo_fixture(engine)
        install_archetype_fixture(engine, 2, seed=3)
    lines = (engine.config.data_dir / "policy.db").read_text().splitlines()
    assert len(lines) > 20
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line


def test_the_bytes_a_check_hashes_are_the_canonical_encoding_of_the_tuple(demo_dir):
    with copy_of(demo_dir) as config, contextlib.closing(Engine.open(config)) as engine:
        for lineage in engine.mediator.analyze(REQUEST):
            seq = engine.ledger.latest_seq(LINEAGE_STREAM.format(*lineage))
            line = policy_line(config.data_dir, seq)
            read = engine.store.latest_tuple_instance(lineage, seq, line)
            instance = stored_instance(config.data_dir, seq)
            assert read.encoded == canonical_encode(instance.privacy_tuple)
            assert read.nonce == instance.nonce
            assert engine.ledger.item(seq).payload == commit(read.nonce, read.encoded)


# ---------------------------------------------------------------------------
# no key stretching on the policy path
# ---------------------------------------------------------------------------


@pytest.fixture
def kdf_runs(monkeypatch):
    """The iteration counts of every PBKDF2 run."""
    runs = []
    original = hashlib.pbkdf2_hmac

    def counting(name, password, salt, iterations, *args):
        runs.append(iterations)
        return original(name, password, salt, iterations, *args)

    monkeypatch.setattr(hashlib, "pbkdf2_hmac", counting)
    return runs


def test_a_publish_runs_no_kdf(tmp_path, kdf_runs):
    engine = make_engine(tmp_path)
    with contextlib.closing(engine):
        install_archetype_fixture(engine, 2, seed=3)
        kdf_runs.clear()  # the fixture's accessors hashed their passwords
        for attribute_id in (1, 6, 11):
            engine.set_policy(1, BENCH_ACCESSOR_ID, make_prefs(attribute_id=attribute_id))
        assert kdf_runs == []


@pytest.mark.parametrize("scope", [["--provider", "1"], []], ids=["one-provider", "all-providers"])
def test_a_cold_query_runs_one_kdf_for_its_login(tmp_path, kdf_runs, capsys, scope):
    engine = make_engine(tmp_path, hash_cost=64)
    with contextlib.closing(engine):
        install_archetype_fixture(engine, 3, seed=3)
    kdf_runs.clear()
    argv = [
        "--data-dir", str(engine.config.data_dir), "--json", "query",
        "--login", BENCH_ACCESSOR_LOGIN, "--password", BENCH_ACCESSOR_PASSWORD,
        "--purpose", BENCH_PURPOSE, "--attributes", "first_name,city,chart_number", *scope,
    ]
    assert main(argv) == 0
    verified = [
        record for record in map(json.loads, capsys.readouterr().out.splitlines())
        if record["record"] == "verification" and record["verified"]
    ]
    assert len(verified) >= (2 if scope else 6)
    assert kdf_runs == [32]  # ceil(64 / 2) iterations, for the login alone


def test_a_warm_query_runs_no_kdf(demo_dir, kdf_runs):
    with copy_of(demo_dir) as config, contextlib.closing(Engine.open(config)) as engine:
        for _ in range(2):  # the first query checks, the repeat keeps
            assert engine.mediate(REQUEST, now=NOW).status is MediationStatus.COMPLETED
        assert kdf_runs == []
