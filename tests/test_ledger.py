"""Stream ledger: chaining, stream discipline, persistence, verification."""

from __future__ import annotations

import datetime as dt
import re

import pytest

from helpers import TickingClock, chain_length
from privledger import ledger as ledger_module
from privledger.chain import verify_file, verify_records
from privledger.ledger import (
    ROOT_STREAM,
    ZERO_DIGEST,
    DuplicateStream,
    EmptyStream,
    InvalidKey,
    InvalidStreamName,
    Ledger,
    LedgerError,
    RootPublishForbidden,
    UnknownStream,
    stream_name_for,
)


@pytest.fixture
def ledger(tmp_path):
    led = Ledger(tmp_path / "ledger.db", clock=TickingClock(), create=True)
    yield led
    led.close()


def fill(led, stream="stream-4-5-3", items=3):
    out = [led.create_stream(stream, "key0", b"payload-0")]
    for i in range(1, items):
        out.append(led.publish(stream, f"key{i}", f"payload-{i}".encode()))
    return out


# ---------------------------------------------------------------------------
# genesis and naming
# ---------------------------------------------------------------------------


def test_genesis_creates_root_with_zero_prev(ledger):
    assert chain_length(ledger) == 1
    genesis = ledger.item(0)
    assert genesis.stream == ROOT_STREAM
    assert genesis.prev_digest == ZERO_DIGEST
    assert (genesis.key, genesis.payload) == ("", b"")
    assert ledger.stream(ROOT_STREAM).item_count == 0


def test_stream_name_for_lineage():
    assert stream_name_for(4, 5, 3) == "stream-4-5-3"
    assert stream_name_for(120, 8, 14) == "stream-120-8-14"
    for bad in ((0, 1, 1), (1, -2, 1), (1, 1, "3")):
        with pytest.raises(InvalidStreamName):
            stream_name_for(*bad)


@pytest.mark.parametrize(
    "name",
    [
        "mystream",
        "stream-4-5",
        "stream-4-5-3-2",
        "stream-0-5-3",
        "stream-04-5-3",
        "stream-4-5-3x",
        "Stream-4-5-3",
        "stream-4-5-",
        "",
    ],
)
def test_create_stream_rejects_bad_grammar(ledger, name):
    with pytest.raises(InvalidStreamName):
        ledger.create_stream(name, "key17", b"x")
    assert chain_length(ledger) == 1


def test_create_stream_appends_the_first_item(ledger):
    before = chain_length(ledger)
    first = ledger.create_stream("stream-4-5-3", "key17", b"h1")
    assert chain_length(ledger) == before + 1
    assert (first.seq, first.stream, first.key, first.payload) == (
        before, "stream-4-5-3", "key17", b"h1"
    )
    assert ledger.stream("stream-4-5-3").item_count == 1
    assert ledger.latest_item("stream-4-5-3") == first


def test_duplicate_stream_rejected(ledger):
    ledger.create_stream("stream-4-5-3", "key17", b"x")
    with pytest.raises(DuplicateStream):
        ledger.create_stream("stream-4-5-3", "key17", b"x")
    with pytest.raises(DuplicateStream):
        ledger.create_stream(ROOT_STREAM, "key17", b"x")
    assert chain_length(ledger) == 2


# ---------------------------------------------------------------------------
# publishing
# ---------------------------------------------------------------------------


def test_publish_appends_items_after_the_first(ledger):
    items = fill(ledger, items=3)
    assert [i.key for i in items] == ["key0", "key1", "key2"]
    assert ledger.stream("stream-4-5-3").item_count == 3
    # one record per item, after the genesis
    assert chain_length(ledger) == 1 + 3


def test_publish_to_unknown_stream(ledger):
    with pytest.raises(UnknownStream):
        ledger.publish("stream-9-9-9", "k", b"x")


def test_publish_to_root_forbidden(ledger):
    with pytest.raises(RootPublishForbidden):
        ledger.publish(ROOT_STREAM, "k", b"x")
    assert ledger.stream(ROOT_STREAM).item_count == 0


@pytest.mark.parametrize(
    "payload",
    [b"two words", b"tab\there", b"line\n", b"\x00", b"\x7f", b"\xff", "text".encode("utf-16")],
    ids=["space", "tab", "newline", "nul", "del", "non-ascii", "utf-16"],
)
def test_payload_must_be_printable_ascii_without_whitespace(ledger, payload):
    message = "payload must be printable ASCII with no whitespace"
    with pytest.raises(LedgerError, match=message):
        ledger.create_stream("stream-4-5-3", "key17", payload)
    assert not ledger.has_stream("stream-4-5-3")
    ledger.create_stream("stream-4-5-3", "key17", b"!~")
    with pytest.raises(LedgerError, match=message):
        ledger.publish("stream-4-5-3", "key18", payload)
    assert chain_length(ledger) == 2


@pytest.mark.parametrize(
    "key",
    ["bad key", "ta\tb", "qu'ote", 'qu"ote', "unié", "k" * 257, None, 7],
)
def test_invalid_keys_rejected(ledger, key):
    with pytest.raises(InvalidKey):
        ledger.create_stream("stream-4-5-3", key, b"x")
    ledger.create_stream("stream-4-5-3", "key17", b"x")
    with pytest.raises(InvalidKey):
        ledger.publish("stream-4-5-3", key, b"x")


def test_long_but_legal_key_accepted(ledger):
    ledger.create_stream("stream-4-5-3", "key17", b"x")
    item = ledger.publish("stream-4-5-3", "k" * 256, b"x")
    assert item.key == "k" * 256


def test_empty_key_is_a_valid_transaction_key(ledger):
    # Only the genesis is on root; an empty key marks nothing.
    ledger.create_stream("stream-4-5-3", "", b"x")
    item = ledger.publish("stream-4-5-3", "", b"")
    assert (item.key, item.payload) == ("", b"")
    assert ledger.stream("stream-4-5-3").item_count == 2


def test_payload_must_be_bytes(ledger):
    with pytest.raises(LedgerError, match="payload must be bytes"):
        ledger.create_stream("stream-4-5-3", "k", "text")
    ledger.create_stream("stream-4-5-3", "k", b"text")
    with pytest.raises(LedgerError, match="payload must be bytes"):
        ledger.publish("stream-4-5-3", "k", "text")


# ---------------------------------------------------------------------------
# chaining
# ---------------------------------------------------------------------------


def test_items_chain_across_streams(ledger):
    ledger.create_stream("stream-1-1-1", "a", b"1")
    ledger.create_stream("stream-2-2-2", "b", b"2")
    ledger.publish("stream-1-1-1", "c", b"3")
    for seq in range(1, chain_length(ledger)):
        assert ledger.item(seq).prev_digest == ledger.item(seq - 1).item_digest
        assert ledger.item(seq).seq == seq


def test_timestamps_never_decrease(tmp_path):
    moments = iter(
        [
            dt.datetime(2021, 6, 1, 12, 0, 0, tzinfo=dt.timezone.utc),
            dt.datetime(2021, 6, 1, 11, 0, 0, tzinfo=dt.timezone.utc),  # steps back
            dt.datetime(2021, 6, 1, 13, 0, 0, tzinfo=dt.timezone.utc),
        ]
    )
    led = Ledger(tmp_path / "l.db", clock=lambda: next(moments), create=True)
    led.create_stream("stream-1-1-1", "k", b"x")
    led.publish("stream-1-1-1", "k", b"y")
    assert led.item(1).timestamp == led.item(0).timestamp
    assert led.item(2).timestamp > led.item(1).timestamp
    led.close()


def test_naive_clock_rejected(tmp_path):
    led = Ledger(tmp_path / "l.db", clock=TickingClock(), create=True)
    led._clock = lambda: dt.datetime(2021, 6, 1, 12, 0, 0)  # no tzinfo
    with pytest.raises(LedgerError):
        led.create_stream("stream-1-1-1", "k", b"x")
    led.close()


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def test_list_items_windows(ledger):
    items = fill(ledger, items=5)
    listed = ledger.list_items("stream-4-5-3")
    assert listed == items
    assert ledger.list_items("stream-4-5-3", start=1, count=2) == items[1:3]
    assert ledger.list_items("stream-4-5-3", start=-1, count=1) == [items[-1]]
    assert ledger.list_items("stream-4-5-3", start=-2, count=2) == items[-2:]
    assert ledger.list_items("stream-4-5-3", start=99, count=1) == []
    with pytest.raises(LedgerError):
        ledger.list_items("stream-4-5-3", count=0)


def test_list_items_of_empty_stream(ledger):
    assert ledger.list_items(ROOT_STREAM) == []


def test_latest_item(ledger):
    fill(ledger, items=3)
    assert ledger.latest_item("stream-4-5-3").key == "key2"
    with pytest.raises(UnknownStream):
        ledger.latest_item("stream-8-8-8")
    with pytest.raises(EmptyStream):
        ledger.latest_item(ROOT_STREAM)


def test_streams_listing_in_creation_order(ledger):
    ledger.create_stream("stream-2-2-2", "k", b"x")
    ledger.create_stream("stream-1-1-1", "k", b"x")
    names = [s.name for s in ledger.streams()]
    assert names == [ROOT_STREAM, "stream-2-2-2", "stream-1-1-1"]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_reopen_restores_state(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    led.create_stream("stream-7-7-7", "key17", b"x")
    digests = [led.item(s).item_digest for s in range(chain_length(led))]
    publisher = led.publisher
    led.close()

    again = Ledger(path, clock=TickingClock())
    assert chain_length(again) == len(digests)
    assert [again.item(s).item_digest for s in range(chain_length(again))] == digests
    assert again.publisher == publisher
    assert again.stream("stream-4-5-3").item_count == 3
    assert again.stream("stream-7-7-7").item_count == 1
    assert [i.key for i in again.list_items("stream-4-5-3")] == [
        "key0",
        "key1",
        "key2",
    ]
    again.close()


def test_appends_survive_reopen(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=2)
    led.close()
    led = Ledger(path, clock=TickingClock(dt.datetime(2021, 6, 2, tzinfo=dt.timezone.utc)))
    led.publish("stream-4-5-3", "key2", b"payload-2")
    assert led.verify_chain().intact
    led.close()


def test_create_refuses_existing_file(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    led.close()
    with pytest.raises(LedgerError):
        Ledger(path, clock=TickingClock(), create=True)


def test_open_requires_existing_file(tmp_path):
    with pytest.raises(LedgerError):
        Ledger(tmp_path / "absent.db")


def test_file_has_one_line_per_item(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=4)
    lines = path.read_text().splitlines()
    assert len(lines) == chain_length(led)
    assert all(len(line.split("\t")) == 8 for line in lines)
    led.close()


def test_corrupt_file_refuses_to_load(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=2)
    led.close()
    data = path.read_bytes().replace(b"\tkey0\t", b"\tkey 0\t", 1)
    path.write_bytes(data)
    with pytest.raises(LedgerError, match="verification"):
        Ledger(path)


@pytest.mark.parametrize("position", [2, 4])
def test_blank_line_refuses_to_load(tmp_path, position):
    # Only the empty string after the final newline is not a record; open
    # and chain verification must both fail on any other empty line.
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    led.close()
    lines = path.read_text().splitlines()
    lines.insert(position, "")
    path.write_text("\n".join(lines) + "\n")
    expected = f"position {position}: expected 8 fields, got 1; run chain verification"
    with pytest.raises(LedgerError, match=re.escape(expected)):
        Ledger(path)
    assert verify_file(path).first_bad_seq == position


def test_non_utf8_byte_refuses_to_load(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=1)
    led.close()
    path.write_bytes(path.read_bytes().replace(b"root", b"\xffoot", 1))
    detail = "invalid stream name: '\ufffdoot'"
    with pytest.raises(LedgerError, match=re.escape(f"position 0: {detail}; run chain")):
        Ledger(path)
    assert verify_file(path).detail == f"seq 0: unparseable record ({detail})"


@pytest.mark.parametrize(
    "seq, stream, rule",
    [
        (0, "stream-1-1-1", "the genesis is not on root"),
        (2, ROOT_STREAM, "a record on root after the genesis"),
    ],
    ids=["genesis-off-root", "root-after-genesis"],
)
def test_genesis_rule_refuses_to_load(tmp_path, seq, stream, rule):
    # Open re-checks field rules and seq order, not digests; the genesis
    # rule is one of those checks, so a record on the wrong side of it
    # fails the open, naming its position, and verification names it too.
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    led.close()
    lines = path.read_text().splitlines()
    fields = lines[seq].split("\t")
    fields[1] = stream
    lines[seq] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    expected = f"ledger record at position {seq} breaks the genesis rule: {rule}; run chain"
    with pytest.raises(LedgerError, match=re.escape(expected)):
        Ledger(path)
    assert verify_file(path).detail == f"seq {seq}: {rule}"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_fresh_chain_verifies(ledger):
    fill(ledger, items=3)
    report = ledger.verify_chain()
    assert report.intact
    assert report.first_bad_seq is None
    assert report.records == chain_length(ledger)
    assert report.detail == "chain intact"


def test_reopened_chain_verifies_against_raw_records(tmp_path, monkeypatch):
    # After a reopen the in-memory chain is the raw lines open checked;
    # verifying against it builds no item.
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    led.close()
    built = []
    original = ledger_module._build_item

    def counting(match):
        built.append(match)
        return original(match)

    monkeypatch.setattr(ledger_module, "_build_item", counting)
    led = Ledger(path)
    report = led.verify_chain()
    assert (report.intact, report.records, report.detail) == (True, 4, "chain intact")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    report = led.verify_chain()
    assert (report.first_bad_seq, report.detail) == (3, "seq 3: missing link at former chain tail")
    assert built == []
    led.close()


def test_payload_mutation_is_reported_at_its_seq(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    items = fill(led, items=3)
    target = items[1]
    data = path.read_bytes().replace(b"payload-1", b"payload-x")
    path.write_bytes(data)
    report = led.verify_chain()
    assert not report.intact
    assert report.first_bad_seq == target.seq
    assert "digest" in report.detail
    led.close()


def test_prev_link_mutation_detected(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=2)
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[6] = ("0" * 64) if fields[6] != "0" * 64 else ("1" * 64)
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    report = led.verify_chain()
    assert not report.intact
    assert report.first_bad_seq == 2
    led.close()


def test_deleting_tail_record_is_detected_against_memory(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    tail_seq = chain_length(led) - 1
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    report = led.verify_chain()
    assert not report.intact
    assert report.first_bad_seq == tail_seq
    assert "tail" in report.detail
    led.close()


def test_truncated_file_alone_still_self_consistent(tmp_path):
    # Without the in-memory chain a clean truncation is undetectable from
    # the file content itself; the live verifier is what catches it.
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    led.close()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert verify_file(path).intact
    assert not verify_file(path, expected=led._items).intact


def test_out_of_band_append_detected(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=2)
    content = path.read_bytes()
    lines = content.decode().splitlines()
    path.write_bytes(content + (lines[-1] + "\n").encode())
    report = led.verify_chain()
    assert not report.intact
    led.close()


def test_swapping_two_records_detected(tmp_path):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=3)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    report = led.verify_chain()
    assert not report.intact
    assert report.first_bad_seq == 2
    led.close()


def test_non_canonical_but_equivalent_encoding_rejected(tmp_path):
    # Uppercasing one hex digit of a digest keeps the decoded bytes but
    # breaks the canonical rendering, which verification requires.
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    fill(led, items=2)
    canonical = path.read_text().splitlines()
    for column in (6, 7):  # the previous and the item digest
        lines = list(canonical)
        fields = lines[2].split("\t")
        index = next(i for i, ch in enumerate(fields[column]) if ch in "abcdef")
        fields[column] = fields[column][:index] + fields[column][index].upper() + fields[column][index + 1 :]
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        report = led.verify_chain()
        assert (report.intact, report.first_bad_seq) == (False, 2)
    led.close()


def test_verify_records_empty_content():
    report = verify_records(b"")
    assert report.intact
    assert report.records == 0
