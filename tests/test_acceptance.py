"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Expected values come from independent re-derivations in
tests/helpers.py or from frozen constants, never from the package
itself.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import statistics
import string
import time

import pytest

from helpers import (
    ARCHETYPE_ATTRIBUTES,
    BENCH_ACCESSOR_ID,
    BENCH_PURPOSE,
    TickingClock,
    install_archetype_fixture,
    make_accessor,
    make_prefs,
    random_tuple,
    reference_decision,
    reference_mask,
)
from privledger.bench import ArchetypeRow, aggregate, overhead_percent
from privledger.chain import verify_file
from privledger.cli import main
from privledger.engine import Engine, EngineConfig, publish_key
from privledger.ledger import Ledger
from privledger.mediator import INTEGRITY_ABORT, MediationStatus, QueryRequest
from privledger.policy import (
    AccessorRole,
    GranularityMode,
    PurposeMode,
    Sensitivity,
    VisibilityScope,
    apply_granularity,
    evaluate_access,
)
from privledger.tuples import HashRecord, PrivacyTuple, canonical_encode, hash_tuple, verify_hash

NOW = dt.date(2021, 7, 1)

STREET_POLICY = __import__("pathlib").Path(__file__).resolve().parent.parent / (
    "fixtures/demo/policy-street-name.txt"
)
FIRST_NAME_POLICY = STREET_POLICY.with_name("policy-first-name.txt")


def _report(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _engine(tmp_path, hash_cost: int) -> Engine:
    return Engine.initialize(EngineConfig(data_dir=tmp_path / "data", hash_cost=hash_cost))


# ---------------------------------------------------------------------------
# 1. overhead arithmetic
# ---------------------------------------------------------------------------


def test_criterion_1_overhead_arithmetic():
    started = time.perf_counter()
    triples = (
        (13.37, 22.99, 41.84, 41.86),
        (13.38, 21.67, 38.25, 38.27),
        (10.28, 18.24, 43.63, 43.66),
    )
    ok = True
    for native, private, low, high in triples:
        pct = overhead_percent(native, private)
        ok &= low <= pct <= high

    # The aggregate percentage is the mean of the per-row percentages.
    rows = (
        ArchetypeRow("Demographic", 13.37, 22.99, 9.62, 41.85),
        ArchetypeRow("Healthcare", 13.38, 21.67, 8.29, 38.26),
        ArchetypeRow("Consent Witness", 10.28, 18.24, 7.96, 43.65),
    )
    agg = aggregate(rows)
    ok &= agg.overhead_pct == 41.25
    # and explicitly not the ratio of the aggregated means
    ok &= overhead_percent(agg.native_ms, agg.private_ms) != agg.overhead_pct

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _report(
        "criterion-1 overhead-arithmetic",
        ok,
        f"aggregate={agg.overhead_pct}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. demo population stream fidelity (driven through the CLI)
# ---------------------------------------------------------------------------


def _cli(*argv) -> int:
    return main([str(a) for a in argv])


def _build_demo_via_cli(data_dir) -> bool:
    ok = _cli("--data-dir", data_dir, "init") == 0
    ok &= (
        _cli(
            "--data-dir", data_dir, "provider", "add", "--id", 4,
            "--set", "first_name=Avery",
            "--set", "last_name=Quinn",
            "--set", "street_name=5202 50 Ave",
            "--set", "city=Red Deer",
            "--set", "province=AB",
            "--set", "postal_code=T2N 1N4",
            "--set", "original_province=SK",
            "--set", "phone_number=403-555-0187",
        )
        == 0
    )
    ok &= (
        _cli(
            "--data-dir", data_dir, "accessor", "add", "--id", 3,
            "--login", "physician3", "--password", "physician3-secret",
            "--role", "ClinicalPhysician", "--permission", "Level4Restricted",
        )
        == 0
    )
    for _ in range(3):
        ok &= (
            _cli(
                "--data-dir", data_dir, "policy", "set", "--provider", 4,
                "--attribute", 5, "--accessor", 3, "--file", STREET_POLICY,
            )
            == 0
        )
    for _ in range(4):
        ok &= (
            _cli(
                "--data-dir", data_dir, "policy", "set", "--provider", 4,
                "--attribute", 1, "--accessor", 3, "--file", FIRST_NAME_POLICY,
            )
            == 0
        )
    return ok


def test_criterion_2_demo_stream_fidelity(tmp_path, capsys):
    started = time.perf_counter()
    data_dir = tmp_path / "demo"
    ok = _build_demo_via_cli(data_dir)
    capsys.readouterr()

    ok &= _cli("--data-dir", data_dir, "--json", "ledger", "list-streams") == 0
    streams = {
        row["name"]: row
        for row in map(json.loads, capsys.readouterr().out.splitlines())
    }
    ok &= set(streams) == {"root", "stream-4-5-3", "stream-4-1-3"}
    ok &= streams.get("root", {}).get("items") == 0
    ok &= streams.get("stream-4-5-3", {}).get("items") == 3
    ok &= streams.get("stream-4-1-3", {}).get("items") == 4

    ok &= _cli("--data-dir", data_dir, "--json", "ledger", "items", "stream-4-5-3") == 0
    keys = [
        json.loads(line)["key"] for line in capsys.readouterr().out.splitlines()
    ]
    ok &= keys == ["key17", "key18", "key18"]
    ok &= [publish_key(v) for v in (1, 2, 3)] == ["key17", "key18", "key18"]

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _report(
        "criterion-2 demo-stream-fidelity",
        ok,
        f"streams={sorted(streams)}, keys={keys}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. exhaustive single-byte tamper detection
# ---------------------------------------------------------------------------


def test_criterion_3_tamper_detection(tmp_path):
    started = time.perf_counter()
    path = tmp_path / "ledger.db"
    ledger = Ledger(path, clock=TickingClock(), create=True)
    for provider in range(1, 6):
        stream = f"stream-{provider}-1-1"
        for version in range(1, 11):
            append = ledger.publish if version > 1 else ledger.create_stream
            append(
                stream,
                publish_key(version),
                f"payload-{provider}-{version}".encode("ascii"),
            )
    tx_items = sum(s.item_count for s in ledger.streams())
    ledger.close()

    baseline = path.read_bytes()
    # Map each byte offset to the record (line) it belongs to; the final
    # newline of a line counts as part of that line.
    line_of = []
    for line_index, line in enumerate(baseline.split(b"\n")[:-1]):
        line_of.extend([line_index] * (len(line) + 1))
    ok = tx_items == 50 and len(line_of) == len(baseline)

    mutations = 0
    missed = 0

    def check(mutated: bytes, position: int):
        nonlocal mutations, missed
        mutations += 1
        path.write_bytes(mutated)
        report = verify_file(path)
        if (
            report.intact
            or report.first_bad_seq is None
            or report.first_bad_seq > line_of[position]
        ):
            missed += 1

    for position in range(len(baseline)):
        mutated = bytearray(baseline)
        mutated[position] ^= 0x01
        check(bytes(mutated), position)
    # Case flips keep hex decodable but break the canonical encoding.
    for position in range(len(baseline)):
        if baseline[position] in b"abcdef":
            mutated = bytearray(baseline)
            mutated[position] -= 0x20
            check(bytes(mutated), position)

    path.write_bytes(baseline)
    ok &= verify_file(path).intact
    ok &= missed == 0 and mutations > len(baseline)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    _report(
        "criterion-3 tamper-detection",
        ok,
        f"{mutations} mutations over {len(baseline)} bytes, "
        f"{missed} missed, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. abort soundness over a partially mutated population
# ---------------------------------------------------------------------------


def test_criterion_4_abort_soundness(tmp_path):
    started = time.perf_counter()
    engine = _engine(tmp_path, hash_cost=64)
    install_archetype_fixture(engine, 24, seed=11)
    config = engine.config
    engine.close()

    attribute_pool = [name for names in ARCHETYPE_ATTRIBUTES.values() for name in names]
    rng = random.Random("abort-soundness")
    mutated = set()
    while len(mutated) < 40:
        mutated.add((rng.randint(1, 24), rng.choice(attribute_pool)))

    policy_path = config.data_dir / "policy.db"
    lines = policy_path.read_text().splitlines()
    latest_line: dict[tuple[int, str], int] = {}
    for index, line in enumerate(lines):
        record = json.loads(line)
        key = (
            record["tuple"]["provider_id"],
            record["tuple"]["attribute"]["name"],
        )
        latest_line[key] = index
    for key in mutated:
        index = latest_line[key]
        record = json.loads(lines[index])
        record["tuple"]["prefs"]["purpose"]["declared_purpose"] += "-tampered"
        lines[index] = json.dumps(record, sort_keys=True)
    policy_path.write_text("\n".join(lines) + "\n")

    engine = Engine.open(config)
    ok = True
    aborted = completed = 0
    for _ in range(1000):
        provider = rng.randint(1, 24)
        width = rng.randint(1, 4)
        attributes = tuple(rng.sample(attribute_pool, width))
        touches = any((provider, name) in mutated for name in attributes)
        result = engine.mediate(
            QueryRequest(
                accessor_id=BENCH_ACCESSOR_ID,
                requested_purpose=BENCH_PURPOSE,
                attributes=attributes,
                provider_id=provider,
            ),
            now=NOW,
        )
        if touches:
            aborted += 1
            ok &= result.status is MediationStatus.ABORTED
            ok &= result.rows == ()
            ok &= len(result.denials) == len(attributes)
            ok &= all(reason == INTEGRITY_ABORT for _, reason in result.denials)
        else:
            completed += 1
            ok &= result.status is MediationStatus.COMPLETED
    engine.close()

    ok &= aborted > 0 and completed > 0 and aborted + completed == 1000
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    _report(
        "criterion-4 abort-soundness",
        ok,
        f"{aborted} aborted / {completed} completed, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. masking equivalence against an independent masker
# ---------------------------------------------------------------------------


def test_criterion_5_masking_equivalence():
    started = time.perf_counter()
    rng = random.Random(1337)
    pool = string.ascii_letters + string.digits + string.punctuation + "  --" + "éñüΩ日本"
    ok = True
    disagreements = 0
    for _ in range(10_000):
        value = "".join(
            rng.choice(pool) for _ in range(rng.randint(0, 24))
        )
        for mode in GranularityMode.TOKENS:
            if apply_granularity(value, mode) != reference_mask(value, mode):
                disagreements += 1
                ok = False
        ok &= apply_granularity(value, GranularityMode.EXISTENTIAL) == "EXISTS"
    # Existential output carries no trace of the input value.
    ok &= (
        apply_granularity("alpha", GranularityMode.EXISTENTIAL)
        == apply_granularity("completely different", GranularityMode.EXISTENTIAL)
        == "EXISTS"
    )
    ok &= apply_granularity(None, GranularityMode.EXISTENTIAL) == "ABSENT"
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _report(
        "criterion-5 masking-equivalence",
        ok,
        f"10000 values x 3 modes, {disagreements} disagreements, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. decision truth table
# ---------------------------------------------------------------------------


def test_criterion_6_decision_truth_table():
    started = time.perf_counter()
    house_roles = frozenset(
        {
            AccessorRole.CLINICAL_NURSE,
            AccessorRole.LABORATORY_ANALYST,
            AccessorRole.CLINICAL_PHYSICIAN,
        }
    )
    allied_roles = frozenset({AccessorRole.THIRD_PARTY_ALLIED})
    retention_shapes = (
        (dt.date(2021, 1, 1), 0),  # active indefinitely
        (dt.date(2021, 1, 1), 30),  # expired before NOW
        (dt.date(2022, 1, 1), 0),  # not yet effective
        (dt.date(2021, 1, 1), 4_000_000),  # open until past 9999-12-31
    )
    combos = 0
    agreements = 0
    for scope, roles in (
        (VisibilityScope.HOUSE, house_roles),
        (VisibilityScope.THIRD_PARTY_ALLIED_HEALTH, allied_roles),
    ):
        for role in AccessorRole.TOKENS:
            for sensitivity in Sensitivity.TOKENS:
                for mode in PurposeMode.TOKENS:
                    for effective, duration in retention_shapes:
                        prefs = make_prefs(
                            sensitivity=sensitivity,
                            mode=mode,
                            declared="care-delivery",
                            scope=scope,
                            roles=roles,
                            granularity=GranularityMode.PARTIAL,
                            effective=effective,
                            duration=duration,
                        )
                        accessor = make_accessor(
                            role=role,
                            permission=Sensitivity.LEVEL2_INTERNAL_USE,
                        )
                        decision = evaluate_access(prefs, accessor, "research", NOW)
                        if decision.allowed:
                            got = ("allow", decision.granularity)
                        else:
                            got = ("deny", decision.reason)
                        want = reference_decision(prefs, accessor, "research", NOW)
                        combos += 1
                        agreements += got == want
    ok = combos == 384 and agreements == combos
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    _report(
        "criterion-6 decision-truth-table",
        ok,
        f"{agreements}/{combos} combinations agree, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. mediation cost direction at population scale
# ---------------------------------------------------------------------------


def test_criterion_7_mediation_cost_direction(tmp_path):
    started = time.perf_counter()
    engine = _engine(tmp_path, hash_cost=1024)
    provider_ids = install_archetype_fixture(engine, 1000, seed=5)
    built = time.perf_counter() - started

    ok = True
    details = []
    for archetype, attributes in ARCHETYPE_ATTRIBUTES.items():
        rng = random.Random(f"bench:5:{archetype}")
        native_ms, private_ms = [], []
        for _ in range(100):
            request = QueryRequest(
                accessor_id=BENCH_ACCESSOR_ID,
                requested_purpose=BENCH_PURPOSE,
                attributes=attributes,
                provider_id=rng.choice(provider_ids),
            )
            native = engine.native_query(request)
            private = engine.mediate(request, now=NOW)
            lineages = len(private.verification)
            ok &= private.status is MediationStatus.COMPLETED
            ok &= lineages == len(attributes)
            ok &= private.ops.ledger_reads >= native.ops.ledger_reads + lineages
            ok &= (
                private.ops.hash_verifications
                >= native.ops.hash_verifications + lineages
            )
            native_ms.append(native.duration_ms)
            private_ms.append(private.timing.total_ms)
        slower = sum(p > n for n, p in zip(native_ms, private_ms))
        ok &= slower >= 95
        ok &= statistics.fmean(private_ms) > statistics.fmean(native_ms)
        details.append(f"{archetype}={slower}/100 slower")
    engine.close()

    elapsed = time.perf_counter() - started
    ok &= elapsed < 300.0
    _report(
        "criterion-7 mediation-cost-direction",
        ok,
        f"{'; '.join(details)}; build={built:.0f}s, total={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. round trips and determinism
# ---------------------------------------------------------------------------


def test_criterion_8_round_trip_determinism(tmp_path):
    started = time.perf_counter()
    rng = random.Random(2024)
    ok = True

    # record round trip, and equal encodings
    for _ in range(1000):
        t = random_tuple(rng)
        back = PrivacyTuple.from_dict(t.to_dict())
        ok &= back == t
        ok &= canonical_encode(back) == canonical_encode(t)

    # hash and verify
    for _ in range(1000):
        data = rng.randbytes(rng.randint(0, 200))
        record = hash_tuple(data, cost=rng.randint(1, 16))
        ok &= verify_hash(data, record)
        ok &= verify_hash(data, HashRecord.from_string(record.to_string()))
        if data:
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 0xFF
            ok &= not verify_hash(bytes(flipped), record)

    engine = _engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 6, seed=13)

    # mediation determinism over unchanged state
    attribute_pool = [
        name for names in ARCHETYPE_ATTRIBUTES.values() for name in names
    ] + ["carrier_name"]  # one attribute with no published policy
    for _ in range(1000):
        attributes = tuple(
            rng.sample(attribute_pool, rng.randint(1, 4))
        )
        request = QueryRequest(
            accessor_id=BENCH_ACCESSOR_ID,
            requested_purpose=rng.choice(("care-delivery", "research")),
            attributes=attributes,
            provider_id=rng.choice((None, rng.randint(1, 6))),
        )
        a = engine.mediate(request, now=NOW)
        b = engine.mediate(request, now=NOW)
        ok &= a.status == b.status
        ok &= a.columns == b.columns
        ok &= a.rows == b.rows
        ok &= a.denials == b.denials
        ok &= a.verification == b.verification
        ok &= a.ops == b.ops
    engine.close()

    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    _report(
        "criterion-8 round-trip-determinism",
        ok,
        f"3 families x 1000 cases, {elapsed:.1f}s",
    )
