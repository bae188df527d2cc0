"""Command-line behavior, exit codes and output formats."""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import privledger
from privledger.cli import main
from privledger.engine import DATA_DIR_ENV

REPO = Path(__file__).resolve().parent.parent
STREET_POLICY = REPO / "fixtures" / "demo" / "policy-street-name.txt"
FIRST_NAME_POLICY = REPO / "fixtures" / "demo" / "policy-first-name.txt"

LEDGER_FILES = ("content.db", "policy.db", "credentials.db", "ledger.db", "format")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_demo(data_dir: Path):
    """Drive the demo population through the CLI itself."""
    steps = [
        ["init"],
        [
            "provider", "add", "--id", "4",
            "--set", "first_name=Avery",
            "--set", "last_name=Quinn",
            "--set", "street_name=5202 50 Ave",
            "--set", "city=Red Deer",
            "--set", "province=AB",
            "--set", "postal_code=T2N 1N4",
            "--set", "original_province=SK",
            "--set", "phone_number=403-555-0187",
        ],
        [
            "accessor", "add", "--id", "3", "--login", "physician3",
            "--password", "physician3-secret", "--role", "ClinicalPhysician",
            "--permission", "Level4Restricted",
        ],
    ]
    for argv in steps:
        assert main(["--data-dir", str(data_dir), *argv]) == 0
    for _ in range(3):
        assert main([
            "--data-dir", str(data_dir), "policy", "set", "--provider", "4",
            "--attribute", "5", "--accessor", "3", "--file", str(STREET_POLICY),
        ]) == 0
    for _ in range(4):
        assert main([
            "--data-dir", str(data_dir), "policy", "set", "--provider", "4",
            "--attribute", "1", "--accessor", "3", "--file", str(FIRST_NAME_POLICY),
        ]) == 0


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("cli") / "demo-data"
    build_demo(data_dir)
    return data_dir


def query_args(data_dir, *attributes, purpose="care-delivery", extra=()):
    return [
        "--data-dir", str(data_dir), "query",
        "--login", "physician3", "--password", "physician3-secret",
        "--purpose", purpose, "--attributes", ",".join(attributes),
        "--provider", "4", *extra,
    ]


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_creates_layout(tmp_path, capsys):
    data_dir = tmp_path / "fresh"
    code, out, err = run(capsys, "--data-dir", str(data_dir), "init")
    assert code == 0
    assert "initialized" in out
    for name in LEDGER_FILES:
        assert (data_dir / name).exists()


def test_second_init_fails(tmp_path, capsys):
    data_dir = tmp_path / "fresh"
    assert main(["--data-dir", str(data_dir), "init"]) == 0
    code, out, err = run(capsys, "--data-dir", str(data_dir), "init")
    assert code == 1
    assert "already initialized" in err


def test_commands_before_init_fail(tmp_path, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(tmp_path / "none"), "ledger", "list-streams"
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "--login", "physician3", "--password", "physician3-secret",
         "--purpose", "care-delivery", "--attributes", "first_name", "--provider", "4"],
        ["ledger", "list-streams"],
        ["ledger", "items", "stream-4-5-3"],
        ["provider", "add", "--id", "4", "--set", "city=Red Deer"],
        ["accessor", "add", "--id", "3", "--login", "physician3",
         "--password", "physician3-secret", "--role", "ClinicalPhysician",
         "--permission", "Level4Restricted"],
        ["policy", "set", "--provider", "4", "--attribute", "5", "--accessor", "3",
         "--file", str(STREET_POLICY)],
    ],
    ids=["query", "list-streams", "items", "provider-add", "accessor-add", "policy-set"],
)
def test_only_init_creates_the_data_directory(tmp_path, capsys, argv):
    data_dir = tmp_path / "typo" / "x" / "y"
    code, out, err = run(capsys, "--data-dir", str(data_dir), *argv)
    assert code == 1
    assert err == f"error: no engine state in {data_dir}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# ledger inspection over the demo population
# ---------------------------------------------------------------------------


def test_list_streams_counts(demo_dir, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "--json", "ledger", "list-streams"
    )
    assert code == 0
    rows = {r["name"]: r for r in map(json.loads, out.splitlines())}
    assert set(rows) == {"root", "stream-4-5-3", "stream-4-1-3"}
    assert rows["root"]["items"] == 0
    assert rows["stream-4-5-3"]["items"] == 3
    assert rows["stream-4-1-3"]["items"] == 4


def test_stream_items_key_labels(demo_dir, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "--json", "ledger", "items", "stream-4-5-3"
    )
    assert code == 0
    items = [json.loads(line) for line in out.splitlines()]
    assert [i["key"] for i in items] == ["key17", "key18", "key18"]
    assert all(set(i) == {"record", "seq", "key", "publisher", "timestamp", "payload"} for i in items)
    assert all(i["payload"].startswith("$sha256i$") for i in items)

    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "--json", "ledger", "items", "stream-4-1-3"
    )
    items = [json.loads(line) for line in out.splitlines()]
    assert [i["key"] for i in items] == ["key17", "key18", "key18", "key18"]


def test_items_window_flags(demo_dir, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "--json",
        "ledger", "items", "stream-4-1-3", "--start", "-1", "--count", "1",
    )
    assert code == 0
    items = [json.loads(line) for line in out.splitlines()]
    assert len(items) == 1
    assert items[0]["key"] == "key18"


def test_ledger_verify_intact(demo_dir, capsys):
    code, out, err = run(capsys, "--data-dir", str(demo_dir), "ledger", "verify")
    assert code == 0
    assert "chain intact" in out


def test_ledger_verify_counts_one_record_per_publication(demo_dir, capsys):
    # The benchmark takes a verify as passed when it is intact and counts
    # more records than there were publications: here the genesis and one
    # record for each of the demo's 7 publications.
    code, out, err = run(capsys, "--data-dir", str(demo_dir), "--json", "ledger", "verify")
    assert code == 0
    [report] = map(json.loads, out.splitlines())
    assert (report["intact"], report["records"]) == (True, 7 + 1)
    code, out, err = run(capsys, "--data-dir", str(demo_dir), "--json", "ledger", "list-streams")
    assert [(r["name"], r["items"]) for r in map(json.loads, out.splitlines())] == [
        ("root", 0), ("stream-4-5-3", 3), ("stream-4-1-3", 4)
    ]


def test_inspection_leaves_files_untouched(demo_dir, capsys):
    before = {name: (demo_dir / name).read_bytes() for name in LEDGER_FILES}
    run(capsys, "--data-dir", str(demo_dir), "ledger", "list-streams")
    run(capsys, "--data-dir", str(demo_dir), "ledger", "items", "stream-4-5-3")
    run(capsys, "--data-dir", str(demo_dir), "ledger", "verify")
    run(capsys, *query_args(demo_dir, "street_name"))
    after = {name: (demo_dir / name).read_bytes() for name in LEDGER_FILES}
    assert before == after


def test_ledger_verify_reports_corruption(demo_dir, tmp_path, capsys):
    copy = tmp_path / "corrupt"
    shutil.copytree(demo_dir, copy)
    ledger_path = copy / "ledger.db"
    data = bytearray(ledger_path.read_bytes())
    data[len(data) // 2] ^= 0x01
    ledger_path.write_bytes(bytes(data))
    code, out, err = run(capsys, "--data-dir", str(copy), "ledger", "verify")
    assert code == 5
    assert "failed" in out


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def test_query_discloses_allowed_specific(demo_dir, capsys):
    code, out, err = run(capsys, *query_args(demo_dir, "street_name"))
    assert code == 0
    assert "status = Completed" in out
    assert "5202 50 Ave" in out


def test_query_partial_masking(demo_dir, capsys):
    code, out, err = run(capsys, *query_args(demo_dir, "first_name"))
    assert code == 0
    assert "A****" in out
    assert "Avery" not in out


def test_query_json_records(demo_dir, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "--json", "query",
        "--login", "physician3", "--password", "physician3-secret",
        "--purpose", "care-delivery", "--attributes", "street_name,first_name",
        "--provider", "4",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    kinds = [r["record"] for r in records]
    assert kinds[0] == "status"
    assert "verification" in kinds and "row" in kinds and "timing" in kinds
    (row,) = [r for r in records if r["record"] == "row"]
    assert row["cells"] == ["5202 50 Ave", "A****"]


def test_query_purpose_mismatch_denial(demo_dir, capsys):
    # first_name policy is ReuseSelected, so an off-purpose query is denied.
    code, out, err = run(capsys, *query_args(demo_dir, "first_name", purpose="research"))
    assert code == 0
    assert "denied first_name: PurposeMismatch" in out


def test_query_now_flag_controls_retention(demo_dir, capsys):
    code, out, err = run(
        capsys, *query_args(demo_dir, "street_name", extra=("--now", "2020-12-31"))
    )
    assert code == 0
    assert "RetentionExpired" in out
    code, out, err = run(
        capsys, *query_args(demo_dir, "street_name", extra=("--now", "never"))
    )
    assert code == 2


def _where(demo_dir, capsys, attribute, condition):
    """JSON records of a filtered all-provider query, timing left out."""
    code, out, err = run(
        capsys, "--json", *query_args(demo_dir, attribute, extra=("--where", condition))
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    return [r for r in records if r["record"] != "timing"]


def _rows(records):
    return [r for r in records if r["record"] == "row"]


def test_query_where_predicate(demo_dir, capsys):
    # street_name is granted Specific, so it filters.
    matched = _where(demo_dir, capsys, "first_name", "street_name=5202 50 Ave")
    assert [r["cells"] for r in _rows(matched)] == [["A****"]]
    assert _rows(_where(demo_dir, capsys, "first_name", "street_name=Elsewhere")) == []
    # first_name is granted Partial and city nothing: neither filters, so
    # the stored value decides nothing and the row drops out either way.
    for condition in ("first_name=Avery", "city=Red Deer"):
        assert _rows(_where(demo_dir, capsys, "street_name", condition)) == []
    assert _where(demo_dir, capsys, "street_name", "city=Red Deer") == _where(
        demo_dir, capsys, "street_name", "city=Nowhere"
    )


def test_where_on_ungranted_attribute_reveals_nothing(demo_dir, capsys):
    # last_name has no policy for accessor 3: a direct query is denied, so
    # a filter on it must not tell Quinn from Smith either.
    quinn = _where(demo_dir, capsys, "first_name", "last_name=Quinn")
    smith = _where(demo_dir, capsys, "first_name", "last_name=Smith")
    assert quinn == smith
    assert _rows(quinn) == []
    notes = {r["stream"]: r["note"] for r in quinn if r["record"] == "verification"}
    assert notes == {"stream-4-1-3": "ok", "stream-4-2-3": "no-policy"}
    code, out, err = run(capsys, *query_args(demo_dir, "last_name"))
    assert code == 0
    assert "denied last_name: NoPublishedPolicy" in out


def test_wrong_password_and_unknown_login_exit_identically(demo_dir, capsys):
    code_a, _, err_a = run(
        capsys, "--data-dir", str(demo_dir), "query",
        "--login", "physician3", "--password", "wrong",
        "--purpose", "care-delivery", "--attributes", "street_name",
    )
    code_b, _, err_b = run(
        capsys, "--data-dir", str(demo_dir), "query",
        "--login", "nobody", "--password", "wrong",
        "--purpose", "care-delivery", "--attributes", "street_name",
    )
    assert code_a == code_b == 4
    assert err_a == err_b


def test_aborted_query_exit_code(demo_dir, tmp_path, capsys):
    copy = tmp_path / "tampered"
    shutil.copytree(demo_dir, copy)
    policy_path = copy / "policy.db"
    lines = policy_path.read_text().splitlines()
    record = json.loads(lines[-1])
    record["tuple"]["prefs"]["purpose"]["declared_purpose"] = "exfiltration"
    lines[-1] = json.dumps(record, sort_keys=True)
    policy_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, *query_args(copy, "first_name"))
    assert code == 3
    assert "status = Aborted" in out
    assert "IntegrityAbort" in out


def test_native_flag_is_a_usage_error(demo_dir, capsys):
    code, out, err = run(capsys, *query_args(demo_dir, "street_name", extra=("--native",)))
    assert code == 2
    assert "--native" in err
    assert "5202 50 Ave" not in out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_file_query_is_mediated(tmp_path, capsys):
    data_dir = tmp_path / "cfg-data"
    config = tmp_path / "privledger.conf"
    config.write_text(f"data_dir = {data_dir}\nhash_cost = 8\n")
    build = ["--config", str(config)]
    assert main([*build, "init"]) == 0
    assert main([
        *build, "provider", "add", "--id", "4", "--set", "street_name=5202 50 Ave",
        "--set", "city=Red Deer",
    ]) == 0
    assert main([
        *build, "accessor", "add", "--id", "3", "--login", "physician3",
        "--password", "physician3-secret", "--role", "ClinicalPhysician",
        "--permission", "Level4Restricted",
    ]) == 0
    assert main([
        *build, "policy", "set", "--provider", "4", "--attribute", "5",
        "--accessor", "3", "--file", str(STREET_POLICY),
    ]) == 0
    capsys.readouterr()
    code, out, err = run(
        capsys, *build, "query",
        "--login", "physician3", "--password", "physician3-secret",
        "--purpose", "care-delivery", "--attributes", "street_name,city",
    )
    assert code == 0
    assert "provider 4: 5202 50 Ave | WITHHELD" in out
    assert "denied city: NoPublishedPolicy" in out
    assert "Red Deer" not in out


@pytest.mark.parametrize("key", ["bench_mode", "clock_mode", "ledger_path"])
def test_config_file_rejects_removed_keys(tmp_path, capsys, key):
    config = tmp_path / "old.conf"
    config.write_text(f"data_dir = {tmp_path / 'data'}\n{key} = x\n")
    code, out, err = run(capsys, "--config", str(config), "init")
    assert code == 1
    assert f"unknown key {key!r}" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("cost", ["0_64", "064", "\u0666\u0664", "+64"])
def test_config_hash_cost_must_be_canonical_decimal(tmp_path, capsys, cost):
    config = tmp_path / "cost.conf"
    config.write_text(f"data_dir = {tmp_path / 'data'}\nhash_cost = {cost}\n")
    code, out, err = run(capsys, "--config", str(config), "init")
    assert code == 1
    assert "hash_cost must be an integer" in err


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("data_dir = x\nshoe_size = 9\n")
    code, out, err = run(capsys, "--config", str(config), "init")
    assert code == 1
    assert "unknown key" in err


def test_config_file_duplicate_key(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    config = tmp_path / "dup.conf"
    config.write_text(f"data_dir = {first}\nhash_cost = 8\ndata_dir = {second}\n")
    code, out, err = run(capsys, "--config", str(config), "init")
    assert code == 1
    assert "line 3: duplicate key 'data_dir'" in err
    assert not first.exists() and not second.exists()


def test_env_var_selects_data_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env-data"
    monkeypatch.setenv(DATA_DIR_ENV, str(target))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "init")
    assert code == 0
    assert (target / "ledger.db").exists()


def test_data_dir_flag_beats_env(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env-data"
    flag_dir = tmp_path / "flag-data"
    monkeypatch.setenv(DATA_DIR_ENV, str(env_dir))
    code, out, err = run(capsys, "--data-dir", str(flag_dir), "init")
    assert code == 0
    assert (flag_dir / "ledger.db").exists()
    assert not env_dir.exists()


def test_locked_data_dir_fails_fast(tmp_path, capsys):
    data_dir = tmp_path / "busy"
    data_dir.mkdir()
    holder = open(data_dir / ".lock", "w")
    try:
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, out, err = run(capsys, "--data-dir", str(data_dir), "init")
        assert code == 1
        assert "locked" in err
    finally:
        holder.close()
    assert main(["--data-dir", str(data_dir), "init"]) == 0


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["ledger"]) == 2
    capsys.readouterr()


def test_bad_role_choice(tmp_path, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(tmp_path), "accessor", "add", "--id", "1",
        "--login", "x", "--password", "y", "--role", "Janitor",
        "--permission", "Level1Public",
    )
    assert code == 2


def test_bad_where_syntax(demo_dir, capsys):
    code, out, err = run(
        capsys, *query_args(demo_dir, "street_name", extra=("--where", "city"))
    )
    assert code == 2
    assert "NAME=VALUE" in err


def test_set_and_where_values_are_integers_only_in_canonical_decimal(tmp_path, capsys):
    data_dir = tmp_path / "ints"
    build = ["--data-dir", str(data_dir)]
    assert main([*build, "init"]) == 0
    assert main([
        *build, "provider", "add", "--id", "4",
        "--set", "phone_number=0403555", "--set", "chart_number=12_34",
        "--set", "postal_code=\u0663\u0664", "--set", "city=+5",
        "--set", "medical_record_number=403555", "--set", "gender=-7",
        "--set", "street_name=0052",
    ]) == 0
    (line,) = (data_dir / "content.db").read_text().splitlines()
    assert json.loads(line)["attributes"] == {
        "phone_number": "0403555",
        "chart_number": "12_34",
        "postal_code": "\u0663\u0664",
        "city": "+5",
        "medical_record_number": 403555,
        "gender": -7,
        "street_name": "0052",
    }
    assert main([
        *build, "accessor", "add", "--id", "3", "--login", "physician3",
        "--password", "physician3-secret", "--role", "ClinicalPhysician",
        "--permission", "Level4Restricted",
    ]) == 0
    assert main([
        *build, "policy", "set", "--provider", "4", "--attribute", "5",
        "--accessor", "3", "--file", str(STREET_POLICY),
    ]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, *query_args(data_dir, "street_name", extra=("--where", "street_name=0052")))
    assert code == 0
    assert "provider 4: 0052" in out
    code, out, err = run(capsys, *query_args(data_dir, "street_name", extra=("--where", "street_name=52")))
    assert code == 0
    assert "provider 4:" not in out


# ---------------------------------------------------------------------------
# policy set validation
# ---------------------------------------------------------------------------


def test_policy_file_must_hold_one_record(demo_dir, tmp_path, capsys):
    doubled = tmp_path / "two-records.txt"
    doubled.write_text(STREET_POLICY.read_text() + "\n" + FIRST_NAME_POLICY.read_text())
    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "policy", "set", "--provider", "4",
        "--attribute", "5", "--accessor", "3", "--file", str(doubled),
    )
    assert code == 1
    assert "exactly one record" in err


def test_policy_attribute_flag_must_match_file(demo_dir, capsys):
    code, out, err = run(
        capsys, "--data-dir", str(demo_dir), "policy", "set", "--provider", "4",
        "--attribute", "5", "--accessor", "3", "--file", str(FIRST_NAME_POLICY),
    )
    assert code == 1
    assert "attribute" in err


# ---------------------------------------------------------------------------
# removed commands
# ---------------------------------------------------------------------------


def test_bench_subcommand_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "--data-dir", str(tmp_path), "bench", "--trials", "2")
    assert code == 2
    assert "invalid choice: 'bench'" in err
    assert not (tmp_path / "ledger.db").exists()


# ---------------------------------------------------------------------------
# the modules each command loads
# ---------------------------------------------------------------------------

# The modules a process may load, by the command it runs.  No run loads
# dataclasses or inspect: the record classes generate no code at import.
CORE = ("chain", "config", "engine", "ledger", "mediator", "policy", "store", "tuples")
ENGINE_STACK = ("engine", "ledger", "mediator", "policy", "store", "tuples")
LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'privledger' "
    "or m in ('dataclasses', 'inspect'))"
)


def fresh(*argv, code=None):
    """Run privledger in a new interpreter with nothing preloaded: the
    command line as ``python -m privledger.cli`` runs it, or, given code,
    ``python -c code`` with argv as its arguments."""
    src = Path(privledger.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    command = ["-m", "privledger.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *argv], env=env, capture_output=True, text=True
    )


def loaded_by(*argv) -> tuple[int, list[str]]:
    """The exit status of a CLI run in a fresh interpreter, and the
    privledger modules (plus dataclasses and inspect) loaded by its end."""
    result = fresh(
        *argv,
        code="import sys, privledger.cli; code = privledger.cli.main(sys.argv[1:]); "
        f"print(' '.join({LOADED})); sys.exit(code)",
    )
    return result.returncode, result.stdout.splitlines()[-1].split()


def test_importing_the_cli_loads_only_config_and_chain():
    result = fresh(code=f"import sys, privledger.cli; print(' '.join({LOADED}))")
    assert result.stdout.split() == [
        "privledger", "privledger.chain", "privledger.cli", "privledger.config"
    ]


def test_ledger_verify_loads_only_config_and_chain(demo_dir):
    code, loaded = loaded_by("--data-dir", str(demo_dir), "ledger", "verify")
    assert code == 0
    assert loaded == ["privledger", "privledger.chain", "privledger.cli", "privledger.config"]
    assert not {f"privledger.{name}" for name in ENGINE_STACK} & set(loaded)


def test_query_loads_the_core_modules(demo_dir):
    code, loaded = loaded_by(*query_args(demo_dir, "street_name"))
    assert code == 0
    assert loaded == sorted(
        ["privledger", "privledger.cli", *(f"privledger.{name}" for name in CORE)]
    )


def test_role_and_permission_choices_are_the_policy_tokens():
    from privledger.cli import PERMISSION_TOKENS, ROLE_TOKENS
    from privledger.policy import AccessorRole, Sensitivity

    assert ROLE_TOKENS == tuple(role.token for role in AccessorRole)
    assert PERMISSION_TOKENS == tuple(level.token for level in Sensitivity)


# ---------------------------------------------------------------------------
# exit status in a fresh process
# ---------------------------------------------------------------------------

# In-process tests run with every module imported; these catch an error
# class that a lazily loaded module defines and main does not handle.


def test_fresh_verify_of_a_missing_ledger(tmp_path):
    result = fresh("--data-dir", str(tmp_path), "ledger", "verify")
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", f"error: no ledger at {tmp_path / 'ledger.db'}\n"
    )


def test_fresh_verify_of_a_format_1_directory(tmp_path):
    from test_format import FORMAT_1_FILES, format_1_message

    for name, text in FORMAT_1_FILES.items():
        (tmp_path / name).write_text(text)
    result = fresh("--data-dir", str(tmp_path), "ledger", "verify")
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", f"error: {format_1_message(tmp_path)}\n"
    )


def test_fresh_verify_with_a_bad_hash_cost(demo_dir, tmp_path):
    config = tmp_path / "privledger.conf"
    config.write_text(f"data_dir = {demo_dir}\nhash_cost = 0x10\n")
    result = fresh("--config", str(config), "ledger", "verify")
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: hash_cost must be an integer, got '0x10'\n"
    )


def test_fresh_verify_of_a_corrupted_chain(demo_dir, tmp_path):
    copy = tmp_path / "corrupt"
    shutil.copytree(demo_dir, copy)
    ledger_path = copy / "ledger.db"
    ledger_path.write_bytes(ledger_path.read_bytes().replace(b"\tkey18\t", b"\tkey19\t", 1))
    result = fresh("--data-dir", str(copy), "ledger", "verify")
    assert (result.returncode, result.stdout, result.stderr) == (
        5, "chain verification failed: seq 2: item digest mismatch\n", ""
    )


def test_fresh_query_with_a_wrong_password(demo_dir):
    argv = query_args(demo_dir, "street_name")
    argv[argv.index("physician3-secret")] = "wrong"
    result = fresh(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (
        4, "", "error: invalid credentials\n"
    )


def test_fresh_query_of_an_unknown_attribute(demo_dir):
    result = fresh(*query_args(demo_dir, "nosuch"))
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: no attribute named 'nosuch'\n"
    )
