"""Data format 2 and the directories format 1 left behind.

Format 2 marks a data directory with a format file that init writes
before anything else.  A directory without one, as every directory
written before format 2 is, must be refused by the engine and by every
command with one message, and left byte for byte as it was.
"""

from __future__ import annotations

import re

import pytest

from privledger.cli import main
from privledger.engine import (
    FORMAT,
    FORMAT_FILE,
    Engine,
    EngineConfig,
    UnsupportedFormat,
)
from test_cli import STREET_POLICY

# A data directory as format 1 wrote it (init, one provider, one accessor
# and one policy): no format file, a stream-creation record before the
# stream's first item, hex payloads, a confirmation column, and a copy of
# the hash in policy.db.
FORMAT_1_FILES = {
    "ledger.db": (
        "0\troot\t\tnode-9528542e4749d46e\t2026-10-19T02:19:06.531Z\t"
        "2173747265616d2d637265617465\t"
        "0000000000000000000000000000000000000000000000000000000000000000\t"
        "c4aa3603b371ab5b8c25eb8fdf8f24c5c3e2545852804d5a9c96746373f35668\ttrue\n"
        "1\tstream-4-5-3\t\tnode-9528542e4749d46e\t2026-10-19T02:19:06.917Z\t"
        "2173747265616d2d637265617465\t"
        "c4aa3603b371ab5b8c25eb8fdf8f24c5c3e2545852804d5a9c96746373f35668\t"
        "07802af937a9be66b638ff84380e743600d0c8796d4f139cab16a23c890fcd13\ttrue\n"
        "2\tstream-4-5-3\tkey17\tnode-9528542e4749d46e\t2026-10-19T02:19:06.917Z\t"
        "247368613235366924313032342439636435333561616136643665643630366533393635"
        "353963633931306566392436383765393837353536636566363639633164626537613539"
        "376362383233313333323762306561343033663338643661646531366265396563653738"
        "643630\t07802af937a9be66b638ff84380e743600d0c8796d4f139cab16a23c890fcd13\t"
        "13c9892cf6628dd04739e84ac7a92efa6aa957d2b0f667ec046edf9138722773\ttrue\n"
    ),
    "policy.db": (
        '{"hash": "$sha256i$1024$9cd535aaa6d6ed606e396559cc910ef9$687e987556cef66'
        '9c1dbe7a597cb82313327b0ea403f38d6ade16be9ece78d60", "seq": 2, '
        '"stream": "stream-4-5-3", "tuple": {"accessor": {"accessor_id": 3, '
        '"permission_level": "Level4Restricted", "role": "ClinicalPhysician"}, '
        '"attribute": {"attribute_id": 5, "category": "Demographic", '
        '"name": "street_name", "sensitivity_hint": "Level3Confidential"}, '
        '"prefs": {"attribute_id": 5, "granularity": "Specific", '
        '"purpose": {"declared_purpose": "care-delivery", "mode": "ReuseSame", '
        '"norms": {"how": null, "when": null, "where": null, "who": null, '
        '"why": null}}, "retention": {"duration_days": 0, '
        '"effective_date": "2021-01-01"}, "sensitivity": "Level4Restricted", '
        '"third_party_accessors": [], '
        '"visibility": {"allowed_roles": ["ClinicalPhysician", '
        '"ThirdPartyAllied"], "scope": "ThirdPartyAlliedHealth"}}, '
        '"provider_id": 4, "version": 1}}\n'
    ),
    "content.db": (
        '{"attributes": {"city": "Red Deer", "street_name": "5202 50 Ave"}, '
        '"provider_id": 4}\n'
    ),
    "credentials.db": (
        '{"login": "physician3", '
        '"password_hash": "$sha256i$1024$913cd95ed00c57196b85163b4b73d84f$756e98d'
        '1fd3d20d337126d53399f6b8081bd25c99a7719dc3d157b8c297a2d78", '
        '"profile": {"accessor_id": 3, "permission_level": "Level4Restricted", '
        '"role": "ClinicalPhysician"}}\n'
    ),
    ".lock": "",
}


def format_1_message(data_dir) -> str:
    return (
        f"{data_dir} holds data format 1, which this privledger does not read; "
        "rebuild it with init in a new directory"
    )


@pytest.fixture
def format_1_dir(tmp_path):
    data_dir = tmp_path / "v1"
    data_dir.mkdir()
    for name, text in FORMAT_1_FILES.items():
        (data_dir / name).write_text(text)
    return data_dir


def snapshot(data_dir) -> dict:
    return {path.name: path.read_bytes() for path in data_dir.iterdir()}


def test_init_writes_the_format_file(tmp_path):
    data_dir = tmp_path / "fresh"
    assert main(["--data-dir", str(data_dir), "init"]) == 0
    assert (data_dir / FORMAT_FILE).read_text() == FORMAT == "privledger 2\n"


def test_format_1_directory_is_refused_by_open(format_1_dir):
    before = snapshot(format_1_dir)
    with pytest.raises(UnsupportedFormat, match=re.escape(format_1_message(format_1_dir))):
        Engine.open(EngineConfig(format_1_dir))
    assert snapshot(format_1_dir) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "--login", "physician3", "--password", "physician3-secret",
         "--purpose", "care-delivery", "--attributes", "street_name", "--provider", "4"],
        ["policy", "set", "--provider", "4", "--attribute", "5", "--accessor", "3",
         "--file", str(STREET_POLICY)],
        ["provider", "add", "--id", "5", "--set", "city=Calgary"],
        ["ledger", "list-streams"],
        ["ledger", "items", "stream-4-5-3"],
        ["ledger", "verify"],
    ],
    ids=["query", "policy-set", "provider-add", "list-streams", "items", "verify"],
)
def test_format_1_directory_is_refused_by_every_command(format_1_dir, capsys, argv):
    before = snapshot(format_1_dir)
    code = main(["--data-dir", str(format_1_dir), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {format_1_message(format_1_dir)}\n"
    )
    assert snapshot(format_1_dir) == before


def test_unknown_format_is_refused(format_1_dir, capsys):
    (format_1_dir / FORMAT_FILE).write_text("privledger 3\n")
    before = snapshot(format_1_dir)
    assert main(["--data-dir", str(format_1_dir), "ledger", "list-streams"]) == 1
    assert capsys.readouterr().err == (
        f"error: {format_1_dir / FORMAT_FILE}: unknown data format 'privledger 3\\n'\n"
    )
    assert snapshot(format_1_dir) == before
