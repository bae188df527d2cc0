"""Data format 4 and the directories formats 1, 2 and 3 left behind.

A data directory carries a format file that init writes before anything
else; format 4 reads "privledger 4".  A directory without one, as every
directory written before format 2 is, one whose file reads "privledger
2", whose hash records are iterated SHA-256 rather than PBKDF2, and one
whose file reads "privledger 3", which published each policy version as
a PBKDF2 hash record rather than a commitment, must be refused by the
engine and by every command with one message naming its format, and left
byte for byte as it was.
"""

from __future__ import annotations

import re

import pytest

from privledger.cli import main
from privledger.config import FORMAT, FORMAT_FILE, UnsupportedFormat
from privledger.engine import Engine, EngineConfig
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


# A data directory as format 2 wrote it (init, one provider, one accessor
# and one policy), without the checkpoints that close writes: the ledger
# and the credentials hold $sha256i$ records.  A command that opened it
# would write checkpoints, so their absence also shows that none did.
FORMAT_2_FILES = {
    "format": "privledger 2\n",
    "ledger.db": (
        "0\troot\t\tnode-10da6ea031583db5\t2026-10-19T11:39:39.018Z\t\t"
        "0000000000000000000000000000000000000000000000000000000000000000\t"
        "96d140c80e1d44852115bdafc56c31587b6502e2bdfc56d95a3fd97b6e04aa2a\n"
        "1\tstream-4-5-3\tkey17\tnode-10da6ea031583db5\t2026-10-19T11:39:39.649Z\t"
        "$sha256i$1024$d1c6a994d96219ee6f3fb3f14a737fe5$92236087c9810bab266175e3879f2950"
        "5a03bc1bf864a0a208d3719723177448\t"
        "96d140c80e1d44852115bdafc56c31587b6502e2bdfc56d95a3fd97b6e04aa2a\t"
        "cde87b64fbe79edf60bb03cb32dcb001b61938fecf53304ebc721f60d2e01836\n"
    ),
    "policy.db": (
        '{"seq": 1, "stream": "stream-4-5-3", "tuple": {"accessor": {"accessor_id": 3, '
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
    "content.db": FORMAT_1_FILES["content.db"],
    "credentials.db": (
        '{"login": "physician3", '
        '"password_hash": "$sha256i$1024$fa19b762d797d10cad55f3960a16a63f$455ef199'
        '718b55895d95936126ae67dec6c97d3d331e2c85c71c54604a0c5965", '
        '"profile": {"accessor_id": 3, "permission_level": "Level4Restricted", '
        '"role": "ClinicalPhysician"}}\n'
    ),
    ".lock": "",
}


# A data directory as format 3 wrote it (init, one provider, one accessor
# and one policy), without the checkpoints that close writes: the ledger
# payload is a $pbkdf2$ hash record of the tuple, and the policy.db line
# holds no nonce.
FORMAT_3_FILES = {
    "format": "privledger 3\n",
    "ledger.db": (
        "0\troot\t\tnode-d6fe833211d24d29\t2026-10-22T07:32:12.733Z\t\t"
        "0000000000000000000000000000000000000000000000000000000000000000\t"
        "7bfdb9d1824fba8d857cc6d5f836a19c3dcacbeec64b7c5462676bd8ad603a84\n"
        "1\tstream-4-5-3\tkey17\tnode-d6fe833211d24d29\t2026-10-22T07:32:13.151Z\t"
        "$pbkdf2$1024$5a8de9564ae843c1718641c5b755d57e$c4bcb231c865a22e36796501f4297f13"
        "ae4cc939794d47e2396c302397b0e309\t"
        "7bfdb9d1824fba8d857cc6d5f836a19c3dcacbeec64b7c5462676bd8ad603a84\t"
        "71dfe17b21b2bcbc73c4cb7e3e217aa66e5dcbd72f4104b890a09a7e1eae1f43\n"
    ),
    "policy.db": FORMAT_2_FILES["policy.db"],
    "content.db": FORMAT_1_FILES["content.db"],
    "credentials.db": (
        '{"login": "physician3", '
        '"password_hash": "$pbkdf2$1024$686174cdae254759cb11e8238838054b$c22c55ea'
        '7275a3a8d18de355f49e5611cdd11066eed1e10bb26e4cd173e7da4e", '
        '"profile": {"accessor_id": 3, "permission_level": "Level4Restricted", '
        '"role": "ClinicalPhysician"}}\n'
    ),
    ".lock": "",
}


def format_message(data_dir, number: int) -> str:
    return (
        f"{data_dir} holds data format {number}, which this privledger does not read; "
        "rebuild it with init in a new directory"
    )


def write_dir(data_dir, files: dict):
    data_dir.mkdir()
    for name, text in files.items():
        (data_dir / name).write_text(text)
    return data_dir


@pytest.fixture
def format_1_dir(tmp_path):
    return write_dir(tmp_path / "v1", FORMAT_1_FILES)


@pytest.fixture
def format_2_dir(tmp_path):
    return write_dir(tmp_path / "v2", FORMAT_2_FILES)


@pytest.fixture
def format_3_dir(tmp_path):
    return write_dir(tmp_path / "v3", FORMAT_3_FILES)


def snapshot(data_dir) -> dict:
    return {path.name: path.read_bytes() for path in data_dir.iterdir()}


def test_init_writes_the_format_file(tmp_path):
    data_dir = tmp_path / "fresh"
    assert main(["--data-dir", str(data_dir), "init"]) == 0
    assert (data_dir / FORMAT_FILE).read_text() == FORMAT == "privledger 4\n"


def test_format_1_directory_is_refused_by_open(format_1_dir):
    before = snapshot(format_1_dir)
    with pytest.raises(UnsupportedFormat, match=re.escape(format_message(format_1_dir, 1))):
        Engine.open(EngineConfig(format_1_dir))
    assert snapshot(format_1_dir) == before


EVERY_COMMAND = pytest.mark.parametrize(
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


@EVERY_COMMAND
def test_format_1_directory_is_refused_by_every_command(format_1_dir, capsys, argv):
    before = snapshot(format_1_dir)
    code = main(["--data-dir", str(format_1_dir), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {format_message(format_1_dir, 1)}\n"
    )
    assert snapshot(format_1_dir) == before


def test_format_2_directory_is_refused_by_open(format_2_dir):
    before = snapshot(format_2_dir)
    with pytest.raises(UnsupportedFormat, match=re.escape(format_message(format_2_dir, 2))):
        Engine.open(EngineConfig(format_2_dir))
    assert snapshot(format_2_dir) == before


@EVERY_COMMAND
def test_format_2_directory_is_refused_by_every_command(format_2_dir, capsys, argv):
    before = snapshot(format_2_dir)
    code = main(["--data-dir", str(format_2_dir), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {format_message(format_2_dir, 2)}\n"
    )
    assert snapshot(format_2_dir) == before


def test_format_3_directory_is_refused_by_open(format_3_dir):
    before = snapshot(format_3_dir)
    with pytest.raises(UnsupportedFormat, match=re.escape(format_message(format_3_dir, 3))):
        Engine.open(EngineConfig(format_3_dir))
    assert snapshot(format_3_dir) == before


@EVERY_COMMAND
def test_format_3_directory_is_refused_by_every_command(format_3_dir, capsys, argv):
    before = snapshot(format_3_dir)
    code = main(["--data-dir", str(format_3_dir), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {format_message(format_3_dir, 3)}\n"
    )
    assert snapshot(format_3_dir) == before


def test_unknown_format_is_refused(format_1_dir, capsys):
    (format_1_dir / FORMAT_FILE).write_text("privledger 5\n")
    before = snapshot(format_1_dir)
    assert main(["--data-dir", str(format_1_dir), "ledger", "list-streams"]) == 1
    assert capsys.readouterr().err == (
        f"error: {format_1_dir / FORMAT_FILE}: unknown data format 'privledger 5\\n'\n"
    )
    assert snapshot(format_1_dir) == before
