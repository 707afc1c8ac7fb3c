"""Known-good bytes of the files `nvwear run` and `nvwear compare` write.

Each case runs the CLI on a small fixed config and checks the SHA-256 digest
of every output file, summary.md included: each is a function of the config
and seed alone. A change that is meant to move these bytes must say why and
update the digests; any other change must leave them alone.
"""

import hashlib

import pytest

from nvwear.cli import main

CONFIG = """
[cache]
size_bytes = 4K
associativity = 2
block_bytes = 64
page_bytes = 256

[policy]
kind = {policy}
k_writes = 500
min_gap_cycles = 0
beta = 20

[workload]
kind = hotset
events = {events}
write_fraction = 0.7
hotset_fraction = 0.25
pages = 16
seed = 9
"""

RUN_FILES = ("report.csv", "plot.csv", "decisions.csv", "mapping_audit.csv",
             "summary.md")
COMPARE_FILES = ("report.csv", "plot.csv", "baseline_decisions.csv",
                 "technique_decisions.csv", "baseline_mapping_audit.csv",
                 "technique_mapping_audit.csv", "summary.md")

GOLDEN = {
    "compare-static-swl-0": {
        "baseline_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "baseline_mapping_audit.csv":
            "011c92b3de8649484912e41b5bf8bca0dd0e264854f1685d8f498689244ac5c7",
        "plot.csv":
            "9052eb3a00e06a17d9840e7f820f464deba14f538c168f5f3f53b7a42c53d5d8",
        "report.csv":
            "9aabd0d6c3408df8de2d2ff1dcc68cc496e55413190761ab9cb60499e87806b9",
        "summary.md":
            "6c5a1039489f474f69d0e6a14bd839a716a2ad68e6bbac6fb0a9f7a08673b74f",
        "technique_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "technique_mapping_audit.csv":
            "011c92b3de8649484912e41b5bf8bca0dd0e264854f1685d8f498689244ac5c7",
    },
    "compare-static-swl-6000": {
        "baseline_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "baseline_mapping_audit.csv":
            "011c92b3de8649484912e41b5bf8bca0dd0e264854f1685d8f498689244ac5c7",
        "plot.csv":
            "4ab3424f0266ec1469597bffd97ebbd157a24d9b62ff082a652fb860f2a2f932",
        "report.csv":
            "7581c879e1aaa889da52d190aa5c29a86026bca6dc10a7dd7880894dc56df92e",
        "summary.md":
            "bdc5127c521d26d77b2c785c640bdba4cffe33e50a9573c748b4cef02057e662",
        "technique_decisions.csv":
            "9a38ed34f6bdc28283d13355560e984827b0c16c4259531cb6b24d9bc71f4fda",
        "technique_mapping_audit.csv":
            "4832da772c995ac7895796482da668c259b0de73fcb67e1bcc1cfb0429f9c397",
    },
    "compare-static-xor-6000": {
        "baseline_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "baseline_mapping_audit.csv":
            "011c92b3de8649484912e41b5bf8bca0dd0e264854f1685d8f498689244ac5c7",
        "plot.csv":
            "f3ae2246a96c4a8cb30e60159007c627c4f0b08eca52a47d5bb0157a8b82166d",
        "report.csv":
            "1d7a4cb4434dbf315ebfe0f61faadb7cda0d3ed475b5f578efa0a4ec4d39d88c",
        "summary.md":
            "8cb39f6187b757dc94b03bb87ebea1e1aad5ac42b37dcdd81d04d4a4ae055e3c",
        "technique_decisions.csv":
            "d837d46b04eb68a6dd30d85caee60f5a2afa8f9a2e6372181a96827555b2a3ca",
        "technique_mapping_audit.csv":
            "44ee0a802390cc28dcdcfe356a86fce50b283bb5e17e0d0f8b0d4d60b61a961f",
    },
    "run-static-6000": {
        "decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "mapping_audit.csv":
            "011c92b3de8649484912e41b5bf8bca0dd0e264854f1685d8f498689244ac5c7",
        "plot.csv":
            "dfebb82d1b0904a5bff910f0b56ba248de4a0f426b91cd927ab01022ba92fb4a",
        "report.csv":
            "c1b6b331fdd54b0c4e5a5bbf3d142150973f1effba88273aa75055ad09c974d7",
        "summary.md":
            "63b405994a27cbbd8ba4bd9f47e0c21bb1d417a78e34f962403932a0f6876c08",
    },
    "run-swl-6000": {
        "decisions.csv":
            "9a38ed34f6bdc28283d13355560e984827b0c16c4259531cb6b24d9bc71f4fda",
        "mapping_audit.csv":
            "4832da772c995ac7895796482da668c259b0de73fcb67e1bcc1cfb0429f9c397",
        "plot.csv":
            "64ef6051fa457f68477754e2d6b8bc3ac6c0882d7c696f974c7e9dee7d5e397f",
        "report.csv":
            "5f9e6a223f7c4a215d0b3c2b808a1dc42c8de3f2d5dc7812613620e5c57c80b5",
        "summary.md":
            "5e573d2e986c167350175ccc4075d997aad2678a68a6a030471deeefeb1c2565",
    },
    "run-xor-6000": {
        "decisions.csv":
            "d837d46b04eb68a6dd30d85caee60f5a2afa8f9a2e6372181a96827555b2a3ca",
        "mapping_audit.csv":
            "44ee0a802390cc28dcdcfe356a86fce50b283bb5e17e0d0f8b0d4d60b61a961f",
        "plot.csv":
            "fdd85287b7b6acd4ee41a530526178377ad3d2e0e5906c67d40308cc7e0d9f5e",
        "report.csv":
            "5fbf04588b0dd43610ca0094bfc8fd9c62bbe33487b906fef7ecd9b7d54541fa",
        "summary.md":
            "3039bd5077d1538d5ee9f7d78d0fa704137544b3b0ea593c6cbb6e121a22ffdd",
    },
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(tmp_path, policy, events):
    path = tmp_path / f"{policy}-{events}.ini"
    path.write_text(CONFIG.format(policy=policy, events=events))
    return str(path)


def _outputs(tmp_path, case):
    command, *policies, events = case.split("-")
    out = tmp_path / "out"
    configs = [_config(tmp_path, policy, int(events)) for policy in policies]
    if command == "run":
        argv, names = ["run", "--config", *configs], RUN_FILES
    else:
        argv, names = ["compare", *configs], COMPARE_FILES
    assert main([*argv, "--out", str(out)]) == 0
    return {name: _digest(out / name) for name in names}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_match_known_good(tmp_path, case):
    assert _outputs(tmp_path, case) == GOLDEN[case]
