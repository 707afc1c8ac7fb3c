"""Known-good bytes of the files `nvwear run` and `nvwear compare` write.

Each case runs the CLI on a small fixed config and checks the SHA-256 digest
of every output file, summary.md included: each is a function of the config
and seed alone. A change that is meant to move these bytes must say why and
update the digests; any other change must leave them alone.

The benchmark's three workloads are pinned the same way: the files of one
compare each, made by perfbench/run.py's own compare_once at seed 5 and
300,000 events.
"""

import hashlib

import pytest

from nvwear.cli import main

from helpers import perfbench

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


BENCH_GOLDEN = {
    "hotset-remap": {
        "baseline_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "baseline_mapping_audit.csv":
            "170d8114476ace420d5856b47433af26d8de59f9f05ebb6a89f950162488be45",
        "plot.csv":
            "594281bc9b5b0ad1322636520650528f94fbb1fe17d8aee7753a6042628732ff",
        "report.csv":
            "6cf487a1dde791a64a073505ade07633b3089a19dc79e7d62acdf205c0889f90",
        "summary.md":
            "f2f8c3365d53da564d6adc0c6be93eecc739f2792eabe645c67eef0bf35dc81f",
        "technique_decisions.csv":
            "b79f72e88c61a2c6c359bea3d569b9017ab8410de22861b0c5580522b8ca6a79",
        "technique_mapping_audit.csv":
            "5986f7e178a9542e0939fd0ceac3b316178a548ea99af091ba748ca003879397",
    },
    "trace-replay": {
        "baseline_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "baseline_mapping_audit.csv":
            "170d8114476ace420d5856b47433af26d8de59f9f05ebb6a89f950162488be45",
        "plot.csv":
            "181756dc46a73f52233465f63c20368eb1be66c966da369906bec0d647ec534a",
        "report.csv":
            "282b90d317ee1a3ee279810155a986f47d9c3a1d71ffd8b19f4a5c4b657cf182",
        "summary.md":
            "fee1a6fe57b0cb8b16e5967b6a2ba3c25eae7ce2f82d67c273a28a46b2e7f8e7",
        "technique_decisions.csv":
            "51fae1a688bcc48cd3e6112e99615cbe50190dff694b29e545a8a9ce33073dd2",
        "technique_mapping_audit.csv":
            "193dca319392a571dfa8d545225ca296aeb688b3e6625129197f7982ae727721",
    },
    "zipf-miss": {
        "baseline_decisions.csv":
            "f84b63c6bbfffc6820c0c7392dff8151af0e91e9639bc2ab5188acac6bdfa791",
        "baseline_mapping_audit.csv":
            "170d8114476ace420d5856b47433af26d8de59f9f05ebb6a89f950162488be45",
        "plot.csv":
            "998f255b682699118f446a9327f8a7a187725a4ae9f7c8b2423b3fbadcaddabf",
        "report.csv":
            "90aef95119e347332eeed33aee4d0be37aac561fa4953c56a651c6ede194a889",
        "summary.md":
            "6409cd70be02b5c85166f36eab62175ba2bdf4b8522c56ad90ba7a920248fadf",
        "technique_decisions.csv":
            "e07466e87f08e05ed44e356cfb85b215a49b5572bc1bd6880a76a9d5d6166503",
        "technique_mapping_audit.csv":
            "e8f359b3d41dab048627e1c7d3a5a646235a60513d9afb16e6c4c9a92a4c18a6",
    },
}


BENCH = perfbench("run")


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_benchmark_workload_bytes_match_known_good(tmp_path, name):
    out = tmp_path / "out"
    plan = BENCH.Plan(BENCH.WORKLOADS[name], 5, 300_000, str(out),
                      str(tmp_path / "replay.trace"))
    plan.prepare()
    BENCH.compare_once(plan)
    assert {file: _digest(out / file) for file in COMPARE_FILES} == BENCH_GOLDEN[name]
