"""Golden outputs: seeded CLI outputs pinned by their sha256.

The byte-identity contract says that fixed seeds give the same bytes, not
only across two runs of one build but across changes to the code. Each
hash below was recorded from an earlier build; a refactor that changes a
witness, a trial trace, a bound value or a float's last digit fails here.
Only a deliberate change of results may update a hash, and it must be
logged in CHANGES.md.
"""

import hashlib

from helpers import clear_caches
from multidom.cli import main

GNP = ["--family", "gnp", "--n", "60", "--p", "0.2", "--seed", "7"]
REGULAR = ["--family", "random_regular", "--n", "200", "--d", "4", "--seed", "2"]
PETERSEN = ["--family", "petersen"]
SPECS = ("classical", "kdom:2", "ktuple:2", "totalk:2", "bracek:2", "param:1,3", "rs", "totalrs")

# Fixed graph files with comments, blank lines, tabs and CRLF line ends.
# The edge list is the circulant C12(1, 5) plus the chords 0-6 and 3-9; the
# DIMACS file is the generalized Petersen graph GP(8, 3).
EDGE_LIST_FILE = (
    "# C12(1, 5) plus two chords\r\n"
    "# n=12\r\n"
    "\r\n"
    "0 1\r\n0 5\r\n6 0\r\n0 7\r\n0 11\r\n1 2\r\n1\t6\r\n1 8\r\n"
    "# the chord 3-9 comes in the middle\r\n"
    "2 3\r\n2 7\r\n2 9\r\n3 4\r\n3 8\r\n9 3\r\n3 10\r\n4 5\r\n"
    "\r\n"
    "  4 9\r\n4 11\r\n5 6\r\n5 10\r\n6 7\r\n6 11\r\n7 8\r\n8 9\r\n9 10\r\n10 11\r\n"
    "\r\n"
)
DIMACS_FILE = (
    "c generalized Petersen graph GP(8, 3)\r\n"
    "c outer cycle, spokes, inner star\r\n"
    "\r\n"
    "p edge 16 24\r\n"
    "e 1 2\r\ne 2 3\r\ne 3 4\r\ne 4 5\r\ne 5 6\r\ne 6 7\r\ne 7 8\r\ne 8 1\r\n"
    "c spokes\r\n"
    "e 1 9\r\ne 2 10\r\ne 3 11\r\ne 4 12\r\ne 5 13\r\ne 6 14\r\ne 7 15\r\ne 8 16\r\n"
    "\r\n"
    "e 9 12\r\ne 9 14\r\ne 10 13\r\ne 10 15\r\ne 11 14\r\ne 11 16\r\ne 12 15\r\ne 13 16\r\n"
)


def _vector_specs(tmp_path, n: int) -> dict[str, str]:
    """rs and totalrs specs over fixed cap (2..3) and demand (1..3) files."""
    caps = tmp_path / f"caps{n}.txt"
    demands = tmp_path / f"demands{n}.txt"
    caps.write_text(" ".join(str(2 + i % 2) for i in range(n)) + "\n")
    demands.write_text(" ".join(str(1 + i % 3) for i in range(n)) + "\n")
    return {label: f"{label}:{caps},{demands}" for label in ("rs", "totalrs")}


def _commands(tmp_path) -> dict[str, list[str]]:
    gnp_vectors = _vector_specs(tmp_path, 60)
    petersen_vectors = _vector_specs(tmp_path, 10)
    commands = {
        "gen edge_list": ["gen", *GNP],
        "gen dimacs": ["gen", *GNP, "--format", "dimacs"],
    }
    # deficient witnesses: the reports list every short vertex
    set_witness = tmp_path / "set.json"
    set_witness.write_text('{"set": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}')
    values_witness = tmp_path / "values.json"
    values_witness.write_text('{"values": [%s]}' % ", ".join(str(i % 3) for i in range(60)))
    for label, witness in (("ktuple:2", set_witness), ("totalk:2", set_witness),
                           ("bracek:2", values_witness), ("totalrs", values_witness)):
        commands[f"verify {label}"] = [
            "verify", *GNP, "--spec", gnp_vectors.get(label, label),
            "--witness", str(witness), "--no-timestamp",
        ]
    for label in SPECS:
        spec = gnp_vectors.get(label, label)
        commands[f"construct {label}"] = [
            "construct", *GNP, "--spec", spec, "--trials", "20", "--trace", "--no-timestamp",
        ]
        commands[f"bounds {label}"] = ["bounds", *GNP, "--spec", spec, "--no-timestamp"]
        commands[f"exact {label}"] = [
            "exact", *PETERSEN, "--spec", petersen_vectors.get(label, label), "--no-timestamp",
        ]
    # graphs read from files rather than generated
    for fmt, text in (("edge_list", EDGE_LIST_FILE), ("dimacs", DIMACS_FILE)):
        path = tmp_path / f"fixed.{fmt}"
        path.write_bytes(text.encode("ascii"))
        for label in ("ktuple:2", "bracek:2"):
            commands[f"bounds {fmt} file {label}"] = [
                "bounds", "--graph", str(path), "--spec", label, "--no-timestamp",
            ]
            commands[f"construct {fmt} file {label}"] = [
                "construct", "--graph", str(path), "--spec", label, "--trials", "20", "--trace",
                "--no-timestamp",
            ]
    # on the 4-regular graph kdom and ktuple miss the target at first
    # (multi-trial traces) and param:1,3 runs the member completion pass
    for label in ("kdom:2", "ktuple:3", "param:1,3"):
        commands[f"construct regular {label}"] = [
            "construct", *REGULAR, "--spec", label, "--trials", "20", "--trace", "--no-timestamp",
        ]
    # the threshold constant and forced, not-applicable bounds
    for label in ("ktuple:2", "param:1,3", "bracek:2"):
        commands[f"bounds c3 {label}"] = [
            "bounds", *GNP, "--spec", label, "--c", "3.0", "--no-timestamp",
        ]
    commands["bounds regular force totalk:2"] = [
        "bounds", *REGULAR, "--spec", "totalk:2", "--force", "--no-timestamp",
    ]
    for fmt in ("csv", "json"):
        commands[f"compare {fmt}"] = ["compare", "5", "1000", "1", "--format", fmt,
                                      "--no-timestamp"]
    return commands


def _output(tmp_path, name: str, argv: list[str]) -> bytes:
    out = tmp_path / (name.replace(" ", "_").replace(":", "_").replace(",", "_") + ".out")
    assert main(argv + ["--out", str(out)]) == 0, name
    return out.read_bytes()


GOLDEN = {
    "gen edge_list": "2862cc909778792c59f7cd38e71449a728938fe37b8634e0e5846ee1930fef79",
    "gen dimacs": "2d343abedb498a432684b9d7e220df44b0c6439e0b210a5c857fb11529e3cc97",
    "verify ktuple:2": "e0d0353cb4c0c589b19307cea1933e0efab81f274a63e2416343303d10e95206",
    "verify totalk:2": "8688b15dec9d8b7f2b986162ca8fd9ac7d343fdd176cafb458bae5ee8771eebf",
    "verify bracek:2": "5c02370d7efa14e5372ef2765a0b5c75fe0939967a66f0698281a88e6d843bc3",
    "verify totalrs": "d75b741079a2f48c00e96b496ea63dbbf76218d109ef2ae57714b8a63ae3741d",
    "construct classical": "0f4584c2ae8f6c55c458bf81b8e50e392e922ded52d9a785b4be922557ea7d5f",
    "bounds classical": "96f0fceb92bfde0b1cb9f10996a7ad036f9629815165b77b1fa981d7c4c13bce",
    "exact classical": "1b900e51ec5d1ea9ae53524f688c24de6bed2608d16c346d0c26dd2dedfda26f",
    "construct kdom:2": "72f34e4a6e5bc70295f7180754365f4332c08627b8ab69c932ebd2dce7bc3981",
    "bounds kdom:2": "3d8ec4f4c4fc8051e067e19ec462de053c868dff9f38c51e5245f887547b134c",
    "exact kdom:2": "961cbd3fa1e4f881aee0dfd83a4e337feb36fead26f541da2030ee09ca7af6c1",
    "construct ktuple:2": "188d49d9635dd626e8b76c2ada398a58b14ed2e5ca78c29aefa4d8fad822927f",
    "bounds ktuple:2": "13919b2541eba5ae932b9a6fa9946a17aee0954962b6bf3238ecdd29f2ae7a53",
    "exact ktuple:2": "9f69cf644837908e08b30ce6a7d0fa6e61d1378cb4d16b8852df72bc30b62f21",
    "construct totalk:2": "f8c9cc89e6d3e46ff2e9ade32a5718ded82d38f4f262a32695ec9446218845e2",
    "bounds totalk:2": "69994493bc368be623c098c99727917d59e4b8729bfa5b949b01f1bf3b0909cc",
    "exact totalk:2": "7c747520b8055912271b85c104a61e2d29254b7f4bd4398a7356305a402d9108",
    "construct bracek:2": "6048ca0707f55faa414afb5c51182afb553522930986cc4e2c2a1e688965bf03",
    "bounds bracek:2": "7174836bd1fa8750be818b6d2bb9703a7ccfd720d2660a6d4af048a7e13dbdde",
    "exact bracek:2": "44f1918d1bc771760e2b030fea61b1d72c058ff0334f717462a5f6059bf12d55",
    "construct param:1,3": "c0e5e92a0ba4ccb181f33e0bd71074346c5e09f5e92cd0f840cbdf03d9884224",
    "bounds param:1,3": "1ba6440c5b5cfe31b5fb14cadc57c69f25f01eb66233d1c1b6ed03039185da47",
    "exact param:1,3": "827620117a7015054ddb55852908bd7940b0f6d1d23660b3ac0b00ed439a2034",
    "construct rs": "165731304c24cbbb110e09790687830ee84763650c590131a31503ba3f229c0c",
    "bounds rs": "1e7506e9acbcc2d39f121c0188b3b140ae2163d3430ae6c976db01fe64cd1185",
    "exact rs": "5ec387ab7da571ef8cc63da7eef55b66d32e1235b4d7017c17fdbc86344fdbca",
    "construct totalrs": "b4f5376d50230b959c70d5d9e1f1344364ae9c16cd61c7161f2bb3d0999f0707",
    "bounds totalrs": "dd326bb5c80a9388ad564cd2262d509d5f17432ac28d8e2378d27013eb23ab72",
    "exact totalrs": "ebc263c171bdec2d876e578fc892fc32edf9f0ad8b696dbaef9046a2546b7d60",
    "construct regular kdom:2": "fe41c2e62c920634fa55fdea01a357208df1cd367b51a3388bb2c30218366a5c",
    "construct regular ktuple:3": "a61ff12e0733ca1c9da7cc6bc382699a738bf78c5538a584b4905b0f16f82ebf",
    "construct regular param:1,3": "7d8f8b7582b895e96c1b58437557c66a1624caa62c462c16ffb89349551ae43e",
    "bounds edge_list file ktuple:2": "4415eac2e940e1672f77d801d87dbfb07a5f1d7ae4bdf10e32ae47ab6447acfe",
    "construct edge_list file ktuple:2": "f3763854f7f1a11f4b275ed9f4c8b856726b1b0ad335fdb5830b85e545c6028e",
    "bounds edge_list file bracek:2": "8ee1a668976e42a2e8433f9361c73f2f3c215195a03ce43e8bce9066e61cd22b",
    "construct edge_list file bracek:2": "036c4c266e5a5501133e06cb0c261b472b31e26f9e1070d4425bfc90058ac948",
    "bounds dimacs file ktuple:2": "fcf285192df92047d372ec5176ddd39d512d098baba391a90cbc4cb3ef10532c",
    "construct dimacs file ktuple:2": "b71939c3d5d737141a4511bd1d9122d4831e752bb3c73c77993a9c7f4fe11184",
    "bounds dimacs file bracek:2": "d33b9e0dae9ba27f3aa9f4d1a8b2e24256212c2d13a701cca222ff416de3dbaf",
    "construct dimacs file bracek:2": "7e997e9bb6aa261198cc5f96800ab957d34ef5dbf71297822996b0203dc257c2",
    "bounds c3 ktuple:2": "bcaf467d3e3228e8b1a440c4bf352f027c7c80d40baa41f51ab89c71059a4bd2",
    "bounds c3 param:1,3": "29bd6ec3fa2288df3860713067fde69ebe8652736451eef07e7880f0dbf5e36f",
    "bounds c3 bracek:2": "1b3618c7324f62d08cebf6ced1a6a097105e3edb0f6b34fbdb2903000e47afff",
    "bounds regular force totalk:2": "036c308befb456493e36dca1c053f20c0d6367a91580a2969bf3ca4b704680dc",
    "compare csv": "918145f3d17285233116218e15e84ae0af3ec752390d175d5efa717032cc3f7e",
    "compare json": "805d5449ab0717b2a69ea4af6b89d02d6b71dc3e8c4be555bfe59f6d2884d8c2",
}


def test_seeded_outputs_match_golden_hashes(tmp_path):
    """Every case from cold caches, then again in reverse order against the
    caches the first pass left, so that a stale or collapsed key shows."""
    commands = _commands(tmp_path)
    clear_caches()
    for names in (list(commands), list(commands)[::-1]):
        got = {name: hashlib.sha256(_output(tmp_path, name, commands[name])).hexdigest()
               for name in names}
        assert set(got) == set(GOLDEN)
        wrong = sorted(name for name in got if got[name] != GOLDEN[name])
        assert not wrong, f"outputs changed: {wrong}"
