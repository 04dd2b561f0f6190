"""Pinned CLI transcript: every subcommand, ``stability --csv``,
``verify-scalar --emit-big`` and ``verify-ue --bundle`` on the bundle it
wrote.  For each command the test pins the exit code, the sha256 of stdout
and the sha256 of every file the command writes, so a change that alters a
byte of the CLI's output fails here.  The digests were recorded from the
code before models derived their metadata from their labels, except the
stdout of ``verify-ue --bundle``: it was re-pinned when that command dropped
the three bundle checks that could not fail ("bundle_checks" 6 -> 4)."""
import hashlib
import os

from orthobranch.cli import main

# (argv with {tmp} for the output directory, files the command writes)
COMMANDS = [
    (["regions", "--n", "4", "--xi", "9/2,5/2", "--nu", "1,0"], []),
    (["regions", "--n", "3", "--xi", "5/2,3/2", "--nu", "1/3", "--out", "{tmp}/r.json"],
     ["r.json"]),
    (["scalar", "--n", "4", "--i", "2", "--eps", "-", "--lambda", "7/2,3/2", "--nu", "2,1"], []),
    (["scalar", "--n", "4", "--i", "1", "--eps", "-", "--lambda", "3/2,1/2"], []),
    (["branch", "--n", "4", "--big", "4,2", "--sub", "3,1"], []),
    (["stability", "--n", "4", "--xi", "13/2,5/2", "--pi", "3,1", "--bound", "2",
      "--csv", "{tmp}/scan.csv"], ["scan.csv"]),
    (["stability", "--n", "4", "--xi", "9/2,5/2", "--pi", "3,1", "--bound", "1"], []),
    (["verify-ue", "--n", "3", "--max-degree", "3"], []),
    (["verify-scalar", "--n", "4", "--big", "2,1", "--big-eps", "+", "--sub", "1,1",
      "--i", "1", "--eps", "+", "--emit-big", "{tmp}/big.json", "--emit-sub", "{tmp}/sub.json"],
     ["big.json", "sub.json"]),
    (["verify-scalar", "--n", "3", "--big", "0,0", "--sub", "1", "--i", "1", "--eps", "+"], []),
    (["verify-ue", "--n", "4", "--max-degree", "3", "--bundle", "{tmp}/big.json"], []),
    (["verma-demo", "--a-min", "-2", "--a-max", "0", "--k-max", "2"], []),
    (["render", "--n", "4", "--nu", "4,1", "--axes", "1,2", "--range", "0,10",
      "--out", "{tmp}/slice.svg"], ["slice.svg"]),
]

# (exit code, sha256 of stdout, {file: sha256})
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED = [
    (0, "9fea178309bc79995c69121b065018a9408cd2026310b23760df8df10d2774ba", {}),
    (0, EMPTY,
     {"r.json": "ce1b588beae05277b332de32945ff090e62c184957febf19327181db2822cba7"}),
    (0, "87543f704980740fdf1a6d3f9506ee4fc517ea22e8519f1d9c4fcf44c9f2b5dc", {}),
    (0, "3831dab9c0069500d808024dbcc1d0931ccfc3391b47bec39c9c1cf0ddf490a0", {}),
    (0, "972b4edd976f586b42b66b94cac57db63e5ce9bbbb961b8c855a7cc1065b2bf1", {}),
    (0, "f53bd948fb53d0ae213906712f71439d5595726349afdb5b6d9e805a2d30148a",
     {"scan.csv": "d68683b1967125b8b80617f62e7529607ff9436bd0d87977b6122c416af19207"}),
    (2, EMPTY, {}),
    (0, "d2e4873bb2e21ae665fb64e03be983b3a93954c131542bd6b5b4719435745e47", {}),
    (0, "fecbbc718d82ef96da508f63880771c4147c0f356804e2ca2b489cd64b9ad06e",
     {"big.json": "1ed262bffdf4ed9fc35ce3f99c558b59e47974a21b53ee3b931e75ac34a1dc1c",
      "sub.json": "f9c0e57591a7dbd6d0cf580add545035ad41f6c9b8b8712e8f0edc2381a778c7"}),
    (0, "fbb9b273006d373299078b399433dee0cdd58e5dc5beb06096c3c9bc7c7dafe8", {}),
    (0, "b751e6c63136239e1314f5c1932eb3afc6abf54892f4bfeb2afc9237f914e2cd", {}),
    (0, "94a19e62da7087313868680c64cfeed742bad10becf664a6ca96b4a19030d376", {}),
    (0, EMPTY,
     {"slice.svg": "dc034749b0dbba616243663637205194b7d5b783c48597b1318f01951d9d3664"}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def transcript(tmp: str, capsys):
    """Runs COMMANDS in order with outputs under tmp: one (exit code, stdout
    digest, file digests) entry per command."""
    out = []
    for argv, files in COMMANDS:
        try:
            code = main([a.format(tmp=tmp) for a in argv])
        except SystemExit as exc:
            code = exc.code
        stdout = capsys.readouterr().out
        digests = {}
        for name in files:
            with open(os.path.join(tmp, name), "rb") as fh:
                digests[name] = _sha(fh.read())
        out.append((code, _sha(stdout.encode("utf-8")), digests))
    return out


def test_cli_transcript_is_pinned(tmp_path, capsys):
    got = transcript(str(tmp_path), capsys)
    for (argv, _files), want, have in zip(COMMANDS, PINNED, got):
        assert have == want, argv
    assert len(got) == len(PINNED) == len(COMMANDS)
