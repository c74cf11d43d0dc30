"""The command line, byte for byte.

Each pin is a command's exit code and the sha256 of its stdout, taken from
the implementation before the name-keyed constructors read their input in
one pass.  Commands that read a model file name it as `{e21}`,
`{printed}` or `{corrected}`: the packaged fixtures of Example 2.1 and of
Example 2.2 as printed and corrected, written to a temporary directory.
"""

from __future__ import annotations

import hashlib

import pytest

from qlogic.cli import main
from qlogic.repro import fixture_text

FIXTURES = {"e21": "2.1", "printed": "2.2-printed",
            "corrected": "2.2-corrected"}

PINS = {
    "check mo 2 --trials 20 --seed 0": (
        0, "8cdaaf28c3579753e9f675ec2695bc27d18fcebd4291259c3a064987e6d1662b"),
    "check mo 2 --trials 20 --seed 1": (
        0, "8cdaaf28c3579753e9f675ec2695bc27d18fcebd4291259c3a064987e6d1662b"),
    "check mo 2 --trials 20 --seed 2": (
        0, "8cdaaf28c3579753e9f675ec2695bc27d18fcebd4291259c3a064987e6d1662b"),
    "check mo 2 --trials 20 --seed 3": (
        0, "8cdaaf28c3579753e9f675ec2695bc27d18fcebd4291259c3a064987e6d1662b"),
    "check mo 2 --trials 20 --seed 4": (
        0, "8cdaaf28c3579753e9f675ec2695bc27d18fcebd4291259c3a064987e6d1662b"),
    "check mo 3 --trials 20 --seed 0": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check mo 3 --trials 20 --seed 1": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check mo 3 --trials 20 --seed 2": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check mo 3 --trials 20 --seed 3": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check mo 3 --trials 20 --seed 4": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check mo 4 --trials 20 --seed 0": (
        0, "aaf31764b7c50136f6df9b19a8e509e218b04f2aa2e3f3f424b708220bef1e61"),
    "check mo 4 --trials 20 --seed 1": (
        0, "aaf31764b7c50136f6df9b19a8e509e218b04f2aa2e3f3f424b708220bef1e61"),
    "check mo 4 --trials 20 --seed 2": (
        0, "aaf31764b7c50136f6df9b19a8e509e218b04f2aa2e3f3f424b708220bef1e61"),
    "check mo 4 --trials 20 --seed 3": (
        0, "aaf31764b7c50136f6df9b19a8e509e218b04f2aa2e3f3f424b708220bef1e61"),
    "check mo 4 --trials 20 --seed 4": (
        0, "aaf31764b7c50136f6df9b19a8e509e218b04f2aa2e3f3f424b708220bef1e61"),
    "check boolean 3 --trials 20 --seed 0": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check boolean 3 --trials 20 --seed 1": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check boolean 3 --trials 20 --seed 2": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check boolean 3 --trials 20 --seed 3": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "check boolean 3 --trials 20 --seed 4": (
        0, "ddee324c4ad012b2a25ffe0d4073b0440cd65b8f1b2c99d6c83f985c563af083"),
    "gen mo 3": (
        0, "e41f85f11587019b570e40572e8757eae64807fab99e8f01da6871e98cc77b84"),
    "gen boolean 3 --seed 7": (
        0, "697b5e2d5ac4a465d3931b30e998ed1c30404d615562ebc3fe99227b416982f6"),
    "gen mo 4 --seed 0": (
        0, "d206791cba9e836feae3d2b88f698fc32e07afc73960ef4ee353aa6afa49bc93"),
    "gen mo 4 --seed 1": (
        0, "0f26909ef7766b702c589718d67200cec29ce669971d977f376ac4c9b1d2921e"),
    "gen mo 4 --seed 2": (
        0, "63e65ef90c99f683f3ffcdca40f76dd5d285a655e560ea8e41aaca51c8b4e97c"),
    "gen boolean 4 --seed 0": (
        0, "767831587c0d950a34e709ae3af2bd9e50bce9955d0e67cb2fd69f27a073b88d"),
    "gen boolean 4 --seed 1": (
        0, "f16bc88df8386d3f466f3113db6bd1d353e360194370cae6746ec356208ff249"),
    "gen boolean 4 --seed 2": (
        0, "7a6d64337dd10990b354e8a1d77ad88850a37eec4531e735e2ef484b7b2d6cdf"),
    "repro 2.1": (
        0, "baff7db3bbc83008e93664c8d717104a0ef179487c31b0a21c257939ab573043"),
    "repro 2.2-printed": (
        0, "571833afe3d4b89b36dd628c0a068062a47431eb33161357b7d4ef3b55f64516"),
    "repro 2.2-corrected": (
        0, "f058b688e552cdc3370b9d0c2db5cd449003d54e0fa412d3362020112265481e"),
    "validate {e21}": (
        0, "2ce559364b1ad6a3ef34271c4379f5529c299f53d477725ebb9ab5fecdbe1a94"),
    "derive {e21} --from cond --name f": (
        0, "959be81aee4b9a1323c2d16e55f22f321d0f199bc8f17910cfcdb2a23aa296e6"),
    "derive {e21} --from smap --name p": (
        0, "f7fb8a3e2d0cff8ce881e60e3f78675d7ee8d82e9a662ae2769f0c3eadcf30b8"),
    "stats {e21} --smap p --x x --y y": (
        0, "2347f069c28ce4fc016cbb8c2d897cff4b6c22421b495cf6284c755f3498cc49"),
    "validate {printed}": (
        1, "59598595b301b1759d913439853820657822f10beb0c10a5cfd503be0bb663fe"),
    "derive {printed} --from cond --name f": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "derive {printed} --from smap --name p": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "stats {printed} --smap p --x x --y y": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate {corrected}": (
        0, "7a4718b4e315936e9832b930f0d58572a296f395971696719f9eb9e234a12540"),
    "derive {corrected} --from cond --name f": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "derive {corrected} --from smap --name p": (
        0, "b2c3fe319c6330eff6046ee631574d5bec97d4f496c3485328ea413b5bffaef9"),
    "stats {corrected} --smap p --x x --y y": (
        0, "6fec1163a4a31c38e034202c7dc97dc141af4c35def95a95631bdc813ef61763"),
    "gen boolean 1 --seed 0": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check boolean 1": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    out = {}
    for stem, ident in FIXTURES.items():
        path = root / f"{stem}.qlm"
        path.write_text(fixture_text(ident), encoding="utf-8")
        out[stem] = str(path)
    return out


@pytest.mark.parametrize("command", sorted(PINS))
def test_command_output_is_pinned(command, paths, capsys):
    code = main(command.format(**paths).split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINS[command]
