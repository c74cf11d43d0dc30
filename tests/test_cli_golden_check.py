"""`gen` and `check` on more stock shapes, byte for byte.

Each pin is a command's exit code and the sha256 of its stdout, taken from
the implementation before the witness search became one pass over every
orthogonal triple and before the s-map law scan read per-lattice cell
lists: `gen` on every `mo` size from 5 to 8 and on `boolean` 2 and 4, and
`check` on the larger `mo` sizes and both `boolean` ends the witness
search accepts.
"""

from __future__ import annotations

import hashlib

import pytest

from qlogic.cli import main

PINS = {
    "gen mo 5 --seed 0": (
        0, "9f45c72f492309a01cd7daf1862b692830c10b67da4769612386f0ecdf254c68"),
    "gen mo 5 --seed 1": (
        0, "7bc7b7c98912b2b6d2159c10de0637ca35e8a66de3e277ef8e7ee21a61607db6"),
    "gen mo 5 --seed 2": (
        0, "606524ef8440bd8b9c9fd7994acb1288f0821ba1b27852a90ef8d53b165e0d59"),
    "gen mo 6 --seed 0": (
        0, "6ba451e95e76dac95d540e5e3d43030d7688401ef3e55d9aff7c7d1cf608a99e"),
    "gen mo 6 --seed 1": (
        0, "96d4c33913124b65a6eeb36fc453a877ee38144068409e436690e6809640e037"),
    "gen mo 6 --seed 2": (
        0, "4ce45ad148515ff5dde246c73073fe37813e4d7e107391f2731ac8b74088f00f"),
    "gen mo 7 --seed 0": (
        0, "bf6e2f51a894eeb015b1eda11733a912733454243a40e237fee520a87ba8f39d"),
    "gen mo 7 --seed 1": (
        0, "bb999c4fecd5f743e03158d2b9fedee13f897f2781d8111daad8a5346a0a0e13"),
    "gen mo 7 --seed 2": (
        0, "74893d060ee37f7d620767351979273605f513200396ec9bc2207b2f7c589a02"),
    "gen mo 8 --seed 0": (
        0, "27e1459515def6dc04f6d777405368227d5550ebd619dae26209673cd90235c5"),
    "gen mo 8 --seed 1": (
        0, "be8f8c011857fce5a22b2dd5e5bae138be008af427f47f978ad0d7729fdc0ba8"),
    "gen mo 8 --seed 2": (
        0, "aec23c67e4143c52d03133dfbd5eeefaa56f956468a385924821757a705c274b"),
    "gen boolean 2 --seed 0": (
        0, "1624ce508cafaa4bcc79bbf9bb479dfc97abd61af18007b096bee70cb781b54f"),
    "gen boolean 2 --seed 1": (
        0, "0f236c053d63d5604f513ab296ccc5bd4ec120dd3e6faf755e9fccc99c91f15b"),
    "gen boolean 2 --seed 2": (
        0, "b780f6900f4f0ce3828f1ad14aa97767231612ae559078ffc098aadde23c2236"),
    "gen boolean 4 --seed 0": (
        0, "767831587c0d950a34e709ae3af2bd9e50bce9955d0e67cb2fd69f27a073b88d"),
    "gen boolean 4 --seed 1": (
        0, "f16bc88df8386d3f466f3113db6bd1d353e360194370cae6746ec356208ff249"),
    "gen boolean 4 --seed 2": (
        0, "7a6d64337dd10990b354e8a1d77ad88850a37eec4531e735e2ef484b7b2d6cdf"),
    "check mo 5 --trials 3 --seed 0": (
        0, "68830ab2dbcea72c8edab8635652083ad14254740ae0e3414c5094837c523655"),
    "check mo 5 --trials 3 --seed 1": (
        0, "68830ab2dbcea72c8edab8635652083ad14254740ae0e3414c5094837c523655"),
    "check mo 5 --trials 3 --seed 2": (
        0, "68830ab2dbcea72c8edab8635652083ad14254740ae0e3414c5094837c523655"),
    "check mo 6 --trials 3 --seed 0": (
        0, "1acd309c85835e4148bc48cab8f5994ca80d92cffc4c0877dc8327a52909de32"),
    "check mo 6 --trials 3 --seed 1": (
        0, "1acd309c85835e4148bc48cab8f5994ca80d92cffc4c0877dc8327a52909de32"),
    "check mo 6 --trials 3 --seed 2": (
        0, "1acd309c85835e4148bc48cab8f5994ca80d92cffc4c0877dc8327a52909de32"),
    "check mo 8 --trials 3 --seed 0": (
        0, "9d426747635e00cbab4970c5654bb2c04368522ba07e9d697a9276785bdf4cc3"),
    "check mo 8 --trials 3 --seed 1": (
        0, "9d426747635e00cbab4970c5654bb2c04368522ba07e9d697a9276785bdf4cc3"),
    "check mo 8 --trials 3 --seed 2": (
        0, "9d426747635e00cbab4970c5654bb2c04368522ba07e9d697a9276785bdf4cc3"),
    "check boolean 2 --trials 3 --seed 0": (
        0, "080542fdddfb5ef3294049cb724be36446f6a4735f562e68bf5a6cfec3943f01"),
    "check boolean 2 --trials 3 --seed 1": (
        0, "080542fdddfb5ef3294049cb724be36446f6a4735f562e68bf5a6cfec3943f01"),
    "check boolean 2 --trials 3 --seed 2": (
        0, "080542fdddfb5ef3294049cb724be36446f6a4735f562e68bf5a6cfec3943f01"),
    "check boolean 4 --trials 3 --seed 0": (
        0, "14cf4e49c0bddb0f6624f0aa2f09a7481d527ba3082918f9c606417c69aed9e6"),
    "check boolean 4 --trials 3 --seed 1": (
        0, "14cf4e49c0bddb0f6624f0aa2f09a7481d527ba3082918f9c606417c69aed9e6"),
    "check boolean 4 --trials 3 --seed 2": (
        0, "14cf4e49c0bddb0f6624f0aa2f09a7481d527ba3082918f9c606417c69aed9e6"),
}


@pytest.mark.parametrize("command", sorted(PINS))
def test_command_output_is_pinned(command, capsys):
    code = main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINS[command]
