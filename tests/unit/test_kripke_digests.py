"""Digest pins of relabelled and product structures.

Each case's ``to_dict`` (states by ``repr``, transitions, labels and name) is
serialised with sorted keys and hashed, so any change to the states, edges,
labels or name of a reduction ``M|_i`` or of a product shows up here.
"""

import hashlib
import json

import pytest

from repro.kripke.product import interleaved_product, synchronous_product
from repro.kripke.reduction import reduce_to_index
from repro.kripke.structure import KripkeStructure
from repro.network.free_product import free_product
from repro.systems.figures import fig41_template
from repro.systems.mutex import build_mutex
from repro.systems.token_ring import build_token_ring

DIGESTS = {
    "ring2|1": "4837b0afb59c08a224826310ba631516b54fa86e4963c19e4399f5b9a4009d67",
    "ring2|1:keep": "c816457dfd9bd3c6dceb61ed9b5e8932f0165943ad43264a509c773e207d7017",
    "ring2|2": "c110d282c441c145001291db01ea1f02c80a83154c406088a2a62e8748b44121",
    "ring2|2:keep": "bb14e6ab774e6d94bbd17fc070ae1590c4d21ae17a5d2fa63b2b3e976a8b5091",
    "ring3|1": "31e5770e0c34516c68d98f2cb718235d841a2393e7c525c5ee2ded23dd44d815",
    "ring3|1:keep": "6cf079ce08b3dd5f6c2f2f47eda97d84791be503b58f1e0c1243d91312c0f57f",
    "ring3|2": "362c47dd0a96fea201d60073272fb0b490d4e2d84ea25a57b7bd195c945f445a",
    "ring3|2:keep": "acb8eb91552c5a1cff59990ad02039875960656cd269f59a64a2776d14906397",
    "ring3|3": "b7aea337a7190c6c261d5b3dbd235f5a803ef60e2c24fed9bb5d7aa5429fe37d",
    "ring3|3:keep": "9cc159d3a9bf60cae38431be4c383beeace3ec9e84b164d63ba0c0b7f9d47581",
    "ring4|1": "36cbb8ef850e6c9c5627a7cc3fe69ff9803bcd3b98db9e84e3de348a0c30d105",
    "ring4|1:keep": "2ad3bf42045c3781feaa62e0ba2b772ef64364be5d9194cba55553bb1dadf2a1",
    "ring4|2": "c8ace6550b3a2ad96d06e5d0a504e02688e114e0597c858175309f65b524235d",
    "ring4|2:keep": "da30166be753fa5e130f475baae765155117b834c7f62e49532b23b7fbd00dc2",
    "ring4|3": "496f26d16e2a6ec16303c489f902cfd8d4fa95c7922501e9bfd90202ddc31c8e",
    "ring4|3:keep": "2f60673d3ce0418cf7dee26a31344c0285e3184229cbdd12d33a4ab4385a4b79",
    "ring4|4": "d2d154a7bc27b69e112347fb5eb0496ece4c0c7f5f968de547be24b89cc0f1b2",
    "ring4|4:keep": "19fe1068e18b8ba7a61cc4881d07b2667bb054800372ddbc73304020b359099c",
    "ring5|1": "f0e3b12cfe86ae2f63cd2ea4a7ce4da8cbd2aff5c2d2fdc33b6e555b44c51988",
    "ring5|1:keep": "3536beaca176e0237def0b936494b66dc9ea498c89d89a8b69f7ff1114934c5e",
    "ring5|2": "f506acd730766e7793ece657ffb72252ce53dfedd76ea5d1155cc7244768de7d",
    "ring5|2:keep": "6c39277ffa5c6cc5859e1d6af75f260d5f3c7d14adfca5a2a40c9444537147f5",
    "ring5|3": "df898fff74c5cadd23ba9182354647d6461cd506b70f00ce72cfb9824104a69d",
    "ring5|3:keep": "9fb68e2d89a0659a1faeb1e75369b973293376f87a13ba3d092f99d43b9d7d7c",
    "ring5|4": "5552affe3e017fe70c129537188b73f082c7f0918f0503d86aec6e58fe011d25",
    "ring5|4:keep": "20f7e86fc50093fa71ba65b0151734fcad8cc93d029f3cbade7a6aa3c1f4d29e",
    "ring5|5": "ef2502570c4a295ccec67a1df24618377695850768196208e4abac8ee99ec044",
    "ring5|5:keep": "a3df6032dcc4359d279be3219e2ef02436c7e9e35791f5233ed5647baa86a1e5",
    "ring6|1": "ead1c9f19e034115086e2a9ea3807c9eed76b9a23b11bcdaa6c5314283f680d0",
    "ring6|1:keep": "d06fcf55a7ce1eadbd39459ec9f8bb172223dc219185ff26845b11852623c519",
    "ring6|2": "fa76d5ef498b78427c5efcc5693d1e4a2c536d31ec2f32abcd0f54b9c5bc79b2",
    "ring6|2:keep": "22676092ac622a86677b3d720eae29ed0e74e157ba32e97709edc844bec4ceac",
    "ring6|3": "bf10f82c161b59225f9004ffc57a609bfcc0af1aa5ca05842ad1f6a8bf501906",
    "ring6|3:keep": "6f3bc0d2d4b042cf1fba1d004b599657900ebbe7c9e04347b6a6c71ae9dba39d",
    "ring6|4": "4a2e4c83810931262734a8d689308dd26db74eb268bba264fdd932e9e52cc4e6",
    "ring6|4:keep": "8c4e7a05067774fe9052f6bc18a0f6f8f1953c88001d615149d30c834b2928d0",
    "ring6|5": "b66ba395ec1c9db4c9b79d336f9a43a9502f6111601b8d2914a724234b8afd31",
    "ring6|5:keep": "b163c1e2b3dda2f894669fb44cf680e53fc947ec4b98f411ed17ae8574a1e009",
    "ring6|6": "a427ab309ffb537cc0b7a2031f33d8ae8719f1401a906395851505258c42dc5d",
    "ring6|6:keep": "e756580954432610878829a62f9941258d37acb2fb887d469caee94cd4226034",
    "mutex2|1": "f9885445f677ccc915928df4000443cea63bb988d9100c6642e29e569e0d5807",
    "mutex2|2": "dcdbd07fdab3481e21d92f89af28fc81939f71dd73c28e02318a2129e7d379ad",
    "mutex3|1": "457182b685cf5def725c32f75bd0cd29fd1c9d93a2225ac9b5365202ff7d76d5",
    "mutex3|2": "bb9796b109977772477f3f96c26f84dc166a6d3d852da20abcb19c73a64089ad",
    "mutex3|3": "a50a66fc1e2aee89cb2f86d4fdce3c8d343a621d8c07442478f79d9b82d7c9ca",
    "mutex4|1": "80501f92a3251775041550ba595b88f437df5bbaa08aff9cfcbb541ca57de19a",
    "mutex4|2": "104e93414bb6ee205935838d4d9a39ed504db785cc2dbeb4a1169afbc58d1478",
    "mutex4|3": "de005d730728cfc3e765b8c7fbd3de5f3dfbfb8fb77c6502be9f9573b4976df2",
    "mutex4|4": "3a703790650fc81c1a4574f7bc62fbf0d2f241dc8ea1e2f6d5fa572eeadaa9b1",
    "fig41x1": "c22de2f8731061545e9d88adbe975fcc90950feb12b04c2d7cc33f64c1ce4a5e",
    "fig41x2": "1ba57723fe517cffe9ac528dc2b2d2f976b349df1f7046a9a892d9874b737259",
    "fig41x3": "5e3680291068b4deb5e913dd0cd375e77e2496897d06f374d04cc2c1728fee40",
    "fig41x4": "445e938674a38d79f6a0ff03d7d27450607beb9f45335d84630727910bc198b1",
    "interleaved": "de5ee419a06abe64d8242831588db2662a44d0b6acb03621130510cf6876f08d",
    "interleaved:3,7": "9e02d8043e2765c79bdae2968a5096c7245df708992551d658d1e2fed4f339c7",
    "synchronous": "1a060a6a7ad9c54dd4a5196f47f7848fcd3552b116243e0f76ca381a07c8dd2b",
    "interleaved:branching": "502222bbb24cda69bceaa8457b88192c2470ebcef059e1d044a61f39d03a95ab",
    "synchronous:branching": "12abfc0a6c5f6b43f09c17ab088dce5e8ada47f776febf12fc65874122788872",
}


def _toggle():
    return KripkeStructure(
        ["on", "off"],
        [("on", "off"), ("off", "on")],
        {"on": {"p"}, "off": {"q"}},
        "on",
        name="toggle",
    )


def _branching():
    return KripkeStructure(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "d"), ("d", "a")],
        {"a": set(), "b": {"p"}, "c": {"q"}, "d": {"p", "q"}},
        "a",
        name="branching",
    )


def _build(case):
    family, _, rest = case.partition(":")
    if family.startswith(("ring", "mutex")):
        name, index = family.split("|")
        if name.startswith("ring"):
            structure = build_token_ring(int(name[len("ring") :]))
        else:
            structure = build_mutex(int(name[len("mutex") :]))
        canonical = {"canonical_index": None} if rest == "keep" else {}
        return reduce_to_index(structure, int(index), **canonical)
    if family.startswith("fig41x"):
        return free_product(fig41_template(), int(family[len("fig41x") :]))
    product = {"interleaved": interleaved_product, "synchronous": synchronous_product}[family]
    if rest == "branching":
        return product([_branching(), _toggle()])
    if rest:
        return product([_toggle(), _toggle()], index_values=[int(v) for v in rest.split(",")])
    return product([_toggle(), _toggle()])


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_structure_digest_is_pinned(case):
    text = json.dumps(_build(case).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]
