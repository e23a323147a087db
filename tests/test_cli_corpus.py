"""A byte-level corpus for the CLI boundary.

Each call's exit code and the SHA-256 of its stdout were recorded before the
form reader moved onto the expression grammar and batch stopped re-reading
its own JSON, and must not move.  The corpus holds the eleven cli-cold calls
of perfbench/checks.py in text and in --json, and the renderers no other test
runs to completion: Q(t) classes, per-point batch lines, the quadric cases of
``monodromy --abstract 2``, a successful ``gw diagonalize``, plus Unicode,
spacing and ASCII variants of form input and output.  ``GW_ACTIONS`` was
recorded later, before the gw actions moved into one table: every action over
each field it reads, and the arity, field-label and matrix-shape errors.
``KERNEL`` was recorded before the Groebner, Hessian and normal-form kernel
moved from Fractions to integers: dense inputs whose bases reach large
coefficients, and inputs with rational coefficients.  ``HASSE`` was recorded
before the Hasse-Witt invariant moved from pairwise Hilbert symbols to its
closed form: forms in which several entries share an odd prime and several
are even, a virtual one among them, and an equal and an unequal partner.
``PAIRING`` was recorded before the middle piece's class came from the
trailing minors of its pairing block instead of a second elimination: the
dense octic, septic and ternary cubic, two inputs whose antidiagonal middle
takes the fallback through ``gw.diagonalize``, and a chain with declared
weights.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from quadsing import cli

BATCH_FILES = {
    "{bench}": [
        {"vars": ["x", "y"], "poly": "x^2 - y^2", "degree": 2},
        {"residue_field": "x^2+1", "milnor_form": "<1>", "degree": 2, "dimension": 1},
    ],
    "{mixed}": [
        {"vars": ["x", "y"], "poly": "x^2 - y^2", "degree": 2},
        {"residue_field": "x^2+1", "milnor_form": "<1>", "degree": 2, "dimension": 1},
        {"residue_field": "x^3-2", "milnor_form": ["<1>", "<x>"], "degree": 2, "dimension": 3},
        {"vars": ["x", "y", "z"], "poly": "x^2 + y^2 - 3*z^2", "degree": 2},
    ],
}

# the cli-cold calls of perfbench/checks.py, run there with --json
CLI_COLD = [
    (["milnor", "--vars", "x,y", "x^2 - y^3"], 0,
     "9bb13ffbd31848ad54c8afc29e83fea515a943d4f81992aeac3e19b0abad2e9d"),
    (["milnor", "--vars", "x,y", "x^12 - 2*y^13"], 0,
     "bd39097b3c0c51878ab8e2765bc43c675c5080dc6d89971ee26e631f04e863be"),
    (["conductor", "--vars", "x,y", "--degree", "2", "x^2 - y^2"], 0,
     "752a80fec64305db0f01d2882bfa97b20444e4f76744857bc6a03b0b1bdb5aa6"),
    (["gw", "equal", "<1,-1>", "<2,-2>"], 0,
     "84dbbf3449afa8aef5aa604e2b55b4f8624986ac2b980e7b9289702a8b5e3d53"),
    (["gw", "equal", "<1,1>", "<3,3>"], 0,
     "6f63e2dd9720abd281f961f102112b7127f3d4b26dd5c270e9efaba629026cc1"),
    (["gw", "invariants", "<2,3>"], 0,
     "fc346c4e2b45623c4cd80ae37bcb2b3be71a21212d187803abd81eddbde2b68a"),
    (["gw", "transfer", "--min-poly", "x^2+1", "<1>"], 0,
     "5f5e600d39cfcd7a00e1658b1033670ad3089cd7698a5e4b8fa3e5b1371419b5"),
    (["gw", "specialize", "<t*(1+t)/(2-t)>"], 0,
     "724e69aeba2c92f6bde782e5b11d406aa4df9e912033b8b83085687cb5bacaae"),
    (["euler", "--degree", "4", "--ambient", "3"], 0,
     "43fad8cc2aea5aa1c7804cbddabbe9c5ca3119194ded1e09e42fcd47ff2fe695"),
    (["monodromy", "--quadratic", "--dimension", "1"], 0,
     "94e5b51a854dcfc00314e2e5cd7c68212ec0f82d564186e029f28b5053b15485"),
    (["batch", "{bench}"], 0,
     "32446a0665f7c826e9e30807c68abf13316cc79b26c6ae849127720615c9f025"),
]
CLI_COLD_JSON = [
    (["milnor", "--vars", "x,y", "x^2 - y^3", "--json"], 0,
     "de2268024bbb223e2394955a840804224e4e74aa383cde9c6abe28214d41a2d9"),
    (["milnor", "--vars", "x,y", "x^12 - 2*y^13", "--json"], 0,
     "e77d907239104e5ecdb044aefa0ccd6f70de279558bcc18e04c63dcfb97093d7"),
    (["conductor", "--vars", "x,y", "--degree", "2", "x^2 - y^2", "--json"], 0,
     "b19504c551c25279dbbad58fcfc559101cc5ffb32661f6451c21dc02cb0e735c"),
    (["gw", "equal", "<1,-1>", "<2,-2>", "--json"], 0,
     "d9115dc79df0418b8037c3010e58ef04bc222dc5872c5d0a9de52824266ef747"),
    (["gw", "equal", "<1,1>", "<3,3>", "--json"], 0,
     "4aae1d68b05e56c76e01d2efb66a51026cd8e68428ef8292202722a2d9b0aa62"),
    (["gw", "invariants", "<2,3>", "--json"], 0,
     "8cc908943e6a5b3db6d387beb238ad36042d69ba8f341ed08acf73ee6732dd67"),
    (["gw", "transfer", "--min-poly", "x^2+1", "<1>", "--json"], 0,
     "5965f2dfaa007a030a0ae73489b3bae5542e730b9804194c6f65be1304da4007"),
    (["gw", "specialize", "<t*(1+t)/(2-t)>", "--json"], 0,
     "daf48df2e7739b3ee9936b70525d5a751998d4bb8af1b4fe33b70ff0bf37d1b5"),
    (["euler", "--degree", "4", "--ambient", "3", "--json"], 0,
     "da6f32388c8d72bdc6204272a60e669ce75d7df1654b853a7f15464e0e517411"),
    (["monodromy", "--quadratic", "--dimension", "1", "--json"], 0,
     "097ce96171905dd5b1722e8476e163a2ec22ab82215930419a4b19f7ae22b4e4"),
    (["batch", "{bench}", "--json"], 0,
     "ccd080793359966e5e6f3950155c8994c435be701d487b73e3c02de201599b99"),
]
RENDERERS = [
    (["gw", "add", "--field", "Qt", "<t, 1+t>", "⟨t*(1+t)/(2−t)⟩"], 0,
     "2560d8c260bfee3818e4de4dacb8bfbeaedd593fb14d3596f3d8f7e8d777b81a"),
    (["gw", "add", "--field", "Qt", "<t, 1+t>", "⟨t*(1+t)/(2−t)⟩", "--json"], 1,
     "74baf12d3006dfb5ed9ff2fd08cdfde860c432752fc3635aa98354932859f495"),
    (["gw", "mul", "--field", "Qt", "<-t^2/3>", "< 1/2 - t , t^3 >"], 0,
     "dd3435dd1fd165adf693ae80b173fdb5afa060393c18e43e655831144c0c8cea"),
    (["gw", "specialize", "⟨3*t^2⟩ − ⟨1 + t⟩"], 0,
     "2cea6f968a10bc2f44834d422c5e98d0b2ecd1915b815824f951ed77be19d28c"),
    (["gw", "transfer", "--min-poly", "x^3-2", "<1, x> - <x^2 + 1/2>"], 0,
     "fabc615cc44518057bdcf9260d806befd6b1697fdca0364ff2140eff9e887c25"),
    (["gw", "transfer", "--min-poly", "x^3-2", "<1, x> - <x^2 + 1/2>", "--json"], 0,
     "f9e0fc58a9f23c278a7992a870f1cd2291bc21e4b305ae1dca26ef74cce7f25f"),
    (["gw", "invariants", "< 1 , 2 >-<3>"], 0,
     "dc3c8ec10270bb86501bcf3a6eca14704e8b207240e03b4ab3bb039555829145"),
    (["gw", "equal", "⟨1,−1⟩", "0"], 0,
     "6f63e2dd9720abd281f961f102112b7127f3d4b26dd5c270e9efaba629026cc1"),
    (["gw", "invariants", "--field", "Fp:7", "<3, 5/2> - <6>", "--json"], 0,
     "9270e558380876b5d622c6ea3ec3d629334eca09b803ffe2fb29ee3f20132472"),
    (["gw", "add", "--field", "Fp:11", "<1,6> - <2>", "<2,2>"], 0,
     "da357ad5ea4dbf8777916af7f7956d52d3edf136be5a746491fdce9405484318"),
    (["gw", "diagonalize", "[[1,2],[2,3]]"], 0,
     "5f5e600d39cfcd7a00e1658b1033670ad3089cd7698a5e4b8fa3e5b1371419b5"),
    (["gw", "diagonalize", "[[1,2],[2,3]]", "--json"], 0,
     "b60277bc3b87911969017000f46d1d591e30c3df1a65083bf0e4a40b8ffb0c2b"),
    (["gw", "diagonalize", "[[\"1/2\",0],[0,3]]", "--field", "Fp:7"], 0,
     "7c6a31fe9f74ecb30717d73e22635d7787d24dc90bd172aced5dd6d6fb10b276"),
    (["monodromy", "--abstract", "2", "--dimension", "1"], 0,
     "8a8a8e934dce2db3c0bed18309519a3052aa0457fd2920336b28d7a077a8d61c"),
    (["monodromy", "--abstract", "2", "--dimension", "2"], 0,
     "04b3c751ae82baf713710265ceae5494fee1271b70603e216777de2cb3a6f8a8"),
    (["monodromy", "--abstract", "3", "--dimension", "2", "--json"], 0,
     "fd71c41b566c0678a4f2878f89241549ac2b9775bb9dc76cf46493c38d0063fe"),
    (["monodromy", "--kummer"], 0,
     "cae448f701a54cd2d09d69e210ad9cc3ac717e2ff7314007914b388c62f87198"),
    (["monodromy", "--kummer", "--json"], 0,
     "634a48fa745ca7208524acea748203cd19b07c47b446ff9f23cce647c54ea050"),
    (["monodromy", "--quadratic", "--dimension", "2"], 0,
     "79673f9c22188c7fb683fa26fd109d1fa10ba1cc0d99cd255022d3f19536766b"),
    (["batch", "{mixed}"], 0,
     "e2790dbcd3b49fd1508770427f128a4196845e013412847a7b71f5d3e42ec704"),
    (["batch", "{mixed}", "--json"], 0,
     "690b293eda0b5fadd150602b68097dcaaeabe2efdd24324366cd2c5cb0a76030"),
    (["milnor", "--vars", "x,y", "--weights", "3,2", "x^2*y + y^4"], 0,
     "84b8b92458347ae00e4aff6bfd5e25ee5ee807f06b1f3d911c0300dcf76d45c8"),
    (["conductor", "--vars", "x,y", "--weights", "3,2", "--degree", "6", "x^2 - y^3"], 0,
     "99f23e55bfea1b65794e5519f1c7aa13b8ebe701627a531e53436f6b272c60ef"),
    (["euler", "--quadric", "2"], 0,
     "3e14598656da3a6893fb26a1168e97283f9fcb572d3434fe50c7fb41f2f9f672"),
    (["euler", "--quadric", "2", "--json"], 0,
     "aa07478cf47acfe7b0320e440252a55a5089d0ef3728190c0f7c27e89238124b"),
    (["milnor", "--vars", "x,y", "x^2"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["milnor", "--vars", "x,y", "x^2", "--json"], 1,
     "33da632a0baef00b399d21e190fcb57110c89fc36c846e1b60a74958e4d8ff72"),
]
# every gw action in text and in --json over each field it reads, and its
# error envelopes; recorded before the actions moved into one table
GW_ACTIONS = [
    # add and mul over Q, F_p and Q(t)
    (["gw", "add", "<1,2>", "<-2, 3>"], 0,
     "58c79036c83797867fe6ddfce405c74c05c26d54b5f199875acc66478b598b71"),
    (["gw", "add", "<1,2>", "<-2, 3>", "--json"], 0,
     "3338147606ab92623081c77dae4ec90095f9980793dc9064ad04537a96e0b367"),
    (["gw", "mul", "<2,-3>", "<3> - <5>"], 0,
     "885040db7138615c17eab5a8f9aba7502aab29f7251bb4d839fc7f383405f2b7"),
    (["gw", "mul", "<2,-3>", "<3> - <5>", "--json"], 0,
     "dc48d4f2d96f163b00d7b3c49a6c21f59bae6e47859c4852088d8d6f51c31112"),
    (["gw", "add", "--field", "Fp:7", "<1,3>", "<3>"], 0,
     "0cf0cce49574b7daa33a1c74a5d826ec914a0abd3e87b11f7a587c62ac5149ea"),
    (["gw", "add", "--field", "Fp:7", "<1,3>", "<3>", "--json"], 0,
     "35a9d0bee83c583a8d41913da6babbc8f2e4557d770a0eda3f0210ec855b6648"),
    (["gw", "mul", "--field", "Fp:5", "<2>", "<2,3>"], 0,
     "4818252578b7053d36330fd32b5f63470bbee273a2a658c3908611b746e610a8"),
    (["gw", "mul", "--field", "Fp:5", "<2>", "<2,3>", "--json"], 0,
     "0b0a68f63b29d179e753469a732ccd953150e16e4d3e2e3eef5c468f7ac202cf"),
    (["gw", "mul", "--field", "Qt", "<-t^2/3>", "< 1/2 - t , t^3 >"], 0,
     "dd3435dd1fd165adf693ae80b173fdb5afa060393c18e43e655831144c0c8cea"),
    (["gw", "mul", "--field", "Qt", "<-t^2/3>", "< 1/2 - t , t^3 >", "--json"], 1,
     "74baf12d3006dfb5ed9ff2fd08cdfde860c432752fc3635aa98354932859f495"),
    # transfer along g of degree 1, 2 and 3
    (["gw", "transfer", "--min-poly", "x-3", "<x, 2>"], 0,
     "48f7e4e2fc0f1bb98be3925c921b6eed3152472e6835108b72df85dcaae9ea63"),
    (["gw", "transfer", "--min-poly", "x-3", "<x, 2>", "--json"], 0,
     "4d8094673100ad108d14aa1c63835dba2d5e7ed59f2a588cb36989e6f77eda6b"),
    (["gw", "transfer", "--min-poly", "x^2-2", "<1, x>"], 0,
     "4d64d422fe75ac763c5d5c9197f0e645f0c7658e1d85dedfec5f26c2df18c833"),
    (["gw", "transfer", "--min-poly", "x^2-2", "<1, x>", "--json"], 0,
     "528bf573347ab8a8659ad67a2909b23c8a52a394bdc18c5a6781a652999f7ba3"),
    (["gw", "transfer", "--min-poly", "x^3-x-1", "<1> - <x>"], 0,
     "1b3a8aa67fef6f58be15106d8d5911bdb89434ba30bd38df3f2f7dd87a0bbd52"),
    (["gw", "transfer", "--min-poly", "x^3-x-1", "<1> - <x>", "--json"], 0,
     "2fac025e97cc65c59eb959d51baf26929f7654c16830f9244fac4332982d505e"),
    # diagonalize over Q and F_p, zero diagonals and the empty matrix included
    (["gw", "diagonalize", "[[0,1],[1,0]]"], 0,
     "5f5e600d39cfcd7a00e1658b1033670ad3089cd7698a5e4b8fa3e5b1371419b5"),
    (["gw", "diagonalize", "[[0,1],[1,0]]", "--json"], 0,
     "5965f2dfaa007a030a0ae73489b3bae5542e730b9804194c6f65be1304da4007"),
    (["gw", "diagonalize", "[[0,1],[1,0]]", "--field", "Fp:7"], 0,
     "7c6a31fe9f74ecb30717d73e22635d7787d24dc90bd172aced5dd6d6fb10b276"),
    (["gw", "diagonalize", "[[0,1],[1,0]]", "--field", "Fp:7", "--json"], 0,
     "0696f88e9619d2d005cb668432d9ce0c17a2279bb44500eca40de083bb9c2605"),
    (["gw", "diagonalize", "[[0,3,1],[3,0,2],[1,2,0]]", "--field", "Fp:5"], 0,
     "75a91742171c74eae6ad03bb8550458d8abdec7e4d07bb7c47d59dc78e3410fb"),
    (["gw", "diagonalize", "[[0,3,1],[3,0,2],[1,2,0]]", "--field", "Fp:5", "--json"], 0,
     "07c91cd923c311b2be366c53901a9465a9943d6b5cf9ea3587b950bcb2dd1161"),
    (["gw", "diagonalize", "[[\"-1/2\",\"3\"],[3,\" 2 \"]]"], 0,
     "a726a055381db4901ec91ce23c2eee1648dd61cf48565ed70a7f709659604f4c"),
    (["gw", "diagonalize", "[[\"-1/2\",\"3\"],[3,\" 2 \"]]", "--json"], 0,
     "407133b70aac9a1e9c3606132b30ebc6a7e6feff737cb0d038765c27da6a0876"),
    (["gw", "diagonalize", "[]"], 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (["gw", "diagonalize", "[]", "--json"], 0,
     "d6b9276382e1c8247efed7bd8ef480d0daea4f7de0a2da21efef267bd37d8239"),
    # invariants, equal and specialize over the fields they read
    (["gw", "invariants", "--field", "Fp:5", "<2,3>"], 0,
     "3c238a8254303e4f61b930f924b411c3a3455ea007ee77fb0512796cf5bc265a"),
    (["gw", "invariants", "--field", "Fp:5", "<2,3>", "--json"], 0,
     "df3bb3c0c0bda6340b1c20d64c8ada77f2ea894fc18833ede91b4b7e1f611057"),
    (["gw", "invariants", "<-6, 10> - <15>"], 0,
     "603cbb5365eb20fb1ca679f71866ca25d3af227cb273b27955f0445255aca6a3"),
    (["gw", "invariants", "<-6, 10> - <15>", "--json"], 0,
     "45450815b475765d59af35f89633b694a551ceb87a814fda4606a83e91d5a4b1"),
    (["gw", "equal", "--field", "Fp:7", "<1,1>", "<3,5>"], 0,
     "84dbbf3449afa8aef5aa604e2b55b4f8624986ac2b980e7b9289702a8b5e3d53"),
    (["gw", "equal", "--field", "Fp:7", "<1,1>", "<3,5>", "--json"], 0,
     "d9115dc79df0418b8037c3010e58ef04bc222dc5872c5d0a9de52824266ef747"),
    (["gw", "equal", "--field", "Qt", "<t,-t>", "<1,-1>"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "equal", "--field", "Qt", "<t,-t>", "<1,-1>", "--json"], 1,
     "34276d103e86226676a7977e07b65c131eb208997a82a8775320f62f13f57eb7"),
    (["gw", "invariants", "--field", "Qt", "<t>"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "invariants", "--field", "Qt", "<t>", "--json"], 1,
     "adb5fd85621b04d169775f0907f09ba83f155e7a5faa8ccd3c4ae410f5a9328c"),
    (["gw", "specialize", "<-2*(1+t)> - <t^2/5>"], 0,
     "30ea96e548675552f7cd8aadc70132793f690676b9f43dc3487b81201d853ef0"),
    (["gw", "specialize", "<-2*(1+t)> - <t^2/5>", "--json"], 0,
     "5c42913071f4ab5cd8984e2ead0bc997e1dba71851c8eab54066046d5ae72a1a"),
    # arity, field-label and matrix-shape errors
    (["gw", "add", "<1>"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "add", "<1>", "--json"], 2,
     "a94af9f1c9e0e98fd7ecc1f807c15c708f8ad1b3f6b44c80330c9f3d1984fb48"),
    (["gw", "equal", "<1>", "<1>", "<2>"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "equal", "<1>", "<1>", "<2>", "--json"], 2,
     "f45fe2544c41c2ddfba0362a67757ec334d47d3a2564429ef7a536b7deff88a6"),
    (["gw", "diagonalize", "[[1]]", "[[2]]"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "diagonalize", "[[1]]", "[[2]]", "--json"], 2,
     "e26ae3f0b6beff77f4cf28f50b904809d8aca82dc048d3972082e7f847eac71d"),
    (["gw", "transfer", "<1>"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "transfer", "<1>", "--json"], 2,
     "c70f55cc568a859e04085be21d480481ee1950e2754c0485ec4efc14db4808ec"),
    (["gw", "invariants", "<1>", "--field", "R"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "invariants", "<1>", "--field", "R", "--json"], 2,
     "c8a4a03092b2ed4bcf27c02e3a12ec5f95db0d787dfa3be8b36582b4eba89ccf"),
    (["gw", "invariants", "<1>", "--field", "Fp:x"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "invariants", "<1>", "--field", "Fp:x", "--json"], 2,
     "979af192bd05f2089a3be021513d61b87142adf3defcefe1a195ea738fffda29"),
    (["gw", "add", "<1>", "<2>", "--field", "Fp:9"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "add", "<1>", "<2>", "--field", "Fp:9", "--json"], 2,
     "13735d58c78ce66953a11f2ce425875f5c7269fb39159a9813525e9744bd86c0"),
    (["gw", "diagonalize", "[[1,2],[2]]"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "diagonalize", "[[1,2],[2]]", "--json"], 2,
     "6f2c16e84bfc4c9c0e2769f4523198773c035446662181473db25c447b0f17cf"),
    (["gw", "diagonalize", "[[1,2],[3,4]]"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "diagonalize", "[[1,2],[3,4]]", "--json"], 2,
     "812b55f3b2fdc6538a5615d1f904f438cbdea35e12f08d00e573fd780c0a20b5"),
    (["gw", "diagonalize", "not json"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "diagonalize", "not json", "--json"], 2,
     "9f11c1ce223a895e8bea17a0c628cd1a8d6a8a6c7497b37966cea2aa8e86b9d3"),
    (["gw", "diagonalize", "[[1,2],[2,4]]"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "diagonalize", "[[1,2],[2,4]]", "--json"], 1,
     "2361ef8330110ece5348ce3b5e3ebd3732c820130695e3a8806c3238208b7d17"),
    (["gw", "diagonalize", "[[0,0],[0,0]]", "--field", "Fp:3"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gw", "diagonalize", "[[0,0],[0,0]]", "--field", "Fp:3", "--json"], 1,
     "e8035fdece3383db9ea63237041258be4163ce0843ed9495a507e02d46726769"),
]
# the large-coefficient path: the ROADMAP's reference inputs Q4 (a dense
# ternary quartic, mu = 27) and C4 (a dense quaternary cubic, mu = 16), and
# rational coefficients on the graded and the ungraded path; recorded before
# the exact kernel moved from Fractions to integers
KERNEL = [
    (["milnor", "--vars", "x,y,z",
      "-x^4 - 5*x^3*y - 4*x^2*y^2 + 5*x*y^3 + y^4 + 2*x^3*z - 2*x^2*y*z + 2*x*y^2*z"
      " - y^3*z + x^2*z^2 + 2*x*y*z^2 - 4*y^2*z^2 + 2*x*z^3 + 4*y*z^3 - z^4", "--json"], 0,
     "c61a72ea37939d1c12e114ff52fe54a79081ca7e0982d3bf6e67c444aab8c776"),
    (["milnor", "--vars", "x,y,z,w",
      "2*x^3 + 2*x^2*y + x*y^2 + y^3 - 5*x^2*z + x*y*z + 5*y^2*z + 2*x*z^2 + 2*y*z^2"
      " + 3*z^3 + 4*x^2*w - 5*x*y*w + 2*y^2*w - 4*x*z*w + 2*y*z*w - 4*z^2*w - 2*x*w^2"
      " - 4*y*w^2 + 4*z*w^2 + w^3", "--json"], 0,
     "255e067db5d3fc7b9e9b757f8aab3ca67f5f7db644af9d47358ab4cb55290c11"),
    (["milnor", "--vars", "x,y", "x^3/2 + 3*y^3/4", "--json"], 0,
     "463ea58e9bcd7c0e90c7e069932cbd067c60ce663ccc35ad6466f09ad0195c52"),
    (["milnor", "--vars", "x,y", "x^2/3 - y^3/2 + x*y^2/5", "--json"], 0,
     "40eac98cad7a29a041bd1e79e25a65baef714b736d57cbd26b170805e4509f2f"),
]
# Hasse invariants and equality over Q, recorded before the Hasse-Witt
# invariant moved to its closed form; the equal partner is <2,7> = <9,126>,
# <6,10> = <16,960> and square multiples, the unequal one swaps <2,-5> for
# <1,-10>, which keeps rank, signature and discriminant
HASSE = [
    (["gw", "invariants", "<2,6,10,-3,15,-5,7>"], 0,
     "d1b8828b14f88497c932eddb00e7f71116335d6328cd48c32fe84c701729fe67"),
    (["gw", "invariants", "<2,6,10,-3,15,-5,7>", "--json"], 0,
     "bd39d1a44c7bfebd9f6429293d1643690e752ef80b03c3bafc0020250245c33c"),
    (["gw", "invariants", "<2,6,10,-3,15,-5,7> - <-6,14>"], 0,
     "050352f7f73a49fd911b9285555e017c8c1eb7185b9c77457d98514b9d4299a1"),
    (["gw", "invariants", "<2,6,10,-3,15,-5,7> - <-6,14>", "--json"], 0,
     "39add48e71e9339f57be71b853887a67fc506f0f4cf0c021c62e8584b2742568"),
    (["gw", "equal", "<2,6,10,-3,15,-5,7>", "<126,-45,16,960,60,-12,9>"], 0,
     "84dbbf3449afa8aef5aa604e2b55b4f8624986ac2b980e7b9289702a8b5e3d53"),
    (["gw", "equal", "<2,6,10,-3,15,-5,7>", "<126,-45,16,960,60,-12,9>", "--json"], 0,
     "d9115dc79df0418b8037c3010e58ef04bc222dc5872c5d0a9de52824266ef747"),
    (["gw", "equal", "<2,6,10,-3,15,-5,7>", "<-40,6,7,25,135,10,-3>"], 0,
     "6f63e2dd9720abd281f961f102112b7127f3d4b26dd5c270e9efaba629026cc1"),
    (["gw", "equal", "<2,6,10,-3,15,-5,7>", "<-40,6,7,25,135,10,-3>", "--json"], 0,
     "4aae1d68b05e56c76e01d2efb66a51026cd8e68428ef8292202722a2d9b0aa62"),
]
# graded inputs, recorded before the middle class moved to the trailing
# minors of the pairing block: the octic (middle A_6 of size 7), the septic
# (A_5, size 6), the cubic (odd socle degree, no middle), x^3 + y^3 and
# x^25 + y^25 (antidiagonal middles, which keep gw.diagonalize), and a chain
# with declared weights
PAIRING = [
    (["milnor", "--vars", "x,y",
      "2*x^8 + 2*x^7*y + 2*x^6*y^2 - x^5*y^3 - x^4*y^4 + 2*x^3*y^5 - x^2*y^6 - 2*x*y^7"
      " + 2*y^8", "--json"], 0,
     "81374639281179371d08f44addf78ddc651eeffe205a7ccde701af75c52a52a5"),
    (["milnor", "--vars", "x,y",
      "-x^7 - 2*x^6*y - 3*x^5*y^2 + 2*x^4*y^3 + 3*x^3*y^4 + 3*x^2*y^5 - 3*x*y^6 + 2*y^7",
      "--json"], 0,
     "2a2c186ae401c8b0e4d5b712f00464ca1f61dcf7172b2ff817f5570584097e1a"),
    (["milnor", "--vars", "x,y,z",
      "4*x^3 + 6*x^2*y - 4*x^2*z - 9*x*y^2 + 8*x*y*z - 7*x*z^2 - 8*y^3 - 8*y^2*z"
      " - 3*y*z^2 - 2*z^3", "--json"], 0,
     "03ee81544ddb86fdbe2791495a41b4d81b8b840cbfb965a8e12dbe926de6fa68"),
    (["milnor", "--vars", "x,y", "x^3 + y^3", "--json"], 0,
     "0a95eb6c810add6441458f384bd5658f04347ae56b83361f2af36187c427d464"),
    (["milnor", "--vars", "x,y", "x^25 + y^25", "--json"], 0,
     "82a2bcbed402c5573f1af27e71080b68645795372f5cd614d3e142e0f795ac83"),
    (["milnor", "--vars", "x,y", "--weights", "3,2", "--degree", "8", "x^2*y + y^4",
      "--json"], 0,
     "e03c9bc1d09d36325f653a1fc0d606ac350e1c5c761405ba211666d72d091d03"),
]
# run with QUADSING_ASCII=1
ASCII = [
    (["gw", "add", "<1,2>", "<-2>"], 0,
     "758f993059c459e6a29afa5f6e20098262fe214c8244a8c8c25820decb2e89f2"),
    (["milnor", "--vars", "x,y", "x^2 - y^3"], 0,
     "75082086d235d21f3a611e720709f52f20d0c6b6c1d550d7f013c9eae18fa5ac"),
]

CORPUS = [
    (*call, False)
    for call in CLI_COLD + CLI_COLD_JSON + RENDERERS + GW_ACTIONS + KERNEL + HASSE + PAIRING
]
CORPUS += [(*call, True) for call in ASCII]


@pytest.mark.parametrize(
    "argv, code, digest, ascii_", CORPUS, ids=[" ".join(c[0]) for c in CORPUS]
)
def test_stdout_and_exit_code_are_pinned(tmp_path, monkeypatch, argv, code, digest, ascii_):
    files = {}
    for name, doc in BATCH_FILES.items():
        path = tmp_path / (name.strip("{}") + ".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        files[name] = str(path)
    if ascii_:
        monkeypatch.setenv("QUADSING_ASCII", "1")
    else:
        monkeypatch.delenv("QUADSING_ASCII", raising=False)
    out = io.StringIO()
    assert cli.run([files.get(a, a) for a in argv], stdout=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
