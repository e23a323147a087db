"""A byte-level corpus for the CLI boundary.

Each call's exit code and the SHA-256 of its stdout were recorded before the
form reader moved onto the expression grammar and batch stopped re-reading
its own JSON, and must not move.  The corpus holds the eleven cli-cold calls
of perfbench/checks.py in text and in --json, and the renderers no other test
runs to completion: Q(t) classes, per-point batch lines, the quadric cases of
``monodromy --abstract 2``, a successful ``gw diagonalize``, plus Unicode,
spacing and ASCII variants of form input and output.
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
# run with QUADSING_ASCII=1
ASCII = [
    (["gw", "add", "<1,2>", "<-2>"], 0,
     "758f993059c459e6a29afa5f6e20098262fe214c8244a8c8c25820decb2e89f2"),
    (["milnor", "--vars", "x,y", "x^2 - y^3"], 0,
     "75082086d235d21f3a611e720709f52f20d0c6b6c1d550d7f013c9eae18fa5ac"),
]

CORPUS = [(*call, False) for call in CLI_COLD + CLI_COLD_JSON + RENDERERS]
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
