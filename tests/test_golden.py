"""Golden corpus: SHA-256 digests of CLI stdout and of the public names.

Each case runs ``kreinosc.cli.main(argv)`` in-process and compares the
digest of everything it printed on stdout with a recorded digest, so a
refactor that changes one output byte, one entry order or one counter
fails here.  The cases cover every command line example of the README
(``export --out`` in its stdout form, ``file:line.json`` read from a
line state written to a temporary directory), every preset exported at
depth 3 in all three formats, deformed sectors (quotient reports, exports
whose nodes carry eps polynomials up to degree 2, a dark scan), dark
scans of equal, charge-sharing and charge-disjoint sectors up to degree
5, and the package's ``__all__``.
"""

import hashlib
import shlex

import pytest

import kreinosc
from kreinosc.cli import main

# The alpha = 1 line vacuum written as two terms on one exponent, so the
# loader's accumulation is part of what the digest pins.
LINE_STATE = (
    '{"space": "1d", "label": "split vacuum", "terms": ['
    '{"exp": "-1", "coeff": [{"j": 0, "k": 0, "q": "1/2"}]}, '
    '{"exp": "-1", "coeff": [{"j": 2, "k": 0, "q": "1/4"}]}]}'
)

ALL_NAMES = "__all__"

GOLDEN = {
    # README command line examples
    "audit --bridge-depth 4": "4ce54ac692cf6c8aab9c01266fec2d26bb530264deb6e1e98b88be74279708aa",
    "spectrum --alpha 1 --n 5": "d77b03d30caec370852333762d08b25371ea7595a693ccd9a4d4eee7e39d9d09",
    "vacuum --alpha=-2": "e8150303be83316a2fb3a0fd7eb94a2d2311eb3c2898a8faad5f30c600fb786d",
    "inner --lhs psi0 --rhs psi0": "d6aa186a9724721f6e6c373dfa1b8c4ceb66785b3748c12f02f6ab4e0b64fe33",
    "inner --lhs eps:-1 --rhs eps:-1 --renorm": "6fc6e2d46a559b250d67b2e66d086f35488d2826e83b2269f07a419bb3900d93",
    "sector --preset vacuum --depth 3": "fbbdc551d5727388b3e21e74fdbc573619a32a2e89836ce3e723df6ab309765f",
    "gram --preset half-zbar --depth 2 --charge=-1/2": "9100759e0f2a9740f59806b3bffb6eaa30b4350dc2cf11c38b4beb3cbfd3009c",
    "gram --preset vacuum --depth 2": "34d0cb7f81164b78fa2a5dd63930315dec84949fd80eb4a4af6169311c5e8c5b",
    "dark --a vacuum --b half-zbar --depth 3 --degree 4": "354578a9005e015c2f19b532f4d5174f8702ba42a637f059d3518259e1ca9cb0",
    "localize --state omega:-1,0": "1f212dd6b722a914fde6e1b061a0c1264a24a69b4bf367f56eaa31d0909db9e7",
    "reduce --state omega:-3/2,0 --charge 3/2": "08429a209e16ab39011d2d44545511d1a858e3f99245a6a2e354825d152d26c1",
    'eval --expr "[b-+, b++]"': "7307ac3ab440cd23726f9fb2ad72913368c07cbad6e65724927a99309597dab5",
    'eval --expr "A+" --state file:line.json': "b876f50be7f14219e49040d2a10b3c4cb746fa278b0a0b70fc8a72f849d0bc33",
    'eval --expr "a+@1 a-@1"': "82807d1dadea1ddd64224563729484d4cb64677890bf12804e40b4734554cfd9",
    'eval --expr "(x D)^2"': "c512ca84b021390449caae8c3414859b6f5800a9cf95451605de6deff27fb652",
    'eval --expr "[H, b+-] - b+-"': "6c97ccb47bf678b7f9b17379a98c895ef287c3a4ba7216336d157bcb8496b240",
    # every preset exported at depth 3 (the README's vacuum dot export included)
    "export --preset vacuum --depth 3 --format dot": "69b7dc1ef7a2023f21a3ffc8656a535402f29bf9b77981939e4d88a163196339",
    "export --preset vacuum --depth 3 --format json": "fbbdc551d5727388b3e21e74fdbc573619a32a2e89836ce3e723df6ab309765f",
    "export --preset vacuum --depth 3 --format csv": "98533be5e4ac3d5991a1afe016cd9bacfac1d8568bbfc9b193707e962d20280a",
    "export --preset half-zbar --depth 3 --format dot": "96f131169fb4896d1e673d9bb6b4d44c603130a416dddc465d09cff66c4b1988",
    "export --preset half-zbar --depth 3 --format json": "cfd21f202e831120ebf001efaad263583efdbb3d5c3c702fb18c231f9c60aeb3",
    "export --preset half-zbar --depth 3 --format csv": "25d8c8f0021f6e25119cada102aad57d96d603aad29f9057ed9cf95af45c4ab7",
    "export --preset half-z --depth 3 --format dot": "6ef190cb8d4a792016ab81a4606825ca1e74561090fb7773f6bfec8ae557bfe1",
    "export --preset half-z --depth 3 --format json": "c9df26741006df91b21869809922eac45320614c629a488489b78714430bfa9d",
    "export --preset half-z --depth 3 --format csv": "91f5bcfaa093ff568865a8114c03a7e4cfcc61d430336aba3210b3b30fa7466c",
    # deformed sector: the full quotient report of the renormalized pairing
    "gram --seed eps:-1 --depth 3": "d4c67696a458be478bc08cd54af5adba27deb06455709d6690baa0e1576653ab",
    "gram --seed eps-conj:-1 --depth 3": "0d5f2b4eee1b29e1f8952e9b0221cd29be3e05c7d0c5ba240d067de7822282e4",
    # deformed sectors exported with eps polynomials up to degree 2, and a
    # dark scan that evaluates pairs of them
    "export --seed eps:-1 --depth 4 --format json": "94b6ffa91b478d60adda5c36b3363d0a8f5f5dd0983850650d5e86ddfd2770b8",
    "export --seed eps:-1 --depth 3 --format csv": "06fdbce280d2c8e8020bf593460128cc14b288c8e900dafdbb4c2d5a1c2e4a49",
    "export --seed eps-conj:-1 --depth 3 --format dot": "459575d03a6ee805b33cb8c8444e864c573a0b97fd092558a52ec56ee84089d9",
    "dark --a eps:-1 --b eps:-1 --depth 1 --degree 3": "1012a53d38974d02a2ae32f822a98b7197b4f607ed83ad986ed67f82d4a90822",
    # dark scans whose words repeat operators (commuting generators) and
    # whose images reach sector a only after several steps, or never
    "dark --a vacuum --b vacuum --depth 3 --degree 4": "e64de64a127c5c053b518cce6104c748d937e3b4a196dddfdd23f187922048b9",
    "dark --a half-zbar --b half-z --depth 2 --degree 4": "66c995ab7c8147523248e2b69422aeb0087fc96d506218336610f63a004070a8",
    "dark --a vacuum --b half-zbar --depth 2 --degree 5": "ae854f06eaae285d8fa6d72b661d1d1a2a19b79f2f7f06b393981b5dfa01d370",
    ALL_NAMES: "d03289ce933628c9f2d8ea56d495af54bac393ba07a2cb6de560d9692643d0e5",
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_output_digest(case, tmp_path, monkeypatch, capsys):
    if case == ALL_NAMES:
        out = "\n".join(kreinosc.__all__)
    else:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "line.json").write_text(LINE_STATE, encoding="utf-8")
        assert main(shlex.split(case)) == 0
        out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[case]
