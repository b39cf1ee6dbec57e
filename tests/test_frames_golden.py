"""Byte-identity of drawn frames.

The sha256 of the ``.curve`` and ``.svg`` that ``knotiso frames`` writes
for fixed times of the four filmed scenarios and of 1d_counterexample at
depth 20.  t = 0.3 lies in the first stage of the glued schedule, t = 0.8
in the third, and t = 1 is the limit; for fox_remarkable t = 1 is the tail
frame with the most candidate pairs, and the 100-segment 1d_counterexample
frames are the smallest curves the crossing search draws.  A change to densifying, mapping, the crossing search or
SVG emission that alters any byte fails here.
"""
import hashlib

import pytest

from knotiso.cli import RunConfig, cmd_frames

TIMES = (0.3, 0.8, 1.0)

GOLDEN = {
    "1d_counterexample": (
        ("71e615e50c76c5191d841c99421d764296b0283fe0e211776d00347e297d60c5", "618bc3e756de6e2d14b52ee0a87e44c1cfbe6d1b8da72fdb9a8159f1c71192de"),
        ("d053e16d375538db06221fc4d7721762b5c70a5631e809464b4e43d9ba430796", "875752719040a7f96b9bfc9be4d572cbbac669fc3a604ad9ab63c80fd24a72a5"),
        ("56d7f887766e8abef0765e8a67ef7bee9ec18750b3b12f0cab4b5c2507058d92", "aa10d0609523857ce890303b3d96013079117c83b9425d6f66da0941ad546f26"),
    ),
    "countable_r1": (
        ("7fdc8e12de29c27c06e506ab74e9bd2e6467421a541603a6548c228d2647e1dc", "074bd7b46999d8f06097075ad19841b527ff920e199de4e4d782d94c4e6be2e6"),
        ("1c0e3f656f1a0db68c7bfda6f2160282b7a3d2312944c526e41e3268e82b81a2", "c17fd48287f4fe547f4c896fcdf66f0aa01c8f0ab1defeeb61d7f9acacc6cd56"),
        ("2a60e0df27fe1593455e684e4001dc7e89bd48f826e2fce66f0fd2da0b13e778", "32b7f5e0818802d2687383b5be080e606f13f844c09f490585c40711cbf6f244"),
    ),
    "recursive_r1": (
        ("be879d6e2992d8df6d4c3db75462dbec0d1f956b75f6ee8d058dc9cb85175896", "ee35cc0bf53c94e65121b3f5be9ab99dccc8d32d39056b1c82f8e0044600f319"),
        ("36da3604efde6c9d8bdc46f52372b029e696caf63c09525309f745ff74dc9334", "2c0a987c6d3c361b506e9436d28caf3148b39b9e717a6168d7c361100f330ec0"),
        ("416bf258acf8f1da375b2f2f487474a294c8e5d9cf0afcdbbb4cf7cac28517cd", "46dbfd2fdc69f2f59f75de5ed08d000b0779ea48fdf1565df00ffa4c54ba2e6e"),
    ),
    "trefoil_chain": (
        ("39495f0b071a1fd58c59112c2ec6d8410deaa2d6a0c390f650dd0b88375575dc", "427854c375600d1be4367d894df0d2a803ac126a6a3843f7e05bad6fac796199"),
        ("b7d4dadbab9bcabe84eb750b34cf7ffe1004873522142d4569496440f760b583", "f14ee73edf2d23ceba9ed8d63fd9b15e74e711d16de3f18b7787ddda272c3ca1"),
        ("0aa0f4ea5ce83c6f49139a9014b5a20ecc86e8274264ca2d5d99140d8d5c165f", "1ffd19d072c4cc8c1c6587aabc4a6ad638003a3771cef17859cc74d340e81658"),
    ),
    "fox_remarkable": (
        ("4da8dc2e2d6afad44eff6d2902ebc09b14ef2904b7fc45a7187e252f54485f7f", "3168a042e3447a667bc0d24c2357b0732c7d7e2906bba6e70afaa63c9871db23"),
        ("5c7e4f6ce25241128b21c42ef54a8f42bd8f36c7d57ae0f2191eb231d9019407", "7cc81e2c4d94363e850b00a243025b0cfcabc04bca43be7bb9e1f3f3cd66cbe0"),
        ("b8ade8f47743a16663be5f29cb55e366437ef68191befeb0a69d7b6d7c8c7de0", "f762989ffe8cc39e8465f40d098dcd4ad02921491dc0b2617528af3893f0af8a"),
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frame_bytes(name, tmp_path):
    cfg = RunConfig(scenario=name, depth=20, seed=1, out=tmp_path, times=TIMES)
    assert cmd_frames(cfg) == 0
    got = tuple(
        (
            _sha256(tmp_path / f"{name}_frame_{i:03d}.curve"),
            _sha256(tmp_path / f"{name}_frame_{i:03d}.svg"),
        )
        for i in range(len(TIMES))
    )
    assert got == GOLDEN[name]
