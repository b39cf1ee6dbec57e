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
        ("7afe48535d34658be1e44b83397d94ffd915a6b36912d80f6ba246b0de03657e", "3b802a9df214eada8842848c2a82e19069bb31856f5773508dddde9112b37c90"),
        ("6bcad3c95b8e74dd4a3157415b2529e41c93a67629d9cd6f390b72abadea6168", "afb25a57c78d7c86d8221035d56ac45a226f5fa75cab5b1325e0604a8fe394ed"),
        ("92e0313d03b6171ea44784fa06c9660076142a1453ab6538454801530cce2249", "dcf813aab1cb01a885fa7581558baf287240daa68dd36f3733908e5a887e2057"),
    ),
    "recursive_r1": (
        ("be879d6e2992d8df6d4c3db75462dbec0d1f956b75f6ee8d058dc9cb85175896", "ee35cc0bf53c94e65121b3f5be9ab99dccc8d32d39056b1c82f8e0044600f319"),
        ("36da3604efde6c9d8bdc46f52372b029e696caf63c09525309f745ff74dc9334", "2c0a987c6d3c361b506e9436d28caf3148b39b9e717a6168d7c361100f330ec0"),
        ("416bf258acf8f1da375b2f2f487474a294c8e5d9cf0afcdbbb4cf7cac28517cd", "46dbfd2fdc69f2f59f75de5ed08d000b0779ea48fdf1565df00ffa4c54ba2e6e"),
    ),
    "trefoil_chain": (
        ("f6dd6378cb3103163e20dde0ce4a2d0d2d61b1e85fd08fec94c2dbcc56f1e2d8", "c1f34d0c964be1587203474365ae1f3f12c35081b3770c9bed52dbca0ebd92e4"),
        ("d93ebb3e442809e6dfa14144758a7bdefab5276dab2c8e1e503b5fb5fe0a3ed5", "a68692703517e9a12a82d6c1e701a50257f2f4641582f506ec02c901be5c3a5c"),
        ("01fbacf3f0e7264427b791babd873d741371b4e1b4d242688436c878db328116", "90ddf806f234b975d7aec493ae2957108ce561d5d5f479be75d5de0aed04184c"),
    ),
    "fox_remarkable": (
        ("c75ac94859b03a0753d6b354f1fd1fc3c1dc8070b5a6cf32f79dfe749cc90034", "7115c6969a8b816546a672c456d2929decb969b53e83a61826e38322840b6aac"),
        ("e33f155951b0d00e3903371cc6b02380f47df6af8ca4ea78a64ff4cc262e150b", "0ef8383dfe62be3a930f71a1fa9014059a75f456ea9c5fe693ab7af275a975d7"),
        ("c4524f2f693273c6b33b686c87d28b8b2db713f52826a32a5a774a484122f7f7", "bf0109be6467c90c9de9f9dc2f474b9e4018dc54738f5a6205a47ac9d2fc030b"),
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
