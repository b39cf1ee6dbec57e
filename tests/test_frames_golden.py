"""Byte-identity of drawn frames.

The sha256 of the ``.curve`` and ``.svg`` that ``knotiso frames`` writes
for fixed times of the four filmed scenarios and of 1d_counterexample at
depth 20.  t = 0.3 lies in the first stage of the glued schedule, t = 0.8
in the third, and t = 1 is the limit; for fox_remarkable t = 1 is the tail
frame with the most candidate pairs, and the 100-segment 1d_counterexample
frames are the smallest curves the crossing search draws.  Each ``.svg``
draws every run of pieces between gaps as one ``<polyline>`` in a group
that flips y, its vertices printed from the cells the ``.curve`` is
written from.  A change to densifying, mapping, the crossing search or
SVG emission that alters any byte fails here.
"""
import hashlib

import pytest

from knotiso.cli import RunConfig, cmd_frames

TIMES = (0.3, 0.8, 1.0)

GOLDEN = {
    "1d_counterexample": (
        ("71e615e50c76c5191d841c99421d764296b0283fe0e211776d00347e297d60c5", "c9fe75774118bc5dc7bbc1c38fc4a7e17e4413cd32ad02a8b40687e4b9abbce1"),
        ("d053e16d375538db06221fc4d7721762b5c70a5631e809464b4e43d9ba430796", "c1904108f02a6c3731e388ce4e7964004feaa3c4143cb87cb3ffcc2dfd72a5d9"),
        ("56d7f887766e8abef0765e8a67ef7bee9ec18750b3b12f0cab4b5c2507058d92", "356f40cbc41ef90e92059f8b3aa20ec4f519062adcbb3282ea70135cf1f9d773"),
    ),
    "countable_r1": (
        ("7afe48535d34658be1e44b83397d94ffd915a6b36912d80f6ba246b0de03657e", "760a6e8fbed9b9cd4bcb35a94da4f4be33ae6c9247a60fa08b12f0fadfbbc371"),
        ("6bcad3c95b8e74dd4a3157415b2529e41c93a67629d9cd6f390b72abadea6168", "3b6e092bab701fcf7cafbdc8b3ad2c9f37635ed3a73cb5e63a4e3f3681722a1b"),
        ("92e0313d03b6171ea44784fa06c9660076142a1453ab6538454801530cce2249", "e94c7a5249ce30f0c151c88e5f120c92ecce8f5a247a76a10f64653efb73dbed"),
    ),
    "recursive_r1": (
        ("be5dd6cacca105167b023325e90980768ce8bfc5f2fa469201246ad04851b9f8", "bbf7bb700b5b9eb8596f34e75fe8e295e578241e649793ecaa35d209cce673d9"),
        ("473a04d02d60486ac624d7daac21e1131bdb2193442950eb69a6e886099e7f75", "7c6e3771651df506fc06206b3003e6de0c373654fd65e1ca572a2fd2fef3c931"),
        ("a19fa638dae318c0ab0503a0723fc96d3b5d2cec2afd650d956c1b1d33691a19", "b9ea4e53128929c3a7de72b7af2ea5b1f9cf2006ba230d6703e5bc13f4704cf2"),
    ),
    "trefoil_chain": (
        ("f6dd6378cb3103163e20dde0ce4a2d0d2d61b1e85fd08fec94c2dbcc56f1e2d8", "6f58b26f2c3449a48c9e5bac163c33f525137cbbbf1b5fd95e2166c6b53e7cab"),
        ("d93ebb3e442809e6dfa14144758a7bdefab5276dab2c8e1e503b5fb5fe0a3ed5", "2d00ec3154e66cf4fb132336bc7fdc99d0bec6dccfcd67a7fe5ae4961527d84e"),
        ("01fbacf3f0e7264427b791babd873d741371b4e1b4d242688436c878db328116", "63a442757aca6452696480fc52f9ddcaedefe516422fd292d9536d48e27a009c"),
    ),
    "fox_remarkable": (
        ("c75ac94859b03a0753d6b354f1fd1fc3c1dc8070b5a6cf32f79dfe749cc90034", "7af28df8e4e7950852f8b33f8faed9f7964720c43b2cfa1f6eb18861fff05cfc"),
        ("e33f155951b0d00e3903371cc6b02380f47df6af8ca4ea78a64ff4cc262e150b", "f226da37e711a63022ba389bd6fdb88b434f6bcf2a6fc137bc998c5cdf4f798c"),
        ("c4524f2f693273c6b33b686c87d28b8b2db713f52826a32a5a774a484122f7f7", "80ccea8754c36b0e8345dcb2333d1fa67db98ec9d30f36dc8f1ee7469661f953"),
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
