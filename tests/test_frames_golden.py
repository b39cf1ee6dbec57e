"""Byte-identity of drawn frames.

The sha256 of the ``.curve`` and ``.svg`` that ``knotiso frames`` writes
for fixed times of the four filmed scenarios at depth 20.  t = 0.3 lies in
the first stage of the glued schedule, t = 0.8 in the third, and t = 1 is
the limit; for fox_remarkable t = 1 is the tail frame with the most
candidate pairs.  A change to densifying, mapping, the crossing search or
SVG emission that alters any byte fails here.
"""
import hashlib

import pytest

from knotiso.cli import RunConfig, cmd_frames

TIMES = (0.3, 0.8, 1.0)

GOLDEN = {
    "countable_r1": (
        ("b47418f71ee057f1877ddf6aa334aed6881fdf473eb6afcf45285fc073caf15c", "6c17c216c3098c3870ace283d27e50021d991f55edd9945f876f43a085dc63e5"),
        ("e7bf9bad6b3625977eda71f152c84cd5b82696958145faf8576b9fa201eb74d6", "64ea833bd8aea41126a89c5eb33a8800879b785e005bd7e657ee90c8ddaa07d8"),
        ("c91837c371aa64ebf053ccf7d90099848019c4612d05ad3a7a6ca130ac17a1a2", "148ba7ddcc35f7df8959237f683d62cdd733e7b1e5dc508be1036e439b45fe5b"),
    ),
    "recursive_r1": (
        ("7fc3dbfbeb825820e4db449effb01c7f87a59cca29081644c4eae9ac0221021e", "8b054d012e094e6eee485b7655da9ef935bd456167593e84f0ed553f44f64ddd"),
        ("742322f260558f7785df1340565ef12c9fa59daaf1e48f269dacc9866dc8969b", "3bf1e450ff49559e357302193d79170f82d912fbfe83a9e50f9999b262a9f739"),
        ("bce62d262ac009a10292fb99c8d5baed1bed57b6dc2e4217bb1b227bd37643cf", "32da9081c4f6827215df503de0ee995f1f484545694463ed127039f8730e132d"),
    ),
    "trefoil_chain": (
        ("e35d994fa423bfdddaef0fa861547a10730464430159cc9f2c75660ab6ff3419", "ec2601d5588e7cf8112393b0682cedb2706c19d347b9e8506a315853fc59ed1c"),
        ("76102f4421cf51b59744c7f3825bedba1f8b658df0e54c467ddc21403126fb7b", "b5de37eee6a5bc5f709f2e63e7822f22d2689c1fe2f05daf6c19034645ac5045"),
        ("68f78d66a91ab8bef28bce086d459bb284b5123c91e25c6c934d28a6b5a91979", "100dbb689f0117f8c652983c472391b6889be31396cfd7ee1d75338b3a3489ca"),
    ),
    "fox_remarkable": (
        ("f05ceb234203eb65b9096c6543a383c79084e8543ae26b4bfc3736bb8434948d", "89331af936750a403f7fe794cbe07e3153ea58e077fcda241b2cbcc78384b41f"),
        ("109c384c0e337c439825f03a900a2433eb7ac888ede4fbe5b179bc9477ae0b38", "55b3b59773854c59f3cc0372f8ed990dfb5dc6c260e973a4152d67200f167051"),
        ("49169986729c4877d936abf2d5fdb1fa862127bbff95ef117106c501b4e6b2a0", "9114af274b1aa418fe609ae232459fe92a3352c45d3dab08f5a5a0722d1b3794"),
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
