"""Byte-identity of the scenario reports.

The sha256 of every registered scenario's report at depth 20 and 40
(horizon = depth, tol 1e-6, seed 1), as ``knotiso run`` writes it.  A
change that alters any report byte -- a verdict, a tail diameter, a probe
value's last digit -- fails here and has to re-pin the value on purpose.
"""
import hashlib

import pytest

from knotiso.cli import RunConfig, report_lines
from knotiso.scenarios import SCENARIO_BUILDERS

GOLDEN = {
    (20, "countable_r1"): "672fc2e622ad602feec8feb5357f69ec22194308816ec775eed4dcd16534350a",
    (20, "countable_r2_stage1"): "b6946e014f93940f5d239fb926bb4490a2d7443720f4a6a7cabebd8782427b9e",
    (20, "countable_r2_stage2"): "f1b50f41bf72015ceb32022cf15e9b8a366f737139438f66e06ef0eeda90bcee",
    (20, "recursive_r1"): "a65bd35cd78d8750205402e61fd083905dd9b74c568d1024b83d2e652b5abba6",
    (20, "trefoil_chain"): "5d227da8a8b00efecbcc577128ba44cda3994b744d9aec98329fdff890af3d89",
    (20, "trefoil_chain_extended"): "edaef3d11af745d37274bc69df0c3c373bf52b081e764b87f6c0d63946d51b5c",
    (20, "fox_remarkable"): "ead73f32426261db66dc3235222640b0befe12ebd7a478006122fb55e935e686",
    (20, "1d_counterexample"): "fc1fa3c750c1dcc90448d9886eca3c153fedf7c3c0bd8508f80005f11d624b04",
    (40, "countable_r1"): "e2991ce77479388e08a1151d46184afc7da55fb7e496ffd4d8cabc6f2963ce69",
    (40, "countable_r2_stage1"): "d057d9bd07b7c1663279de61a4f1f27f6339b853f97ac05d0258705cfb6dac3d",
    (40, "countable_r2_stage2"): "0a2e6304b049aca8b309bf4bc9458673f57a2b2abb6e268ca5cf2bdda97d2f6e",
    (40, "recursive_r1"): "3ca9ec132555fc2707cb72f2dee883233b716c1bce3e0876423c0edaeb1b6693",
    (40, "trefoil_chain"): "d660169b9b2f4960e947fad10091c9948abf65b7e9555738c562c323a37bf44c",
    (40, "trefoil_chain_extended"): "8cdc001aef6b0a73c666e2d35b7ec2aa2a0e02cd630aa98f8640d4872bc5cbef",
    (40, "fox_remarkable"): "356a3937c336d81cf3aa6b11344d840772f5f981d9e17d0d2fa0b7c93451f580",
    (40, "1d_counterexample"): "3731bf13a7dc89f96a973d7b424034d6e0328f00f705d56f26b29e5d9a34359d",
}


def test_every_scenario_is_pinned():
    assert {name for _, name in GOLDEN} == set(SCENARIO_BUILDERS)


@pytest.mark.parametrize("depth,name", sorted(GOLDEN))
def test_report_bytes(depth, name):
    cfg = RunConfig(scenario=name, depth=depth, horizon=depth, tol=1e-6, seed=1)
    lines, match = report_lines(SCENARIO_BUILDERS[name](), cfg)
    assert match
    body = ("\n".join(lines) + "\n").encode()
    assert hashlib.sha256(body).hexdigest() == GOLDEN[(depth, name)]
