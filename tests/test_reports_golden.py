"""Byte-identity of the scenario reports and curve snapshots.

The sha256 of every registered scenario's report and ``.curve`` snapshot
at depth 20 and 40 (horizon = depth, tol 1e-6, seed 1), as ``knotiso
run`` writes them.  A change that alters any report byte -- a verdict, a
tail diameter, a probe value's last digit -- or any snapshot coordinate
fails here and has to re-pin the value on purpose.  The snapshots also
pin the initial curves, which the reports do not read.
"""
import hashlib

import pytest

from knotiso.cli import RunConfig, cmd_run, report_lines
from knotiso.scenarios import SCENARIO_BUILDERS

GOLDEN = {
    (20, "countable_r1"): "672fc2e622ad602feec8feb5357f69ec22194308816ec775eed4dcd16534350a",
    (20, "countable_r2_stage1"): "b6946e014f93940f5d239fb926bb4490a2d7443720f4a6a7cabebd8782427b9e",
    (20, "countable_r2_stage2"): "f1b50f41bf72015ceb32022cf15e9b8a366f737139438f66e06ef0eeda90bcee",
    (20, "recursive_r1"): "946e52233458686025f749055652846a6f69cc079aa3fa7925108db0035f0bde",
    (20, "trefoil_chain"): "5d227da8a8b00efecbcc577128ba44cda3994b744d9aec98329fdff890af3d89",
    (20, "trefoil_chain_extended"): "edaef3d11af745d37274bc69df0c3c373bf52b081e764b87f6c0d63946d51b5c",
    (20, "fox_remarkable"): "ead73f32426261db66dc3235222640b0befe12ebd7a478006122fb55e935e686",
    (20, "1d_counterexample"): "562aa71facde5b2b76ed9ce3a838afa1c4b86fb0be8ac0b5f24cb592a4f42150",
    (40, "countable_r1"): "e2991ce77479388e08a1151d46184afc7da55fb7e496ffd4d8cabc6f2963ce69",
    (40, "countable_r2_stage1"): "d057d9bd07b7c1663279de61a4f1f27f6339b853f97ac05d0258705cfb6dac3d",
    (40, "countable_r2_stage2"): "0a2e6304b049aca8b309bf4bc9458673f57a2b2abb6e268ca5cf2bdda97d2f6e",
    (40, "recursive_r1"): "e05f04b98a9cf7d2cf6c421500f6ebd38fd2e40dda2bf054de1b0f020c9c31ac",
    (40, "trefoil_chain"): "d660169b9b2f4960e947fad10091c9948abf65b7e9555738c562c323a37bf44c",
    (40, "trefoil_chain_extended"): "8cdc001aef6b0a73c666e2d35b7ec2aa2a0e02cd630aa98f8640d4872bc5cbef",
    (40, "fox_remarkable"): "356a3937c336d81cf3aa6b11344d840772f5f981d9e17d0d2fa0b7c93451f580",
    (40, "1d_counterexample"): "77c59a2c871488905ba37288626e0e17c2e0ed9f9b822eb0515455ddc867b43e",
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


# most streams have untied every loop by depth 20, so their depth-20 and
# depth-40 snapshots agree
SNAPSHOTS = {
    (20, "countable_r1"): "e10037c37f935cdf5e98ed9faa46b95a8be8189cda8d806d52ccc637e6470fbd",
    (20, "countable_r2_stage1"): "9021af26b81594bbc9d238fc771598a5ea2fad88641043bdaae683f68b1474fd",
    (20, "countable_r2_stage2"): "0f153778e5dc6ce611bc30b1d2bb2d412dfe9b6f9f18f8c1f13307b5384d2153",
    (20, "recursive_r1"): "b4cc1160355ff6ff907006215bbc4d519b652bcd85dac6f370513daa5ccb5bad",
    (20, "trefoil_chain"): "f0fe8e8ce53f10a0189f0980b3f7a7bc384d7c23061b63ea0822c37dace70887",
    (20, "trefoil_chain_extended"): "c519f03de81a74191967ff7e9fb6f9754218d56cae1c1e7f3caf10ca5c903a39",
    (20, "fox_remarkable"): "298d687760bd1aa98447eee15c47e1e2effa3f6f3d49a2ded4065c032d93b1bc",
    (20, "1d_counterexample"): "c53fab6d190faaedec62e0c6213504ce03d97c104ea9a59c8d8d8ff499f04685",
    (40, "countable_r1"): "e10037c37f935cdf5e98ed9faa46b95a8be8189cda8d806d52ccc637e6470fbd",
    (40, "countable_r2_stage1"): "9021af26b81594bbc9d238fc771598a5ea2fad88641043bdaae683f68b1474fd",
    (40, "countable_r2_stage2"): "0f153778e5dc6ce611bc30b1d2bb2d412dfe9b6f9f18f8c1f13307b5384d2153",
    (40, "recursive_r1"): "b4cc1160355ff6ff907006215bbc4d519b652bcd85dac6f370513daa5ccb5bad",
    (40, "trefoil_chain"): "f0fe8e8ce53f10a0189f0980b3f7a7bc384d7c23061b63ea0822c37dace70887",
    (40, "trefoil_chain_extended"): "c519f03de81a74191967ff7e9fb6f9754218d56cae1c1e7f3caf10ca5c903a39",
    (40, "fox_remarkable"): "55e45088eab83c1f4a941d37e245fac0f2138562bbccb5d612a101718eb1d25e",
    (40, "1d_counterexample"): "c53fab6d190faaedec62e0c6213504ce03d97c104ea9a59c8d8d8ff499f04685",
}


def test_every_snapshot_is_pinned():
    assert set(SNAPSHOTS) == set(GOLDEN)


@pytest.mark.parametrize("depth,name", sorted(SNAPSHOTS))
def test_snapshot_bytes(depth, name, tmp_path):
    cfg = RunConfig(scenario=name, depth=depth, horizon=depth, tol=1e-6, seed=1, out=tmp_path)
    assert cmd_run(cfg) == 0
    snapshot = (tmp_path / f"{name}_{depth}_1.curve").read_bytes()
    assert hashlib.sha256(snapshot).hexdigest() == SNAPSHOTS[(depth, name)]
