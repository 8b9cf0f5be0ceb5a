"""Golden sweep gate: the CSV bytes of a small sweep matrix are pinned.

Each case runs `aggsim sweep --workers 1` on one small config and compares
the sha256 of the results CSV and of the summary CSV with a recorded
digest. A refactor that must not change the numbers keeps every digest; a
change that moves one has changed some sweep output bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from aggsim.cli import main

_MATRIX = {"N": [8], "K": [1, 2], "rho": [0.3, 0.7], "runs": 2,
           "n_events": 80, "avg_degree": 3}

# (scenario, mode, perturb_pct) -> (results sha256, summary sha256)
GOLDEN = {
    ("SPU", "none", 0.0): (
        "161d1dabd815a9f178391d9b1c6bb00f62cc0dcb4b5026630bb5cdae0a39b95b",
        "1dc4a19a5828c14364b2f50f036f770bb6110f8a4353ccd057815c844bce2dda",
    ),
    ("SHL", "none", 0.0): (
        "b808089ddd442af53012f0fa91317ccc4bdf9a8e7e3e829b3672a2ebb4512441",
        "ccd309703ddc07cf9e38654f5fd4d0268e8b7b50a89b5319e41155d7f19cdc3c",
    ),
    ("SPU", "full", 0.0): (
        "ced3403f70cb5568af333aebf4b08679c8d1feae4199233ee78bc29adfceec00",
        "a347378dd2e7a50e283c3173fb9a7013b751c448604446b4659f69aebabdaf54",
    ),
    ("SHL", "full", 0.0): (
        "3d81c0ce1d13c6412e52b71fcb928a2ca0a59698adabe85ea4ffbc7f51aeda4d",
        "0006a1f86aa4d1aee4149ae4e3d9d984c58d79b95557a88415d675703163ba96",
    ),
    ("SPU", "n1", 0.0): (
        "8ac0a6076e14c8f55c292dd06cd7c3afff9ecacbd30b06170c37b126218db532",
        "cf143635fad87384550dbb47c4953c45b832111f219f85b3eff9509e96592ac7",
    ),
    ("SHL", "n1", 0.0): (
        "1bb623b135d8d1eb5a7014f66f8e1fdc0a5ba00c51ade9bc4cbe7e9db239e415",
        "13b18d680029cd585f02c128e16f997accfd9e3054765d0528a7af63b0d5bc10",
    ),
    ("SPU", "n2", 0.0): (
        "35f6fe1ffbf5a89de19b5170bd597ec42f5fe8aa60c9b516bbbe737b3870e3db",
        "2250e7ece31fbc9f44b721b73e8b4561c54c9e857c0a843bc0a1341b619ca45b",
    ),
    ("SHL", "n2", 0.0): (
        "5e4ade28054e0410f8ffa9b01f707fa661dd7ce47961c7b4e0d686e1132bb884",
        "e7125fba816e2806978c6b21effe9ab327de715201a7bbf1a16b0699693ac869",
    ),
    ("ADV2", "none", 0.1): (
        "64e3601a70b09ac6044bcf862884ac7c32595d95c65dc8a1f600006c034ba9cf",
        "3e342d982b3e3cb04e4afc972f6f7deb5f9dacf0ae1610e0882e8f0d0dd7c9e9",
    ),
}

CASES = [
    (code, mode, 0.0)
    for mode in ("none", "full", "n1", "n2")
    for code in ("SPU", "SHL")
] + [("ADV2", "none", 0.1)]


def _sweep(tmp_path, code: str, mode: str, perturb_pct: float) -> tuple[str, str]:
    cfg = dict(_MATRIX, scenario=code, mode=mode, perturb_pct=perturb_pct)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    status = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                   "--workers", "1"])
    assert status == 0
    results = out.read_bytes()
    header, *rows = results.decode().splitlines()
    assert rows and all(row.endswith(",") for row in rows), "error rows"
    summary = (tmp_path / "out.summary.csv").read_bytes()
    return (hashlib.sha256(results).hexdigest(),
            hashlib.sha256(summary).hexdigest())


@pytest.mark.parametrize("code,mode,perturb_pct", CASES)
def test_sweep_bytes_match_golden(tmp_path, code, mode, perturb_pct):
    assert _sweep(tmp_path, code, mode, perturb_pct) == GOLDEN[
        (code, mode, perturb_pct)
    ]
