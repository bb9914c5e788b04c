import os
import re
import subprocess
import sys

import pytest

from dnprobe.config import ConfigError, load_config

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _write(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return str(p)


def test_defaults_resolve(tmp_path):
    cfg = load_config(_write(tmp_path, "[grid]\nh = 0.125\ndt = 0.125\n"))
    assert cfg.grid.dim == 2
    assert cfg.lam == 0.0
    assert cfg.x0 == (0.0, 0.5)
    assert cfg.tau_list == [0.2, 0.1, 0.05]


def test_unknown_section_named(tmp_path):
    with pytest.raises(ConfigError, match="solver"):
        load_config(_write(tmp_path, "[solver]\ntol = 1\n"))


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="stepsize"):
        load_config(_write(tmp_path, "[grid]\nstepsize = 0.1\n"))


def test_malformed_law_spec(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[material]\ngamma1 = trig_t:c0\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[material]\ngamma1 = trig_t:c0=abc\n"))


def test_law_spec_pi_literal(tmp_path):
    import math
    cfg = load_config(_write(
        tmp_path, "[material]\ngamma1 = trig_t:c0=2:c1=0.5:phase=pi/2\n"))
    assert cfg.law1.gamma(0.0, 0.0) == pytest.approx(2.5)
    assert math.isclose(cfg.law1.gamma(0.5, 0.0), 1.5)


def test_bad_perturb_target(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[material]\nperturb_target = sigma\n"))


def test_a_diag_length_check(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[material]\na_diag = 1,2,3\n"))


def test_hash_is_stable_and_sensitive(tmp_path):
    c1 = load_config(_write(tmp_path, "[grid]\nh = 0.125\n"))
    c2 = load_config(_write(tmp_path, "[grid]\nh = 0.125\n"))
    assert c1.hash == c2.hash
    c3 = load_config(_write(tmp_path, "[grid]\nh = 0.0625\n"))
    assert c3.hash != c1.hash
    # every key enters the hash: one changed value changes it
    hashes = {c1.hash}
    for values in c1.raw.values():
        for key, value in values.items():
            values[key] = value + "0"
            hashes.add(c1.hash)
            values[key] = value
    assert len(hashes) == 1 + sum(map(len, c1.raw.values()))


def test_hash_is_16_hex_digits_pinned_and_process_independent():
    # CRC-32 then Adler-32 of the canonical dump: pinned for the demo
    # config, so a change of algorithm or of the dump shows, and the same
    # under any PYTHONHASHSEED (no dict or set order leaks into it)
    demo = os.path.join(ROOT, "demos", "gamma.ini")
    digest = load_config(demo).hash
    assert re.fullmatch("[0-9a-f]{16}", digest)
    assert digest == "ea2549dfa673def7"
    code = f"from dnprobe.config import load_config; print(load_config({demo!r}).hash)"
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == digest


def test_law_family_perturbs_requested_target(tmp_path):
    cfg = load_config(_write(
        tmp_path, "[sweep]\neps_list = 0.1,0.2\n"
        "[material]\nperturb_target = rho\n"))
    fam = cfg.law_family
    assert [eps for eps, _ in fam] == [0.1, 0.2]
    pert, base = fam[1][1]
    assert pert.rho(0.5, 0.0) == pytest.approx(base.rho(0.5, 0.0) + 0.2)
    assert pert.gamma(0.5, 0.0) == base.gamma(0.5, 0.0)


def test_patch_interval_parsing(tmp_path):
    cfg = load_config(_write(
        tmp_path, "[grid]\nh = 0.0625\npatch_interval = 0.25:0.75\n"))
    assert cfg.grid.patch_lo == (4,)
    assert cfg.grid.patch_hi == (12,)
