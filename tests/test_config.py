"""Config round-trip, hashing, and rejection behavior."""

import pytest

from artifact import config


def test_defaults_validate():
    cfg = config.RunConfig().validate()
    assert cfg.edge == (1, 0)
    assert cfg.model.perturbation == "scalar"
    assert cfg.strip.delta_values == (0.08, 0.04, 0.02)


def test_json_round_trip_preserves_hash():
    cfg = config.RunConfig()
    again = config.from_json(cfg.to_json())
    assert again == cfg
    assert again.hash() == cfg.hash()
    # hash is a hex string of stable length
    assert len(cfg.hash()) == 16
    int(cfg.hash(), 16)


def test_hash_sensitive_to_any_knob():
    cfg = config.RunConfig()
    tweaked = cfg.with_updates(model=dict(wall_amplitude=3.5))
    assert tweaked.hash() != cfg.hash()
    tweaked2 = cfg.with_updates(edge=(2, 1))
    assert tweaked2.hash() != cfg.hash()


def test_partial_payload_fills_defaults():
    cfg = config.from_json('{"quasimode": {"mu": 0.3}}')
    assert cfg.quasimode.mu == 0.3
    assert cfg.quasimode.fast_cutoff == config.QuasimodeConfig().fast_cutoff
    assert cfg.model == config.ModelConfig()


def test_lists_become_tuples():
    cfg = config.from_json('{"strip": {"delta_values": [0.1, 0.05]}}')
    assert cfg.strip.delta_values == (0.1, 0.05)
    cfg2 = config.from_json('{"edge": [1, -1]}')
    assert cfg2.edge == (1, -1)


@pytest.mark.parametrize("payload", [
    '{"bogus": 1}',
    '{"model": {"nope": 2}}',
    '{"edge": [1]}',
    '{"edge": [1.5, 2.0]}',
    '{"model": {"perturbation": "banana"}}',
    '{"model": {"wall_kind": "cliff"}}',
    '{"strip": {"tau_samples": 64}}',
    '{"dirac1d": {"n_points": 10}}',
    '{"quasimode": {"delta_values": [-0.1]}}',
    '{"flow": {}}',
    'not json at all',
])
def test_bad_payloads_rejected(payload):
    with pytest.raises(config.ConfigError):
        config.from_json(payload)


def test_with_updates_validates():
    cfg = config.RunConfig()
    with pytest.raises(config.ConfigError):
        cfg.with_updates(model=dict(perturbation="banana"))
