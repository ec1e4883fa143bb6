import dataclasses

import pytest

from kdalign.config import SCHEMA, load_config, write_effective_config
from kdalign.errors import ConfigError


def test_defaults_are_the_dataclass_defaults():
    expected = {
        section: {f.name: f.default for f in dataclasses.fields(cls)}
        for section, cls in SCHEMA.items()
    }
    assert load_config() == expected


def test_settable_value_count_is_pinned():
    # A new key needs two existing callers that need different values of it;
    # a value the code can work out from its inputs is worked out instead.
    # Raise this count only with such a key, and lower it as keys go.
    assert sum(len(dataclasses.fields(cls)) for cls in SCHEMA.values()) == 44


def test_every_key_has_help_text():
    for section, cls in SCHEMA.items():
        for f in dataclasses.fields(cls):
            assert f.metadata["help"].strip(), f"[{section}] {f.name}"


def test_every_bad_value_is_named_in_one_error(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text(
        "[model]\nkind = foo\nhidden = 4,0\n"
        "[ot]\ntol = -1\nunrolled = true\n"
        "[train]\nepochs = x\nlambda_grid = 1,-2\not_enabled = false\n"
        "[eval]\nseeds =\n"
        "[bogus]\na = 1\n"
    )
    with pytest.raises(ConfigError) as exc:
        load_config(str(ini), [("model.dropout_first", "1.5"), ("nodot", "1")])
    message = str(exc.value)
    assert "\n" not in message
    for part in (
        "[model] kind must be one of mlp, resnet, got 'foo'",
        "[model] hidden entries must be >= 1, got '4,0'",
        "[model] dropout_first must be < 1, got 1.5",
        "[ot] tol must be >= 0",
        "unknown key [ot] unrolled",
        "[train] epochs: invalid literal",
        "[train] lambda_grid entries must be >= 0",
        "unknown key [train] ot_enabled",
        "[eval] seeds must not be empty",
        "unknown section [bogus]",
        "override 'nodot' is not of the form section.key",
    ):
        assert part in message


@pytest.mark.parametrize(
    "text",
    [
        "no section header\n",
        "[train]\nepochs\n",
        "[train]\nepochs = 1\nepochs = 2\n",
        "[data]\npath = a%b.csv\n",
        "\xff\xfe",
    ],
    ids=["no-header", "no-value", "duplicate-key", "bad-interpolation", "not-utf8"],
)
def test_malformed_ini_is_one_config_error(tmp_path, text):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError) as exc:
        load_config(str(ini))
    assert str(ini) in str(exc.value) and "\n" not in str(exc.value)


def test_effective_config_loads_back_to_the_same_dict(tmp_path):
    overrides = [
        ("rules.feature_indices", "0,2"),
        ("model.kind", "resnet"),
        ("model.head_hidden", ""),
        ("ot.tol", "1e-9"),
        ("ot.anomaly_mass_boost", "2.5"),
        ("train.lambda_grid", "0.5,2"),
        ("train.standardize", "no"),
        ("eval.noise_ratios", "0.1"),
    ]
    cfg = load_config(None, overrides)
    write_effective_config(cfg, tmp_path)
    again = load_config(str(tmp_path / "effective_config.ini"))
    assert again == cfg
    assert again["train"]["standardize"] is False and again["ot"]["tol"] == 1e-9
