"""REPRO_SERVE_* strict parsing and the ``repro.config`` table (S2)."""

from __future__ import annotations

import logging
import re
from pathlib import Path

import pytest

from repro import config
from repro.errors import ConfigError
from repro.serve.config import ServeConfig

SERVE_ROWS = [n for n in config.KNOBS if n.startswith("REPRO_SERVE_")]


def test_defaults_without_env(monkeypatch):
    for name in SERVE_ROWS + ["REPRO_TUNE"]:
        monkeypatch.delenv(name, raising=False)
    cfg = ServeConfig.from_env()
    assert cfg == ServeConfig()     # the table's defaults are the class's
    assert cfg.port == 8774
    assert cfg.deadline == 30.0
    assert cfg.degrade == "reject"
    assert cfg.burst >= 1


@pytest.mark.parametrize("var, value", [
    ("REPRO_SERVE_PORT", "not-a-port"),
    ("REPRO_SERVE_DEADLINE", "soon"),
    ("REPRO_SERVE_DEADLINE", "-3"),
    ("REPRO_SERVE_MAX_INFLIGHT", "0"),
    ("REPRO_SERVE_QPS", "fast"),
    ("REPRO_SERVE_RETRIES", "-1"),
    ("REPRO_SERVE_WORKERS", "many"),
])
def test_bad_serve_env_refuses_boot(monkeypatch, var, value):
    """The serve family is always strict: a typo names itself and
    raises before any socket is opened."""
    monkeypatch.setenv(var, value)
    with pytest.raises(ConfigError) as info:
        ServeConfig.from_env()
    assert info.value.variable == var
    assert value in str(info.value)


def test_bad_degrade_mode(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_DEGRADE", "explode")
    with pytest.raises(ConfigError) as info:
        ServeConfig.from_env()
    assert "explode" in str(info.value)


def _samples(row):
    """``(text, value)`` of one valid setting and the invalid texts."""
    low = row.minimum
    if row.kind == "flag":
        return ("1", True), []
    if row.kind == "str":
        return ("some/Path", "some/Path"), []
    if row.kind == "choice":
        return (row.choices[-1].upper(), row.choices[-1]), ["bogus"]
    if row.kind == "list":
        both = ",".join(reversed(row.choices))
        return (both + "," + row.choices[0], tuple(sorted(row.choices))), [
            "bogus", row.choices[0] + ",bogus"]
    bad = ["many"] + ([] if low is None else [str(low - 1)])
    if row.kind == "int":
        return (str((low or 0) + 3), (low or 0) + 3), bad + ["2.5"]
    return (str((low or 0) + 1.5), (low or 0) + 1.5), bad


@pytest.mark.parametrize("name", list(config.KNOBS))
def test_knob_row(monkeypatch, caplog, name):
    """Every row, under the one policy: unset / blank → default, values
    are stripped, an invalid value warns naming the variable (lenient)
    or raises ``ConfigError`` naming it (strict)."""
    row = config.KNOBS[name]
    monkeypatch.delenv("REPRO_STRICT_ENV", raising=False)
    monkeypatch.delenv(name, raising=False)
    assert config.get(name) == row.default
    for blank in ("", " ", "\t"):
        monkeypatch.setenv(name, blank)
        assert config.get(name) == row.default
    (text, value), invalid = _samples(row)
    for spelling in (text, f" {text}", f"{text} "):
        monkeypatch.setenv(name, spelling)
        got = config.get(name)
        assert got == value and type(got) is type(value), spelling

    if row.kind == "flag":
        for off in ("0", "0 ", " 0", "off", "NO", "False"):
            monkeypatch.setenv(name, off)
            assert config.get(name) is False, off
    for alias, meaning in row.aliases.items():
        monkeypatch.setenv(name, f" {alias.upper()} ")
        assert config.get(name) == meaning
    if row.zero:
        for zero in ("0", "0.0" if row.kind == "float" else "00", "off"):
            monkeypatch.setenv(name, zero)
            assert config.get(name) == (
                row.default if row.zero == "default" else None)

    for bad in invalid:
        monkeypatch.setenv(name, bad)
        if not row.strict:
            monkeypatch.delenv("REPRO_STRICT_ENV", raising=False)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro"):
                got = config.get(name)
            kept = tuple(p for p in bad.split(",") if p in row.choices)
            assert got == (kept if row.kind == "list" else row.default)
            assert any(name in r.getMessage() for r in caplog.records), bad
            monkeypatch.setenv("REPRO_STRICT_ENV", "1 ")
        with pytest.raises(ConfigError) as info:
            config.get(name)
        assert info.value.variable == name and bad in str(info.value)


def test_table_is_closed_and_is_readme(monkeypatch):
    # a misspelt name in src/ must not read as "unset"
    with pytest.raises(KeyError):
        config.get("REPRO_NO_SUCH")
    # a None default needs a README cell of its own
    assert all(r.shown for r in config.KNOBS.values() if r.default is None)
    # README's table is the generator's output: a row cannot be added,
    # retired or re-defaulted without the README saying so
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    region = re.search(
        r"<!-- repro.config:begin -->\n(.*?)\n<!-- repro.config:end -->",
        readme, re.S).group(1)
    assert region == config.readme_table()
