"""One schema for every config dataclass: its declared field types."""

from __future__ import annotations

import dataclasses
import numbers
import typing

from .errors import ConfigError

# declared type -> (accepted type, its name in messages); a bool is neither
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          str: (str, "a str")}


class Config:
    """Base of the config dataclasses. Construction checks each field against
    its declared type (int, float, str or a nested Config), then runs `check`
    for ranges; `from_dict` and `to_dict` map from and to JSON objects."""

    def __post_init__(self):
        for name, tp in typing.get_type_hints(type(self)).items():
            kind, what = _KINDS.get(tp, (tp, f"a {tp.__name__}"))
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError(f"{type(self).__name__} value of the wrong type: "
                                  f"{name} must be {what}, got {v!r}")
        self.check()

    def check(self) -> None:
        """Raise ConfigError for a value out of its range."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d, at: str = ""):
        """A nested config takes a nested object, `at` being its path
        ("graph."); an unknown key is a ConfigError that names its path."""
        if not isinstance(d, dict):
            raise ConfigError(f"'{at[:-1] or cls.__name__}' must be a JSON object, "
                              f"not {type(d).__name__}")
        hints = typing.get_type_hints(cls)
        unknown = sorted(at + k for k in set(d) - set(hints))
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {unknown}")
        return cls(**{k: v if hints[k] in _KINDS else hints[k].from_dict(v, f"{at}{k}.")
                      for k, v in d.items()})
