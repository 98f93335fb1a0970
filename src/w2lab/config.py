"""Run settings: defaults that reproduce the acceptance suite, plus INI overrides.

The config file is plain key = value under named sections: ``[run]`` sets
:class:`RunSettings` itself and every other section one of its config fields
(``[rate_d1]``, ``[ci_d2]``, ...).  A key names a non-nested field of the
section's dataclass or of its ``SamplerSpec``; only ``out`` (``out_dir``) and
``sampler`` (``kind``) are renamed.  One parser reads every section, each value
as its field's declared type: a tuple splits on spaces or commas, a tuple of
tuples (``outcomes``) into rows on ``|``; a ``%`` is a literal character.  A
file that does not parse (no section header, a key or section given twice,
bytes that are not UTF-8), unknown sections (a non-empty ``[DEFAULT]``
included) or keys, and values a config rejects when it is built are usage
errors naming the offender, so they surface before any compute.  The one
root seed is ``[run] seed`` (or ``--seed``): every job derives its generators
from it and its own job path.
Running with no config file is the reference run.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union

from .experiments import (
    HalfspaceConfig,
    LowerExperimentConfig,
    RateExperimentConfig,
    SamplerSpec,
)

DEFAULT_SEED = 20260810
# the config keys that differ from the field they set, by field name
_KEY_FOR_FIELD = {"out_dir": "out", "kind": "sampler"}


class UsageError(ValueError):
    """Malformed CLI input or config file (exit code 2)."""


def _leg(cls, sampler: SamplerSpec):
    """A leg default: ``cls`` with ``sampler`` and its own defaults."""
    return field(default_factory=lambda: cls(sampler))


_RADEMACHER_1D = SamplerSpec("rademacher_product", 1, 1.0)
_BASIS_2D = SamplerSpec("scaled_basis", 2, 2.0**0.5)


@dataclass(frozen=True)
class RunSettings:
    seed: int = DEFAULT_SEED
    workers: int = 1
    out_dir: str = "out"
    verbosity: int = 1
    rate_d1: RateExperimentConfig = _leg(RateExperimentConfig, _RADEMACHER_1D)
    rate_d2: RateExperimentConfig = _leg(RateExperimentConfig, _BASIS_2D)
    lower_d1: LowerExperimentConfig = _leg(LowerExperimentConfig, _RADEMACHER_1D)
    lower_d2: LowerExperimentConfig = _leg(LowerExperimentConfig,
                                           SamplerSpec("scaled_basis", 2, 1.0))
    ci_d1: HalfspaceConfig = _leg(HalfspaceConfig, _RADEMACHER_1D)
    ci_d2: HalfspaceConfig = _leg(HalfspaceConfig, _BASIS_2D)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.out_dir:
            raise ValueError("the output directory (out, --out) must not be empty")

    def semantic_dict(self) -> dict:
        """Config echo without presentation fields (out dir, workers, verbosity).

        This is what gets hashed and embedded in artifacts: two runs that can
        produce different numbers must have different semantic dicts, and runs
        differing only in parallelism or destination must not.
        """
        d = dataclasses.asdict(self)
        for key in ("out_dir", "workers", "verbosity"):
            d.pop(key, None)
        return d


def _coerce(raw: str, declared):
    """Parse ``raw`` as the declared field type.

    ``Optional[T]`` parses as T; ``tuple[T, ...]`` splits into items on spaces
    or commas, or into rows on ``|`` when T is itself a tuple.
    """
    if typing.get_origin(declared) is Union:
        declared = next(t for t in typing.get_args(declared) if t is not type(None))
    if typing.get_origin(declared) is tuple:
        item = typing.get_args(declared)[0]
        rows = typing.get_origin(item) is tuple
        parts = raw.split("|") if rows else raw.replace(",", " ").split()
        return tuple(_coerce(p, item) for p in parts if p.strip())
    return declared(raw)


def _section_keys(obj) -> dict:
    """Config key -> (part, field, declared type) of the section configuring ``obj``.

    ``part`` is ``""`` for a field of ``obj``, ``"sampler"`` for one of its ``SamplerSpec``.
    """
    parts = {"": obj}
    if isinstance(getattr(obj, "sampler", None), SamplerSpec):
        parts["sampler"] = obj.sampler
    keys = {}
    for part, target in parts.items():
        for name, declared in typing.get_type_hints(type(target)).items():
            if not is_dataclass(getattr(target, name)):
                keys[_KEY_FOR_FIELD.get(name, name)] = (part, name, declared)
    return keys


def _apply_section(obj, section: str, items) -> object:
    keys = _section_keys(obj)
    updates = {"": {}, "sampler": {}}
    for key, raw in items:
        if key not in keys:
            raise UsageError(f"unknown key {key!r} in section [{section}]")
        part, name, declared = keys[key]
        updates[part][name] = _coerce(raw, declared)
    if updates["sampler"]:
        updates[""]["sampler"] = replace(obj.sampler, **updates["sampler"])
    return replace(obj, **updates[""])


def load_settings(path: Optional[str] = None, seed: Optional[int] = None,
                  workers: Optional[int] = None, out_dir: Optional[str] = None,
                  verbosity: Optional[int] = None) -> RunSettings:
    """Resolve settings: defaults <- config file <- CLI flags (strongest)."""
    settings = RunSettings()
    if path is not None:
        # no interpolation: a '%' in a value is a literal character
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            if not parser.read(path, encoding="utf-8"):
                raise UsageError(f"config file not found or unreadable: {path}")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot parse config file {path}: {exc}") from exc
        sub_configs = {f.name for f in fields(settings)
                       if is_dataclass(getattr(settings, f.name))}
        if parser.defaults():  # its keys would leak into every section
            raise UsageError("unknown config section [DEFAULT]")
        for section in parser.sections():
            if section != "run" and section not in sub_configs:
                raise UsageError(f"unknown config section [{section}]")
            obj = settings if section == "run" else getattr(settings, section)
            try:
                obj = _apply_section(obj, section, parser.items(section))
            except UsageError:
                raise
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value in section [{section}]: {exc}") from exc
            settings = obj if section == "run" else replace(settings, **{section: obj})
    flags = {"seed": seed, "workers": workers, "out_dir": out_dir, "verbosity": verbosity}
    try:
        settings = replace(settings, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise UsageError(f"bad command-line value: {exc}") from exc
    return settings
