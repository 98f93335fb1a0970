"""Run settings: defaults that reproduce the acceptance suite, plus INI overrides.

The config file is plain key = value under named sections; every key maps
onto a field of one of the experiment/checker config dataclasses and is
coerced to that field's type.  Unknown sections or keys and values a config
rejects when it is built are usage errors with the offending name in the
message, so they surface before any compute.  The one root seed is
``RunSettings.seed`` (``[run] seed`` or ``--seed``); no section carries a seed
of its own, because every job derives its generators from the root seed and
its own job path.  Defaults reproduce the full verification suite, so running
with no config file is the reference run.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

from .checks import CheckSuiteConfig
from .experiments import (
    HalfspaceConfig,
    LowerExperimentConfig,
    RateExperimentConfig,
    SamplerSpec,
)

DEFAULT_SEED = 20260810
N_GRID_DEFAULT = tuple(2**k for k in range(4, 13))


class UsageError(ValueError):
    """Malformed CLI input or config file (exit code 2)."""


@dataclass(frozen=True)
class RunSettings:
    seed: int = DEFAULT_SEED
    workers: int = 1
    out_dir: str = "out"
    verbosity: int = 1
    calibration_m: int = 10**5
    check: CheckSuiteConfig = field(default_factory=CheckSuiteConfig)
    rate_d1: RateExperimentConfig = field(
        default_factory=lambda: RateExperimentConfig(
            sampler=SamplerSpec("rademacher_product", 1, 1.0),
            n_grid=N_GRID_DEFAULT,
            replicas=10,
            m=10**5,
        )
    )
    rate_d2: RateExperimentConfig = field(
        default_factory=lambda: RateExperimentConfig(
            sampler=SamplerSpec("scaled_basis", 2, 2.0**0.5),
            n_grid=N_GRID_DEFAULT,
            replicas=3,
            m=3000,
        )
    )
    lower_d1: LowerExperimentConfig = field(
        default_factory=lambda: LowerExperimentConfig(
            sampler=SamplerSpec("rademacher_product", 1, 1.0),
            n_grid=(64, 256, 1024, 4096),
            m_w2=10**5,
            m_proxy=2 * 10**5,
        )
    )
    lower_d2: LowerExperimentConfig = field(
        default_factory=lambda: LowerExperimentConfig(
            sampler=SamplerSpec("scaled_basis", 2, 1.0),
            n_grid=(64, 256, 1024, 4096),
            m_w2=3000,
            m_proxy=2 * 10**5,
        )
    )
    ci_d1: HalfspaceConfig = field(
        default_factory=lambda: HalfspaceConfig(
            sampler=SamplerSpec("rademacher_product", 1, 1.0),
            n_grid=N_GRID_DEFAULT,
            m=10**5,
            directions=16,
        )
    )
    ci_d2: HalfspaceConfig = field(
        default_factory=lambda: HalfspaceConfig(
            sampler=SamplerSpec("scaled_basis", 2, 2.0**0.5),
            n_grid=N_GRID_DEFAULT,
            m=10**5,
            w2_m=3000,
            directions=16,
        )
    )

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.calibration_m < 1:
            raise ValueError(f"calibration_m must be >= 1, got {self.calibration_m}")

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
    """Parse ``raw`` as the declared field type (``Optional[T]`` parses as T)."""
    kind = next((t for t in typing.get_args(declared) if t is not type(None)), declared)
    if kind is tuple:
        return tuple(int(p) for p in raw.replace(",", " ").split())
    if kind in (int, float):
        return kind(raw)
    return raw


def _parse_outcomes(raw: str) -> tuple:
    """Rows separated by '|', coordinates by spaces/commas."""
    rows = [r for r in raw.split("|") if r.strip()]
    return tuple(
        tuple(float(v) for v in row.replace(",", " ").split()) for row in rows
    )


def _apply_section(obj, section: str, items) -> object:
    sampler_keys = {}
    updates = {}
    declared = typing.get_type_hints(type(obj))
    for key, raw in items:
        if key == "sampler":
            sampler_keys["kind"] = raw.strip()
            continue
        if key == "dim":
            sampler_keys["dim"] = int(raw)
            continue
        if key == "scale":
            sampler_keys["scale"] = float(raw)
            continue
        if key == "outcomes":
            sampler_keys["outcomes"] = _parse_outcomes(raw)
            continue
        if key == "probs":
            sampler_keys["probs"] = tuple(
                float(v) for v in raw.replace(",", " ").split()
            )
            continue
        if key not in declared:
            raise UsageError(f"unknown key {key!r} in section [{section}]")
        updates[key] = _coerce(raw, declared[key])
    if sampler_keys:
        if "sampler" not in declared:
            raise UsageError(f"section [{section}] does not take a sampler block")
        base = obj.sampler
        updates["sampler"] = SamplerSpec(
            kind=sampler_keys.get("kind", base.kind),
            dim=sampler_keys.get("dim", base.dim),
            scale=sampler_keys.get("scale", base.scale),
            outcomes=sampler_keys.get("outcomes", base.outcomes),
            probs=sampler_keys.get("probs", base.probs),
        )
    return replace(obj, **updates)


def _apply_run(settings: RunSettings, items) -> RunSettings:
    """Apply the ``[run]`` section's key/value pairs to ``settings``."""
    for key, raw in items:
        if key == "seed":
            settings = replace(settings, seed=int(raw))
        elif key == "workers":
            settings = replace(settings, workers=int(raw))
        elif key == "out":
            settings = replace(settings, out_dir=raw.strip())
        elif key == "verbosity":
            settings = replace(settings, verbosity=int(raw))
        elif key == "calibration_m":
            settings = replace(settings, calibration_m=int(raw))
        else:
            raise UsageError(f"unknown key {key!r} in section [run]")
    return settings


def load_settings(path: Optional[str] = None, seed: Optional[int] = None,
                  workers: Optional[int] = None, out_dir: Optional[str] = None,
                  verbosity: Optional[int] = None) -> RunSettings:
    """Resolve settings: defaults <- config file <- CLI flags (strongest)."""
    settings = RunSettings()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise UsageError(f"config file not found or unreadable: {path}")
        sub_configs = {f.name for f in fields(settings)
                       if is_dataclass(getattr(settings, f.name))}
        for section in parser.sections():
            if section != "run" and section not in sub_configs:
                raise UsageError(f"unknown config section [{section}]")
            try:
                if section == "run":
                    settings = _apply_run(settings, parser.items(section))
                else:
                    updated = _apply_section(
                        getattr(settings, section), section, parser.items(section)
                    )
                    settings = replace(settings, **{section: updated})
            except UsageError:
                raise
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value in section [{section}]: {exc}") from exc
    flags = {"seed": seed, "workers": workers, "out_dir": out_dir,
             "verbosity": verbosity}
    try:
        settings = replace(
            settings, **{k: v for k, v in flags.items() if v is not None}
        )
    except ValueError as exc:
        raise UsageError(f"bad command-line value: {exc}") from exc
    return settings
