"""Runtime limits for exact enumerations.

Every operation that enumerates residues, scans primes, or searches for a
witness takes its limits from a Config.  The defaults are generous enough
for interactive use; callers (and the CLI via ``--residue-cap`` and its
siblings or ``--config``) can tighten or raise them.  Limits only ever
turn an answer into an explicit resource error, never into a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # largest number of residue classes any single enumeration may visit,
    # and of nodes one covering check (exact.covers) may split into
    residue_cap: int = 2 ** 20
    # largest polynomial degree accepted by constructors
    degree_cap: int = 64
    # primes up to this bound are scanned in tail analyses and witness searches
    prime_scan_bound: int = 10_000
    # bounded search size for separating polynomials
    search_degree_cap: int = 256

    def __post_init__(self):
        # a cap below 1 would make every enumeration a resource error
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")


DEFAULT_CONFIG = Config()


def load_config_file(path: str) -> Config:
    """Read ``key=value`` lines into a Config; unknown keys are rejected."""
    values: dict[str, int] = {}
    fields = set(Config.__dataclass_fields__)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = int(value.strip())
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: {key} needs an integer: {exc}") from None
    return Config(**values)
