"""Work caps for the combinatorial parts of the checker.

Every potentially exponential step is guarded by an explicit cap; hitting one
raises CapExceeded, which callers convert into an INCONCLUSIVE verdict or a
route fallback. A cap must never silently truncate work, because a truncated
enumeration could certify the wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    sign_enum_dim: int = 12      # max ambient dimension n of sigma(S): at most 3^n - 1 vectors
    vertices: int = 1 << 20      # max vertex evaluations in one box analysis
    monomials: int = 1_000_000   # max terms while expanding a symbolic determinant
    branches: int = 64           # max disequality branches in interval feasibility

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"cap {name} must be >= 0, got {value}")

    def with_overrides(self, **kwargs) -> "Caps":
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()


class CapExceeded(RuntimeError):
    def __init__(self, cap_name: str, needed, limit):
        super().__init__(f"cap {cap_name} exceeded: needs {needed}, limit {limit}")
        self.cap_name = cap_name
        self.needed = needed
        self.limit = limit


def parse_caps_spec(spec: str, base: Caps = DEFAULT_CAPS) -> Caps:
    """Parse 'name=value,name=value' overrides, e.g. 'sign_enum_dim=14,vertices=4096'."""
    overrides = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad caps item {part!r}, expected name=value")
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in Caps.__dataclass_fields__:
            raise ValueError(f"unknown cap {name!r}")
        try:
            overrides[name] = int(value)
        except ValueError:
            raise ValueError(f"cap {name} needs an integer, got {value!r}") from None
    return base.with_overrides(**overrides)
