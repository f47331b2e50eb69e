"""Run configuration and random-stream policy.

A Scenario bundles every knob of a simulation run: population size and
age-shape, the connection rule, encounter and noise parameters for network
growth, and the spreading parameters (transmissibility, horizon, distance
cap, seed count). Scenarios are immutable; "editing" one means building a
modified copy, which keeps runs hashable and reproducible.

Randomness policy: a single master seed plus a named label per consumer
("feature-gen", "encounter", "noise", "infection", "optimizer"). Each
(label, index...) combination derives an independent substream, so adding
draws to one consumer never shifts the draws seen by another. The infection
stream is counter-based: the value drawn for node v at step t depends only
on (master seed, label, t, v), never on how many draws other steps made.

Scenario files are plain "key = value" text with a fixed key order, so a
saved file is byte-stable and diffs cleanly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np


class ScenarioError(ValueError):
    """Base class for scenario loading/validation problems."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario text (bad syntax, unknown or duplicate key)."""


class ScenarioValidationError(ScenarioError):
    """Structurally valid scenario with an out-of-range field."""


class AgeShape(Enum):
    """Shape of the age histogram over the nine decade groups."""

    UNIFORM = "Uniform"
    BELL = "Bell"
    INVERSE_BELL = "InverseBell"
    LEFT_SKEWED = "LeftSkewed"
    RIGHT_SKEWED = "RightSkewed"


class Rule(Enum):
    """Named connection-preference rules.

    P+ / P- seek partners with high / low feature values, H+ / H- seek
    dissimilar / similar partners, and PH mixes level and difference
    preferences with the fixed per-shape weights of `PH_FITTED`.
    """

    P_PLUS = "P+"
    P_MINUS = "P-"
    H_PLUS = "H+"
    H_MINUS = "H-"
    PH = "PH"


@dataclass(frozen=True)
class Preference:
    """Connection preference applied to every node.

    level: -1, 0 or +1; preference for partners with low, any or high
        feature values.
    level_weight: strength of the level preference, in [0, 1].
    difference: -1, 0 or +1; preference for partners with similar (-1),
        any (0) or dissimilar (+1) feature values.
    difference_weight: strength of the difference preference, in [0, 1].

    A weight of 0 switches that half of the preference off entirely, which
    is how the pure rules are expressed.
    """

    level: int
    level_weight: float
    difference: int
    difference_weight: float

    def __post_init__(self) -> None:
        if self.level not in (-1, 0, 1):
            raise ScenarioValidationError(
                f"preference: level must be -1, 0 or 1, got {self.level!r}"
            )
        if self.difference not in (-1, 0, 1):
            raise ScenarioValidationError(
                f"preference: difference must be -1, 0 or 1, got {self.difference!r}"
            )
        if not 0.0 <= self.level_weight <= 1.0:
            raise ScenarioValidationError(
                f"preference: level_weight must be in [0, 1], got {self.level_weight!r}"
            )
        if not 0.0 <= self.difference_weight <= 1.0:
            raise ScenarioValidationError(
                f"preference: difference_weight must be in [0, 1], got {self.difference_weight!r}"
            )


# Pure rules: one preference half at full weight, the other switched off.
RULE_PREFERENCES: dict[Rule, Preference] = {
    Rule.P_PLUS: Preference(1, 1.0, 1, 0.0),
    Rule.P_MINUS: Preference(-1, 1.0, 1, 0.0),
    Rule.H_PLUS: Preference(1, 0.0, 1, 1.0),
    Rule.H_MINUS: Preference(1, 0.0, -1, 1.0),
}

# Mixed-rule weights per age shape. These are fixed presets: how they were
# obtained (target, seed, budget) is not recorded, and they are not the best
# fit against the default scale-free degree target, where each loses to a
# pure rule of its shape (mean JS over 5 replicates against ba:90,20, seed 0:
# Uniform 0.228 against 0.209 for H+; tests/test_optimizer.py checks every
# shape). The optimizer module fits weights.
PH_FITTED: dict[AgeShape, Preference] = {
    AgeShape.UNIFORM: Preference(-1, 0.05, 1, 0.08),
    AgeShape.BELL: Preference(-1, 0.03, 1, 0.06),
    AgeShape.INVERSE_BELL: Preference(1, 0.68, -1, 0.73),
    AgeShape.LEFT_SKEWED: Preference(1, 0.02, -1, 0.08),
    AgeShape.RIGHT_SKEWED: Preference(1, 0.02, -1, 0.06),
}

# Labels of the independent random substreams, in canonical order.
STREAM_LABELS: tuple[str, ...] = (
    "feature-gen",
    "encounter",
    "noise",
    "infection",
    "optimizer",
)

_MAX_SEED = 2**64


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulation run."""

    node_count: int = 90
    edge_budget: int = 1400
    encounter_rate: float = 0.8
    noise_sigma: float = 0.005
    age_shape: AgeShape = AgeShape.UNIFORM
    rule: Rule = Rule.PH
    preference: Preference | None = None
    transmissibility: float = 0.8
    horizon: int = 6
    distance_cap: int = 6
    seed_count: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.node_count, int) or self.node_count < 1:
            raise ScenarioValidationError(
                f"node_count: must be a positive integer, got {self.node_count!r}"
            )
        max_edges = self.node_count * (self.node_count - 1) // 2
        if not isinstance(self.edge_budget, int) or self.edge_budget < 0:
            raise ScenarioValidationError(
                f"edge_budget: must be a non-negative integer, got {self.edge_budget!r}"
            )
        if self.edge_budget > max_edges:
            raise ScenarioValidationError(
                f"edge_budget: {self.edge_budget} exceeds the {max_edges} "
                f"unordered pairs of {self.node_count} nodes"
            )
        if not 0.0 <= self.encounter_rate <= 1.0:
            raise ScenarioValidationError(
                f"encounter_rate: must be in [0, 1], got {self.encounter_rate!r}"
            )
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ScenarioValidationError(
                f"noise_sigma: must be finite and non-negative, got {self.noise_sigma!r}"
            )
        if not isinstance(self.age_shape, AgeShape):
            raise ScenarioValidationError(
                f"age_shape: expected an AgeShape, got {self.age_shape!r}"
            )
        if not isinstance(self.rule, Rule):
            raise ScenarioValidationError(f"rule: expected a Rule, got {self.rule!r}")
        if self.preference is not None and not isinstance(self.preference, Preference):
            raise ScenarioValidationError(
                f"preference: expected a Preference or None, got {self.preference!r}"
            )
        if not 0.0 <= self.transmissibility <= 1.0:
            raise ScenarioValidationError(
                f"transmissibility: must be in [0, 1], got {self.transmissibility!r}"
            )
        if not isinstance(self.horizon, int) or self.horizon < 0:
            raise ScenarioValidationError(
                f"horizon: must be a non-negative integer, got {self.horizon!r}"
            )
        if not isinstance(self.distance_cap, int) or self.distance_cap < 0:
            raise ScenarioValidationError(
                f"distance_cap: must be a non-negative integer, got {self.distance_cap!r}"
            )
        if not isinstance(self.seed_count, int) or not 0 <= self.seed_count <= self.node_count:
            raise ScenarioValidationError(
                f"seed_count: must be an integer in [0, node_count], got {self.seed_count!r}"
            )
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < _MAX_SEED:
            raise ScenarioValidationError(
                f"master_seed: must be an integer in [0, 2**64), got {self.master_seed!r}"
            )

    def resolved_preference(self) -> Preference:
        """The preference actually applied: the explicit override if set,
        else the rule's canonical parameters (PH uses its per-shape preset)."""
        if self.preference is not None:
            return self.preference
        if self.rule is Rule.PH:
            return PH_FITTED[self.age_shape]
        return RULE_PREFERENCES[self.rule]

    def with_overrides(self, **changes) -> "Scenario":
        return replace(self, **changes)

    def canonical(self) -> str:
        """Canonical text form; load(canonical()) reproduces the scenario.
        One `key = value` line per field in field order, leaving out an
        unset preference."""
        lines = [
            f"{f.name} = {_FORMATTERS_BY_TYPE[f.type](value)}"
            for f in fields(self)
            if (value := getattr(self, f.name)) is not None
        ]
        return "\n".join(lines) + "\n"

    def scenario_hash(self) -> str:
        """Stable hex digest of the canonical form, for run manifests."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # Computed once per instance: the fields never change.
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioParseError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioParseError(f"{key}: expected a number, got {text!r}") from None


def parse_preference(text: str) -> Preference:
    """Parse 'level level_weight difference difference_weight', separated by
    whitespace or commas, e.g. '-1 0.05 1 0.08'."""
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ScenarioParseError(
            f"preference: expected 4 values (level, level_weight, difference, "
            f"difference_weight), got {text!r}"
        )
    level = _parse_int("preference", parts[0])
    level_weight = _parse_float("preference", parts[1])
    difference = _parse_int("preference", parts[2])
    difference_weight = _parse_float("preference", parts[3])
    return Preference(level, level_weight, difference, difference_weight)


def _parse_enum(enum, key: str, text: str):
    try:
        return enum(text)
    except ValueError:
        names = ", ".join(member.value for member in enum)
        raise ScenarioParseError(f"{key}: expected one of {names}, got {text!r}") from None


def _format_preference(p: Preference) -> str:
    return f"{p.level} {p.level_weight!r} {p.difference} {p.difference_weight!r}"


# Value formatter and parser of each scenario field, keyed by the field's
# annotation; each parser reads back what its formatter writes.
_FORMATTERS_BY_TYPE = {
    "int": str,
    "float": repr,
    "AgeShape": lambda value: value.value,
    "Rule": lambda value: value.value,
    "Preference | None": _format_preference,
}
_PARSERS_BY_TYPE = {
    "int": _parse_int,
    "float": _parse_float,
    "AgeShape": lambda key, text: _parse_enum(AgeShape, key, text),
    "Rule": lambda key, text: _parse_enum(Rule, key, text),
    "Preference | None": lambda key, text: parse_preference(text),
}
_FIELD_PARSERS = {f.name: _PARSERS_BY_TYPE[f.type] for f in fields(Scenario)}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text. Unknown keys, duplicates and malformed lines
    raise ScenarioParseError naming the offending field; range violations
    raise ScenarioValidationError."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ScenarioParseError(f"{key}: unknown scenario field (line {lineno})")
        if key in values:
            raise ScenarioParseError(f"{key}: duplicate field (line {lineno})")
        values[key] = _FIELD_PARSERS[key](key, value.strip())
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario.canonical())


def apply_overrides(scenario: Scenario, assignments: list[str]) -> Scenario:
    """Apply 'key=value' override strings (as used by the command line) to
    `scenario`. Each value is parsed as its field's type, the last value of
    a repeated key wins, and the merged scenario is validated once."""
    changes: dict[str, object] = {}
    for item in assignments:
        if "=" not in item:
            raise ScenarioParseError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ScenarioParseError(f"{key}: unknown scenario field")
        changes[key] = _FIELD_PARSERS[key](key, value.strip())
    return replace(scenario, **changes)


SHAPE_CODES = {
    "U": AgeShape.UNIFORM,
    "B": AgeShape.BELL,
    "I": AgeShape.INVERSE_BELL,
    "L": AgeShape.LEFT_SKEWED,
    "R": AgeShape.RIGHT_SKEWED,
}
RULE_CODES = {r.value: r for r in Rule}

def preset(name: str) -> Scenario:
    """Build one of the 25 named scenarios, '<shape>_<rule>' with shape in
    U, B, I, L, R and rule in P+, P-, H+, H-, PH. Example: 'U_PH'.

    Mixed-rule presets carry their per-shape preference explicitly so
    that the saved file is self-describing."""
    shape_code, _, rule_code = name.partition("_")
    if shape_code not in SHAPE_CODES or rule_code not in RULE_CODES:
        raise ScenarioParseError(
            f"preset: unknown name {name!r}; expected <shape>_<rule> with "
            f"shape in {'/'.join(SHAPE_CODES)} and rule in {'/'.join(RULE_CODES)}"
        )
    shape = SHAPE_CODES[shape_code]
    rule = RULE_CODES[rule_code]
    pref = PH_FITTED[shape] if rule is Rule.PH else None
    return Scenario(age_shape=shape, rule=rule, preference=pref)


# ---------------------------------------------------------------------------
# Random-stream derivation


class CounterStream:
    """Counter-addressable uniform stream.

    uniforms(slot, n) returns the same n values for the same (key, slot)
    regardless of which other slots were drawn before. Slots are spaced far
    apart in the counter space, so a slot can supply billions of values
    without touching its neighbours.
    """

    def __init__(self, key: np.ndarray):
        key = np.asarray(key, dtype=np.uint64)
        if key.shape != (2,):
            raise ValueError(f"counter stream key must have shape (2,), got {key.shape}")
        self._key = key

    def uniforms(self, slot: int, n: int) -> np.ndarray:
        if slot < 0:
            raise ValueError(f"slot must be non-negative, got {slot}")
        bit_gen = np.random.Philox(key=self._key, counter=int(slot) << 192)
        return np.random.Generator(bit_gen).random(n)


@dataclass(frozen=True)
class RngPolicy:
    """Derives all random streams of a run from one master seed.

    Streams are named by STREAM_LABELS; extra integer indices (replicate
    numbers and the like) extend the derivation path. Distinct (label,
    indices) pairs give statistically independent streams, and draws from
    one stream never affect any other.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < _MAX_SEED:
            raise ScenarioValidationError(
                f"master_seed: must be an integer in [0, 2**64), got {self.master_seed!r}"
            )

    def _entropy(self, label: str, indices: tuple[int, ...]) -> list[int]:
        if label not in STREAM_LABELS:
            raise ValueError(
                f"unknown stream label {label!r}; expected one of {STREAM_LABELS}"
            )
        return [self.master_seed, STREAM_LABELS.index(label), *indices]

    def stream(self, label: str, *indices: int) -> np.random.Generator:
        """Sequential substream for the given label and indices."""
        seq = np.random.SeedSequence(self._entropy(label, indices))
        return np.random.Generator(np.random.PCG64(seq))

    def counter_stream(self, label: str, *indices: int) -> CounterStream:
        """Counter-addressable substream (used for infection draws)."""
        seq = np.random.SeedSequence(self._entropy(label, indices))
        return CounterStream(seq.generate_state(2, dtype=np.uint64))
