"""Scenario parsing, validation, presets and stream derivation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefnet.scenario import (
    AgeShape,
    apply_overrides,
    CounterStream,
    load_scenario,
    parse_scenario,
    Preference,
    preset,
    PH_FITTED,
    RngPolicy,
    Rule,
    RULE_CODES,
    RULE_PREFERENCES,
    save_scenario,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    SHAPE_CODES,
    STREAM_LABELS,
)


def test_defaults():
    sc = Scenario()
    assert sc.node_count == 90
    assert sc.edge_budget == 1400
    assert sc.encounter_rate == 0.8
    assert sc.noise_sigma == 0.005
    assert sc.age_shape is AgeShape.UNIFORM
    assert sc.rule is Rule.PH
    assert sc.transmissibility == 0.8
    assert sc.horizon == 6
    assert sc.distance_cap == 6
    assert sc.seed_count == 1
    assert sc.master_seed == 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("node_count", 0),
        ("node_count", -3),
        ("edge_budget", -1),
        ("encounter_rate", 1.5),
        ("encounter_rate", -0.1),
        ("noise_sigma", -0.005),
        ("noise_sigma", math.inf),
        ("noise_sigma", math.nan),
        ("transmissibility", 2.0),
        ("horizon", -1),
        ("distance_cap", -2),
        ("seed_count", -1),
        ("seed_count", 91),
        ("master_seed", -1),
        ("master_seed", 2**64),
    ],
)
def test_validation_names_offending_field(field, value):
    with pytest.raises(ScenarioValidationError) as err:
        Scenario(**{field: value})
    assert field in str(err.value)


def test_edge_budget_cannot_exceed_pair_count():
    with pytest.raises(ScenarioValidationError) as err:
        Scenario(node_count=10, edge_budget=46)  # 10 choose 2 = 45
    assert "edge_budget" in str(err.value)
    Scenario(node_count=10, edge_budget=45)  # boundary is fine


def test_preference_validation():
    with pytest.raises(ScenarioValidationError):
        Preference(2, 0.5, 1, 0.5)
    with pytest.raises(ScenarioValidationError):
        Preference(1, 1.5, 1, 0.5)
    with pytest.raises(ScenarioValidationError):
        Preference(1, 0.5, -2, 0.5)
    with pytest.raises(ScenarioValidationError):
        Preference(1, 0.5, 1, -0.1)


# Every field set, the preference line included.
FULL = Scenario(
    node_count=60,
    edge_budget=500,
    encounter_rate=0.75,
    noise_sigma=0.01,
    age_shape=AgeShape.BELL,
    rule=Rule.PH,
    preference=Preference(-1, 0.05, 1, 0.08),
    transmissibility=0.4,
    horizon=5,
    distance_cap=4,
    seed_count=2,
    master_seed=123,
)


@pytest.mark.parametrize(
    "sc, text, digest",
    [
        (
            Scenario(),
            "node_count = 90\nedge_budget = 1400\nencounter_rate = 0.8\n"
            "noise_sigma = 0.005\nage_shape = Uniform\nrule = PH\n"
            "transmissibility = 0.8\nhorizon = 6\ndistance_cap = 6\n"
            "seed_count = 1\nmaster_seed = 0\n",
            "4fa775567814f18db9f8f6db2e22c97654eb7e9c81015bd82d091526de50f357",
        ),
        (
            FULL,
            "node_count = 60\nedge_budget = 500\nencounter_rate = 0.75\n"
            "noise_sigma = 0.01\nage_shape = Bell\nrule = PH\n"
            "preference = -1 0.05 1 0.08\ntransmissibility = 0.4\nhorizon = 5\n"
            "distance_cap = 4\nseed_count = 2\nmaster_seed = 123\n",
            "f15782358d2ac2e35839e344cd17f621de6b37b9339d411a7174ccbae9071198",
        ),
    ],
    ids=["default", "full"],
)
def test_canonical_text_and_hash_are_pinned(sc, text, digest):
    # recorded literals: run manifests and sweep cells key on these bytes
    assert sc.canonical() == text
    assert sc.scenario_hash() == digest


def test_canonical_round_trip_bytes(tmp_path):
    sc = FULL
    path = tmp_path / "run.scenario"
    save_scenario(sc, path)
    first = path.read_bytes()
    loaded = load_scenario(path)
    assert loaded == sc
    save_scenario(loaded, path)
    assert path.read_bytes() == first


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\nnode_count = 45   # trailing\nedge_budget = 100\n"
    sc = parse_scenario(text)
    assert sc.node_count == 45
    assert sc.edge_budget == 100


def test_parse_unknown_key():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("node_cnt = 90\n")
    assert "node_cnt" in str(err.value)


def test_parse_duplicate_key():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("horizon = 6\nhorizon = 4\n")
    assert "horizon" in str(err.value)


def test_parse_malformed_line():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("just some words\n")
    assert "line 1" in str(err.value)


def test_parse_bad_enum_tokens():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("age_shape = Gaussian\n")
    assert "age_shape" in str(err.value)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("rule = X+\n")
    assert "rule" in str(err.value)


def test_parse_bad_number():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("encounter_rate = often\n")
    assert "encounter_rate" in str(err.value)


def test_parse_preference_line():
    sc = parse_scenario("preference = -1 0.05 1 0.08\n")
    assert sc.preference == Preference(-1, 0.05, 1, 0.08)
    sc = parse_scenario("preference = 1,0.5,-1,0.25\n")
    assert sc.preference == Preference(1, 0.5, -1, 0.25)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("preference = 1 0.5\n")
    assert "preference" in str(err.value)


def test_pure_rule_preferences():
    assert RULE_PREFERENCES[Rule.P_PLUS] == Preference(1, 1.0, 1, 0.0)
    assert RULE_PREFERENCES[Rule.P_MINUS] == Preference(-1, 1.0, 1, 0.0)
    assert RULE_PREFERENCES[Rule.H_PLUS] == Preference(1, 0.0, 1, 1.0)
    assert RULE_PREFERENCES[Rule.H_MINUS] == Preference(1, 0.0, -1, 1.0)


def test_resolved_preference_priority():
    # explicit override wins over the rule
    override = Preference(1, 0.25, -1, 0.5)
    sc = Scenario(rule=Rule.P_PLUS, preference=override)
    assert sc.resolved_preference() == override
    # pure rules resolve from the rule table
    assert Scenario(rule=Rule.H_MINUS).resolved_preference() == Preference(1, 0.0, -1, 1.0)
    # the mixed rule resolves per age shape
    for shape in AgeShape:
        sc = Scenario(age_shape=shape, rule=Rule.PH)
        assert sc.resolved_preference() == PH_FITTED[shape]


def test_preset_u_ph():
    sc = preset("U_PH")
    assert sc.age_shape is AgeShape.UNIFORM
    assert sc.rule is Rule.PH
    assert sc.resolved_preference() == Preference(-1, 0.05, 1, 0.08)


def test_all_presets_valid():
    names = [f"{s}_{r}" for s in SHAPE_CODES for r in RULE_CODES]
    assert len(names) == 25
    for name in names:
        sc = preset(name)
        seeded = sc.with_overrides(master_seed=3)
        assert sc.master_seed == 0 and seeded.master_seed == 3
        assert seeded.resolved_preference() == sc.resolved_preference()


def test_preset_unknown():
    with pytest.raises(ScenarioParseError):
        preset("Z_P+")


def test_apply_overrides():
    sc = apply_overrides(Scenario(), ["master_seed=9", "transmissibility=0.4"])
    assert sc.master_seed == 9
    assert sc.transmissibility == 0.4
    with pytest.raises(ScenarioParseError):
        apply_overrides(Scenario(), ["not_a_field=1"])
    with pytest.raises(ScenarioParseError):
        apply_overrides(Scenario(), ["missing_equals"])
    # overrides apply to the given scenario, which is validated once merged
    small = Scenario(node_count=10, edge_budget=20)
    assert apply_overrides(small, ["node_count=12"]) == Scenario(node_count=12, edge_budget=20)
    # a value is the whole text after '=': no comments, no second field
    with pytest.raises(ScenarioParseError, match="master_seed"):
        apply_overrides(Scenario(), ["master_seed=3#x"])
    with pytest.raises(ScenarioParseError, match="node_count"):
        apply_overrides(small, ["node_count=12\nedge_budget=3"])


def test_scenario_hash_stability():
    a = Scenario(master_seed=1)
    b = Scenario(master_seed=1)
    c = Scenario(master_seed=2)
    assert a.scenario_hash() == b.scenario_hash()
    assert a.scenario_hash() != c.scenario_hash()


def test_scenario_hash_computed_once(monkeypatch):
    sc = Scenario(master_seed=9)
    digest = sc.scenario_hash()
    monkeypatch.setattr(Scenario, "canonical", lambda self: pytest.fail("hashed twice"))
    assert sc.scenario_hash() == digest


_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _scenarios(draw):
    n = draw(st.one_of(st.integers(1, 5), st.integers(1, 3000)))
    pairs = n * (n - 1) // 2
    preference = draw(st.one_of(st.none(), st.builds(
        Preference, st.sampled_from([-1, 0, 1]), _RATE, st.sampled_from([-1, 0, 1]), _RATE,
    )))
    return Scenario(
        node_count=n,
        edge_budget=draw(st.one_of(st.sampled_from([0, pairs]), st.integers(0, pairs))),
        encounter_rate=draw(_RATE),
        noise_sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, allow_infinity=False))),
        age_shape=draw(st.sampled_from(list(AgeShape))),
        rule=draw(st.sampled_from(list(Rule))),
        preference=preference,
        transmissibility=draw(_RATE),
        horizon=draw(st.integers(0, 50)),
        distance_cap=draw(st.integers(0, 50)),
        seed_count=draw(st.integers(0, n)),
        master_seed=draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))),
    )


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_canonical_text_round_trips(sc):
    back = parse_scenario(sc.canonical())
    assert back == sc
    assert back.canonical() == sc.canonical()
    assert back.scenario_hash() == sc.scenario_hash()


def test_stream_labels():
    assert STREAM_LABELS == (
        "feature-gen",
        "encounter",
        "noise",
        "infection",
        "optimizer",
    )


def test_streams_reproducible_and_independent():
    policy = RngPolicy(42)
    a = policy.stream("encounter", 0).random(8)
    b = policy.stream("encounter", 0).random(8)
    assert np.array_equal(a, b)
    c = policy.stream("noise", 0).random(8)
    d = policy.stream("encounter", 1).random(8)
    e = RngPolicy(43).stream("encounter", 0).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_unknown_stream_label():
    with pytest.raises(ValueError):
        RngPolicy(0).stream("weather")


def test_counter_stream_slot_addressing():
    policy = RngPolicy(7)
    cs = policy.counter_stream("infection", 0)
    a5 = cs.uniforms(5, 10)
    a2 = cs.uniforms(2, 10)
    # re-reading a slot gives the same values no matter what was read before
    assert np.array_equal(cs.uniforms(5, 10), a5)
    assert np.array_equal(cs.uniforms(2, 10), a2)
    assert not np.array_equal(a5, a2)
    # a fresh stream with the same derivation agrees
    again = policy.counter_stream("infection", 0)
    assert np.array_equal(again.uniforms(5, 10), a5)
    # different replicate index differs
    other = policy.counter_stream("infection", 1)
    assert not np.array_equal(other.uniforms(5, 10), a5)
    with pytest.raises(ValueError):
        cs.uniforms(-1, 4)


def test_counter_stream_key_shape():
    with pytest.raises(ValueError):
        CounterStream(np.zeros(3, dtype=np.uint64))


def test_rng_policy_seed_range():
    with pytest.raises(ScenarioValidationError):
        RngPolicy(-1)
    with pytest.raises(ScenarioValidationError):
        RngPolicy(2**64)
