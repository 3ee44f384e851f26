"""Crowd specs arrive over the wire as sweep-task kwargs: the decoders
reject anything malformed with :class:`ConfigurationError`."""

import hashlib
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.crowd.aggregate import CrowdSketch
from repro.crowd.operators import (
    DEFAULT_APP_MIX,
    DEFAULT_CELL_DIURNAL,
    DEFAULT_OPERATORS,
    DEFAULT_WIFI_DIURNAL,
)
from repro.crowd.sampling import PopulationSpec
from repro.crowd.world import CrowdWorld

BAD_POPULATIONS = {
    "empty": {},
    "users-not-an-int": {"users": "abc"},
    "users-a-bool": {"users": True},
    "misspelt-key": {"users": 10, "wifi_fail_p": 0.1},
    "noise-nan": {"users": 10, "noise_sigma": float("nan")},
    "noise-inf": {"users": 10, "noise_sigma": float("inf")},
    "noise-negative": {"users": 10, "noise_sigma": -0.1},
    "probability-a-string": {"users": 10, "single_tech_p": "0.1"},
    "weights-not-a-list": {"users": 10, "site_names": ["Israel"],
                           "site_weights": "1"},
    "weight-inf": {"users": 10, "site_names": ["Israel"],
                   "site_weights": [float("inf")]},
    "site-name-not-a-string": {"users": 10, "site_names": [["Israel"]],
                               "site_weights": [1.0]},
    "profile-not-an-object": {"users": 10, "world_profile": "op-A"},
    "not-an-object": [["users", 10]],
}


@pytest.mark.parametrize("data", BAD_POPULATIONS.values(),
                         ids=BAD_POPULATIONS.keys())
def test_population_decoder_fails_typed_and_closed(data):
    with pytest.raises(ConfigurationError):
        PopulationSpec.from_dict(data)


def _profile(**changes) -> dict:
    """The default world's profile with ``changes`` applied."""
    return {
        "operators": [op.to_dict() for op in DEFAULT_OPERATORS],
        "wifi_diurnal": DEFAULT_WIFI_DIURNAL.to_dict(),
        "cell_diurnal": DEFAULT_CELL_DIURNAL.to_dict(),
        "apps": [app.to_dict() for app in DEFAULT_APP_MIX],
        **changes,
    }


BAD_PROFILES = {
    "operators-only": {"operators": []},
    "no-operators": _profile(operators=[]),
    "unknown-key": _profile(holidays=[]),
    "not-an-object": ["operators"],
    "operator-without-share": _profile(operators=[{"name": "op"}]),
    "operator-not-an-object": _profile(operators=["op-A"]),
    "diurnal-not-an-object": _profile(wifi_diurnal=[0.1]),
    "amplitude-nan": _profile(cell_diurnal={"amplitude": float("nan")}),
    "app-size-a-string": _profile(apps=[{
        "name": "web", "weight": 1.0, "down_bytes": "big", "up_bytes": 1,
    }]),
}


@pytest.mark.parametrize("data", BAD_PROFILES.values(),
                         ids=BAD_PROFILES.keys())
def test_world_profile_decoder_fails_typed_and_closed(data):
    with pytest.raises(ConfigurationError):
        CrowdWorld.from_profile_dict(data)


def test_a_non_finite_wire_profile_names_its_source():
    curve = {**DEFAULT_CELL_DIURNAL.to_dict(), "amplitude": float("nan")}
    with pytest.raises(ConfigurationError,
                       match="^world_profile: malformed: .*non-finite"):
        CrowdWorld.from_profile_dict(_profile(cell_diurnal=curve))


def test_default_profile_round_trips(crowd_world):
    assert crowd_world.profile_dict() == _profile()


#: sha256 of ``json.dumps(spec.to_dict())``: a crowd shard's task
#: kwargs carry these bytes, so its cache key moves if they do.
TO_DICT_DIGESTS = [
    (PopulationSpec(users=5),
     "8bab2de6115d982eea8e10f0cfbd4d66bbde3b7c8de7edfc40db6f41344a6edc"),
    (PopulationSpec(users=7, seed=3, noise_sigma=0.2,
                    world_profile={"a": 1}),
     "1d1a1868a59aa64d08dfa1ef091324d4e7aa72bc9c2cc8b9850fc0f7f385d3b7"),
]


@pytest.mark.parametrize("spec, digest", TO_DICT_DIGESTS)
def test_to_dict_bytes_are_pinned(spec, digest):
    encoded = json.dumps(spec.to_dict()).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest
    assert PopulationSpec.from_dict(spec.to_dict()) == spec


def _partial(**changes) -> dict:
    """An empty shard partial with ``changes`` applied."""
    return {**CrowdSketch().to_dict(), **changes}


BAD_PARTIALS = {
    "empty": {},
    "not-an-object": [["alpha", 0.005]],
    "alpha-a-string": _partial(alpha="fine"),
    "no-sketches": {"alpha": 0.005, "counters": {}},
    "sketch-missing": _partial(sketches={}),
    "sketch-not-an-object": _partial(sketches=["up_diff"]),
    "sketch-corrupt": _partial(sketches={
        **_partial()["sketches"], "up_diff": {"alpha": 0.005, "count": -5}}),
    "counters-a-list": _partial(counters=[1]),
    "counter-negative": _partial(counters={"runs": -3}),
}


@pytest.mark.parametrize("data", BAD_PARTIALS.values(),
                         ids=BAD_PARTIALS.keys())
def test_shard_partial_decoder_fails_typed_and_closed(data):
    with pytest.raises(ConfigurationError):
        CrowdSketch.from_dict(data)
