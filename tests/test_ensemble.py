import math

import pytest

from phasekit import CanonicalEnsemble, NoRealTemperatureError, ensemble_from_json


def test_temperature_halves_per_beta_unit():
    # weight exp(-2 beta H) means T = 1 / (2 beta k_B)
    assert CanonicalEnsemble(beta=1.0).temperature == 0.5
    assert CanonicalEnsemble(beta=0.5).temperature == 1.0
    assert CanonicalEnsemble(beta=1.0, k_B=2.0).temperature == 0.25


@pytest.mark.parametrize("k_B", [1e-10, 1e-300])
def test_an_ensemble_without_a_finite_temperature_builds_but_names_it(k_B):
    # `oracle --overlap-beta` builds an ensemble and never reads T
    ens = CanonicalEnsemble(beta=1e-300, k_B=k_B)
    with pytest.raises(NoRealTemperatureError, match="overflows"):
        ens.temperature


def test_json_round_trip():
    ens = CanonicalEnsemble(beta=1.5, hbar=2.0, k_B=0.5)
    assert ensemble_from_json(ens.to_json()) == ens


def test_defaults_are_natural_units():
    ens = ensemble_from_json({"beta": 2.0})
    assert (ens.hbar, ens.k_B) == (1.0, 1.0)


@pytest.mark.parametrize("obj", [
    {"beta": -1.0},
    {"beta": 1.0, "hbar": 0.0},
    {"beta": 1.0, "masses": [1.0, -2.0]},
    {"beta": "warm"},
    {"beta": 1.0, "temperature": 300.0},
    {"beta": math.nan},
    {"beta": 1.0, "k_B": math.inf},
    {"beta": 1.0, "masses": [math.nan]},
    {"beta": True},
    {"beta": "2"},
    {"beta": 1.0, "hbar": [1.0]},
    {"beta": 10**400},
])
def test_invalid_ensembles_rejected(obj):
    with pytest.raises(ValueError):
        ensemble_from_json(obj)
