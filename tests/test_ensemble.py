import math

import pytest

from phasekit import CanonicalEnsemble, ensemble_from_json


def test_temperature_halves_per_beta_unit():
    # weight exp(-2 beta H) means T = 1 / (2 beta k_B)
    assert CanonicalEnsemble(beta=1.0).temperature == 0.5
    assert CanonicalEnsemble(beta=0.5).temperature == 1.0
    assert CanonicalEnsemble(beta=1.0, k_B=2.0).temperature == 0.25


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
])
def test_invalid_ensembles_rejected(obj):
    with pytest.raises(ValueError):
        ensemble_from_json(obj)
