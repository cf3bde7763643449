"""Reference-system catalog and comparison arithmetic."""

import pytest

from physcomp.catalog import (
    ReferenceSystem,
    builtin_systems,
    get_system,
    inefficiency_factor,
    op_rate,
    switch_energy,
)
from physcomp.errors import InputError
from physcomp.units import (
    ENERGY,
    FARAD,
    POWER,
    TEMPERATURE,
    VOLT,
    DimensionMismatch,
    Quantity,
)

LANDAUER_300K = 2.870978885078724e-21  # k_B 300 ln2, frozen

T300 = Quantity(300.0, TEMPERATURE)


class TestBuiltinSystems:
    def test_required_entries_present(self):
        names = {s.name for s in builtin_systems()}
        assert {
            "5nm-transistor",
            "covalent-bio-op",
            "hydrogen-bond",
            "human-metabolism",
            "world-compute",
            "landauer-300K",
        } <= names

    def test_transistor_energy(self):
        assert get_system("5nm-transistor").energy_per_op.magnitude == 1e-16

    def test_covalent_bond_energy(self):
        assert get_system("covalent-bio-op").energy_per_op.magnitude == 1.6e-19

    def test_hydrogen_bond_one_decade_below(self):
        assert get_system("hydrogen-bond").energy_per_op.magnitude == pytest.approx(
            1.6e-20, rel=1e-12
        )

    def test_landauer_entry(self):
        assert get_system("landauer-300K").energy_per_op.magnitude == pytest.approx(
            LANDAUER_300K, rel=1e-12
        )

    def test_all_energies_positive_with_provenance(self):
        for s in builtin_systems():
            assert s.energy_per_op.magnitude > 0
            assert s.provenance

    def test_world_compute_and_bio_rate_within_two_orders(self):
        world = get_system("world-compute").op_rate.magnitude
        human = get_system("human-metabolism")
        bio = op_rate(human.power, human.energy_per_op).magnitude
        assert 1e-2 <= bio / world <= 1e2

    def test_unknown_system(self):
        with pytest.raises(InputError, match="unknown reference system"):
            get_system("abacus")

    def test_zero_energy_entry_rejected(self):
        with pytest.raises(InputError, match="x: energy per op must be positive"):
            ReferenceSystem(name="x", energy_per_op=Quantity(0.0, ENERGY))


class TestInefficiencyFactor:
    def test_transistor_is_about_five_orders(self):
        factor = inefficiency_factor(get_system("5nm-transistor"), T300)
        assert 1e4 <= factor <= 1e6

    def test_landauer_self_ratio_is_one(self):
        factor = inefficiency_factor(get_system("landauer-300K"), T300)
        assert factor == pytest.approx(1.0, rel=1e-12)

    def test_halving_temperature_doubles_ratio(self):
        sys_ = get_system("5nm-transistor")
        a = inefficiency_factor(sys_, T300)
        b = inefficiency_factor(sys_, Quantity(150.0, TEMPERATURE))
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_non_positive_temperature(self):
        with pytest.raises(InputError, match="inefficiency factor needs T > 0"):
            inefficiency_factor(get_system("5nm-transistor"), Quantity(0.0, TEMPERATURE))


class TestOpRate:
    def test_bio_op_band(self):
        rate = op_rate(Quantity(100.0, POWER), Quantity(1.6e-19, ENERGY))
        assert rate.magnitude == pytest.approx(6.25e20, rel=1e-12)
        assert 1e20 <= rate.magnitude <= 1e22

    def test_zero_power(self):
        rate = op_rate(Quantity(0.0, POWER), Quantity(1.6e-19, ENERGY))
        assert rate.magnitude == 0.0

    def test_hydrogen_bond_rate_one_decade_up(self):
        rate = op_rate(
            Quantity(100.0, POWER), get_system("hydrogen-bond").energy_per_op
        )
        assert rate.magnitude == pytest.approx(6.25e21, rel=1e-12)

    def test_non_positive_energy(self):
        with pytest.raises(InputError, match="^energy per op must be positive"):
            op_rate(Quantity(1.0, POWER), Quantity(0.0, ENERGY))

    def test_wrong_dimensions(self):
        with pytest.raises(DimensionMismatch):
            op_rate(Quantity(1.0, ENERGY), Quantity(1.0, ENERGY))


class TestSwitchEnergy:
    def test_femtofarad_volt_example(self):
        got = switch_energy(0.1e-15 * FARAD, 1.0 * VOLT)
        assert got.magnitude == pytest.approx(5e-17, rel=1e-12)
        # same order as the 1e-16 J/op dissipation figure
        assert 1e-17 <= got.magnitude <= 1e-15

    def test_zero_volts(self):
        assert switch_energy(1e-15 * FARAD, 0.0 * VOLT).magnitude == 0.0

    def test_doubling_voltage_quadruples_energy(self):
        one = switch_energy(1e-15 * FARAD, 1.0 * VOLT).magnitude
        two = switch_energy(1e-15 * FARAD, 2.0 * VOLT).magnitude
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_non_positive_capacitance(self):
        with pytest.raises(InputError, match="capacitance must be positive"):
            switch_energy(0.0 * FARAD, 1.0 * VOLT)
