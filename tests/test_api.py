"""Public-API sanity: top-level imports, __all__ hygiene, units."""

import importlib
import re

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_surface(self):
        """The names used in the README quickstart must exist."""
        from repro import (
            OscillatorConfig,
            OscillatorDriverSystem,
            RLCTank,
        )

        tank = RLCTank.from_frequency_and_q(4e6, 30, 1e-6)
        system = OscillatorDriverSystem(OscillatorConfig(tank=tank))
        trace = system.run(0.005)
        assert trace.final_amplitude >= 0


SUBPACKAGES = [
    "repro.analysis",
    "repro.campaigns",
    "repro.circuits",
    "repro.core",
    "repro.digital",
    "repro.envelope",
    "repro.faults",
    "repro.mc",
    "repro.sensor",
]
PACKAGES = ["repro", *SUBPACKAGES]

#: Every package's public names, sorted.  The lazy export tables derive
#: ``__all__``, so a name dropped from a table fails here.
PUBLIC_NAMES = {
    "repro": """
        BatchOptions DualCoSimulation DualSystemScenario EnvelopeModel
        ExponentialPWLDAC FailureKind FaultCampaign HardLimiter HardwareDAC
        InjectionLocking LeesonModel MismatchProfile OscillatorConfig
        OscillatorDriverSystem OscillatorNetlist PositionReceiver RLCTank ReproError
        TanhLimiter Waveform __version__ encode multiplication_factor run_batch
        run_chain run_supply_loss_sweep standard_fault_catalog
    """.split(),
    "repro.analysis": """
        HarmonicSpectrum StepEvent Waveform amplitude_peak amplitude_rms_of_sine
        crossing_time envelope_by_peaks envelope_by_rectify_filter find_steps
        format_si harmonic_spectrum load_columns_csv load_waveform_csv
        oscillation_frequency oscillation_period render_series render_table
        save_columns_csv save_waveform_csv settling_time tank_harmonic_rejection thd
        zero_crossings
    """.split(),
    "repro.campaigns": """
        BatchOptions RetryPolicy TaskFailure TransientMetricSpec corner_sweep
        labelled_sweep nearest_neighbor_chain run_batch run_chain
        run_envelope_campaign run_transient_campaign
    """.split(),
    "repro.circuits": """
        ACResult BDF2 BackwardEuler BatchIncompatible BatchedOperatingPoints
        CONDITION_LIMIT Capacitor CellBuilder Circuit Component CurrentSource
        DenseBackend Diagnostic Diode EnvelopeOptions FAST_COLD FAST_HOT Gear
        HealthReport Inductor IntegrationMethod MNASystem MatrixBackend Mosfet
        MosfetParams NMOS_DEFAULT NewtonOptions NoiseResult NonlinearVCCS
        OperatingPoint PMOS_DEFAULT Phase PhaseSchedule PreflightWarning
        ProcessCorner Resistor SLOW_COLD SLOW_HOT SparseBackend StampContext
        StepCoeffs StepController SubcircuitDefinition SweepResult Switch TYPICAL
        TransientOptions TransientResult Trapezoidal VCCS VCVS VoltageSource
        check_netlist collect_breakpoints dc dc_sweep junction_iv
        probe_stiffness_ratios pulse pwl resolve_backend resolve_method run_ac
        run_noise run_transient run_transient_batched run_transient_envelope
        run_transient_reference sine solve_dc solve_dc_batched source_breakpoints
        stiffness_bins
    """.split(),
    "repro.core": """
        AmplitudeDetector AreaBudget AsymmetryDetector ClockComparator
        ComparatorState ComplementaryMirrors ControlRegister ControlWord
        CurrentMirror DETECTOR_GAIN DriverIV EQUIVALENT_LINEAR_BITS
        ExponentialPWLDAC FailureKind GmBlock HardwareDAC I_LSB I_MAX_DRIVER
        LinearDAC MAX_CODE MAX_MULTIPLICATION_FACTOR MAX_RELATIVE_STEP
        MIN_REGULATED_CODE N_CODES OVERDRIVE_CONSUMPTION_TYPICAL OscillatorConfig
        OscillatorDriverSystem OscillatorNetlist POR_CODE PlantState Prescaler
        REGULATION_PERIOD RegulationAction RegulationEvent RegulationLoop SEGMENTS
        SafetyConfig SafetyMonitors SafetyReaction Segment StartupPhase
        StartupSequencer StatusRegister SupplyLossResult SystemTrace TOPOLOGIES
        TransientStartupResult VrefBuffer WindowComparator
        all_multiplication_factors build_supply_loss_testbench code_for_factor
        critical_gm_lumped critical_gm_stage current_limit_for_rms
        default_area_budget delta_for_range design_window driver_limiter_for_code
        encode exponential_current_law join_code multiplication_factor
        oscillation_condition_met powered_output_low_voltage pwl_approximation_error
        relative_step relative_voltage_step run_supply_loss_sweep segment_of_code
        split_code startup_current_fraction static_iv_curve steady_state_peak
        steady_state_rms supervise_waveform supply_loss_tank_circuit table1_rows
    """.split(),
    "repro.digital": """
        EventScheduler NonVolatileMemory PowerOnReset RecurringEvent WatchdogTimer
    """.split(),
    "repro.envelope": """
        EnvelopeModel HardLimiter InjectionLocking K_SQUARE_WAVE LeesonModel
        LimiterCharacteristic RLCTank TanhLimiter delivered_power effective_gm
        frequency_mismatch_from_tolerances fundamental_current k_factor
        mean_abs_current small_signal_growth_rate steady_state_amplitude
    """.split(),
    "repro.faults": """
        CampaignResult FaultCampaign FaultResult FaultSpec coverage_summary
        coverage_table fault_by_name standard_fault_catalog
    """.split(),
    "repro.mc": """
        DEFAULT_SIGMAS MismatchProfile MismatchSigmas MonteCarloResult
        PelgromCoefficients chain_metric current_mismatch_sigma make_rng
        relative_errors run_monte_carlo sigmas_for_areas
    """.split(),
    "repro.sensor": """
        CoilMesh CouplingProfile DistributedCoil DualCoSimulation DualSystemOutcome
        DualSystemScenario DualTrace PositionReceiver ReceivingCoilPair
        coil_mesh_array effective_load_resistance tank_with_parallel_load
    """.split(),
}


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", PACKAGES)
class TestLazyExports:
    def test_all_is_pinned(self, module_name):
        module = importlib.import_module(module_name)
        assert sorted(module.__all__) == PUBLIC_NAMES[module_name]

    def test_dir_lists_all(self, module_name):
        module = importlib.import_module(module_name)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_all(self, module_name):
        namespace = {}
        exec(f"from {module_name} import *", namespace)
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_attribute_names_package(self, module_name):
        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError, match=re.escape(repr(module_name))):
            module.no_such_export


class TestUnits:
    def test_constants(self):
        from repro.units import MA, MHZ, UA, parallel, clamp, db, from_db

        assert 12.5 * UA == pytest.approx(12.5e-6)
        assert 5 * MHZ == 5e6
        assert parallel(2.0, 2.0) == pytest.approx(1.0)
        assert parallel(1.0, float("inf")) == 1.0
        assert parallel(0.0, 5.0) == 0.0
        assert clamp(5, 0, 3) == 3
        assert from_db(db(7.7)) == pytest.approx(7.7)

    def test_validation(self):
        from repro.units import clamp, db, parallel

        with pytest.raises(ValueError):
            db(-1.0)
        with pytest.raises(ValueError):
            clamp(0, 3, 1)
        with pytest.raises(ValueError):
            parallel()


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro import errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_convergence_error_metadata(self):
        from repro.errors import ConvergenceError

        err = ConvergenceError("x", iterations=5, residual=0.1)
        assert err.iterations == 5
        assert err.residual == 0.1
