"""Tests of the benchmark's own parts: generator, correctness checks.

Run with ``python3 -m pytest bench/tests``. Nothing here asserts a wall time.
"""

import json
import resource

import numpy as np
import pytest

import checks
import e2e
import generate
import measure
import program
import spectrumspace as sp
from spectrumspace.scenario_io import parse_document


def _doc(workload, seed):
    return parse_document(json.loads(generate.document_text(workload, seed)))


@pytest.mark.parametrize("workload", sorted(generate.SPECS))
def test_generator_is_deterministic(workload):
    assert generate.document_text(workload, 5) == generate.document_text(workload, 5)
    assert generate.document_text(workload, 5) != generate.document_text(workload, 6)


@pytest.mark.parametrize("workload", sorted(generate.SPECS))
def test_generated_sizes_are_fixed(workload):
    spec = generate.SPECS[workload]
    for seed in (1, 2):
        doc = _doc(workload, seed)
        assert len(list(doc.scenario.transmitters())) == spec.n_links
        assert len(list(doc.scenario.receivers())) == spec.n_protected
        assert len(doc.requests) == spec.n_requests
        assert sum(r.required_bands == 2 for r in doc.requests) == spec.n_two_band


@pytest.mark.parametrize("workload", sorted(generate.SPECS))
def test_every_generated_receiver_starts_above_beta(workload):
    scenario = _doc(workload, 3).scenario
    for rx in scenario.receivers():
        for q in sorted(rx.quanta):
            assert sp.sinr_db(scenario, rx, q) >= rx.beta_db + generate.HEADROOM_DB - 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_osa_baseline_admits_a_share_and_harms_a_receiver(seed):
    doc = _doc("admission-dense", seed)
    cmp = sp.compare_policies(doc.scenario, doc.requests, doc.policy.margin_db,
                              doc.policy.sensitivity_dbm)
    assert 0.25 <= cmp.osa.admitted_count / len(doc.requests) <= 0.75
    assert cmp.osa.violation_count > 0
    assert cmp.quantified.violation_count == 0


def _occupancy_raster(scenario):
    """The (0, 0) occupancy raster as the CLI writes it, rounded to 4 decimals."""
    values = sp.occupancy_map(scenario, 0, 0).values_dbm
    return np.array([[float(f"{v:.4f}") for v in row] for row in values])


def test_oracle_spot_check_passes_on_true_raster():
    scenario = _doc("admission-dense", 1).scenario
    cells = checks.sample_cells(7, scenario.grid)
    raster = _occupancy_raster(scenario)
    assert checks.oracle_mismatches(scenario, "occupancy", 0, 0, raster, cells) == []


def test_oracle_spot_check_catches_a_corrupted_cell():
    scenario = _doc("admission-dense", 1).scenario
    cells = checks.sample_cells(7, scenario.grid)
    raster = _occupancy_raster(scenario)
    ix, iy = cells[3]
    raster[iy, ix] += 0.001
    checker = checks.Checker()
    checks.check_oracle(checker, scenario, {"occupancy_b0_q0.csv": raster}, seed=7)
    assert (checker.attempted, checker.failed) == (len(cells), 1)
    assert f"cell {(ix, iy)}" in checker.messages[0]


def test_oracle_spot_check_catches_a_corrupted_opportunity_cell():
    scenario = _doc("admission-dense", 1).scenario
    cells = checks.sample_cells(7, scenario.grid)
    values = sp.opportunity_map(scenario, 1, 1).values_dbm
    raster = np.array([[float(f"{v:.4f}") for v in row] for row in values])
    assert checks.oracle_mismatches(scenario, "opportunity", 1, 1, raster, cells) == []
    ix, iy = cells[0]
    raster[iy, ix] -= 0.001
    assert [cell for cell, _, _ in
            checks.oracle_mismatches(scenario, "opportunity", 1, 1, raster, cells)] == [(ix, iy)]


def test_malformed_raster_is_rejected(tmp_path):
    grid = sp.Grid(origin=(0.0, 0.0), cell_size=1.0, n_x=3, n_y=2)
    path = tmp_path / "occupancy_b0_q0.csv"
    path.write_text("# band=0 quantum=0 unit=dBm\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    assert checks.read_raster(path, grid).shape == (2, 3)
    path.write_text("# band=0 quantum=0 unit=dBm\n1.0,2.0,3.0\n4.0,5.0\n")
    assert checks.read_raster(path, grid) is None
    path.write_text("# band=0 quantum=0 unit=dBm\n1.0,2.0,3.0\n")
    assert checks.read_raster(path, grid) is None


def test_invariant_checks_flag_a_quantified_violation():
    reports = {
        "quantify.json": {"total_spectrum": {"value": 10.0}, "available_spectrum": {"value": 4.0}},
        "admit.json": {"admission": {"post_available": {"value": 3.0}}},
        "compare-osa.json": {"comparison": {"quantified": {"violation_count": 1}}},
    }
    checker = checks.Checker()
    checks.check_invariants(checker, reports)
    assert (checker.attempted, checker.failed) == (3, 1)
    assert "compare-osa" in checker.messages[0]


def test_checkout_without_program_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(program, "PACKAGE", tmp_path / "src" / "spectrumspace")
    with pytest.raises(program.ProgramMissing):
        program.load()


def test_peak_rss_is_the_programs_own(tmp_path):
    # Grow this process well past what the program needs: with vfork, the
    # child's ru_maxrss from wait4 would be at least this process's peak.
    ballast = b"x" * (160 << 20)
    parent_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child, rss_mb = measure.run_program(["--help"], tmp_path / "peak_rss_kb")
    del ballast
    assert child.returncode == 0, child.output
    assert parent_peak_mb > 160
    assert 0 < rss_mb < 120


def test_each_time_is_scaled_by_the_probes_around_it():
    scaled = e2e.scale([("setup_s", 0.2), ("admit_s", 0.5), ("setup_s", 0.8)],
                       [0.2, 0.3, 0.2, 0.6])
    r = e2e.REFERENCE_S
    assert scaled == {"setup_s": pytest.approx([0.2 * r / 0.25, 0.8 * r / 0.4]),
                      "admit_s": pytest.approx([0.5 * r / 0.25])}


def test_reference_probe_does_not_run_the_program():
    code = e2e.REFERENCE_CODE + "import sys\nassert 'spectrumspace' not in sys.modules\n"
    child = measure.run_child(["-c", code])
    assert child.returncode == 0, child.output
