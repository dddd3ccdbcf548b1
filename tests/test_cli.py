import contextlib
import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabi_spectra.audit import diagnose_report
from rabi_spectra.cli import build_parser, main
from rabi_spectra.fock import eigenvalues
from rabi_spectra.params import ModelParams
from rabi_spectra.rootscan import REFINE_TOL
from test_fock import count_builds

BASE = ["--omega", "1", "--delta", "0", "--g", "0.4", "--lambda", "0.2",
        "--eps", "0.1"]
#: a window of BASE with four levels of each branch
WINDOW = ["--emin", "-1", "--emax", "3"]


def run_cli(args, capsys):
    """Exit code, stdout and stderr of one run, which lets no numpy
    RuntimeWarning escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = capsys.readouterr()
    return code, out.out, out.err


def test_closed_spectrum_row_count(capsys):
    code, out, _ = run_cli(["spectrum", "--method", "closed", *BASE, *WINDOW], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "index,energy,method,flags"
    assert sorted(row.rsplit(",", 1)[1] for row in rows[1:]) \
        == [f"closed:{sign}:{n}" for sign in "+-" for n in range(4)]


#: method -> the rest of an argv whose window that method solves: the
#: delta = 0 window of ROADMAP item 25 (levels 0.01 and 0.81), and P2
#: (heun, oracle) and P3 (bcf) on their acceptance windows
WINDOWED = {
    "closed": ["--eps", "0.1", "--g", "0.3", "--emin", "0", "--emax", "1"],
    "heun": ["--delta", "0.4", "--eps", "0.15", "--g", "0.6", "--emin", "-1", "--emax", "4"],
    "bcf": ["--delta", "0.3", "--g", "0.05", "--lambda", "0.02", "--emin", "-1",
            "--emax", "3"],
    "oracle": ["--delta", "0.4", "--eps", "0.15", "--g", "0.6", "--emin", "-1",
               "--emax", "4"],
}


@pytest.mark.parametrize("method", sorted(WINDOWED))
def test_each_method_prints_only_levels_inside_its_window(method, capsys):
    args = ["spectrum", "--method", method, "--omega", "1", *WINDOWED[method]]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    ns = build_parser().parse_args(args)
    energies = [float(r["energy"]) for r in csv.DictReader(io.StringIO(out))]
    assert energies and all(ns.emin <= e <= ns.emax for e in energies)


@pytest.mark.parametrize("method", ["auto", "closed", "heun", "bcf", "oracle"])
def test_each_method_without_a_window_exits_2_with_one_line(method, capsys):
    # the window is read before the regime: closed is refused at delta 0.4
    # only once the window is given
    for edges in ([], ["--emin", "-1"], ["--emax", "4"]):
        code, out, err = run_cli(["spectrum", "--method", method, "--omega", "1",
                                  "--delta", "0.4", "--g", "0.6", *edges], capsys)
        assert (code, out) == (2, "")
        assert err == "error: spectrum needs --emin and --emax\n"


def test_method_regime_mismatch_exit_2(capsys):
    # delta = 0 returns the closed form, but heun still refuses lambda != 0;
    # the message quotes the caller's lambda at any omega
    for command, omega, delta in (("spectrum", "1", "0.4"), ("spectrum", "1", "0"),
                                  ("spectrum", "2", "0.4"), ("gscan", "2", "0.4")):
        code, _out, err = run_cli(
            [command, "--method", "heun", "--omega", omega, "--delta", delta,
             "--lambda", "0.1", "--g", "0.6", "--eps", "0.15",
             "--emin", "-1", "--emax", "2"], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "heun route needs lambda = 0, got 0.1\n" in err


def test_validation_exit_2_on_bad_params(capsys):
    code, _out, err = run_cli(["spectrum", "--method", "closed", "--omega",
                               "1", "--lambda", "0.5"], capsys)
    assert code == 2


#: the library parameter whose check refuses a bad value of each option
READ_AS = {"--grid": "grid_step", "--emin": "e_min", "--emax": "e_max",
           "--fock-cutoff": "cutoff", "--zeta-star": "zeta_star"}


@pytest.mark.parametrize("args, option", [
    (["gscan", "--omega", "1", "--delta", "0.4", "--g", "0.6",
      "--emin", "-1", "--emax", "1", "--grid", "0"], "--grid"),
    (["spectrum", "--method", "heun", "--omega", "1", "--delta", "0.4",
      "--g", "0.6", "--emin", "-1", "--emax", "1", "--grid", "-1"], "--grid"),
    (["spectrum", "--method", "heun", "--omega", "1", "--delta", "0.4",
      "--g", "0.6", "--emin", "2", "--emax", "1"], "--emax"),
    (["spectrum", "--method", "heun", "--omega", "1", "--delta", "0.4",
      "--g", "0.6", "--emin", "nan", "--emax", "1"], "--emin"),
    (["spectrum", "--method", "heun", "--omega", "1", "--delta", "0.4",
      "--g", "0.6", "--emin", "-1", "--emax", "inf"], "--emax"),
    # delta = 0: a closed window a million levels high, refused in terms of
    # the window
    (["spectrum", "--method", "closed", *BASE, "--emin", "-1", "--emax", "1e6",
      "--grid", "1000"], "--emax"),
    (["spectrum", "--method", "oracle", *BASE, *WINDOW, "--fock-cutoff", "0"],
     "--fock-cutoff"),
    # the default grid 0.05 * omega would put about 6e301 points on the window
    (["spectrum", "--method", "heun", "--omega", "1e-300", "--delta", "4e-301",
      "--g", "3e-301", "--eps", "1e-301", "--emin", "-1", "--emax", "2"], "--grid"),
    # the oracle reads the window before it builds a matrix
    (["spectrum", "--method", "oracle", *BASE, "--emin", "nan", "--emax", "1"],
     "--emin"),
    (["spectrum", "--method", "oracle", "--omega", "1", "--g", "0.4", *WINDOW,
      "--fock-cutoff", "100000"], "--fock-cutoff"),
    # delta = 0: the closed-form ladder spacing is 1e-7 and the lowest level
    # near -2e13, so [-1, 1] would need some 2e20 levels per branch
    (["spectrum", "--method", "bcf", "--omega", "1", "--g", "0.3",
      "--lambda", "0.4999999999999975", "--emin", "-1", "--emax", "1"], "levels"),
    # every method refuses a reversed window; gscan checks it before an
    # empty window returns no rows
    (["spectrum", "--method", "closed", "--omega", "1", "--emin", "2", "--emax", "1"],
     "--emax"),
    (["spectrum", "--method", "oracle", *BASE, "--emin", "2", "--emax", "1"], "--emax"),
    (["gscan", "--omega", "1", "--delta", "0.4", "--g", "0.6",
      "--emin", "2", "--emax", "1"], "--emax"),
    # a route at delta = 0 returns the closed form, and refuses that window
    # a million levels high as the closed method does
    (["spectrum", "--method", "heun", "--omega", "1", "--g", "0.4",
      "--emin", "-1", "--emax", "1e6", "--grid", "1000"], "--emax"),
    # the gluing point is read before delta = 0 returns the closed form and
    # before a one-point window returns no rows
    (["spectrum", "--method", "heun", "--omega", "1", "--g", "0.4",
      "--emin", "-1", "--emax", "1", "--zeta-star", "5"], "--zeta-star"),
    (["gscan", "--omega", "1", "--delta", "0.4", "--g", "0.6",
      "--emin", "1", "--emax", "1", "--zeta-star", "5"], "--zeta-star"),
])
def test_bad_run_settings_exit_2_with_one_line(args, option, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and READ_AS.get(option, option) in err


def test_json_and_csv_encode_identical_data(tmp_path, capsys):
    args = ["spectrum", "--method", "closed", *BASE, *WINDOW]
    code, out_csv, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    code, out_json, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    creader = csv.DictReader(io.StringIO(out_csv))
    crows = list(creader)
    jrows = json.loads(out_json)["rows"]
    assert len(crows) == len(jrows)
    for cr, jr in zip(crows, jrows):
        for key in cr:
            assert cr[key] == str(jr[key])


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["spectrum", "--method", "closed", *BASE, *WINDOW]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_seventeen_digit_floats(capsys):
    code, out, _ = run_cli(["spectrum", "--method", "closed", *BASE, *WINDOW], capsys)
    row = out.strip().splitlines()[1].split(",")
    # 1/3-ish energies keep 17 significant digits
    assert len(row[1].replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_gscan_empty_window(capsys):
    code, out, _ = run_cli(["gscan", "--omega", "1", "--delta", "0.4",
                            "--g", "0.6", "--eps", "0.15",
                            "--emin", "0.5", "--emax", "0.5"], capsys)
    assert code == 0
    assert out.strip() == "energy,scaled_g,scale_log,flags"


def test_gscan_samples_the_window_edge_the_step_misses(capsys):
    # 0.05 does not divide [0, 0.12]: the scan's grid ends on e_max
    code, out, _ = run_cli(["gscan", "--omega", "1", "--delta", "0.4",
                            "--g", "0.6", "--eps", "0.15",
                            "--emin", "0", "--emax", "0.12", "--grid", "0.05"], capsys)
    assert code == 0
    energies = [float(r["energy"]) for r in csv.DictReader(io.StringIO(out))]
    assert energies == [0.0, 0.05, 0.1, 0.12]


def test_gscan_sign_changes_match_spectrum_roots(tmp_path, capsys):
    common = ["--omega", "1", "--delta", "0.4", "--g", "0.6", "--eps", "0.15",
              "--emin", "-0.8", "--emax", "0.2", "--grid", "0.05"]
    code, out, _ = run_cli(["gscan", *common], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    vals = [(float(r["energy"]), float(r["scaled_g"]), r["flags"])
            for r in rows]
    crossings = [0.5 * (a[0] + b[0]) for a, b in zip(vals, vals[1:])
                 if not a[2] and not b[2] and a[1] * b[1] < 0]
    code, out2, _ = run_cli(["spectrum", "--method", "heun", *common], capsys)
    assert code == 0
    roots = [float(r["energy"]) for r in csv.DictReader(io.StringIO(out2))]
    assert len(crossings) == len(roots)
    for c, r in zip(sorted(crossings), sorted(roots)):
        assert abs(c - r) <= 0.05


#: auto picks bcf, and lambda < 0 with a small g puts q^2 < 0
COMPLEX_Q = ["--omega", "1", "--delta", "0.3", "--g", "0.01", "--lambda", "-0.1"]
#: the message the bcf reduction raises for each breakdown
BREAKDOWN = {"complex_singularity": "singularities leave the real axis"}


@pytest.mark.parametrize("args, reason", [
    (["spectrum", *COMPLEX_Q], "complex_singularity"),
    # the route named rather than picked
    (["spectrum", "--method", "bcf", *COMPLEX_Q], "complex_singularity"),
    # gscan builds the reduction too
    (["gscan", *COMPLEX_Q], "singularities leave the real axis"),
])
def test_route_that_excludes_the_whole_window_exits_3(args, reason, capsys):
    code, out, err = run_cli([*args, "--emin", "-1", "--emax", "2"], capsys)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")
    assert BREAKDOWN.get(reason, reason) in err


@pytest.mark.parametrize("method", ["heun", "bcf"])
def test_colliding_singularities_exit_2_on_both_routes(method, capsys):
    # g = lambda = 0 with delta != 0: q = 0 on either route, an input rule
    code, out, err = run_cli(["spectrum", "--method", method, "--omega", "1",
                              "--delta", "0.4", "--emin", "-1", "--emax", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert "q = 0: the two regular singularities collide" in err


def test_bcf_compare_oracle_error_column(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--method", "bcf", "--omega", "1", "--delta", "0.3",
         "--eps", "0", "--g", "0.05", "--lambda", "0.02",
         "--emin", "-0.5", "--emax", "1.5", "--compare-oracle"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert all(float(r["error_vs_oracle"]) <= 5e-3 for r in rows)


def test_compare_oracle_asks_a_small_cutoff_for_at_most_its_dimension(capsys):
    # --fock-cutoff 3 has 8 levels, fewer than the 10 roots; each root's
    # error is its distance to the nearest of the 8
    code, out, err = run_cli(
        ["spectrum", "--method", "heun", "--omega", "1", "--delta", "0.4",
         "--eps", "0.15", "--g", "0.6", "--emin", "-1", "--emax", "4",
         "--fock-cutoff", "3", "--compare-oracle"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    ev = eigenvalues(ModelParams(1.0, 0.4, 0.15, 0.6, 0.0), 3)
    assert ev.size == 8
    assert [float(r["error_vs_oracle"]) for r in rows] == [
        float(np.min(np.abs(ev - float(r["energy"])))) for r in rows]


def test_compare_oracle_reads_every_level_at_the_cutoff(capsys):
    # the two roots lie far above the lowest 12 oracle levels, which the
    # comparison once read, and within 1e-10 of the nearest oracle level
    code, out, err = run_cli(
        ["spectrum", "--method", "heun", "--omega", "1", "--delta", "0.4",
         "--eps", "0.15", "--g", "0.6", "--emin", "10", "--emax", "11",
         "--compare-oracle"], capsys)
    assert (code, err) == (0, "")
    errors = [float(r["error_vs_oracle"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(errors) == 2 and max(errors) < 1e-9


@pytest.mark.parametrize("args, oracle_reads", [
    (["--method", "oracle", "--emin", "-1", "--emax", "4"], 1),
    (["--method", "heun", "--emin", "-1", "--emax", "4", "--compare-oracle"], 1),
    (["--method", "oracle", "--emin", "-1", "--emax", "4", "--compare-oracle"], 1),
    (["--method", "heun", "--emin", "-1", "--emax", "4", "--fock-cutoff", "3",
      "--compare-oracle"], 1),
])
def test_each_oracle_read_builds_one_hamiltonian(args, oracle_reads, monkeypatch, capsys):
    # the rows read no convergence delta, so no reference cutoff is solved,
    # and the oracle's rows and their comparison read one solve
    builds = count_builds(monkeypatch)
    code, _out, err = run_cli(["spectrum", "--omega", "1", "--delta", "0.4",
                               "--eps", "0.15", "--g", "0.6", *args], capsys)
    assert (code, err) == (0, "")
    cutoff = int(args[args.index("--fock-cutoff") + 1]) if "--fock-cutoff" in args else 120
    assert builds == [cutoff] * oracle_reads


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_diagnose_asks_a_small_cutoff_for_at_most_its_dimension(cutoff, capsys):
    # cutoffs 1-3 have 4-8 levels, fewer than the 10 a report carries; the
    # reference cutoff 0 has 2, so 2 deltas
    code, out, err = run_cli(["diagnose", "--omega", "1", "--delta", "0.3",
                              "--g", "0.2", "--fock-cutoff", str(cutoff)], capsys)
    assert (code, err) == (0, "")
    oracle = json.loads(out)["oracle_convergence"]
    assert (oracle["cutoff"], oracle["reference_cutoff"]) == (cutoff, 0)
    assert len(oracle["deltas"]) == 2


def test_diagnose_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    args = ["diagnose", "--omega", "1", "--delta", "0.3", "--eps", "0.1",
            "--g", "0.2", "--lambda", "0.1", "--out", str(out)]
    assert main(args) == 0
    rep = json.loads(out.read_text())
    assert rep["residuals_ok"]
    assert "che-series-origin" in rep["mismatched_entries"]
    assert main(args + ["--self-test"]) == 3


def test_console_script_entrypoint():
    res = subprocess.run([sys.executable, "-m", "rabi_spectra.cli"],
                         capture_output=True)
    assert res.returncode == 2  # argparse: missing subcommand


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "t.csv"
    args = ["spectrum", "--method", "closed", *BASE, *WINDOW, "--out", str(out)]
    assert main(args) == 0
    leftovers = [p for p in tmp_path.iterdir() if p.name != "t.csv"]
    assert leftovers == []


@pytest.mark.parametrize("target", ["missing/x.csv", "a-directory"])
def test_unwritable_out_exits_2_and_leaves_no_temp_file(target, tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / target
    code, stdout, err = run_cli(["spectrum", "--method", "closed", *BASE, *WINDOW,
                                 "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--out" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]
    assert list((tmp_path / "a-directory").iterdir()) == []


@pytest.mark.parametrize("args, method, exact", [
    # lambda and delta below 1e-10 omega count as zero for routing and route
    (["spectrum", "--omega", "1", "--delta", "0.4", "--g", "0.6", "--eps", "0.1",
      "--lambda", "5e-11", "--emin", "-1", "--emax", "1"], "heun", ("--lambda", "0")),
    (["spectrum", "--omega", "1", "--delta", "5e-11", "--g", "0.4",
      "--lambda", "0.2", *WINDOW], "closed", ("--delta", "0")),
])
def test_auto_route_accepts_its_own_regime(args, method, exact, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and {r["method"] for r in rows} == {method}
    # the vanishing coupling is dropped: the levels are those at exactly zero
    i = args.index(exact[0])
    code, out_exact, _ = run_cli(args[:i] + list(exact) + args[i + 2:], capsys)
    assert code == 0 and out_exact == out


#: id -> (argv, text the one stderr line contains); the paper audit works in
#: units of omega, where these couplings underflow (lambda^2 vanishes, so the
#: fourth-order operator has no leading term)
OVERFLOW_CASES = {
    "args3-couplings": (["diagnose", "--omega", "1e300", "--g", "0.2", "--lambda", "0.1"],
                        "leading-derivative polynomial"),
}


@pytest.mark.parametrize("args, needle", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES)
def test_overflow_on_huge_finite_input_exits_3_with_one_line(args, needle, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")
    assert needle in err


#: id -> bcf argv whose singularities z = +-q sit close together: q = 1e-12
#: (g = 1e-12 omega), and q = 2e-151 (g = 5e-302 omega, lambda = 2e-302
#: omega); the window holds 7 levels
SMALL_Q = {
    "q1e-12": ["spectrum", "--method", "bcf", "--omega", "1", "--delta", "0.3",
               "--eps", "0.1", "--g", "1e-12", "--emin", "-1", "--emax", "3"],
    "q2e-151": ["spectrum", "--method", "bcf", "--omega", "1e300", "--delta", "1e295",
                "--g", "0.05", "--lambda", "0.02", "--emin=-1e300", "--emax=3e300"],
}


@pytest.mark.parametrize("args", SMALL_Q.values(), ids=SMALL_Q)
def test_bcf_at_a_small_q_returns_the_oracle_levels(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    ns = build_parser().parse_args(args)
    ev = eigenvalues(ModelParams(1.0, ns.delta / ns.omega, ns.eps / ns.omega,
                                 ns.g / ns.omega, ns.lam / ns.omega), 200)
    ref = ev[(ev >= ns.emin / ns.omega) & (ev <= ns.emax / ns.omega)]
    got = [float(r["energy"]) / ns.omega for r in csv.DictReader(io.StringIO(out))]
    assert len(ref) == 7
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=REFINE_TOL)


#: id -> diagnose argv at omega = 1e300, which overflowed while the paper
#: audit worked in physical units, and at omega = 1e-300, where the trial
#: energy 0.2 read 2e299 omega before it was 0.2 omega
DIAGNOSE_SCALED_CASES = {
    "args3": ["diagnose", "--omega", "1e300"],
    "args4": ["diagnose", "--omega", "1e300", "--g", "5e-11", "--lambda", "0"],
    "args5": ["diagnose", "--omega", "1e-300", "--g", "1e-300"],
    "couplings": ["diagnose", "--omega", "1e300", "--delta", "4e299", "--eps", "1.5e299",
                  "--g", "6e299"],
    "uncoupled-omega1e-300": ["diagnose", "--omega", "1e-300"],
}


@pytest.mark.parametrize("args", DIAGNOSE_SCALED_CASES.values(), ids=DIAGNOSE_SCALED_CASES)
def test_diagnose_scales_with_omega(args, capsys):
    """The report at a huge or tiny omega has the mismatched entries of the
    argv in units of omega."""
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    ns = build_parser().parse_args(in_units_of_omega(args))
    unit = ModelParams(ns.omega, ns.delta, ns.eps, ns.g, ns.lam)
    with np.errstate(all="ignore"):  # as main runs it
        ref = diagnose_report(unit)
    assert json.loads(out)["mismatched_entries"] == ref["mismatched_entries"]


def test_diagnose_of_one_coupling_ratio_is_one_report(capsys):
    """g / omega = 5e-311 gives one report, whatever omega carries it."""
    runs = [run_cli(["diagnose", "--omega", omega, "--g", g], capsys)
            for omega, g in (("1", "5e-311"), ("1e300", "5e-11"))]
    assert [(code, err) for code, _out, err in runs] == [(0, "")] * 2
    entries = [json.loads(out)["mismatched_entries"] for _code, out, _err in runs]
    assert entries[0] == entries[1] and entries[0]


@pytest.mark.parametrize("k", [-900, 900])
@pytest.mark.parametrize("unit", [(1.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.4, 0.15, 0.6, 0.0),
                                  (1.0, 0.3, 0.1, 0.2, 0.1)])
def test_diagnose_report_is_bit_identical_at_omega_2_to_the_900(unit, k):
    """At omega = 2^k the audit and residual rows are those at omega = 1 to
    the bit, and the oracle's convergence deltas are omega times those."""
    omega = 2.0 ** k
    ref = diagnose_report(ModelParams(*unit))
    got = diagnose_report(ModelParams(*(omega * v for v in unit)))
    for key in ("audit", "residuals"):
        assert json.dumps(got[key]) == json.dumps(ref[key])
    assert got["oracle_convergence"]["deltas"] \
        == [d * omega for d in ref["oracle_convergence"]["deltas"]]


#: id -> argv of a coupling more than 1e150 omega: its square over omega^2
#: would leave the float range
RATIO_CASES = {
    "args1": ["spectrum", "--omega", "1", "--delta", "1e300", "--g", "1e5", "--lambda", "0",
              "--emin", "-1", "--emax", "1"],
}


@pytest.mark.parametrize("args", RATIO_CASES.values(), ids=RATIO_CASES)
def test_coupling_far_above_omega_exits_2_with_one_line(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "/ omega must be at most 1e+150" in err


#: id -> (argv of a spectrum at a huge or tiny omega, rows): closed, heun and
#: bcf (whose delta vanishes, so it takes the closed form) at omega 1e300 and
#: 1e200, heun P2 at omega 1e-9, and the gscan of P2 at omega 1e-20, whose
#: grid keeps the window's end point
SCALED_CASES = {
    "args0": (["spectrum", "--method", "closed", "--omega", "1e300", "--lambda", "-0.49",
               "--emin=-1e300", "--emax", "9.5e300"], 20),
    "args2": (["spectrum", "--method", "heun", "--omega", "1e200", "--delta", "1e150",
               "--g", "1", "--emin", "-1", "--emax", "1"], 2),
    "args6": (["spectrum", "--method", "bcf", "--omega", "1e300", "--delta", "0.3",
               "--g", "0.05", "--lambda", "0.02", "--emin", "-1", "--emax", "1"], 2),
    "args9": (["spectrum", "--method", "closed", "--omega", "1e300", "--delta", "0.3",
               "--g", "0.05", "--lambda", "0.02", "--emin", "-1", "--emax", "1"], 2),
    "heun-omega1e-9": (["spectrum", "--method", "heun", "--omega", "1e-9", "--delta",
                        "4e-10", "--eps", "1.5e-10", "--g", "6e-10", "--emin=-1e-9",
                        "--emax", "4e-9"], 10),
    "gscan-omega1e-20": (["gscan", "--omega", "1e-20", "--delta", "4e-21", "--eps",
                          "1.5e-21", "--g", "6e-21", "--emin=-1e-20", "--emax",
                          "3.3e-21", "--grid", "5e-22"], 28),
}
#: the options that carry an energy
ENERGIES = ("--omega", "--delta", "--eps", "--g", "--lambda", "--emin", "--emax", "--grid")


def in_units_of_omega(argv: list) -> list:
    """argv with every energy divided by its --omega, as option=value."""
    argv = [part for arg in argv for part in arg.split("=", 1)]
    omega = float(argv[argv.index("--omega") + 1])
    return [f"{k}={float(v) / omega!r}" if k in ENERGIES else v
            for k, v in zip([None] + argv, argv) if v not in ENERGIES]


@pytest.mark.parametrize("args, n_rows", SCALED_CASES.values(), ids=SCALED_CASES)
def test_spectrum_rows_scale_with_omega(args, n_rows, capsys):
    # every row is the omega = 1 row with its energy times omega
    omega = float(args[args.index("--omega") + 1])
    code, out, err = run_cli(args, capsys)
    code_1, out_1, _ = run_cli(in_units_of_omega(args), capsys)
    assert (code, err, code_1) == (0, "", 0)
    rows, rows_1 = (list(csv.DictReader(io.StringIO(o))) for o in (out, out_1))
    assert len(rows) == n_rows
    assert [r["flags"] for r in rows] == [r["flags"] for r in rows_1]
    np.testing.assert_allclose([float(r["energy"]) for r in rows],
                               [float(r["energy"]) * omega for r in rows_1],
                               rtol=0.0, atol=REFINE_TOL * omega)


PARAMS = {"--delta", "--eps", "--g", "--lambda"}
SCAN = {"--emin", "--emax", "--grid", "--method", "--format", "--zeta-star", "--out"}
#: the options each command takes besides the required --omega
OPTIONS = {
    "spectrum": PARAMS | SCAN | {"--fock-cutoff", "--compare-oracle"},
    "gscan": PARAMS | SCAN,
    "diagnose": PARAMS | {"--fock-cutoff", "--self-test", "--out"},
}
FLAGS = {"--compare-oracle", "--self-test", "-v"}
VALUE = {"--method": "heun", "--format": "json", "--fock-cutoff": "40", "--out": "x.csv"}


@pytest.mark.parametrize("command, settable", [("spectrum", 14), ("gscan", 12),
                                               ("diagnose", 8)])
def test_each_command_takes_only_the_options_it_reads(command, settable, capsys):
    assert len(OPTIONS[command]) + 1 == settable
    for option in sorted(set().union(*OPTIONS.values()) | FLAGS):
        argv = [command, "--omega", "1", option]
        if option not in FLAGS:
            argv.append(VALUE.get(option, "0.1"))
        if option in OPTIONS[command]:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, option
    capsys.readouterr()


@pytest.mark.parametrize("method", ["closed", "oracle"])
def test_gscan_refuses_a_method_without_a_determinant(method, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gscan", "--omega", "1", "--method", method])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


#: fuzz values: non-finite, signs, extremes and a coupling under 1e-10 omega;
#: "half" sets lambda to omega / 2, the squeeze limit
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300",
               "5e-11", "1")
FUZZ_CHOICES = {"--method": ("auto", "oracle", "closed", "heun", "bcf"),
                "--format": ("csv", "json"),
                "--fock-cutoff": ("0", "1", "40", "5000")}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    omega = draw(st.sampled_from(FUZZ_VALUES))
    argv = [command, f"--omega={omega}"]
    for option in draw(st.lists(st.sampled_from(sorted(OPTIONS[command] - {"--out"})),
                                unique=True)):
        if option in FLAGS:
            argv.append(option)
            continue
        choices = FUZZ_CHOICES.get(option, FUZZ_VALUES + ("half",) * (option == "--lambda"))
        value = draw(st.sampled_from(choices))
        # "--emin=-inf": argparse reads a separate "-inf" as an option
        argv.append(f"{option}={repr(float(omega) / 2) if value == 'half' else value}")
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_argv())
@example(["diagnose", "--omega=1e300", "--g=5e-11", "--lambda=0"])
def test_fuzzed_argv_exits_0_2_or_3(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            assert exc.code == 2
            return
    assert code in (0, 2, 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


#: the diagnose fuzz: omega, and couplings in units of omega at the edges
#: of the ratio rule (1e150), of the squared ratio's range and of underflow
DIAGNOSE_OMEGAS = (1.0, 1e-300, 1e300, 3.7)
DIAGNOSE_RATIOS = (0.0, 1e-301, 1e-20, 0.3, 1e20, 1e149, 1e150, -1e150)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(DIAGNOSE_OMEGAS), st.tuples(*[st.sampled_from(DIAGNOSE_RATIOS)] * 4))
@example(1.0, (0.4, 1e150, 0.6, 0.1))  # trimmed phi^0 terms once ended in an IndexError
def test_fuzzed_diagnose_exits_0_2_or_3_with_one_line(omega, ratios):
    argv = ["diagnose", f"--omega={omega!r}"] + [
        f"--{name}={r * omega!r}" for name, r in zip(("delta", "eps", "g", "lambda"), ratios)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()
