import json
import math
import os

import pytest

import bogodamp.cli as cli
from bogodamp.bogoliubov import omega_bg
from bogodamp.cli import CSV_HEADER, main
from bogodamp.damping import (MC_MIN_SAMPLES, gamma_beliaev_quadrature,
                              gamma_landau_quadrature)
from bogodamp.params import make_params
from bogodamp.potential import GaussianPotential
from bogodamp.specfun import beliaev_I, landau_Gk
from conftest import concave_table

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def write_table(path, model):
    with open(path, "w") as fh:
        for k, v in zip(model.grid, model.values):
            fh.write(f"{float(k)!r} {float(v)!r}\n")
    return str(path)


def test_rate_header_and_values(capsys):
    rc, out = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cells = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    assert float(cells["gamma_B"]) == pytest.approx(
        gamma_beliaev_quadrature(params, model, 0.3).value, rel=1e-12)
    assert float(cells["gamma_L"]) == pytest.approx(
        gamma_landau_quadrature(params, model, 0.3).value, rel=1e-12)
    assert float(cells["total"]) == pytest.approx(
        float(cells["gamma_B"]) + float(cells["gamma_L"]), rel=1e-15)
    assert float(cells["theta"]) == pytest.approx(
        10.0 * omega_bg(params, model, 0.3), rel=1e-12)
    assert cells["method"] == "energy_quadrature"


def test_vhat0_override_scales_every_rate(capsys):
    # rates are linear in the amplitude, and the default Gaussian's
    # vhat(0) is 0.1: --vhat0 0.2 doubles each rate column exactly
    args = ("rate", "--k", "0.3", "--beta-nu", "10")
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args, "--vhat0", "0.2")
    assert rc1 == rc2 == 0
    one, two = (dict(zip(CSV_HEADER.split(","), out.strip().split("\n")[1]
                         .split(","))) for out in (out1, out2))
    rates = ("gamma_B", "gamma_B_err", "gamma_L", "gamma_L_err", "total")
    for col in CSV_HEADER.split(","):
        if col in rates:
            assert float(two[col]) == 2.0 * float(one[col]) > 0.0
        else:
            assert two[col] == one[col]


def test_jobs_below_one_is_an_error(capsys):
    rc = main(["sweep", "--k", "0.3", "--beta-nu", "10", "--jobs", "0"])
    assert rc == 1
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err


def test_sweep_ordering_and_method_normalization(capsys):
    # unsorted inputs come out sorted, methods follow the fixed order
    rc, out = run(capsys, "sweep", "--k", "0.3,0.1", "--beta-nu", "20,5",
                  "--methods", "asymptotic,quadrature", "--rates", "landau")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 8
    ks = [float(r[0]) for r in rows]
    bns = [float(r[2]) for r in rows]
    assert bns == sorted(bns)
    assert ks[0] == 0.1 and ks[2] == 0.3
    assert rows[0][4] == "energy_quadrature"
    assert rows[1][4] == "asymptotic"


def test_jobs_do_not_change_output(capsys):
    args = ("sweep", "--k", "0.1,0.2,0.4", "--beta-nu", "5,50",
            "--methods", "quadrature,asymptotic,mc", "--samples", "20000")
    rc1, out1 = run(capsys, *args, "--jobs", "1")
    rc4, out4 = run(capsys, *args, "--jobs", "4")
    assert rc1 == rc4 == 0
    assert out1 == out4


def test_sweep_row_equals_single_rate(capsys):
    # at beta*nu = 2 the Landau rate at 0.05 needs a wider branch table
    # than the Beliaev rate at 0.3 that follows it; sharing params and
    # model across points must not leak that table
    rc, sweep = run(capsys, "sweep", "--k", "0.05,0.3", "--beta-nu", "2",
                    "--rates", "total")
    assert rc == 0
    rc, rate = run(capsys, "rate", "--k", "0.3", "--beta-nu", "2",
                   "--rates", "total")
    assert rc == 0
    assert sweep.split("\n")[2] == rate.split("\n")[1]


def test_json_round_trip(capsys):
    rc, out = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10",
                  "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert set(rows[0]) == set(CSV_HEADER.split(","))
    rc2, csv_out = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10")
    cells = csv_out.strip().split("\n")[1].split(",")
    assert rows[0]["gamma_B"] == float(cells[5])


def test_raw_and_dimensionless_agree(capsys):
    # nu = 4: k/sqrt(nu) = 0.5 and beta nu = 10 mean k = 1, beta = 2.5
    rc1, out1 = run(capsys, "rate", "--nu", "4", "--k", "0.5",
                    "--beta-nu", "10")
    rc2, out2 = run(capsys, "rate", "--nu", "4", "--raw", "--k", "1.0",
                    "--beta-nu", "2.5")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rates.csv"
    rc, out = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10",
                  "--output", str(target))
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith(CSV_HEADER)


def test_validate_gaussian_ok(capsys):
    rc, out = run(capsys, "validate", "--v", "0.2")
    assert rc == 0
    assert "PASS" in out


def test_validate_concave_table_fails(tmp_path, capsys):
    path = write_table(tmp_path / "concave.dat", concave_table())
    rc, _ = run(capsys, "validate", "--potential", "tabulated",
                "--table", path)
    assert rc == 2


@pytest.mark.parametrize("value,message", [
    ("abc", "error: beta_nu: cannot parse 'abc'"),
    ("1,2", "error: validate takes a single beta_nu value"),
    ("-1", "error: beta_nu: values must be finite and > 0"),
])
def test_validate_bad_beta_nu_is_a_usage_error(capsys, value, message):
    rc = main(["validate", "--v", "0.2", "--beta-nu", value])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith(message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("nu", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["rate", "sweep", "oracle", "validate"])
def test_bad_nu_is_a_usage_error(capsys, command, nu):
    grid = () if command == "validate" else ("--k", "0.3", "--beta-nu", "10")
    rc = main([command, *grid, "--nu", nu])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("error: nu must be finite and > 0")
    assert err.count("\n") == 1


def test_validate_beta_nu_range_of_one(capsys):
    assert run(capsys, "validate", "--v", "0.2", "--beta-nu", "log:10:10:1") \
        == run(capsys, "validate", "--v", "0.2", "--beta-nu", "10")


def test_validate_json(capsys):
    rc, out = run(capsys, "validate", "--v", "0.2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert any(e["id"] == "A7" for e in payload["checks"])


def test_sweep_validation_gate(capsys, tmp_path):
    # strong coupling fails the convexity check and blocks the sweep
    rc, out = run(capsys, "sweep", "--v", "0.75", "--k", "0.1",
                  "--beta-nu", "10")
    assert rc == 2
    assert out == ""
    rc2, out2 = run(capsys, "sweep", "--v", "0.75", "--k", "0.1",
                    "--beta-nu", "10", "--skip-validation")
    assert rc2 == 0
    assert out2.startswith(CSV_HEADER)


def test_specfun_values(capsys):
    rc, out = run(capsys, "specfun", "--theta", "5,0.5")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,I,G2,G3,G4"
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == beliaev_I(0.5)
    assert float(first[4]) == landau_Gk(4, 0.5)


def test_specfun_past_the_power_range(capsys):
    # theta ** 5 overflows past about 4.4e61; this ended in a traceback
    rc, out = run(capsys, "specfun", "--theta", "1e100")
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[0]) == 1e100
    assert float(row[1]) == beliaev_I(1e100)


def test_specfun_log_grid(capsys):
    rc, out = run(capsys, "specfun", "--theta", "log:0.1:10:5")
    assert rc == 0
    thetas = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert len(thetas) == 5
    assert thetas[0] == pytest.approx(0.1)
    assert thetas[2] == pytest.approx(1.0)
    assert thetas[4] == pytest.approx(10.0)


def test_specfun_bad_range(capsys):
    rc, _ = run(capsys, "specfun", "--theta", "log:0:1:5")
    assert rc == 1


def test_oracle_command(capsys):
    rc, out = run(capsys, "oracle", "--k", "0.3", "--beta-nu", "10",
                  "--samples", "50000", "--seed", "5")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "process,mc,mc_stderr,quadrature,quadrature_err,z"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] in ("beliaev", "landau")
        assert abs(float(cells[5])) < 5.0


def test_oracle_single_process(capsys):
    rc, out = run(capsys, "oracle", "--k", "0.3", "--beta-nu", "10",
                  "--samples", "50000", "--process", "landau")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("landau,")


def test_oracle_row_beyond_z_max_exits_3(capsys):
    # a width that makes the estimate meaningless printed z = -1.3e13 and
    # exited 0; the row keeps its numbers
    rc = main(["oracle", "--k", "0.3", "--beta-nu", "10", "--samples",
               "10000", "--seed", "1", "--epsilon", "1e100", "--process",
               "landau"])
    captured = capsys.readouterr()
    assert rc == 3
    row = captured.out.strip().split("\n")[1].split(",")
    assert row[0] == "landau" and "error" not in row
    assert float(row[5]) < -1e13
    assert captured.err.startswith(
        "error in oracle (landau): |z| = 1.29517e+13 exceeds 5")


def test_error_rows_and_exit_3(tmp_path, capsys):
    # one grid point beyond the tabulated range fails, the rest still print
    from conftest import maxon_roton_table
    path = write_table(tmp_path / "dip.dat", maxon_roton_table())
    rc, out = run(capsys, "sweep", "--potential", "tabulated", "--table", path,
                  "--skip-validation", "--raw", "--k", "0.2,20",
                  "--beta-nu", "4", "--rates", "beliaev")
    assert rc == 3
    lines = out.strip().split("\n")
    assert len(lines) == 3
    good = lines[1].split(",")
    bad = lines[2].split(",")
    assert float(good[5]) > 0.0
    assert bad[5] == "error" and bad[9] == "error"


def test_singular_root_is_an_error_row(tmp_path, capsys):
    # the decay scan does not converge at k = 2.26 on this table, where a
    # conservation root sits on the maxon top of the dispersion
    from conftest import maxon_roton_table
    path = write_table(tmp_path / "maxon.dat", maxon_roton_table())
    rc = main(["rate", "--potential", "tabulated", "--table", path,
               "--k", "2.26", "--beta-nu", "4", "--skip-validation"])
    captured = capsys.readouterr()
    assert rc == 3
    row = captured.out.strip().split("\n")[1].split(",")
    assert row[3] == row[5] == row[7] == row[9] == "error"
    assert "converged=False" in captured.err


@pytest.mark.parametrize("argv, fault", [
    (("sweep", "--k", "0.3,1e300", "--beta-nu", "10", "--methods",
      "asymptotic"), "OverflowError"),
    (("rate", "--k", "0.3", "--beta-nu", "1e-300"), "ZeroDivisionError"),
    (("rate", "--k", "0.3", "--beta-nu", "1e-300", "--methods", "asymptotic"),
     "ZeroDivisionError"),
])
def test_arithmetic_fault_is_an_error_row(capsys, argv, fault):
    # the failing point is an error row with exit 3, not a traceback
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 3
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert "error" in rows[-1]
    assert f": {fault}: " in captured.err
    if argv[0] == "sweep":
        # the good point still prints its numbers
        assert len(rows) == 2 and float(rows[0][5]) > 0.0
        assert rows[1][5] == rows[1][9] == "error"


def test_oracle_at_extreme_heat_names_beta(capsys):
    # both processes fail before sampling, on beta rather than on k
    rc = main(["oracle", "--k", "0.3", "--beta-nu", "1e-300",
               "--samples", "10000"])
    captured = capsys.readouterr()
    assert rc == 3
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["beliaev", "landau"]
    assert all(r[1:] == ["error"] * 5 for r in rows)
    errs = captured.err.strip().split("\n")
    assert len(errs) == 2
    for proc, line in zip(("beliaev", "landau"), errs):
        assert line.startswith(f"error in oracle ({proc}): beta = 1e-300 is "
                               "too small for the Monte Carlo oracle")


def test_oracle_non_finite_stderr_is_an_error_row(capsys):
    # the decay's sum of squares overflows; this printed
    # 9.544804953680459e+176,nan and exited 0
    rc = main(["sweep", "--raw", "--k", "1e-150", "--beta-nu", "1e60",
               "--epsilon", "1e-30", "--samples", "10000", "--methods", "mc",
               "--rates", "beliaev", "--skip-validation"])
    captured = capsys.readouterr()
    assert rc == 3
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert len(rows) == 1 and rows[0][5] == rows[0][6] == "error"
    assert "Monte Carlo beliaev estimate" in captured.err
    assert "nan" not in captured.out


def test_oracle_at_a_huge_width_is_an_error_row_naming_it(capsys):
    # the decay's error blamed k; the absorption's squared draws all
    # underflow, and it printed 1.117e-305 +- 0.0 and exited 0
    rc = main(["oracle", "--k", "0.3", "--beta-nu", "10", "--samples",
               "10000", "--seed", "1", "--epsilon", "1e300"])
    captured = capsys.readouterr()
    assert rc == 3
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert rows == [[proc] + ["error"] * 5 for proc in ("beliaev", "landau")]
    errs = captured.err.strip().split("\n")
    assert errs[0].startswith("error in oracle (beliaev): epsilon = 1e+300 is "
                              "too large for the Monte Carlo oracle")
    assert errs[1].startswith("error in oracle (landau): Monte Carlo landau "
                              "estimate 1.1780792123486586e-305 has a standard "
                              "error below the float range")


def test_oracle_overflowing_absorption_is_an_error_row(capsys):
    # the block evaluation warned (overflow, divide, invalid) before the
    # non-finite sums raised; the suite turns warnings into errors, so
    # this ended in a RuntimeWarning traceback
    rc = main(["oracle", "--raw", "--k", "1e150", "--beta-nu", "1e-250",
               "--process", "landau", "--samples", "10000",
               "--skip-validation"])
    captured = capsys.readouterr()
    assert rc == 3
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert rows == [["landau"] + ["error"] * 5]
    assert captured.err.startswith(
        "error in oracle (landau): Monte Carlo landau estimate nan +- nan "
        "is not finite")


@pytest.mark.parametrize("k, samples, shown", [
    # two weighed draws, one 16 times the other: stderr sits just below
    # the estimate.  The id keeps the case's name from its first pin
    pytest.param("1000", "100000",
                 "5.1477528830887194e-06 +- 4.847699682296073e-06",
                 id="1000-100000-2.7236374228950873e-40 +- "
                    "2.7236237993403056e-40"),
    # no draw reaches the shell
    ("1e100", "10000", "0.0 +- 0.0"),
])
@pytest.mark.parametrize("command", ["sweep", "rate", "oracle"])
def test_monte_carlo_without_enough_draws_is_an_error_row(capsys, command, k,
                                                          samples, shown):
    # these printed one draw's estimate and 0.0 +- 0.0 with exit 0, while
    # the decay rate at k = 1000 is about 3.35e-5
    argv = [command, "--k", k, "--beta-nu", "1", "--samples", samples]
    argv += (["--process", "beliaev"] if command == "oracle"
             else ["--methods", "mc", "--rates", "beliaev"])
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert len(rows) == 1
    if command == "oracle":
        assert rows[0] == ["beliaev"] + ["error"] * 5
    else:
        assert rows[0][4] == "mc" and rows[0][5] == rows[0][6] == "error"
    assert (f"beliaev rate by monte_carlo is not usable: {shown} rests on "
            "fewer than two weighed draws") in captured.err


@pytest.mark.parametrize("epsilon, shown", [
    # draws in the mollified shell's tails, one of which carries it
    (None, ("1.987107497491389e-08", "1.9869638127133907e-08")),
    # no draw at all
    ("1e-6", ("0.0", "0.0")),
])
@pytest.mark.parametrize("command", ["sweep", "rate", "oracle"])
def test_monte_carlo_on_an_empty_support_is_a_number(tmp_path, capsys,
                                                     command, epsilon, shown):
    # the concave table leaves the decay no phase space: its rate is a
    # true zero, so the estimate is printed however few draws it rests on
    path = write_table(tmp_path / "concave.dat", concave_table())
    argv = [command, "--potential", "tabulated", "--table", path,
            "--skip-validation", "--k", "0.3", "--beta-nu", "10",
            "--samples", "10000"]
    argv += (["--process", "beliaev"] if command == "oracle"
             else ["--methods", "mc", "--rates", "beliaev"])
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
    rc, out = run(capsys, *argv)
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    assert tuple(row[1:3] if command == "oracle" else row[5:7]) == shown


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep setup\nbeta-nu = 10\nk = 0.3\nv = 0.1\n")
    rc1, out1 = run(capsys, "rate", "--config", str(cfg))
    rc2, out2 = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10",
                    "--v", "0.1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    # a flag beats the config value for the same key
    rc3, out3 = run(capsys, "rate", "--config", str(cfg), "--k", "0.5")
    rc4, out4 = run(capsys, "rate", "--k", "0.5", "--beta-nu", "10",
                    "--v", "0.1")
    assert rc3 == rc4 == 0
    assert out3 == out4
    assert out3 != out1


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 0.3\nbeta-nu = 10\nfroop = 1\n")
    rc, _ = run(capsys, "rate", "--config", str(cfg))
    assert rc == 1


def test_config_bad_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 0.3\nbeta-nu = 10\nv = fast\n")
    rc, _ = run(capsys, "rate", "--config", str(cfg))
    assert rc == 1


def test_missing_grid_is_usage_error(capsys):
    rc, _ = run(capsys, "rate", "--k", "0.3")
    assert rc == 1


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--k", "0.3", "--beta-nu", "10", "--frobnicate"])
    assert exc.value.code == 1


def test_unknown_method_exits_1(capsys):
    rc, _ = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10",
                "--methods", "fem")
    assert rc == 1


def test_mc_method_rows(capsys):
    args = ("rate", "--k", "0.3", "--beta-nu", "10", "--methods", "mc",
            "--samples", "50000", "--seed", "9")
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    row = out1.strip().split("\n")[1].split(",")
    assert row[4] == "monte_carlo"
    assert float(row[6]) > 0.0


@pytest.mark.parametrize("argv", [
    ("oracle", "--k", "0.3", "--beta-nu", "10", "--samples", "5"),
    ("oracle", "--k", "0.3", "--beta-nu", "10", "--epsilon", "-1"),
    ("oracle", "--k", "0.3", "--beta-nu", "10", "--epsilon", "nan"),
    ("sweep", "--k", "0.3", "--beta-nu", "10", "--methods", "mc",
     "--samples", "5"),
    ("rate", "--k", "0.3", "--beta-nu", "10", "--methods", "mc",
     "--epsilon", "0"),
])
def test_bad_monte_carlo_arguments_exit_1(capsys, argv):
    # a usage error, not rows of numerical failures with exit code 3
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.strip().split("\n")) == 1


def test_fewest_monte_carlo_samples_accepted(capsys):
    rc, out = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10",
                  "--methods", "mc", "--rates", "landau",
                  "--samples", str(MC_MIN_SAMPLES))
    assert rc == 0
    rc, _ = run(capsys, "rate", "--k", "0.3", "--beta-nu", "10",
                "--methods", "mc", "--rates", "landau",
                "--samples", str(MC_MIN_SAMPLES - 1))
    assert rc == 1


def test_closed_form_regime_method(capsys):
    rc, out = run(capsys, "rate", "--k", "0.01", "--beta-nu", "10",
                  "--methods", "closed_form_regime", "--rates", "beliaev")
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[4] == "closed_form_regime"
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    from bogodamp.damping import gamma_beliaev_asymptotic
    want = gamma_beliaev_asymptotic(params, model, 0.01, "high_T")
    assert float(row[5]) == pytest.approx(want, rel=1e-12)


def test_golden_sweep_bytes(tmp_path, capsys):
    """The sweep's CSV output, byte for byte.

    An output change made on purpose is declared in CHANGES.md, and the
    file is regenerated from the repository root with

        PYTHONPATH=src python -m bogodamp sweep --v 0.1 --k 1e-3,0.05 \\
            --beta-nu 50,2000 --methods quadrature,asymptotic \\
            --rates beliaev,landau,total -o tests/data/golden_sweep.csv
    """
    rc, out = run(capsys, "sweep", "--v", "0.1", "--k", "1e-3,0.05",
                  "--beta-nu", "50,2000", "--methods", "quadrature,asymptotic",
                  "--rates", "beliaev,landau,total")
    assert rc == 0
    with open(os.path.join(DATA, "golden_sweep.csv"), "r", newline="") as fh:
        assert out == fh.read()


def test_tabulated_profile_from_data_dir(capsys):
    # the momentum scan does not converge here (4.079e-4 by generic_scan)
    path = os.path.join(DATA, "dip_profile.dat")
    rc, out = run(capsys, "rate", "--potential", "tabulated", "--table", path,
                  "--skip-validation", "--k", "0.4", "--beta-nu", "4",
                  "--rates", "landau")
    assert rc == 3
    row = out.strip().split("\n")[1].split(",")
    assert row[8] == "error"


def test_unconverged_rate_is_an_error_row(capsys):
    path = os.path.join(DATA, "dip_profile.dat")
    rc = main(["rate", "--potential", "tabulated", "--table", path,
               "--skip-validation", "--k", "0.4", "--beta-nu", "4",
               "--rates", "landau"])
    captured = capsys.readouterr()
    assert rc == 3
    row = captured.out.strip().split("\n")[1].split(",")
    assert row[4] == "quadrature"
    assert row[3] == row[7] == row[8] == row[9] == "error"
    assert len(captured.err.strip().split("\n")) == 1
    assert "converged=False" in captured.err


def test_landau_past_the_hot_edge_is_a_number(capsys):
    # dqagse's extrapolation left this rate negative and unconverged
    rc, out = run(capsys, "rate", "--k", "0.3", "--beta-nu", "1e-4",
                  "--rates", "landau")
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    cells = dict(zip(CSV_HEADER.split(","), row))
    assert float(cells["gamma_L"]) == pytest.approx(26.48250174031301, rel=1e-9)


def test_zero_rate_on_a_non_empty_support_is_an_error_row(capsys):
    # the vertex cancels to 0.0 at k/sqrt(nu) = 1e-8, so the quadrature
    # returns 0.0 +- 0.0 over a support that is not empty
    rc, out = run(capsys, "rate", "--v", "0.1", "--k", "1e-8",
                  "--beta-nu", "50", "--rates", "beliaev")
    assert rc == 3
    assert out.strip().split("\n")[1].split(",")[5] == "error"


def test_oracle_with_unconverged_reference_exits_3(capsys):
    path = os.path.join(DATA, "dip_profile.dat")
    rc, out = run(capsys, "oracle", "--potential", "tabulated", "--table",
                  path, "--skip-validation", "--k", "0.4", "--beta-nu", "4",
                  "--process", "landau", "--samples", "10000")
    assert rc == 3
    assert out.strip().split("\n")[1] == "landau,error,error,error,error,error"


def test_empty_support_is_a_true_zero(tmp_path, capsys):
    # a concave dispersion leaves the decay no phase space
    path = write_table(tmp_path / "concave.dat", concave_table())
    rc, out = run(capsys, "rate", "--potential", "tabulated", "--table", path,
                  "--skip-validation", "--k", "0.3", "--beta-nu", "10",
                  "--rates", "beliaev")
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[5] == "0.0" and row[6] == "0.0"


with open(os.path.join(DATA, "cli_pins.json"), "r", encoding="utf-8") as _fh:
    PINS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_output(name, tmp_path, capsys):
    """Exit code and stdout byte for byte, as the dispatch gave them
    before rate, sweep and oracle shared one rate function.  {data} in an
    argument is the tests' data directory."""
    pin = PINS[name]
    argv = [a.replace("{data}", DATA) for a in pin["argv"]]
    if "config" in pin:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pin["config"])
        argv = [str(cfg) if a == "{config}" else a for a in argv]
    rc, out = run(capsys, *argv)
    assert rc == pin["rc"]
    assert out == pin["stdout"]


def test_rates_are_looked_up_at_call_time(monkeypatch, capsys):
    # wrappers installed on the cli module (as perfbench's recorder does)
    # must see every rate the commands compute
    calls = []

    def counted(name):
        orig = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(cli, name, wrapper)

    for name in ("gamma_beliaev_quadrature", "gamma_landau_quadrature",
                 "mc_oracle"):
        counted(name)
    rc, _ = run(capsys, "sweep", "--k", "0.1,0.3", "--beta-nu", "10",
                "--methods", "quadrature,mc", "--samples", "10000")
    assert rc == 0
    assert sorted(calls) == sorted(["gamma_beliaev_quadrature"] * 2
                                   + ["gamma_landau_quadrature"] * 2
                                   + ["mc_oracle"] * 4)
    del calls[:]
    rc, _ = run(capsys, "oracle", "--k", "0.3", "--beta-nu", "10",
                "--samples", "10000")
    assert rc == 0
    assert calls == ["mc_oracle", "gamma_beliaev_quadrature",
                     "mc_oracle", "gamma_landau_quadrature"]


def test_config_bad_boolean(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 0.3\nbeta-nu = 10\nraw = maybe\n")
    rc, _ = run(capsys, "rate", "--config", str(cfg))
    assert rc == 1
