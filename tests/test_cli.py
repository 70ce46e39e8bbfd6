import json
import math
import re

import pytest

from hardykit.cli import main
from hardykit.config import emit_config, parse_config
from hardykit.catalog import instantiate
from hardykit.geometry import ModelGeometry
from hardykit.riccati import certify
from hardykit.verifier import sharpness_sweep


def _refusal(argv, capsys) -> str:
    """The message of a refused command line: main returns 1 without
    raising, and stderr is the one line 'hardykit: <message>'."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("hardykit: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    return err[len("hardykit: "):-1]


class TestCertifyCommand:
    def test_catalog_certified_exit_zero(self, capsys):
        rc = main(["certify", "--catalog", "hardy",
                   "--params", "n=3,p=2,alpha=0,C=2"])
        assert rc == 0
        assert "certified" in capsys.readouterr().out

    def test_failed_certification_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
[geometry]
kappa = 0
n = 3
p = 2

[interval]
lo = 0
hi = inf

[expressions]
w = 1
L = 2/t
W = 1/(4*t^2)
G = 1.5/(2*t)

[flags]
g_sign_required = 1
homogeneity_hint = -2
""")
        rc = main(["certify", "--spec", str(cfg)])
        assert rc == 2

    def test_usage_error(self, capsys):
        rc = main(["certify"])
        assert rc == 1

    def test_hypothesis_violation_exit_one(self, capsys):
        rc = main(["certify", "--catalog", "hardy", "--params", "n=3,p=2,alpha=0,C=1"])
        assert rc == 1

    def test_json_report(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["certify", "--catalog", "mckean",
                   "--params", "kappa=-1,n=2,p=2", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "certified"
        assert payload["max_abs_residual"] <= 1e-10


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name,params", [
        ("hardy", "n=3,p=2,alpha=0,C=2"),
        ("acr", "n=3,p=2,D=1"),
        ("brezis_vazquez", "n=3,p=2,nu=0,D=1"),
        ("mckean", "kappa=-1,n=2,p=2"),
        ("interpolation", "kappa=-1,n=4,p=2,lam=2"),
        ("ghoussoub_moradifam", "n=4,p=2,a=1,b=1,alpha=0.5,beta=0.5,m=0.3"),
    ])
    def test_show_then_certify(self, capsys, tmp_path, name, params):
        rc = main(["catalog", "show", name, "--params", params])
        assert rc == 0
        text = capsys.readouterr().out
        cfg = tmp_path / "entry.cfg"
        cfg.write_text(text)
        rc = main(["certify", "--spec", str(cfg)])
        assert rc == 0

    def test_round_trip_certifies_identically(self):
        inst = instantiate("hardy", ModelGeometry(0.0, 3, 2.0),
                           {"alpha": 0.0, "C": 2.0})
        text = emit_config(inst.spec, inst.G)
        spec2, g2 = parse_config(text)
        rep1 = certify(inst.spec, inst.G)
        rep2 = certify(spec2, g2)
        assert rep1.verdict == rep2.verdict == "certified"
        assert rep1.min_residual == rep2.min_residual
        assert rep1.grid == rep2.grid

    @pytest.mark.parametrize("line, message", [
        # n = 3.7 was truncated to 3 and certified
        ("n = 3.7", "config [geometry] n = '3.7' is not an integer"),
        ("n = three", "config [geometry] n = 'three' is not a number"),
        ("kappa = x", "config [geometry] kappa = 'x' is not a number"),
        ("p = 2,5", "config [geometry] p = '2,5' is not a number"),
        ("lo = zero", "config [interval] lo = 'zero' is not a number"),
        ("hi = infinite", "config [interval] hi = 'infinite' is not a number"),
        ("C = abc", "config [params] C = 'abc' is not a number"),
        ("g_sign_required = yes", "config [flags] g_sign_required = 'yes' is not a number"),
        ("g_sign_required = 0.5", "config [flags] g_sign_required = '0.5' is not an integer"),
        ("homogeneity_hint = -two", "config [flags] homogeneity_hint = '-two' is not a number"),
        # a geometry or parameter that is not a finite number certified
        ("kappa = nan", "kappa=nan is not a finite number"),
        ("p = inf", "p=inf is not a finite number"),
        ("C = nan", "config [params] C = 'nan' is not a finite number"),
        ("C = -inf", "config [params] C = '-inf' is not a finite number"),
        # a misspelt flag or section was read as if the line were absent
        ("g_sign_requird = 0", "config [flags] has unknown key 'g_sign_requird' ([flags] "
                               "takes g_sign_required, homogeneity_hint, rho_kind)"),
        ("[intervl]\nhi = 5", "config has unknown section [intervl] (sections are "
                              "geometry, interval, expressions, params, flags)"),
        # a misspelt rho_kind loaded, and verify blamed the spec's rho
        ("rho_kind = radial_distanse", "rho_kind='radial_distanse' is neither "
                                       "radial_distance nor boundary_distance"),
    ], ids=["n-fraction", "n-word", "kappa", "p", "lo", "hi", "param", "sign-word",
            "sign-fraction", "hint", "kappa-nan", "p-inf", "param-nan",
            "param-inf", "unknown-key", "unknown-section", "rho-kind"])
    def test_malformed_value_exits_one(self, line, message, tmp_path, capsys):
        text = ("[geometry]\nkappa = 0\nn = 3\np = 2\n\n[interval]\nlo = 0\nhi = inf\n\n"
                "[expressions]\nw = 1\nL = 2/t\nW = C^2/(4*t^2)\nG = C/(2*t)\n\n"
                "[params]\nC = 1\n\n[flags]\ng_sign_required = 1\nhomogeneity_hint = -2\n")
        key = line.split(" = ")[0]
        if f"\n{key} = " in text:
            text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
        else:  # [flags] comes last
            text += line + "\n"
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(text)
        assert main(["certify", "--spec", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_readme_config_example_certifies(self):
        # its inline ';' comments were read as part of the values
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        spec, G = parse_config(block)
        assert (spec.t_hi, spec.L.source, spec.g_sign_required) == (math.inf, "C/t", 1)
        assert certify(spec, G).verdict == "certified"

    @pytest.mark.parametrize("field", ["w", "L", "W"])
    def test_emit_refuses_what_the_format_cannot_write(self, field):
        from dataclasses import replace

        from hardykit.errors import ParameterError
        from hardykit.geometry import ComparisonL
        from hardykit.riccati import FuncEval

        inst = instantiate("hardy", ModelGeometry(0.0, 3, 2.0), {"alpha": 0.0, "C": 2.0})
        other = (FuncEval(lambda t: 2.0 / t, name="2/t") if field == "L"
                 else ComparisonL(inst.spec.geo, "constant_curvature"))
        with pytest.raises(ParameterError, match=f"^{field} is not expression-backed"):
            emit_config(replace(inst.spec, **{field: other}), inst.G)

    def test_greene_wu_show_reports_unexpressible(self, capsys):
        rc = main(["catalog", "show", "greene_wu_psi",
                   "--params", "kappa=-1,n=3,p=2,psi=s(t)"])
        assert rc == 3


class TestOtherCommands:
    def test_bessel_zeros_output(self, capsys):
        rc = main(["bessel-zeros", "--nu", "0", "--count", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[0]) == pytest.approx(2.404825557695773, abs=1e-12)
        assert float(lines[1]) == pytest.approx(5.520078110286311, abs=1e-12)

    def test_catalog_list(self, capsys):
        rc = main(["catalog", "list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("hardy", "mckean", "ghoussoub_moradifam"):
            assert name in out

    def test_catalog_show_unknown_exit_one(self, capsys):
        rc = main(["catalog", "show", "unknown"])
        assert rc == 1

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--catalog", "hardy", "--params", "n=3,p=2,bogus=1"],
         "catalog entry 'hardy': unknown parameter 'bogus'; it takes alpha, C"),
        (["catalog", "show", "hardy", "--params", "n=3,bogus=1"],
         "catalog entry 'hardy': unknown parameter 'bogus'; it takes alpha, C"),
        (["certify", "--catalog", "greene_wu_psi", "--params", "n=3,p=2"],
         "catalog entry 'greene_wu_psi': missing parameter 'psi'; "
         "it takes psi (required), t_hi"),
        (["certify", "--catalog", "hardy", "--params", "n=3,p=2,alpha=abc"],
         "catalog entry 'hardy': alpha='abc' is not a finite number; it takes alpha, C"),
    ], ids=["certify-unknown", "show-unknown", "certify-missing", "certify-non-numeric"])
    def test_catalog_parameter_names_checked(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        # n = 3.7 was truncated to 3 and certified
        (["certify", "--catalog", "hardy", "--params", "n=3.7,p=2,alpha=0,C=2"],
         "geometry parameter n=3.7 is not an integer"),
        (["certify", "--catalog", "hardy", "--params", "n=abc,p=2"],
         "geometry parameter n='abc' is not a number"),
        (["certify", "--catalog", "mckean", "--params", "kappa=x,n=2,p=2"],
         "geometry parameter kappa='x' is not a number"),
        (["verify", "--inequality", "up", "--params", "kappa=0,n=3,p=abc,alpha=1"],
         "geometry parameter p='abc' is not a number"),
        (["sweep", "--inequality", "hardy", "--params", "n=2.5,p=2,alpha=0"],
         "geometry parameter n=2.5 is not an integer"),
        # a geometry that is not a number certified
        (["certify", "--catalog", "hardy", "--params", "kappa=nan,n=3,p=2,alpha=0,C=2"],
         "kappa=nan is not a finite number"),
        (["certify", "--catalog", "hardy", "--params", "kappa=-inf,n=3,p=2,alpha=0,C=2"],
         "kappa=-inf is not a finite number"),
        (["verify", "--inequality", "up", "--params", "kappa=0,n=3,p=inf,alpha=1"],
         "p=inf is not a finite number"),
    ], ids=["n-fraction", "n-non-numeric", "kappa-non-numeric", "p-non-numeric",
            "sweep-n-fraction", "kappa-nan", "kappa-minus-inf", "p-inf"])
    def test_geometry_parameters_checked(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("family, message", [
        ("power_cutoff:eps=0.1", "family 'power_cutoff:eps=0.1': missing key 'r0'; "
                                 "missing key 'R'; it takes eps (required), "
                                 "r0 (required), R (required), alpha"),
        ("bumps:count=x", "family 'bumps:count=x': count='x' is not a finite number; "
                          "it takes count, seed, lo, hi, span"),
        # a family of no members would pass having checked nothing
        ("bumps:count=0", "family 'bumps:count=0': count=0.0 is not a positive "
                          "integer; it takes count, seed, lo, hi, span"),
        ("bumps:count=-2", "family 'bumps:count=-2': count=-2.0 is not a positive "
                           "integer; it takes count, seed, lo, hi, span"),
        # an ignored key would silently keep the default it was meant to change
        ("bumps:count=3,bogus=1", "family 'bumps:count=3,bogus=1': unknown key "
                                  "'bogus'; it takes count, seed, lo, hi, span"),
        ("bumps:count=3,sed=3", "family 'bumps:count=3,sed=3': unknown key 'sed'; "
                                "it takes count, seed, lo, hi, span"),
        # seed 7.5 was truncated to seed 7
        ("bumps:count=3,seed=7.5", "family 'bumps:count=3,seed=7.5': seed=7.5 is "
                                   "not an integer; it takes count, seed, lo, hi, span"),
    ], ids=["missing-key", "non-numeric", "count-zero", "count-negative", "unknown-key",
            "misspelt-key", "seed-fraction"])
    def test_bad_family_spec_exits_one(self, family, message, capsys):
        assert _refusal(["verify", "--inequality", "hardy", "--params", "n=3,p=2",
                         "--family", family], capsys) == message

    def test_every_refusal_is_one_line(self, tmp_path, capsys):
        # a bad --params item, a bad --family and an unread sweep key raised
        # SystemExit out of main; the rest printed their own message form
        inst = instantiate("hardy", ModelGeometry(0.0, 3, 2.0), {"alpha": 0.0, "C": 2.0})
        cfg = tmp_path / "h.cfg"
        cfg.write_text(emit_config(inst.spec, inst.G))
        spec = ["--spec", str(cfg)]
        refusals = [
            (["certify", "--catalog", "hardy", "--params", "n=3,p"], "bad item 'p'"),
            (["verify", "--inequality", "hardy", "--params", "n=3", "--family", "nope"],
             "unknown family 'nope'"),
            (["verify", "--inequality", "hardy", "--params", "n=3", "--family",
              "bumps:cnt=2"], "unknown key 'cnt'"),
            (["sweep", "--inequality", "ckn", "--params", "n=3,alpha=1,rr=3"],
             "unknown key 'rr'"),
            (["certify", "--catalog", "hardy"] + spec, "exactly one of --spec or --catalog"),
            (["certify"], "exactly one of --spec or --catalog"),
            (["solve-riccati", "--t0", "1", "--g0", "0.5", "--samples", "2", "1", "5"] + spec,
             "bad --samples 2.0 1.0 5.0"),
            (["solve-riccati", "--t0", "1", "--g0", "0.5", "--samples", "1", "2", "1"] + spec,
             "bad --samples 1.0 2.0 1.0"),
            # COUNT 2.5 gave 2 samples that stopped short of HI, COUNT nan a
            # ValueError traceback, and HI inf samples at t = inf
            *[(["solve-riccati", "--t0", "1", "--g0", "0.5", "--samples", *samples] + spec,
               "bad --samples") for samples in (("0.1", "10", "2.5"), ("0.1", "10", "nan"),
                                                ("0", "inf", "3"))],
            (["verify", "--inequality", "ckn", "--H", "s^2"], "--H applies to catalog"),
            (["verify", "--inequality", "hardy"] + spec, "--spec applies to generic mode"),
            (["verify", "--inequality", "generic", "--params", "n=3"] + spec,
             "--params not accepted"),
            (["verify", "--inequality", "generic"], "--spec required"),
            (["catalog", "show", "nothing"], "unknown catalog entry 'nothing'"),
        ]
        for argv, message in refusals:
            assert message in _refusal(argv, capsys), argv

    def test_density_overflow_is_a_quadrature_error(self, capsys):
        # s_kappa is finite at t = 383 but s_kappa^2 is not: an OverflowError
        # traceback ended the command
        rc = main(["verify", "--inequality", "mckean", "--params", "kappa=-1,n=3,p=2",
                   "--family", "bumps:lo=380,hi=400,count=1"])
        assert rc == 3
        assert capsys.readouterr().err == \
            "hardykit: integrand non-finite at t=383.1912683347299\n"

    def test_subnormal_plateau_radius_is_a_quadrature_error(self, capsys):
        # b/a = inf in quadrature._graded_edges: an OverflowError traceback
        rc = main(["verify", "--inequality", "hardy", "--params", "kappa=0,n=3,p=2,alpha=0",
                   "--family", "power_cutoff:eps=0.1,r0=5e-324,R=100"])
        assert rc == 3
        assert capsys.readouterr().err == "hardykit: integrand non-finite at t=3e-323\n"

    def test_sweep_hypothesis_violation_exit_one(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["sweep", "--inequality", "up", "--params", "n=3,p=2,alpha=5",
                   "--out", str(out)])
        assert rc == 1
        assert "hypothesis violated" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_hardy_hypothesis_violation_exit_one(self, capsys):
        # a complex sharp constant was printed, every member skipped, exit 0
        rc = main(["sweep", "--inequality", "hardy", "--params", "n=2,p=2.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "hypothesis violated: n + alpha > p" in captured.err
        assert captured.out == ""

    def test_sweep_hardy_underflowing_cut_refused(self, capsys):
        # a traceback from math.log(0) of power_cutoff's cut derivative
        assert _refusal(["sweep", "--inequality", "hardy", "--params", "n=3,p=2,alpha=1000"],
                        capsys) == ("the cut's derivative underflows to 0 before R=100.0 "
                                    "(n + alpha - p = 1001.0)")

    def test_spectrum(self, capsys):
        rc = main(["spectrum", "--kappa", "0", "--n", "2", "--R", "1", "--N", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5.78" in out

    @pytest.mark.parametrize("kappa,n,R,message", [
        # lambda1 = nan was printed with exit code 0
        ("0", "2", "nan", "need finite R > 0, got nan"),
        # an OverflowError traceback
        ("-1", "3", "400", "leaves float range"),
    ], ids=["nan-radius", "overflowing-density"])
    def test_spectrum_bad_ball_exits_one(self, kappa, n, R, message, capsys):
        rc = main(["spectrum", "--kappa", kappa, "--n", n, "--R", R, "--N", "400"])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_solve_riccati(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        main(["catalog", "show", "hardy", "--params", "n=3,p=2,alpha=0,C=2"])
        cfg.write_text(capsys.readouterr().out)
        rc = main(["solve-riccati", "--spec", str(cfg), "--t0", "1", "--g0", "0.5",
                   "--samples", "0.5", "2", "5"])
        assert rc == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        for t_str, g_str in rows:
            assert float(g_str) == pytest.approx(1.0 / (2.0 * float(t_str)), abs=1e-8)

    def test_solve_riccati_default_samples(self, tmp_path, capsys):
        # the default COUNT is a float like a given one: an int 64 has no
        # is_integer before Python 3.12
        cfg = tmp_path / "h.cfg"
        main(["catalog", "show", "hardy", "--params", "n=3,p=2,alpha=0,C=2"])
        cfg.write_text(capsys.readouterr().out)
        assert main(["solve-riccati", "--spec", str(cfg), "--t0", "1", "--g0", "0.5"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 64
        assert float(rows[0][0]) == pytest.approx(0.1) and float(rows[-1][0]) == pytest.approx(10.0)

    def test_verify_up_report(self, tmp_path):
        out = tmp_path / "up.json"
        rc = main(["verify", "--inequality", "up",
                   "--params", "kappa=0,n=3,p=2,alpha=1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["inequality"] == "up"
        assert len(payload["members"]) == 4
        for member in payload["members"]:
            assert member["margin"] >= -1e-9
        assert set(payload["members"][0]) == {"family_param", "lhs", "rhs",
                                              "margin", "quad_error"}
        # the default family is the sweep's: same members, same margins
        sw = sharpness_sweep("up", ModelGeometry(0.0, 3, 2.0), {"alpha": 1.0})
        assert [(m["family_param"], m["lhs"], m["rhs"], m["margin"], m["quad_error"])
                for m in payload["members"]] == \
            [(r.family_param, r.lhs, r.rhs, r.margin, r.quad_error) for r in sw.rows]

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_scales_param_is_not_an_option(self, command, tmp_path, capsys):
        # the default up family has fixed scales; a 'scales' key is refused
        # like any other key the mode does not read, not iterated
        out = tmp_path / f"{command}.json"
        assert main([command, "--inequality", "up", "--params", "kappa=0,n=3,p=2,alpha=1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert _refusal([command, "--inequality", "up", "--params",
                         "kappa=0,n=3,p=2,alpha=1,scales=2", "--out", str(out)], capsys) == \
            "up params beside the geometry (kappa, n, p): unknown key 'scales'; it takes alpha"

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--inequality", "hardy", "--params", "n=3,p=2,aplha=0.5"],
         "hardy params beside the geometry (kappa, n, p): unknown key 'aplha'; it takes alpha"),
        (["verify", "--inequality", "up", "--params", "n=3,p=2,alhpa=0.5"],
         "up params beside the geometry (kappa, n, p): unknown key 'alhpa'; it takes alpha"),
        # r enters ckn only
        (["sweep", "--inequality", "up", "--params", "n=3,p=2,r=3"],
         "up params beside the geometry (kappa, n, p): unknown key 'r'; it takes alpha"),
        (["verify", "--inequality", "ckn", "--params", "n=3,p=2,alpha=1,rr=3"],
         "ckn params beside the geometry (kappa, n, p): unknown key 'rr'; it takes alpha, r"),
        (["sweep", "--inequality", "ckn", "--params", "n=3,p=2,alpha=1,r=x"],
         "ckn params beside the geometry (kappa, n, p): r='x' is not a finite number; "
         "it takes alpha, r"),
    ], ids=["sweep-hardy-misspelt", "verify-up-misspelt", "sweep-up-r", "verify-ckn-unknown",
            "sweep-ckn-non-numeric"])
    def test_unread_params_key_exits_one(self, argv, message, tmp_path, capsys):
        # an ignored key would silently keep the default it was meant to change
        assert _refusal(argv + ["--out", str(tmp_path / "out.json")], capsys) == message
        assert not (tmp_path / "out.json").exists()

    def test_verify_catalog_entry_with_bumps(self, tmp_path):
        out = tmp_path / "mk.json"
        rc = main(["verify", "--inequality", "mckean",
                   "--params", "kappa=-1,n=2,p=2", "--family", "bumps:count=6,seed=3",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["min_margin"] >= -1e-9

    def test_verify_bumps_default_to_the_entry_interval(self, tmp_path):
        # acr lives on (0, D); bumps without lo/hi are drawn there, like the
        # default family, whose first members they are
        outs = {}
        for family in ("bumps:count=3", "default"):
            out = tmp_path / f"{family[:5]}.json"
            assert main(["verify", "--inequality", "acr", "--params", "n=3,p=2,D=1",
                         "--family", family, "--out", str(out)]) == 0
            outs[family] = json.loads(out.read_text())["members"]
        assert outs["bumps:count=3"] == outs["default"][:3]

    @pytest.mark.parametrize("inequality, option", [("up", "--H"), ("ckn", "--H"),
                                                    ("up", "--spec"), ("hardy", "--spec")])
    def test_verify_rejects_options_its_mode_ignores(self, inequality, option, tmp_path,
                                                      capsys):
        out = tmp_path / "r.json"
        value = "s^4" if option == "--H" else str(tmp_path / "any.cfg")
        rc = main(["verify", "--inequality", inequality, "--params",
                   "kappa=0,n=3,p=2,alpha=1,r=3,C=2", option, value, "--out", str(out)])
        assert rc == 1
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_verify_generic_rejects_params(self, tmp_path, capsys):
        # the report would name a geometry the run did not use
        main(["catalog", "show", "mckean", "--params", "kappa=-1,n=2,p=2"])
        cfg = tmp_path / "mk.cfg"
        cfg.write_text(capsys.readouterr().out)
        out = tmp_path / "gen.json"
        rc = main(["verify", "--inequality", "generic", "--spec", str(cfg),
                   "--params", "kappa=-2,n=5", "--out", str(out)])
        assert rc == 1
        assert "--params" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_generic_mode(self, tmp_path, capsys):
        main(["catalog", "show", "hardy", "--params", "n=3,p=2,alpha=0,C=2"])
        cfg = tmp_path / "h.cfg"
        cfg.write_text(capsys.readouterr().out)
        out = tmp_path / "gen.json"
        rc = main(["verify", "--inequality", "generic", "--spec", str(cfg),
                   "--H", "s^2/2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["min_margin"] >= -1e-9

    def test_verify_generic_uses_the_spec_weight_and_interval(self, tmp_path, capsys):
        main(["catalog", "show", "hardy", "--params", "n=3,p=2,alpha=1.5"])
        cfg = tmp_path / "h.cfg"
        cfg.write_text(capsys.readouterr().out)
        gen, cat = tmp_path / "gen.json", tmp_path / "cat.json"
        assert main(["verify", "--inequality", "generic", "--spec", str(cfg),
                     "--out", str(gen)]) == 0
        assert main(["verify", "--inequality", "hardy", "--params", "n=3,p=2,alpha=1.5",
                     "--out", str(cat)]) == 0
        members = json.loads(gen.read_text())["members"]
        assert len(members) == 20
        assert members == json.loads(cat.read_text())["members"]

    def test_verify_generic_rejects_boundary_distance_spec(self, tmp_path, capsys):
        main(["catalog", "show", "caccioppoli", "--params", "n=3,p=2"])
        cfg = tmp_path / "c.cfg"
        cfg.write_text(capsys.readouterr().out)
        rc = main(["verify", "--inequality", "generic", "--spec", str(cfg)])
        assert rc == 1
        assert "rho = boundary_distance" in capsys.readouterr().err

    def test_verify_catalog_mode_takes_H(self, tmp_path):
        rhs = []
        for extra in ([], ["--H", "s^2/2+s^4"]):
            out = tmp_path / f"mk{len(extra)}.json"
            assert main(["verify", "--inequality", "mckean", "--params", "kappa=-1,n=2,p=2",
                         "--family", "bumps:count=5,seed=3", "--out", str(out)] + extra) == 0
            rhs.append([m["rhs"] for m in json.loads(out.read_text())["members"]])
        assert rhs[0] != rhs[1]

    def test_sweep_hardy_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--inequality", "hardy",
                   "--params", "kappa=0,n=3,p=2,alpha=0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["sharp_constant"] == 0.25
        assert payload["summary"]["achieved_ratio_extremum"] <= 0.2510

    def test_sweep_hardy_sigma_above_one(self, capsys):
        # sigma = 1.5: the profile's plateau value no longer overflows
        rc = main(["sweep", "--inequality", "hardy", "--params", "kappa=0,n=5,p=2,alpha=0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("hardy: sharp constant 2.25, achieved extremum 2.25259,")

    @pytest.mark.parametrize("inequality, params, family", [
        ("up", "kappa=0,n=3,p=2,alpha=1", "gaussian:alpha=1,scale=2"),
        ("ckn", "kappa=0,n=3,p=2,alpha=1,r=3", "talenti:alpha=1,r=3,scale=2"),
    ])
    def test_verify_given_scaled_family(self, inequality, params, family, tmp_path):
        # a --family member is the default family's member at its scale
        # (0.5, 1, 2, 4): the same lhs, rhs and margin
        given, default = tmp_path / "given.json", tmp_path / "default.json"
        argv = ["verify", "--inequality", inequality, "--params", params]
        assert main(argv + ["--family", family, "--out", str(given)]) == 0
        assert main(argv + ["--out", str(default)]) == 0
        members = json.loads(given.read_text())["members"]
        assert [m["family_param"] for m in members] == [2.0]
        assert members[0] == json.loads(default.read_text())["members"][2]

    def test_solve_riccati_blow_up_exits_three(self, tmp_path, capsys):
        # the equality ODE grows like G' ~ G^2 for large G, so from G(1) = 50
        # the trajectory passes the cap near t = 1 + 1/50, before the second
        # sample; the sample at t0 is printed, the blow-up goes to stderr
        cfg = tmp_path / "h.cfg"
        main(["catalog", "show", "hardy", "--params", "n=3,p=2,alpha=0,C=2"])
        cfg.write_text(capsys.readouterr().out)
        rc = main(["solve-riccati", "--spec", str(cfg), "--t0", "1", "--g0", "50",
                   "--samples", "1", "10", "5"])
        assert rc == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("# blow-up near t = ")
        assert "Traceback" not in captured.err
        rows = [line.split() for line in captured.out.strip().splitlines()]
        assert rows == [["1.0", "50.0"]]
        assert float(lines[0].split()[5]) == pytest.approx(1.02, abs=1e-3)

    def test_gm_positivity_csv_to_stdout(self, tmp_path, capsys):
        # without --out the CSV goes to stdout, byte for byte the file's
        out = tmp_path / "gm.csv"
        assert main(["gm-positivity", "--out", str(out), "--t-points", "20"]) == 0
        to_file = capsys.readouterr()
        assert main(["gm-positivity", "--t-points", "20"]) == 0
        to_stdout = capsys.readouterr()
        assert to_file.out == ""
        assert to_stdout.out == out.read_text()
        assert to_stdout.err == to_file.err and to_stdout.err.startswith("# 216 parameter points")

    def test_gm_positivity_csv(self, tmp_path):
        out = tmp_path / "gm.csv"
        rc = main(["gm-positivity", "--out", str(out), "--t-points", "40"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,b,alpha,beta,m,n,min_G,argmin_t,in_thm422_region"
        assert len(lines) == 217
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[6]) > 0.0


class TestDeterminism:
    def test_json_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--inequality", "up", "--params",
                "kappa=0,n=3,p=2,alpha=1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spectrum_json_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["spectrum", "--kappa", "-1", "--n", "3", "--R", "2", "--N", "400"]
        assert main(argv + ["--json", str(a)]) == 0
        assert main(argv + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert {k: payload[k] for k in ("kappa", "n", "R", "N")} == \
            {"kappa": -1.0, "n": 3, "R": 2.0, "N": 400}
        # the printed value is the report's
        assert f"lambda1 = {payload['lambda1']:.6g}" in capsys.readouterr().out

    def test_gm_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gm-positivity", "--out", str(a), "--t-points", "30"]) == 0
        assert main(["gm-positivity", "--out", str(b), "--t-points", "30"]) == 0
        assert a.read_bytes() == b.read_bytes()
