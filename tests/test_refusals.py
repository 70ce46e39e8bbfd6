"""Refusals of public routines that no other test reaches: each raises its
typed error, with a message that names what was refused."""

import math

import pytest

from hardykit.catalog import instantiate
from hardykit.cli import main
from hardykit.config import parse_config
from hardykit.errors import HypothesisError, ParameterError, UnsupportedRangeError
from hardykit.exprdsl import parse
from hardykit.geometry import ModelGeometry
from hardykit.riccati import RiccatiPairSpec, certification_grid
from hardykit.specfun import bessel_ratio, bessel_zero
from hardykit.testfuncs import compact_bump, gaussian_type, power_cutoff
from hardykit.verifier import additive_margin, ckn_margin, extremal_identity_check, sc_margin

E3 = ModelGeometry(0.0, 3, 2.0)
H3 = ModelGeometry(-1.0, 3, 2.0)
ONE = parse("1")
BUMP = compact_bump(2.0, 1.0)

CASES = {
    "spec-interval": (lambda: RiccatiPairSpec(E3, 2.0, 1.0, ONE, ONE, ONE),
                      ParameterError, r"^invalid interval \(2\.0, 1\.0\)$"),
    "spec-sign": (lambda: RiccatiPairSpec(E3, 0.0, 1.0, ONE, ONE, ONE, g_sign_required=2),
                  ParameterError, r"^g_sign_required must be -1, 0 or \+1$"),
    "grid-one-point": (lambda: certification_grid(0.0, 1.0, n=1),
                       ParameterError, "^grid needs at least 2 points$"),
    "ckn-r-above-p": (lambda: ckn_margin(E3, BUMP, 0.0, 1.5),
                      HypothesisError, r"r > p > 1 \(r=1\.5, p=2\.0\)"),
    "ckn-alpha-plus-p": (lambda: ckn_margin(E3, BUMP, -1.5, 2.5),
                         HypothesisError, r"alpha \+ p > 1 \(alpha=-1\.5\)"),
    "sc-p": (lambda: sc_margin(ModelGeometry(-1.0, 3, 3.0), BUMP, 1.0),
             HypothesisError, r"p = 2 \(got p=3\.0\)"),
    "extremal-flat-gamma": (lambda: extremal_identity_check(E3, -1.0),
                            HypothesisError, r"gamma = 1 \+ alpha/\(p-1\) > 0 \(gamma=0\.0\)"),
    # gamma = 1.0001 against the volume growth 2t: no cutoff below 1e8
    "extremal-no-cutoff": (lambda: extremal_identity_check(H3, 1e-4),
                           HypothesisError, r"integrable tail \(no finite cutoff found\)"),
    "additive-geometry": (lambda: additive_margin(ModelGeometry(0.0, 4, 2.0),
                                                  instantiate("hardy", E3), BUMP),
                          ParameterError, "^geometry mismatch between argument and entry 'hardy'$"),
    "bump-width": (lambda: compact_bump(1.0, 1.0),
                   ParameterError, r"need 0 < width < center, got center=1\.0, width=1\.0"),
    "power-cutoff-radii": (lambda: power_cutoff(0.1, 2.0, 1.0, 3, 2.0),
                           ParameterError, r"need 0 < r0 < R, got r0=2\.0, R=1\.0"),
    # sqrt(r0 R) rounds to r0 when R is the float after r0
    "power-cutoff-cut-start": (lambda: power_cutoff(0.1, 1.0, math.nextafter(1.0, 2.0), 3, 2.0),
                               ParameterError, r"cut start 1\.0 must lie inside \(r0, R\)"),
    "gaussian-gamma": (lambda: gaussian_type(-1.0, 2.0),
                       ParameterError, r"need gamma = 1 \+ alpha/\(p-1\) > 0, got 0\.0"),
    "gaussian-scale": (lambda: gaussian_type(0.0, 2.0, 0.0),
                       ParameterError, r"need scale > 0, got 0\.0"),
    # alpha/(p-1) at p = 1 was an untyped ZeroDivisionError
    "gaussian-p-one": (lambda: gaussian_type(0.5, 1.0),
                       ParameterError, r"^gaussian_type needs a finite p > 1, got p=1\.0$"),
    "gaussian-p-inf": (lambda: gaussian_type(1.0, math.inf),
                       ParameterError, r"^gaussian_type needs a finite p > 1, got p=inf$"),
    "power-cutoff-p-one": (lambda: power_cutoff(0.1, 0.01, 1.0, 3, 1.0),
                           ParameterError, r"^power_cutoff needs a finite p > 1, got p=1\.0$"),
    "power-cutoff-p-nan": (lambda: power_cutoff(0.1, 0.01, 1.0, 3, math.nan),
                           ParameterError, r"^power_cutoff needs a finite p > 1, got p=nan$"),
    # a support end that is no positive float: the quadrature met t = nan
    "gaussian-subnormal-scale": (lambda: gaussian_type(1.0, 2.0, 1e-320), ParameterError,
                                 r"= inf is not a positive float \(gamma=2\.0, scale=1e-320\)"),
    "gaussian-infinite-scale": (lambda: gaussian_type(1.0, 2.0, math.inf), ParameterError,
                                r"= 0\.0 is not a positive float \(gamma=2\.0, scale=inf\)"),
    # (700p)^(1/gamma) overflows at gamma = 1e-6: an untyped OverflowError
    "gaussian-support-overflow": (lambda: gaussian_type(-0.999999, 2.0), ParameterError,
                                  r"^support end \(700p\)\^\(1/gamma\)/scale = inf is not"),
    "bessel-zero-order-above": (lambda: bessel_zero(50.5, 1), UnsupportedRangeError,
                                r"bessel_zero order nu=50\.5 outside \[0, 50\.0\]"),
    "bessel-zero-order-below": (lambda: bessel_zero(-0.5, 1), UnsupportedRangeError,
                                r"bessel_zero order nu=-0\.5 outside \[0, 50\.0\]"),
    "bessel-ratio-order-above": (lambda: bessel_ratio(51.0, 1.0), UnsupportedRangeError,
                                 r"bessel_ratio order nu=51\.0 outside \[0, 50\.0\]"),
    "bessel-ratio-order-below": (lambda: bessel_ratio(-1.0, 1.0), UnsupportedRangeError,
                                 r"bessel_ratio order nu=-1\.0 outside \[0, 50\.0\]"),
    "config-no-section": (lambda: parse_config("kappa = 0\n"), ParameterError,
                          "^config parse error: File contains no section headers"),
    "config-missing-key": (lambda: parse_config("[geometry]\nkappa = 0\nn = 3\n"),
                           ParameterError, r"^config missing \[geometry\] p$"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_refusal_is_typed_and_named(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()


def test_certify_of_a_missing_spec_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["certify", "--spec", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err == f"hardykit: [Errno 2] No such file or directory: {str(missing)!r}\n"
