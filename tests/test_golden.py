"""Golden pins of the smoothed-warping outputs.

The curvature curve and the construction checks of the standard
oscillating model are pinned to the bit: the SHA-256 of `ricci_curve.csv`
written by the ricci-check mode, its Christoffel-oracle agreement margin,
and the float bits (`float.hex`) of every number the build-example checks
report.  At the default 1e300 bound the certificate and the replacement
inequalities of the blends past 1e70 are pinned as well.  The pins are
read from the exponent frames of f and h (`curvature.scaled_ricci`); a
change that moves one lists it, old and new, in CHANGES.md.
"""

import hashlib

import pytest

from warplab.config import parse_config
from warplab.harness import run
from warplab.ladder import OscillationParams
from warplab.smoothing import (
    build_oscillating_h,
    certification_grid,
    certify_positive_ricci,
    construction_invariants,
    dimension_threshold,
    effective_exponent_max,
    verify_observation,
    _short,
)
from warplab.warping import standard_f

OSC_1E40 = {"alpha": 0.6, "beta": 1.2, "A": 0.3, "B": 1.5, "radius_bound": 1e40}


@pytest.mark.parametrize("model, digest, margin, oracle_margin", [
    ({"alpha": 0.5},
     "5574f3081bdf5aefe2da9b4db2eea56c357c836c08b1c5ec3c632dd4b2367d54",
     "0x1.f6e9c39b1a2b1p-77", "0x1.9a701ad65626cp-31"),
    (OSC_1E40,
     "5293a8004e533aeea3755995e1e9056fe8d478a4875cbfcd14587afff35faafb",
     "-0x1.e4e378347c48cp-8", "0x1.94df1a5e7dd2ep-31"),
], ids=["pure", "osc-1e40"])
def test_ricci_curve_csv_digest(tmp_path, model, digest, margin, oracle_margin):
    report = run(parse_config(None, {"mode": "ricci-check", "outdir": str(tmp_path),
                                     "seed": 12345, **model}))
    data = (tmp_path / "ricci_curve.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    check = next(c for c in report.checks if c.name == "ricci-positive(k=8)")
    assert check.margin.hex() == margin
    # the Christoffel oracle's worst relative disagreement over the seeded radii
    check = next(c for c in report.checks if c.name == "ricci-oracle-agreement")
    assert check.margin.hex() == oracle_margin


def test_osc_build_checks_golden_bits():
    params = OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2)
    _, sm = build_oscillating_h(params, radius_bound=1e40)
    inv = construction_invariants(sm, 1e-3)
    # gaps of the log readers at each junction's double radius: an ulp of
    # y = log(1 + r^2) times the exponent step, or none
    assert [g.hex() for g in inv.junction_gaps] == [
        "0x0.0p+0", "0x1.fffffffffffe0p-48", "0x0.0p+0", "0x0.0p+0",
    ]
    assert inv.monotone and inv.blends_ok
    assert (inv.worst_c.hex(), inv.worst_C.hex()) == (
        "0x1.fae148b3670a5p-3", "0x1.25d1ab542ed6dp+2")

    grid, labels = certification_grid(sm, r_min=1e-3)
    p_eff = effective_exponent_max(sm, grid)
    assert p_eff.hex() == "0x1.8000000000000p+0"
    cap = int(4 * dimension_threshold(p_eff))
    cert = certify_positive_ricci(sm, standard_f(), cap, grid, labels)
    assert (cert.k, cap, cert.grid_size) == (53, 192, 3120)
    assert [(m.label, float(m.r).hex(), m.margin.hex()) for m in cert.margins] == [
        ("blend@1e+06", "0x1.7dec8063c8ffdp+2", "0x1.fb6aea1fafe03p-4"),
        ("blend@5.002e+12", "0x1.9596e7666eb0ap+3", "0x1.1233e7fe9d3a0p+0"),
        ("bridge(p=1.5)", "0x1.794b5fa65ddacp+2", "0x1.4000000090bc1p+0"),
        ("blend@100", "0x1.0c60c9ae4520ap+1", "0x1.415daf8fbff53p+0"),
        ("piece(p=1.2)", "0x1.1433990120f25p+3", "0x1.45c28f5c28f5cp+2"),
        ("piece(p=0.6)", "0x1.318dd108cb1b8p+5", "0x1.53851eb851eb8p+3"),
        ("blend@1.251e+38", "0x1.318d5493ec3ebp+5", "0x1.53857a5b4dd52p+3"),
        ("bridge(p=0.3)", "0x1.9b271235b798fp+3", "0x1.8947ae147ae14p+3"),
    ]


def test_osc_default_bound_tail_golden_bits(osc_build):
    # the default 1e300 bound: certification and the replacement
    # inequalities reach the blends past 1e70 (R = 7.8e76 and 4.8e230)
    _, sm = osc_build
    grid, labels = certification_grid(sm)
    p_eff = effective_exponent_max(sm, grid)
    assert p_eff.hex() == "0x1.8000000000000p+0"
    cap = int(4 * dimension_threshold(p_eff))
    cert = certify_positive_ricci(sm, standard_f(), cap, grid, labels)
    assert (cert.k, cap, cert.grid_size) == (53, 192, 4560)
    assert [(m.label, float(m.r).hex(), m.margin.hex()) for m in cert.margins] == [
        ("blend@4.794e+230", "0x1.cd4be22c089dep+7", "0x1.fb6aea194ba00p-4"),
        ("blend@1e+06", "0x1.7dec8063c8ffdp+2", "0x1.fb6aea1fafe03p-4"),
        ("blend@5.002e+12", "0x1.9596e7666eb0ap+3", "0x1.1233e7fe9d3a0p+0"),
        ("bridge(p=1.5)", "0x1.353deb4707c69p+6", "0x1.4000000000000p+0"),
        ("blend@7.827e+76", "0x1.33f60beb00a6ap+6", "0x1.40089881b2bc0p+0"),
        ("blend@100", "0x1.0c60c9ae4520ap+1", "0x1.415daf8fbff53p+0"),
        ("piece(p=1.2)", "0x1.1433990120f25p+3", "0x1.45c28f5c28f5cp+2"),
        ("piece(p=0.6)", "0x1.3232729986037p+5", "0x1.53851eb851eb8p+3"),
        ("blend@1.251e+38", "0x1.318d5493ec3ebp+5", "0x1.53857a5b4dd52p+3"),
        ("bridge(p=0.3)", "0x1.9b271235b798fp+3", "0x1.8947ae147ae14p+3"),
    ]
    tail = [b for b in sm.blends if b.R > 1e70]
    assert [_short(b.R) for b in tail] == ["7.827e+76", "4.794e+230"]
    observed = [verify_observation(b.left, sm, (b.lo, b.hi), n=400) for b in tail]
    assert [(o.ok, o.c.hex(), o.C.hex()) for o in observed] == [
        (True, "0x1.fae1499f3a976p-1", "0x1.25d0af1027de3p+2"),
        (True, "0x1.9581063649169p-1", "0x1.1ad2e2a434ad3p+0"),
    ]
