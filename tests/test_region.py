from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from cachepriv.core import ParameterError
from cachepriv.region import (
    boundary_points,
    check_inequalities,
    corner_points_2x2,
    default_scheme_points,
    emit_region,
    frac_str,
    optimal_private_rate_2x2,
)
from oracles import minimal_rate_on_grid

F = Fraction


def test_optimal_rate_values():
    expected = {
        F(0): F(2),
        F(1, 6): F(5, 3),
        F(1, 3): F(4, 3),
        F(1, 2): F(7, 6),
        F(2, 3): F(1),
        F(1): F(2, 3),
        F(4, 3): F(1, 3),
        F(3, 2): F(1, 4),
        F(2): F(0),
    }
    for m, r in expected.items():
        assert optimal_private_rate_2x2(m) == r


def test_optimal_rate_domain():
    with pytest.raises(ParameterError):
        optimal_private_rate_2x2(F(-1, 2))
    with pytest.raises(ParameterError):
        optimal_private_rate_2x2(F(5, 2))


def test_corner_points():
    corners = corner_points_2x2()
    coords = [(p.memory, p.rate) for p in corners]
    assert coords == [
        (F(0), F(2)),
        (F(1, 3), F(4, 3)),
        (F(4, 3), F(1, 3)),
        (F(2), F(0)),
    ]
    assert [p.label for p in corners] == [
        "thm1:2,2,0",
        "example1",
        "dual",
        "thm1:2,2,2",
    ]


def test_check_inequalities():
    assert check_inequalities(F(1), F(1)) == ()
    assert set(check_inequalities(F(0), F(0))) == {
        "2M+R>=2",
        "3M+3R>=5",
        "M+2R>=2",
    }
    assert "R>=0" in check_inequalities(F(2), F(-1))
    # just below the middle constraint
    assert check_inequalities(F(1, 2), F(7, 6) - F(1, 1000)) == ("3M+3R>=5",)


def test_grid_cross_check_agrees_with_envelope():
    step = F(1, 120)
    m = F(0)
    while m <= 2:
        assert minimal_rate_on_grid(m, step) == optimal_private_rate_2x2(m)
        m += F(1, 6)


def test_boundary_points_step():
    points = boundary_points(F(1, 6))
    assert len(points) == 13
    assert points[0].memory == 0 and points[-1].memory == 2
    with pytest.raises(ParameterError):
        boundary_points(F(0))


def test_frac_str():
    assert frac_str(F(4, 3)) == "4/3"
    assert frac_str(F(2)) == "2/1"
    assert frac_str(F(0)) == "0/1"


def test_default_scheme_points_lie_on_the_boundary():
    points = default_scheme_points()
    names = [name for name, _, _ in points]
    assert names == [
        "thm1:2,2,0",
        "example1",
        "share:1/3:example1:dual",
        "dual",
        "thm1:2,2,2",
    ]
    for _, m, r in points:
        assert optimal_private_rate_2x2(m) == r


def test_emit_region_files(tmp_path):
    prefix = str(tmp_path / "region")
    csv_path, svg_path = emit_region(prefix, F(1, 6))
    csv = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert csv[0] == "M,R_optimal,scheme,label"
    boundary_rows = [line for line in csv if line.endswith(",boundary")]
    scheme_rows = [line for line in csv if line.endswith(",scheme")]
    assert len(boundary_rows) == 13
    assert len(scheme_rows) == 5
    assert "1/3,4/3,,boundary" in csv
    assert "1/1,2/3,share:1/3:example1:dual,scheme" in csv
    for line in csv[1:]:
        m_str, r_str = line.split(",")[:2]
        assert "/" in m_str and "/" in r_str

    svg = Path(svg_path).read_text(encoding="utf-8")
    for element_id in ("rate-region", "axis-m", "axis-r", "boundary"):
        assert f'id="{element_id}"' in svg
    assert 'id="point-example1"' in svg
    assert 'id="point-share-1-3-example1-dual"' in svg


def test_emit_region_with_explicit_points(tmp_path):
    prefix = str(tmp_path / "tiny")
    csv_path, _ = emit_region(prefix, F(1), points=[("demo", F(1), F(2, 3))])
    csv = Path(csv_path).read_text(encoding="utf-8")
    assert "1/1,2/3,demo,scheme" in csv
