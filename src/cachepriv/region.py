"""The exact memory-rate trade-off for two files and two private users.

The optimal region is the set of (M, R) with R >= 0 meeting three linear
constraints; the lower boundary is their upper envelope.  Everything here is
exact rational arithmetic, and the emitted artifacts (CSV and SVG) serialize
rationals as p/q strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ParameterError, SchemeInstance

# each constraint is a*M + b*R >= c
CONSTRAINTS_2X2: tuple[tuple[Fraction, Fraction, Fraction, str], ...] = (
    (Fraction(2), Fraction(1), Fraction(2), "2M+R>=2"),
    (Fraction(3), Fraction(3), Fraction(5), "3M+3R>=5"),
    (Fraction(1), Fraction(2), Fraction(2), "M+2R>=2"),
)


@dataclass(frozen=True)
class RatePoint:
    memory: Fraction
    rate: Fraction
    label: str


def optimal_private_rate_2x2(memory: Fraction | int | str) -> Fraction:
    """Smallest achievable private rate at the given memory, two files and
    two users: the upper envelope of the three boundary constraints."""
    m = Fraction(memory)
    if not 0 <= m <= 2:
        raise ParameterError(f"memory {m} outside [0, 2]")
    best = Fraction(0)
    for a, b, c, _ in CONSTRAINTS_2X2:
        best = max(best, (c - a * m) / b)
    return best


def _intersect(
    l1: tuple[Fraction, Fraction, Fraction, str],
    l2: tuple[Fraction, Fraction, Fraction, str],
) -> tuple[Fraction, Fraction]:
    a1, b1, c1, _ = l1
    a2, b2, c2, _ = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise ParameterError("parallel boundary lines")
    m = (c1 * b2 - c2 * b1) / det
    r = (a1 * c2 - a2 * c1) / det
    return m, r


def corner_points_2x2() -> tuple[RatePoint, ...]:
    """The four extreme points of the optimal boundary, with the scheme
    achieving each: the axis endpoints of the outermost constraints and the
    two intersections of adjacent constraints."""
    first, middle, last = CONSTRAINTS_2X2
    lo = _intersect(first, middle)
    hi = _intersect(middle, last)
    labels = ("thm1:2,2,0", "example1", "dual", "thm1:2,2,2")
    points = (
        (Fraction(0), first[2] / first[1]),
        lo,
        hi,
        (last[2] / last[0], Fraction(0)),
    )
    return tuple(RatePoint(m, r, lab) for (m, r), lab in zip(points, labels))


def check_inequalities(
    memory: Fraction | int | str, rate: Fraction | int | str
) -> tuple[str, ...]:
    """Labels of the region constraints violated by (memory, rate)."""
    m, r = Fraction(memory), Fraction(rate)
    violated = [lab for a, b, c, lab in CONSTRAINTS_2X2 if a * m + b * r < c]
    if r < 0:
        violated.append("R>=0")
    return tuple(violated)


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def boundary_points(step: Fraction) -> list[RatePoint]:
    step = Fraction(step)
    if step <= 0:
        raise ParameterError("step must be positive")
    points = []
    m = Fraction(0)
    while m <= 2:
        points.append(RatePoint(m, optimal_private_rate_2x2(m), "boundary"))
        m += step
    return points


def default_scheme_points() -> list[tuple[str, Fraction, Fraction]]:
    from .lift import (
        basic_private_scheme,
        high_memory_private_scheme,
        low_memory_private_scheme,
    )
    from .schemes import memory_share
    from .verifier import measure_rates

    schemes: list[SchemeInstance] = [
        basic_private_scheme(2, 2, 0),
        low_memory_private_scheme(),
        high_memory_private_scheme(),
        basic_private_scheme(2, 2, 2),
    ]
    schemes.insert(
        2, memory_share(schemes[1], schemes[2], Fraction(1, 3))
    )
    out = []
    for s in schemes:
        m, r, _ = measure_rates(s)
        out.append((s.name, m, r))
    return out


def _svg(boundary: Sequence[RatePoint], points) -> str:
    # fixed axes [0, 2] x [0, 2], 400x400 plot area with 60px margins
    def px(m: Fraction) -> float:
        return 60 + float(m) / 2 * 400

    def py(r: Fraction) -> float:
        return 460 - float(r) / 2 * 400

    poly = " ".join(f"{px(p.memory):.2f},{py(p.rate):.2f}" for p in boundary)
    lines = [
        '<svg id="rate-region" xmlns="http://www.w3.org/2000/svg" '
        'viewBox="0 0 520 520">',
        '<rect width="520" height="520" fill="white"/>',
        '<line id="axis-m" x1="60" y1="460" x2="460" y2="460" stroke="black"/>',
        '<line id="axis-r" x1="60" y1="460" x2="60" y2="60" stroke="black"/>',
        '<text x="260" y="500" text-anchor="middle">memory M</text>',
        '<text x="20" y="260" text-anchor="middle" transform="rotate(-90 20 260)">'
        "rate R</text>",
    ]
    for v in range(3):
        mx = px(Fraction(v))
        my = py(Fraction(v))
        lines.append(
            f'<line x1="{mx:.0f}" y1="460" x2="{mx:.0f}" y2="465" stroke="black"/>'
        )
        lines.append(f'<text x="{mx:.0f}" y="478" text-anchor="middle">{v}</text>')
        lines.append(
            f'<line x1="55" y1="{my:.0f}" x2="60" y2="{my:.0f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="48" y="{my:.0f}" text-anchor="end" dy="4">{v}</text>'
        )
    lines.append(
        f'<polyline id="boundary" points="{poly}" fill="none" stroke="blue" '
        'stroke-width="2"/>'
    )
    for name, m, r in points:
        safe = "".join(ch if ch.isalnum() else "-" for ch in name)
        lines.append(
            f'<circle id="point-{safe}" cx="{px(m):.2f}" cy="{py(r):.2f}" r="5" '
            'fill="red"/>'
        )
        lines.append(
            f'<text x="{px(m) + 8:.2f}" y="{py(r) - 8:.2f}" font-size="12">'
            f"{name}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_region(
    path_prefix: str,
    sample_step: Fraction | str = Fraction(1, 6),
    points: Sequence[tuple[str, Fraction, Fraction]] | None = None,
) -> tuple[str, str]:
    """Write <prefix>.csv and <prefix>.svg describing the trade-off.

    CSV columns are M,R_optimal,scheme,label with rationals as p/q; boundary
    samples carry label "boundary" and an empty scheme column, measured
    scheme points carry label "scheme".  The SVG is self-contained with
    element ids "rate-region", "axis-m", "axis-r", "boundary" and one
    "point-<scheme>" circle per measured point.
    """
    step = Fraction(sample_step)
    boundary = boundary_points(step)
    if points is None:
        points = default_scheme_points()
    csv_path, svg_path = f"{path_prefix}.csv", f"{path_prefix}.svg"
    rows = ["M,R_optimal,scheme,label"]
    for p in boundary:
        rows.append(f"{frac_str(p.memory)},{frac_str(p.rate)},,boundary")
    for name, m, r in points:
        rows.append(f"{frac_str(m)},{frac_str(r)},{name},scheme")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(_svg(boundary, points))
    return csv_path, svg_path
