"""Checks of nldyn's outputs against values computed apart from the program.

Standard library only, and nothing here imports nldyn: each expected value
comes from the config text, from a closed form, or from a property the
method must have (mass conservation, energy decrease, the settled value).
A failed check raises CheckError naming the output and the disagreement.
"""

from __future__ import annotations

import math
import re


class CheckError(Exception):
    """An output of the program disagrees with the value it must have."""


def expect_close(what: str, got: float, want: float, tol: float) -> None:
    """Raise unless |got - want| <= tol (NaN never passes)."""
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: got {got!r}, want {want!r} (tolerance {tol:.1e})")


def P_identity(s: float) -> float:
    """Antiderivative of p(s) = s, vanishing at 0."""
    return 0.5 * s * s


def P_cubic(s: float) -> float:
    """Antiderivative of p(s) = s^3 + s, vanishing at 0."""
    return 0.25 * s**4 + 0.5 * s * s


# ------------------------------------------------------------------ inputs

def midpoint_samples(n: int) -> list[float]:
    """Samples of 1 + x at the midpoints of n equal cells of (0, 1), decreasing.

    Their mean, the settled constant m0 / |Omega|, is 1.5.
    """
    return [1.0 + (i + 0.5) * (1.0 / n) for i in reversed(range(n))]


# ----------------------------------------------------------------- readers

def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"{what}: not a number: {text!r}") from None


def read_key_values(text: str) -> dict[str, str]:
    """``key = value`` lines (summary and predict outputs); others ignored."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key and not key.startswith(" "):
            out.setdefault(key.strip(), value.strip())
    return out


def read_trajectory(text: str) -> tuple[list[dict[str, float]], list[list[float]]]:
    """Rows of a ``<base>.trajectory.csv``: the scalar columns and the values."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise CheckError(f"trajectory has {len(lines) - 1} rows, want at least 2")
    header = lines[0].split(",")
    for name in ("t", "mass", "energy"):
        if name not in header:
            raise CheckError(f"trajectory header lacks column {name!r}")
    vcols = [i for i, h in enumerate(header) if re.fullmatch(r"v\d+", h)]
    if not vcols or vcols != list(range(vcols[0], len(header))):
        raise CheckError("trajectory header: value columns v1..vn must close the row")
    scalars, values = [], []
    for k, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"trajectory row {k} has {len(cells)} cells, header {len(header)}")
        scalars.append({h: _float(cells[i], f"row {k} {h}")
                        for i, h in enumerate(header[: vcols[0]])})
        values.append([_float(c, f"row {k} value") for c in cells[vcols[0]:]])
    return scalars, values


def audit_rows(text: str) -> list[tuple[str, str, str]]:
    """(status, name, rest) of each ``pass``/``FAIL`` row of an audit table."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"\s*(pass|FAIL)\s+(\S+)(.*)$", line)
        if m:
            rows.append((m.group(1), m.group(2), m.group(3)))
    return rows


def _worst(rest: str, name: str) -> float:
    """The ``worst`` figure of an audit row, after its name."""
    m = re.match(r"\s+worst\s+(\S+)", rest)
    if not m:
        raise CheckError(f"audit row {name!r} has no worst figure: {rest!r}")
    return _float(m.group(1), f"audit row {name!r} worst")


# ------------------------------------------------------------------ checks

SETTLE_TOL = 1e-6  # settled values against the closed-form limit

def check_trajectory(
    text: str,
    weights: list[float],
    m0: float,
    initial: list[float],
    settled: list[float],
    P,
) -> None:
    """Mass, energy decrease, initial and settled values of one trajectory.

    ``weights``, ``initial`` and ``settled`` are in the file's atom order.
    The mass of every row, both the program's column and the weighted sum
    of the row's values, must equal ``m0``; the energy column must not
    rise; the first energy must equal the sum of w * P(v) over the initial
    atoms.
    """
    scalars, values = read_trajectory(text)
    n = len(weights)
    mass_tol = 1e-10 * max(1.0, abs(m0))
    if scalars[0]["t"] != 0.0:
        raise CheckError(f"trajectory starts at t = {scalars[0]['t']!r}, want 0")
    for k, (row, vals) in enumerate(zip(scalars, values)):
        if len(vals) != n:
            raise CheckError(f"trajectory row {k + 1} has {len(vals)} atoms, want {n}")
        expect_close(f"row {k + 1} mass column", row["mass"], m0, mass_tol)
        expect_close(f"row {k + 1} mass of values",
                     math.fsum(w * v for w, v in zip(weights, vals)), m0, mass_tol)
        if k and not row["t"] > scalars[k - 1]["t"]:
            raise CheckError(f"trajectory times not increasing at row {k + 1}")
        if k and not row["energy"] - scalars[k - 1]["energy"] <= 1e-9:
            raise CheckError(
                f"energy rises at row {k + 1}: {scalars[k - 1]['energy']!r} -> {row['energy']!r}"
            )
    for i, (got, want) in enumerate(zip(values[0], initial)):
        expect_close(f"initial value v{i + 1}", got, want, 1e-15 * max(1.0, abs(want)))
    e0 = math.fsum(w * P(v) for w, v in zip(weights, values[0]))
    expect_close("initial energy", scalars[0]["energy"], e0, 1e-9 * max(1.0, abs(e0)))
    for i, (got, want) in enumerate(zip(values[-1], settled)):
        expect_close(f"settled value v{i + 1}", got, want, SETTLE_TOL)


def check_audit(text: str, required: tuple[str, ...], ties: tuple[str, ...] = ()) -> None:
    """Every audit row reads ``pass``; required rows ran.

    A row named in ``ties`` may read FAIL only when its worst margin is
    exactly zero: atoms that met to the last bit, not atoms that crossed.
    """
    rows = audit_rows(text)
    names = {name for _, name, _ in rows}
    for name in required:
        if name not in names:
            raise CheckError(f"audit lacks the {name!r} row")
    for status, name, rest in rows:
        if status != "pass" and not (name in ties and _worst(rest, name) == 0.0):
            raise CheckError(f"audit row {name!r} reads {status}{rest}")
        if name in required and "skipped" in rest:
            raise CheckError(f"audit row {name!r} was skipped{rest}")


def check_prediction(text: str, hypothesis: str, m0: float, measure: float,
                     value: float) -> None:
    """A ``predict`` summary: main plateau, its measure, and the plateau mass."""
    kv = read_key_values(text)
    if kv.get("hypothesis") != hypothesis:
        raise CheckError(f"prediction hypothesis {kv.get('hypothesis')!r}, want {hypothesis!r}")
    count = kv.get("plateau_count", "")
    if not count.isdigit():
        raise CheckError(f"prediction plateau_count {count!r}")
    count = int(count)
    plateaus = [(_float(kv.get(f"plateau_{k}_value", "nan"), "plateau value"),
                 _float(kv.get(f"plateau_{k}_measure", "nan"), "plateau measure"))
                for k in range(1, count + 1)]
    if not plateaus:
        raise CheckError("prediction has no plateau")
    expect_close("predicted plateau", plateaus[0][0], value, 1e-9 * max(1.0, abs(value)))
    background = 1.0 if hypothesis == "H1" else 0.0
    a1 = (m0 - background * measure) / (value - background)
    expect_close("predicted plateau measure", plateaus[0][1], min(a1, measure), 1e-9)
    expect_close("measure of the plateau set", math.fsum(m for _, m in plateaus), measure, 1e-12)
    expect_close("mass of the plateau set", math.fsum(v * m for v, m in plateaus), m0,
                 1e-9 * max(1.0, abs(m0)))


def check_staircase(text: str, measure: float, m0: float, settled: float) -> None:
    """A ``y value`` staircase: spans (0, measure), holds mass m0, settled values."""
    pts = []
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            cells = line.split()
            if len(cells) != 2:
                raise CheckError(f"staircase line {line!r}")
            pts.append((_float(cells[0], "staircase y"), _float(cells[1], "staircase value")))
    if not pts or len(pts) % 2:
        raise CheckError(f"staircase has {len(pts)} points, want a nonzero even count")
    if pts[0][0] != 0.0:
        raise CheckError(f"staircase starts at y = {pts[0][0]!r}, want 0")
    expect_close("staircase end", pts[-1][0], measure, 1e-12 * measure)
    mass = math.fsum((b[0] - a[0]) * a[1] for a, b in zip(pts[::2], pts[1::2]))
    expect_close("staircase mass", mass, m0, 1e-9 * max(1.0, abs(m0)))
    for _, v in pts:
        expect_close("staircase value", v, settled, SETTLE_TOL)


def read_sweep(text: str, grid: list[float]) -> list[dict[str, float]]:
    """Rows of a ``<base>.sweep.csv``, one per grid point, none failed."""
    lines = text.splitlines()
    if not lines or lines[0] != "parameter,mu_or_xi,a1,energy_limit,termination":
        raise CheckError(f"sweep header {lines[:1]!r}")
    if len(lines) - 1 != len(grid):
        raise CheckError(f"sweep has {len(lines) - 1} rows, want {len(grid)}")
    rows = []
    for k, (line, param) in enumerate(zip(lines[1:], grid), 1):
        cells = line.split(",")
        if len(cells) != 5:
            raise CheckError(f"sweep row {k}: {line!r}")
        if cells[4] != "Stationary":
            raise CheckError(f"sweep row {k} ended {cells[4]!r}, want Stationary")
        row = {"parameter": _float(cells[0], "sweep parameter"),
               "mu": _float(cells[1], "sweep mu"),
               "a1": _float(cells[2], "sweep a1"),
               "energy_limit": _float(cells[3], "sweep energy limit")}
        expect_close(f"sweep row {k} parameter", row["parameter"], param, 1e-12 * abs(param))
        rows.append(row)
    return rows
