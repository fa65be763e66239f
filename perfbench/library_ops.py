"""Library operation of the grid_sweep workload: three grid checks through
the h3frames API on windows inside the cross cap's default domain.

    python3 perfbench/library_ops.py --axis x3 \\
        --integrability U0 U1 V0 V1 --disc U0 U1 V0 V1 --r31 U0 U1 V0 V1

prints ``key = value`` lines: the integrability residual maximum, the
ball-model residuals of the transported surface and the lightcone residual
of the projection to R^3_1 along ``--axis``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from h3frames.examples import get_example
from h3frames.frames import integrability_residuals
from h3frames.projections import (
    Axis,
    lightcone_residual,
    project_to_r31,
    transport_to_disc,
    verify_disc_framed,
)
from h3frames.surface import Domain

INTEGRABILITY_GRID = 41
DISC_GRID = 81
R31_GRID = 31


def _window(values, n) -> Domain:
    return Domain(*values, nu=n, nv=n)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--axis", choices=("x2", "x3", "x4"), required=True)
    for name in ("integrability", "disc", "r31"):
        parser.add_argument(f"--{name}", nargs=4, type=float, required=True)
    args = parser.parse_args(argv)

    fs = get_example("cross_cap").framed
    res = integrability_residuals(fs, _window(args.integrability, INTEGRABILITY_GRID))
    disc = verify_disc_framed(transport_to_disc(fs), _window(args.disc, DISC_GRID))
    r31 = _window(args.r31, R31_GRID)
    lc = lightcone_residual(project_to_r31(fs, Axis[args.axis.upper()], r31))

    out = sys.stdout
    out.write(f"integrability_max = {res.max_overall!r}\n")
    out.write(f"disc_max_radius = {disc.max_radius!r}\n")
    out.write(f"disc_max_unit = {disc.max_unit!r}\n")
    out.write(f"disc_max_orth = {disc.max_orth!r}\n")
    out.write(f"disc_max_off_span = {disc.max_off_span!r}\n")
    out.write(f"lightcone_residual = {lc!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
