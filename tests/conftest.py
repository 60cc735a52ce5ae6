"""Helpers shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

from lyndonbar.dgcore import CdgaPresentation


def rescaled(p, name):
    """An isomorphic presentation: generator number i scaled by i + 2.

    Its differential coefficients c (i_g + 2) / ((i_x + 2)(i_y + 2)) are
    mostly not integers, so the kernels cannot assume integrality.
    """
    scale = {g.name: i + 2 for i, g in enumerate(p.generators)}
    differential = {}
    for g in p.generators:
        image = {}
        for m, c in p.differential[g.name].items():
            factor = Fraction(scale[g.name])
            for x in m:
                factor /= scale[x]
            image[m] = c * factor
        differential[g.name] = image
    return CdgaPresentation(p.generators, differential, name=name)
