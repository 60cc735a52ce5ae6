"""Helpers shared by the test modules."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from lyndonbar.dgcore import CdgaPresentation
from lyndonbar.lifts import _slice_order


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


def degree_zero_words(model, weight):
    """All bar words of the given weight whose every slot is one generator,
    in slice order: every composition of the weight into generator weights,
    with every choice of generators."""
    by_weight: dict[int, list] = {}
    for g in model.generators:
        by_weight.setdefault(g.weight, []).append(g.name)

    def compositions(total):
        if total == 0:
            yield ()
            return
        for part in range(1, total + 1):
            if part in by_weight:
                for rest in compositions(total - part):
                    yield (part,) + rest

    words = []
    for comp in compositions(weight):
        for choice in product(*(by_weight[p] for p in comp)):
            words.append(tuple((g,) for g in choice))
    return sorted(words, key=_slice_order)
