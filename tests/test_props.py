"""The Gauss scalar-curvature audit of `props` against its point-by-point
assembly."""

import numpy as np

from bihkit.calculus import joined
from bihkit.props import _columns, gauss_equation_audit
from bihkit.scenario import load_scenario
from conftest import catalog_blocks, point_curvature_model, same_bits, scenario_path


def _ref_gauss(ev):
    """Scal from the Gauss equation at each point of a block, one point and
    one frame pair at a time, with the Python-float model curvature."""
    gauss = np.empty(len(ev))
    for p, (E, G0) in enumerate(zip(ev.frames[0], ev.values(ev.G_field))):
        R = point_curvature_model(ev.space.structure, G0,
                                  {key: val[p] for key, val in ev.structure.items()},
                                  tuple(ev.coeffs[:, p].tolist()))
        total = 0.0
        for i in range(ev.m):
            for j in range(ev.m):
                total += float(R(E[i], E[j], E[j]) @ G0 @ E[i])
        gauss[p] = total - ev.b_norm2[p] + ev.m**2 * ev.h_norm2[p]
    return gauss


def test_gauss_audit_matches_the_point_by_point_sum(catalog_names):
    """Every catalog scenario, every block: the batched Gauss sum and its
    delta are those of the point-by-point loop, bit for bit."""
    for name in catalog_names:
        sc = load_scenario(scenario_path(name), validate=False)
        if not sc.immersion.ambient.has_metric:
            continue
        blocks = catalog_blocks(name)
        rows = gauss_equation_audit(joined(blocks, lambda ev: _columns(ev, ())))["rows"]
        want = np.concatenate([_ref_gauss(ev) for ev in blocks])
        scal = np.concatenate([ev.scal for ev in blocks])
        assert same_bits(np.array([r["scal_gauss"] for r in rows]), want), name
        assert same_bits(np.array([r["delta"] for r in rows]), np.abs(scal - want)), name
