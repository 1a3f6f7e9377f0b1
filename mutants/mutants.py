"""Mutants of `src/`: deliberate faults that tier-1 must catch.

Each entry names a file under `src/`, an exact `old` text that occurs once
in it, the `new` text that replaces it, what the change breaks (`reason`)
and the outcome tier-1 should have: "killed" (some test fails, `by` names
a test expected to fail) or "equivalent" (no test can fail, and `by` says
why).  `mutants/run.py` applies each one to a copy of the repository and
records what tier-1 did in `mutants/MUTANTS.json`;
`tests/test_mutants.py` checks that each `old` text still occurs exactly
once.
"""

_CAL, _SPA, _RES, _SCN, _CLI, _VAR, _JET, _PRO = (f"src/bihkit/{name}.py" for name in (
    "calculus", "spaces", "residuals", "scenario", "cli", "variational", "jets", "props"))

# the f-bitension's curvature term, tr R(dpsi, tau) dpsi
_TAU2 = "tau2 = ev.rough_laplacian(tau, first) - ev.curvature_trace(ev.values(tau))"
# the one store of a trace term on the block
_STORE = "        value = self.__dict__[name] = _produce_term(self, name)\n"
_ORDERS = 'ORDERS = {"check": 4, "audit": 4, "variation": 4, "props": 3, "energy": 3}'


def _mutant(name, file, old, new, reason, expect="killed", by=""):
    return {"name": name, "file": file, "old": old, "new": new, "reason": reason,
            "expect": expect, "by": by}


MUTANTS = [
    # -- trace terms as attributes of the block -------------------------------------
    _mutant("block_holds_itself", _CAL, _STORE,
            "        self.trace_terms = self  # a view of its terms, cached on the block\n" + _STORE,
            "a block that refers to itself is freed only by the cycle collector",
            by="tests/test_calculus.py::test_point_rows_release_the_block"),
    _mutant("term_produced_twice", _CAL, _STORE,
            "        value = _produce_term(self, name)\n",
            "every read builds the term again",
            by="tests/test_calculus.py::test_trace_terms_shared_and_read_only"),
    _mutant("eager_table", _CAL, _STORE,
            '        if name[0] != "_" and "_eager" not in self.__dict__:\n'
            "            self._eager = True  # every public term on the first read\n"
            "            for key in TRACE_TERMS:\n"
            '                if key[0] != "_" and key != name:\n'
            "                    try:\n"
            "                        getattr(self, key)\n"
            "                    except ValueError:\n"
            "                        pass\n" + _STORE,
            "a command builds terms it never reads",
            by="tests/test_cli.py::test_check_leaves_the_terms_it_does_not_read"),
    _mutant("hermitian_zero_fill", _CAL,
            '        raise ValueError("the xi and eta trace terms need a contact ambient")',
            "        return np.zeros((len(ev), ev.d))",
            "xi and eta terms read as zeros on a Hermitian ambient instead of failing",
            by="tests/test_cli.py::test_hermitian_commands_produce_no_contact_term"),
    _mutant("energy_reads_a_term", _VAR, '"f": ev.values(ev.f_jet)', '"f": ev.f',
            "`energy` and `variation` produce a trace term",
            by="tests/test_cli.py::test_quadrature_commands_validate_at_order_3_without_trace_terms"),
    # -- chart Christoffels ---------------------------------------------------------
    _mutant("christoffel_whole_product", _SPA,
            "    acc = Ginv[:, None, 0] * w[None, :, 0]\n"
            "    for l in range(1, Ginv.shape[1]):\n"
            "        acc = acc + Ginv[:, None, l] * w[None, :, l]\n"
            "    return (acc * 0.5).symmetric(axis=1)",
            "    return ((Ginv[:, None, :] * w[None]).sum(2) * 0.5).symmetric(axis=1)",
            "the (d, d(d+1)/2, d) product of jets is held whole: 23.6 MB traced at d = 7",
            by="tests/test_calculus.py::test_chart_christoffels_hold_no_whole_product"),
    # -- the bitension's curvature term (ROADMAP items 1, 5, 12, 16) --------------------
    _mutant("bitension_without_curvature", _CAL, _TAU2,
            "tau2 = ev.rough_laplacian(tau, first)",
            "the small spheres and circles of S^3 are never biharmonic: no root in rho; also "
            "killed by test_circle_family_vanishes_at_the_biharmonic_radius and "
            "test_hypersurface_corollary_vanishes_where_the_direct_residual_does",
            by="tests/test_residuals.py::test_small_sphere_family_vanishes_at_the_biharmonic_radius"),
    _mutant("bitension_curvature_doubled", _CAL, _TAU2,
            "tau2 = ev.rough_laplacian(tau, first) - 2.0 * ev.curvature_trace(ev.values(tau))",
            "the root in rho moves from sqrt(2) - 1 to 0.318; also killed by the circle and "
            "the hypersurface corollary family tests",
            by="tests/test_residuals.py::test_small_sphere_family_vanishes_at_the_biharmonic_radius"),
    # -- one substitution changed per new corollary test (ROADMAP item 10) --------------
    _mutant("fbh_gcsf_complex_keeps_kl_h", _RES,
            '"fbh_gcsf_complex", "fbh_gcsf", ("complex",),\n'
            '              {"curv_beta_klH": None,',
            '"fbh_gcsf_complex", "fbh_gcsf", ("complex",),\n'
            '              {"curv_beta_klH": lambda t: t.grad_f,',
            "a dropped row kept as a nonzero vector; an H-valued change cannot show: "
            "complex submanifolds of a Kaehler ambient are minimal",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("fbh_gcsf_complex_parallel_keeps_kl_h", _RES,
            "curv_beta_klH=None, curv_beta_jlH=None)),",
            "curv_beta_klH=lambda t: t.grad_f, curv_beta_jlH=None)),",
            "a dropped row kept as a nonzero vector (see fbh_gcsf_complex_keeps_kl_h)",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("fbh_gcsf_hypersurface_sign", _RES,
            '"fbh_gcsf_hypersurface", "fbh_gcsf", ("hypersurface",),\n'
            '              {"curv_beta_klH": _neg_H,',
            '"fbh_gcsf_hypersurface", "fbh_gcsf", ("hypersurface",),\n'
            '              {"curv_beta_klH": lambda t: t.H,',
            "kl H = -H on a real hypersurface, substituted as +H",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("fbh_gssf_invariant_keeps_ns_h", _RES, '{"curv_f3_NsH": None}),',
            '{"curv_f3_NsH": lambda t: t.grad_f}),',
            "a dropped row kept as a nonzero vector; H vanishes on c15, an orbit of xi",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("bif_gcsf_complex_parallel_keeps_kj_grad_f", _RES,
            "                   curv_beta_klH=None,\n                   curv_beta_kj_gf=None,\n"
            "                   curv_beta_jlH=None)),",
            "                   curv_beta_klH=None,\n"
            "                   curv_beta_kj_gf=lambda t: t.grad_f,\n"
            "                   curv_beta_jlH=None)),",
            "a dropped row kept as a nonzero vector",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("bif_gcsf_curve_parallel_keeps_delta_perp_h", _RES,
            '("curve", "parallel_H"),\n              dict(_PARALLEL_DROPS,\n'
            "                   curv_beta_kj_gf=None,",
            '("curve", "parallel_H"),\n              dict(_PARALLEL_DROPS,\n'
            "                   delta_perp_H=lambda t: t.grad_f, curv_beta_kj_gf=None,",
            "a dropped row kept as a nonzero vector; c17 is flat, so only a row with a "
            "non-curvature coefficient can show",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("bif_gcsf_hypersurface_cmc_drops_b_norm2", _RES,
            "tb_ah=lambda t: t.b_norm2[:, None] * t.H,", "tb_ah=lambda t: t.H,",
            "tr B(., A_H .) = |B|^2 H on a CMC hypersurface, substituted as H",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("bif_gssf_invariant_keeps_np_grad_f", _RES,
            "curv_f3_NsH=None, curv_f3_NP_gf=None)),",
            "curv_f3_NsH=None, curv_f3_NP_gf=lambda t: t.grad_f)),",
            "a dropped row kept as a nonzero vector",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("bif_gssf_anti_invariant_keeps_delta_perp_h", _RES,
            '("anti_invariant", "parallel_H"),\n              dict(_PARALLEL_DROPS,\n',
            '("anti_invariant", "parallel_H"),\n              dict(_PARALLEL_DROPS,\n'
            "                   delta_perp_H=lambda t: t.grad_f,\n",
            "a dropped row kept as a nonzero vector; f2 = f3 = 0 on c16 (ctilde = 1), so "
            "only a row with a non-curvature coefficient can show",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    _mutant("bif_gssf_xi_normal_keeps_delta_perp_h", _RES,
            '("xi_normal", "parallel_H"),\n              dict(_PARALLEL_DROPS,\n',
            '("xi_normal", "parallel_H"),\n              dict(_PARALLEL_DROPS,\n'
            "                   delta_perp_H=lambda t: t.grad_f,\n",
            "a dropped row kept as a nonzero vector (see bif_gssf_anti_invariant_keeps_delta_perp_h)",
            by="tests/test_cli.py::test_corollary_reduces_its_equation_on_a_catalog_scenario"),
    # -- one evaluation per point and command ---------------------------------------
    _mutant("periodic_nodes_evaluated_again", _SCN,
            "same = nodes is None or nodes.tobytes() == points.tobytes()",
            "same = nodes is None",
            "all-periodic quadrature nodes, the sample points, are evaluated twice",
            by="tests/test_cli.py::test_quadrature_commands_evaluate_each_point_once"),
    _mutant("flag_prechecks_on_the_nodes", _SCN,
            "verify_flags(imm, blocks, tol=", "verify_flags(imm, blocks + node_blocks, tol=",
            "the flag pre-checks read the quadrature nodes too",
            by="tests/test_cli.py::test_open_axis_quadrature_commands_validate_the_sample_blocks"
               "_without_trace_terms"),
    _mutant("model_chart_built_twice", _SCN, "            chart = _model_chart(imm, points)\n",
            "            _model_chart(imm, points)\n            chart = _model_chart(imm, points)\n",
            "the curvature-model chart check builds the map twice",
            by="tests/test_cli.py::test_abstract_ambient_runs_audit_only"),
    _mutant("load_scenario_at_order_4", _SCN, "        _validate(scenario, 3)",
            "        _validate(scenario, 4)", "validation builds order-4 jets it does not need",
            by="tests/test_cli.py::test_load_scenario_validates_at_order_3_in_one_block"),
    _mutant("energy_at_order_4", _CLI, _ORDERS, _ORDERS.replace('"energy": 3', '"energy": 4'),
            "`energy` evaluates at an order it does not read",
            by="tests/test_cli.py::test_quadrature_commands_validate_at_order_3_without_trace_terms"),
    _mutant("props_at_order_4", _CLI, _ORDERS, _ORDERS.replace('"props": 3', '"props": 4'),
            "`props` evaluates at an order it does not read",
            by="tests/test_cli.py::test_audit_and_props_build_one_evaluation_per_sample_point"),
    _mutant("energy_keeps_its_blocks", _CLI, "    values = energies(grid, blocks)",
            "    values = energies(grid, blocks := list(blocks))",
            "the blocks stay alive while the densities are computed",
            by="tests/test_cli.py::test_quadrature_commands_release_the_blocks_before_the_densities"),
    _mutant("bisection_point_by_point", _CAL, "for half in np.array_split(block, 2):",
            "for half in np.array_split(block, len(block)):",
            "a failing block is evaluated again point by point, not in halves",
            by="tests/test_cli.py::test_failing_block_is_halved_down_to_its_first_failing_point"),
    _mutant("structure_built_eagerly", _CAL,
            "    return Evaluation(imm, points, order, fields, gram_det)",
            "    ev = Evaluation(imm, points, order, fields, gram_det)\n"
            "    ev.structure  # built with every block\n    return ev",
            "`energy` builds structure tensors it never reads",
            by="tests/test_cli.py::test_energy_builds_no_structure_tensors"),
    _mutant("decomposition_operators_uncached", _CAL, _STORE,
            "        value = _produce_term(self, name)\n"
            '        if name != "decomposition_operators":\n'
            "            self.__dict__[name] = value\n",
            "the structure decomposition is computed again on every read",
            by="tests/test_cli.py::test_audit_computes_each_quantity_once_per_point"),
    _mutant("bitension_uncached", _CAL, _STORE,
            "        value = _produce_term(self, name)\n"
            '        if name != "bitension":\n'
            "            self.__dict__[name] = value\n",
            "tau2 and nabla tau are derived again on every read",
            by="tests/test_variational.py::test_first_variation_derives_tau_once_per_block"),
    _mutant("connection_produced_per_derivative", _CAL, "A = self._A.truncate(out_order)",
            'A = _produce_term(self, "_A").truncate(out_order)',
            "the connection entry is produced again by every derivative along the immersion",
            by="tests/test_cli.py::test_check_builds_the_trace_terms_once_per_block"),
    _mutant("props_measures_a_flag_again", _PRO,
            "**{name: getattr(ev, name) for name in flags}",
            "**{name: type(ev).__getattr__(ev, name) for name in flags}",
            "`props` measures again a flag deviation validation measured",
            by="tests/test_cli.py::test_props_reads_the_deviations_validation_measured"),
    _mutant("tuple_entry_writable", _CAL, "if isinstance(value, (dict, tuple)) else",
            "if isinstance(value, dict) else",
            "the arrays of a tuple entry (projectors, frames, the bitension) stay writable, "
            "so one reader's write changes them for every reader of the block",
            by="tests/test_calculus.py::test_every_table_entry_is_read_only"),
    _mutant("map_jets_without_memo", _CAL,
            "    return Jet.stack([eval_on_jets(c, env, memo) for c in imm.components])",
            "    return Jet.stack([eval_on_jets(c, env, {}) for c in imm.components])",
            "the map's components build their shared sub-expressions once each",
            by="tests/test_calculus.py::test_map_jets_shares_one_memo"),
    _mutant("evaluate_without_memo", _CAL,
            "    psi = Jet.stack([eval_on_jets(c, env, memo) for c in imm.components])",
            "    psi = Jet.stack([eval_on_jets(c, env, {}) for c in imm.components])",
            "the map and the weight build their shared sub-expressions once each",
            by="tests/test_calculus.py::test_c08_block_builds_each_jet_once"),
    _mutant("frozen_metric_from_the_chart", _VAR, '"G": ev._G,',
            '"G": christoffels_at(ev.space, ev.values(ev.psi))[0],',
            "the energies build a chart for a metric the blocks already hold",
            by="tests/test_variational.py::test_energies_build_no_chart"),
    _mutant("mean_reduction_delta", _CLI,
            'out["max_reduction_delta"] = reduction_delta = np.max(table["reduction_delta"])',
            'out["max_reduction_delta"] = reduction_delta = np.mean(table["reduction_delta"])',
            "the printed maximum is the mean of its rows",
            by="tests/test_cli.py::test_printed_maxima_are_the_maxima_of_the_printed_rows"),
    # -- jet inverse -------------------------------------------------------------------
    _mutant("constant_matrices_as_jets", _JET,
            "constant = sp.order == 0 or self._degree <= 0 and np.isfinite(c[..., 0]).all()",
            "constant = sp.order == 0",
            "a constant matrix is eliminated with jet products",
            by="tests/test_jets.py::test_constant_inverse_is_the_jet_elimination"),
    _mutant("one_by_one_inverse_extra_product", _JET, "            inv = self._reciprocal()\n",
            "            inv = self._reciprocal()\n            inv * inv  # a product it does not need\n",
            "the 1 x 1 inverse makes a product beyond the reciprocal",
            by="tests/test_jets.py::test_one_by_one_inverse_is_the_reciprocal"),
]
