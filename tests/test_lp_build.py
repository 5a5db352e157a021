"""Problem construction, variable modes and the text dump."""

import dataclasses
import gc
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from conftest import single_vnf_scenario
from corpus import make_capacity_starved, make_compute_starved, make_toy
from optiloop import lp
from optiloop.errors import InvalidMode, InvariantBroken, ShapeMismatch
from optiloop.loop import _all_on, _assignment_modes, _assignment_problem
from optiloop.model import derive_logical_flows, validate_configuration
from optiloop.scenario import (
    GeneratorParams,
    generate,
    scale_demand,
    scenario_from_dict,
    scenario_to_dict,
)

GIG = 1e9


def _live_pairs(s, e):
    """First-hop pairs plus the (v1, v2) of every positive derived flow."""
    demand = s.logical.ingress_demand
    first = {(v, v) for (ep, v), rate in demand.items() if ep == e and rate > 0}
    derived = {(v1, v2) for (ep, v1, v2) in derive_logical_flows(s.logical) if ep == e}
    return first | derived


def test_constraint_counts_match_closed_forms(vepc):
    scenarios = [vepc] + [make_toy(seed) for seed in range(30)]
    scenarios.append(generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1)))
    for s in scenarios:
        p = lp.build_problem(s)
        fams = Counter(con.cid[0] for con in p.constraints)
        C = len(s.physical.nodes)
        V = len(s.logical.vnfs)
        L = len(s.physical.links)
        node_ends = sum(
            (1 if i in s.physical.nodes else 0) + (1 if j in s.physical.nodes else 0)
            for (i, j) in s.physical.links
        )
        demanded = sum(1 for rate in s.logical.ingress_demand.values() if rate > 0)
        live = sum(len(_live_pairs(s, e)) for e in s.logical.endpoints)
        assert fams[1] == C * live
        assert fams[2] == C * live
        assert fams[3] == node_ends
        assert fams[4] == L
        assert fams[5] == C * V
        assert fams[6] == C * live
        assert fams[7] == C
        assert fams.get(8, 0) == 0  # delays disabled
        assert fams[9] == demanded
        for con in p.constraints:
            if con.cid[0] not in (3, 5):
                kinds = {p.variables[pos].kind for pos, _ in con.terms}
                assert kinds & set(lp.FLOW_KINDS), con.cid


def test_delay_rows_only_when_enabled(vepc):
    import dataclasses

    with_delay = dataclasses.replace(
        vepc, delays_enabled=True, max_delay={"RRH": 1.0}
    )
    p = lp.build_problem(with_delay)
    fams = Counter(con.cid[0] for con in p.constraints)
    assert fams[8] == 1


def test_default_modes_relax_binaries(vepc):
    p = lp.build_problem(vepc)
    for ref in p.binary_refs():
        assert p.mode_of(ref) == lp.RELAXED
    tau_refs = [r for r in p.variables if r.kind == "tau"]
    assert p.mode_of(tau_refs[0]) == "continuous"


def test_fix_relax_round_trip(vepc):
    p = lp.build_problem(vepc)
    ref = lp.VarRef("x", ("n1", "n2"))
    q = lp.fix(p, ref, 1)
    assert q.mode_of(ref) == ("fixed", 1.0)
    assert p.mode_of(ref) == lp.RELAXED  # original untouched
    r = lp.relax(q, ref)
    assert r.mode_of(ref) == lp.RELAXED
    assert r.constraints is p.constraints  # rows shared, modes copied


def test_flow_modes_rejected(vepc):
    p = lp.build_problem(vepc)
    tau_ref = next(r for r in p.variables if r.kind == "tau")
    with pytest.raises(InvalidMode):
        lp.fix(p, tau_ref, 1)
    with pytest.raises(InvalidMode):
        lp.relax(p, tau_ref)
    with pytest.raises(InvalidMode):
        lp.fix(p, lp.VarRef("y", ("n1",)), 0.5)
    with pytest.raises(InvalidMode):
        lp.fix(p, lp.VarRef("y", ("ghost",)), 1)


def test_zero_demand_all_off_is_feasible_at_zero(vepc):
    s = scale_demand(vepc, 1e-12)  # effectively zero, keeps ids identical
    import dataclasses

    s = dataclasses.replace(
        s, logical=dataclasses.replace(s.logical, ingress_demand={("RRH", "eNB"): 0.0})
    )
    p = lp.build_problem(s)
    modes = {ref: lp.fixed(0) for ref in p.binary_refs()}
    sol = lp.solve(lp._with_modes(p, modes))
    assert sol.status == "optimal"
    assert sol.objective_value == 0.0


def test_fixing_per_feasible_configuration_round_trips(vepc):
    from optiloop.loop import initial_solution

    cfg = initial_solution(vepc)
    p = lp.build_problem(vepc)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, cfg.x, cfg.y, cfg.delta)))
    assert sol.status == "optimal"
    from optiloop.loop import _binaries, _configuration

    rebuilt = _configuration(p, _binaries(p, cfg.x, cfg.y, cfg.delta), sol)
    assert validate_configuration(vepc, rebuilt, tol=1e-6) == []


def test_gating_pulls_nodes_up(vepc):
    """Fixing a link on forces both relaxed node ends to 1 in any solution."""
    p = lp.build_problem(vepc)
    sol = lp.solve(lp.fix(p, lp.VarRef("x", ("n1", "n2")), 1))
    assert sol.status == "optimal"
    assert sol.values[lp.VarRef("y", ("n1",))] >= 1.0 - 1e-9
    assert sol.values[lp.VarRef("y", ("n2",))] >= 1.0 - 1e-9


def test_compute_starved_all_on_infeasible():
    s = single_vnf_scenario(demand=2.0 * GIG, k=(1.0 * GIG, 0.0))
    p = lp.build_problem(s)
    x, y, d = _all_on(s)
    sol = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, d)))
    assert sol.status == "infeasible"


def test_relaxation_never_beats_fixed(vepc):
    p = lp.build_problem(vepc)
    relaxed = lp.solve(p)
    x, y, d = _all_on(vepc)
    pinned = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, d)))
    assert relaxed.objective_value <= pinned.objective_value + 1e-9


def test_solution_values_cover_fixed_variables(vepc):
    p = lp.build_problem(vepc)
    q = lp.fix(p, lp.VarRef("y", ("n1",)), 1)
    sol = lp.solve(q)
    assert sol.values[lp.VarRef("y", ("n1",))] == 1.0


def test_lp_text_dump(vepc):
    p = lp.build_problem(vepc)
    q = lp.fix(p, lp.VarRef("x", ("RRH", "n1")), 1)
    text = lp.to_lp_text(q)
    assert text.startswith("Minimize")
    assert "Subject To" in text and text.rstrip().endswith("End")
    assert "eq4_link_n1_n2:" in text
    assert "eq7_cap_n1:" in text
    assert " x_RRH_n1 = 1.0" in text  # fixed binary listed in bounds
    assert "0 <= x_n1_n2 <= 1" in text  # relaxed binary bounds
    # every produced row name is unique
    names = [line.split(":")[0].strip() for line in text.splitlines() if "eq" in line.split(":")[0]]
    assert len(names) == len(set(names))


def test_optimal_solutions_meet_residual_contract(vepc):
    for s in (vepc, make_toy(0), make_toy(7)):
        p = lp.build_problem(s)
        sol = lp.solve(p)
        assert sol.status == "optimal"
        assert sol.max_residual <= 1e-7
        x, y, d = _all_on(s)
        pinned = lp.solve(lp._with_modes(p, _assignment_modes(p, x, y, d)))
        assert pinned.max_residual <= 1e-7


def test_identical_builds_solve_identically(vepc):
    p1 = lp.build_problem(vepc)
    p2 = lp.build_problem(vepc)
    assert lp.to_lp_text(p1) == lp.to_lp_text(p2)
    s1 = lp.solve(p1)
    s2 = lp.solve(p2)
    assert s1.objective_value == s2.objective_value
    assert s1.values == s2.values


def test_row_subset_copy_solves_its_own_rows():
    p = lp.build_problem(make_toy(3))
    assert lp.solve(p).objective_value > 100.0
    head = dataclasses.replace(p, constraints=p.constraints[:5])
    assert lp.solve(head).objective_value == 0.0


def test_cell_limit_guards_the_assembled_block(monkeypatch):
    s = make_toy(3)
    built = lp.build_problem(s)
    rows, n_vars = len(built.constraints), built.n_vars()
    # The guarded bound: the rows plus two objective rows, by every column,
    # two auxiliary columns per row and the rhs.  The pins are column
    # bounds, so it is the same for a pinned and a relaxed LP.
    cells = (rows + 2) * (n_vars + 2 * rows + 1)
    for limit, solves in ((cells, True), (cells - 1, False)):
        monkeypatch.setattr(lp, "DENSE_CELL_LIMIT", limit)
        p = lp.build_problem(s)
        for q in (_assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8)), p):
            if solves:
                assert lp.solve(q).status == "optimal"
            else:
                with pytest.raises(ShapeMismatch):
                    lp.solve(q)


def _tableau_cells(p):
    """Cells of the tableau ``solve_dense`` allocates for ``p``: a row per
    constraint plus two objective rows; a column per problem column, per
    ``le`` slack and per artificial (``eq`` rows, and ``le`` rows whose rhs
    is negative once every column sits at its lower bound), plus the rhs.
    Assembles on a copy with a record of its own."""
    b = lp._base(dataclasses.replace(p, constraints=tuple(p.constraints)))
    lo, _ = lp._bounds(p)
    le = np.array(b.senses) == "le"
    cols = b.A.shape[1] + le.sum() + (~le | (b.rhs - b.A @ lo < 0)).sum() + 1
    return (b.A.shape[0] + 2) * int(cols)


def test_cell_limit_counts_bound_rows_and_auxiliary_columns(monkeypatch):
    # There are no bound rows any more: the pins are column bounds.
    p = lp.build_problem(generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1)))
    block = len(p.constraints) * p.n_vars()  # rows x columns
    allocated = _tableau_cells(p)
    assert (block, allocated) == (34_104, 65_296)
    monkeypatch.setattr(lp, "DENSE_CELL_LIMIT", (block + allocated) // 2)
    with pytest.raises(ShapeMismatch):
        lp.solve(p)


def test_cell_limit_never_undercounts_the_tableau(monkeypatch):
    problems = []
    for seed in range(6):
        for s in (make_toy(seed), make_capacity_starved(seed)):
            p = lp.build_problem(s)
            on = np.ones(p.n_binaries(), dtype=np.int8)
            # Relaxed nodes under pinned links and placements give the
            # activation rows a negative rhs: a slack and an artificial each.
            problems += [p, _assignment_problem(p, on), _assignment_problem(p, on, {"y": 1})]
    for q in problems:
        monkeypatch.setattr(lp, "DENSE_CELL_LIMIT", _tableau_cells(q) - 1)
        with pytest.raises(ShapeMismatch):
            lp.solve(dataclasses.replace(q, constraints=tuple(q.constraints)))
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# The assembled block


def _layout_problems():
    """Toy 0 and a generated 2x4, each relaxed, all-on pinned and all-on
    with its nodes relaxed."""
    for s in (make_toy(0), generate(GeneratorParams(n_endpoints=2, n_nodes=4, rng_seed=1))):
        p = lp.build_problem(s)
        on = np.ones(p.n_binaries(), dtype=np.int8)
        yield from (p, _assignment_problem(p, on), _assignment_problem(p, on, {"y": 1}))


def test_block_keeps_every_row_whatever_the_pins():
    blocks = set()
    for p in _layout_problems():
        b = lp._base(p)
        blocks.add(id(b))
        assert b.A.shape == (len(p.constraints), p.n_vars())
        assert b.rhs.size == len(b.senses) == b.scale.size == len(p.constraints)
        for r, con in enumerate(p.constraints):
            row = np.zeros(p.n_vars())
            for pos, coef in con.terms:
                row[pos] += coef
            assert np.array_equal(b.A[r], row)
            assert (b.rhs[r], b.senses[r]) == (con.rhs, con.sense)
            assert b.scale[r] == (np.abs(row).max() if row.any() else 1.0)
    assert len(blocks) == 2  # one per base problem


def test_block_poses_pins_as_column_bounds():
    for p in _layout_problems():
        lo, hi = lp._bounds(p)
        nb = p.n_binaries()
        relaxed = p.pins < 0
        assert (lo[:nb][relaxed] == 0.0).all() and (hi[:nb][relaxed] == 1.0).all()
        assert np.array_equal(lo[:nb][~relaxed], p.pins[~relaxed])
        assert np.array_equal(hi[:nb][~relaxed], p.pins[~relaxed])
        assert (lo[nb:] == 0.0).all() and (hi[nb:] == np.inf).all()
        sol = lp.solve(p)
        for ref, pin in zip(p.binary_refs(), p.pins.tolist()):
            value = sol.values[ref]
            assert value == pin if pin >= 0 else -1e-9 <= value <= 1.0 + 1e-9


def test_block_is_assembled_once_at_the_first_solve(monkeypatch):
    # ``make_toy`` solved its toy's all-on LP; a copy has a build of its own.
    p = lp.build_problem(dataclasses.replace(make_toy(0)))
    assert p.constraints.record is None  # building assembles nothing
    assembled = []
    real_add_at = np.add.at

    def spy_add_at(*args):
        assembled.append(args)
        return real_add_at(*args)

    monkeypatch.setattr(lp.np.add, "at", spy_add_at)
    guide = lp.solve(p)
    block = lp._base(p)
    y = np.arange(p.n_binaries())[p.layout["y"]][:2]
    q = lp._with_modes(p, {p.variables[col]: lp.fixed(0) for col in y.tolist()})
    probe = lp.solve(q, start=guide)
    pinned = lp.solve(_assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8)))
    assert len(assembled) == 1 and p.constraints.record is block
    assert q.constraints is p.constraints and lp._base(q) is block
    # Each optimum's frame is the shared ``A`` with its own final tableau.
    for sol in (guide, probe, pinned):
        assert sol.frame.A is block.A and sol.frame.tableau is not None
    assert probe.frame.tableau is not guide.frame.tableau
    # A copy with another constraints tuple assembles its own block.
    copied = dataclasses.replace(q, constraints=tuple(list(q.constraints)))
    assert lp._base(copied) is not block and len(assembled) == 2


def test_infeasible_row_duals_prove_infeasibility_with_the_pins():
    for seed in range(3):
        for maker in (make_capacity_starved, make_compute_starved):
            p = lp.build_problem(maker(seed))
            q = _assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8))
            sol = lp.solve(q)
            assert sol.status == "infeasible"
            b = lp._base(q)
            lo, hi = lp._bounds(q)
            y = sol.row_duals
            assert y.size == len(q.constraints)
            # y @ (A x) <= y @ b on every point of the rows, and y @ (A x)
            # stays below y @ b - 1e-9 over the whole box.
            le = np.array(b.senses) == "le"
            assert (y[le] <= 1e-12).all()
            a = y @ b.A
            assert (a[hi == np.inf] <= 1e-12).all()
            top = np.maximum(a * lo, a * np.where(hi == np.inf, lo, hi)).sum()
            assert y @ b.rhs - top > 1e-9


def test_solve_raises_on_an_optimum_that_breaks_a_row(monkeypatch):
    # The simplex returns a point off an equality row; divided by the row's
    # largest coefficient, an offset beyond FEAS_TOL is refused.
    p = lp.build_problem(make_toy(0))
    b = lp._base(p)
    lo, hi = lp._bounds(p)
    good = lp.solve_dense(p.objective, b.A, b.rhs, b.senses, lo=lo, hi=hi)
    row = int(np.flatnonzero(np.array(b.senses) == "eq")[0])
    pos, coef = p.constraints[row].terms[-1]
    for offset, refused in ((0.5 * lp.FEAS_TOL, False), (2 * lp.FEAS_TOL, True)):
        bad = dataclasses.replace(good, x=good.x.copy())
        bad.x[pos] += offset * b.scale[row] / coef
        monkeypatch.setattr(lp, "solve_dense", lambda *args, bad=bad, **kwargs: bad)
        if refused:
            with pytest.raises(InvariantBroken, match="breaks a row"):
                lp.solve(p)
        else:
            assert lp.solve(p).max_residual == pytest.approx(offset, rel=1e-6)


# ---------------------------------------------------------------------------
# The text dump: pinned bytes, distinct names, and a cross-check with HiGHS

# SHA-256 of ``to_lp_text`` (first 16 hex digits) of each instance's LP:
# fully relaxed, all-on pinned, and with the nodes relaxed under pinned links
# and placements.  Taken at commit 680524d, before ``build_problem`` and
# ``to_lp_text`` were rewritten for speed; a change to either must keep them.
LP_TEXT_SHA256 = {
    "toy 0": ("eeece5ecc633b8f3", "4efc471596c0e2a2", "8aa8c022f0bd30f5"),
    "toy 1": ("44cb06420043db2f", "3ac3b12eac75f176", "346ae2def4c27ec7"),
    "toy 2": ("83a82dfe87cbcfa8", "9b4e58ce338b2009", "a61cb2780239d4b5"),
    "toy 3": ("f843d8fec6b14015", "9608b256e87e24a5", "7d01e6e8985f3a4c"),
    "toy 4": ("f1c4e1d49e1a40bc", "2f185adc02b63b5a", "919e4fbc59490241"),
    "toy 5": ("f6910099462fab2a", "309b44505d1138dd", "331aef61e8e82296"),
    "toy 6": ("0ecf329d5db307ee", "cc61f0b04127d28a", "2d4f58e6ac9e05ec"),
    "toy 7": ("0ef650dc978198ff", "cd937dfa99f6029f", "6290766055d117c5"),
    "toy 8": ("1d3cd2ac742e7960", "5ce8fcc5ca0474d8", "f022b120a55d48de"),
    "toy 9": ("0998d0c2f1a268ca", "86ada66d973a5d35", "a113d8682a7ce8b8"),
    "toy 10": ("38385dd67c3949e3", "23f3e54813d155a0", "7aa329dbf3991439"),
    "toy 11": ("074688674667e913", "8a578ee4fc5e6492", "3a50acf02f091dd9"),
    "2x4 1": ("e61c052b96d05947", "78ee9dca9614e2a6", "0f4663110c45f950"),
    "2x4 2": ("4f6bd8c20a16aca9", "5bd207a4bebf838d", "127950012f2402c5"),
    "2x4 3": ("f8db6e46f0edeb8b", "256a15c68db40a84", "065b9750b46a7fed"),
    "4x8 1": ("7f075703c06fab61", "77332a5ccf3c676e", "683648d345a4f8ae"),
    "4x8 2": ("63282db6026782f3", "0eccd6a416615f63", "70d28b3483b051fd"),
    "4x8 3": ("5e792c8af44ad612", "b990aaafa0713fa7", "e72bcc32fe95286b"),
}


def _instance(case):
    """The scenario a case name of ``LP_TEXT_SHA256`` stands for."""
    kind, seed = case.split()
    if kind == "toy":
        return make_toy(int(seed))
    n_endpoints, n_nodes = map(int, kind.split("x"))
    return generate(GeneratorParams(n_endpoints=n_endpoints, n_nodes=n_nodes, rng_seed=int(seed)))


def _all_on_pinned(p):
    return _assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8))


def _text_sha256(p):
    return hashlib.sha256(lp.to_lp_text(p).encode()).hexdigest()


@pytest.mark.parametrize("case", LP_TEXT_SHA256)
def test_lp_text_bytes_are_pinned(case):
    p = lp.build_problem(_instance(case))
    on = np.ones(p.n_binaries(), dtype=np.int8)
    variants = (p, _assignment_problem(p, on), _assignment_problem(p, on, {"y": 1}))
    assert tuple(_text_sha256(q)[:16] for q in variants) == LP_TEXT_SHA256[case]


def test_lp_text_bytes_are_pinned_at_operator_scale():
    p = lp.build_problem(generate(GeneratorParams(rng_seed=123)))
    assert (len(p.constraints), p.n_vars()) == (33039, 53071)
    assert _text_sha256(p) == "fce069cf129df286a4c68321b906493f2ac1428eabaf979070fe6610fe632c57"
    assert (
        _text_sha256(_all_on_pinned(p))
        == "6a137dd1ffdd5da19c33e891752129569b625ac362c73a55e4ef4efce7a3a729"
    )


def test_built_variables_are_plain_var_refs():
    for case in [c for c in LP_TEXT_SHA256 if not c.startswith("4x8")]:
        p = lp.build_problem(_instance(case))
        assert len(p.var_index) == p.n_vars()
        for pos, v in enumerate(p.variables):
            ref = lp.VarRef(v.kind, v.index)
            assert type(v) is lp.VarRef and v == ref and hash(v) == hash(ref)
            assert p.var_index[ref] == pos


# SHA-256 (first 16 hex digits) of each instance's relaxed LP as its views
# read it: every row's (cid, terms, sense, rhs) through ``constraints``,
# every column's (kind, index) through ``variables``, and the bytes of the
# assembled block (A, rhs, senses, scale).  Taken at commit ef7b243, where
# ``build_problem`` made one LinearConstraint per row and one VarRef per
# column; a change to how the rows and columns are stored must keep them.
LP_IDENTITY_SHA256 = {
    "toy 0": ("b31138efadbc5919", "f4cb525196d33dc2", "88505e0278e10690"),
    "toy 1": ("eeefed2323e5c448", "b3f10d7bdc6f6418", "e0e5741794b58d38"),
    "toy 2": ("77c5158c94377e45", "4efc4674242bf3a3", "e73f10822e62998e"),
    "toy 3": ("5aa8e493cfe461b9", "bd6643fa4a355145", "3967fc3a34dc7a96"),
    "toy 4": ("8f83c7d9031cf9d9", "cac8024dbecd7330", "d81a15283fb8b8a7"),
    "toy 5": ("3b3fd50a60559b27", "cac8024dbecd7330", "dcc16d1b54b15e03"),
    "toy 6": ("2bf924b023d251d6", "d91277daaf8cfc0b", "3e9f9a37f55c0bea"),
    "toy 7": ("9e6b7dd04ca0e483", "271e92d0563a9bff", "bedbd096b26b7785"),
    "toy 8": ("4a9363826e562c7c", "c022cd01d834beaf", "0f941bf7ad4a7d1e"),
    "toy 9": ("5a8a9a3a42f6ae37", "67f8ffb6cfd389f0", "594e7aef124f26d2"),
    "toy 10": ("2fadb1fb2a5a7565", "f4cb525196d33dc2", "43b51749210a16e6"),
    "toy 11": ("0c3a00ec119a5f8f", "ddf73d0b95049c44", "9729f663bd268402"),
    "2x4 1": ("a37763c8ec29e17c", "733973cad3e76455", "483a3097002c52ee"),
    "2x4 2": ("d9c0ed31e95c1bbf", "fdd9d98d9b4063d6", "d7fbe9c05de0d550"),
    "2x4 3": ("84b62bd6d8950bcf", "3f286b31ca6a2492", "1a599efaf778ccc2"),
    "4x8 1": ("daf62a8e944e0532", "2cd27887a15b1869", "b10d877c2bc24f90"),
    "4x8 2": ("426df3a729f8bf0a", "f9674eb525f195e2", "6f07dfa92f1e5a41"),
    "4x8 3": ("a528e7927c0df9d0", "efb04f87c217e86f", "84191c12f7f7d637"),
}


def _rows_sha256(p):
    h = hashlib.sha256()
    for con in p.constraints:
        h.update(repr((con.cid, con.terms, con.sense, con.rhs)).encode())
    return h.hexdigest()[:16]


def _columns_sha256(p):
    h = hashlib.sha256()
    for ref in p.variables:
        h.update(repr((ref.kind, ref.index)).encode())
    return h.hexdigest()[:16]


def _block_sha256(p):
    b = lp._base(p)
    h = hashlib.sha256()
    for part in (b.A.tobytes(), b.rhs.tobytes(), repr(b.senses).encode(), b.scale.tobytes()):
        h.update(part)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", LP_IDENTITY_SHA256)
def test_rows_columns_and_block_are_pinned(case):
    p = lp.build_problem(_instance(case))
    got = (_rows_sha256(p), _columns_sha256(p), _block_sha256(p))
    assert got == LP_IDENTITY_SHA256[case]


def test_rows_and_columns_are_pinned_at_operator_scale():
    p = lp.build_problem(generate(GeneratorParams(rng_seed=123)))
    assert (_rows_sha256(p), _columns_sha256(p)) == ("de5c8ab6cc41ac35", "ca6f7db24a542a6d")


def _delayed_toy(seed):
    """Toy ``seed`` with link and processing delays and a delay budget on
    every other endpoint, so that family 8 is built."""
    s = make_toy(seed)
    links = {
        lk: dataclasses.replace(link, delay=(0.0, 0.001, 0.004)[k % 3])
        for k, (lk, link) in enumerate(sorted(s.physical.links.items()))
    }
    vnfs = sorted(s.logical.vnfs)
    return dataclasses.replace(
        s,
        physical=dataclasses.replace(s.physical, links=links),
        logical=dataclasses.replace(
            s.logical, per_vnf_delay={v: 0.002 * (m % 2) for m, v in enumerate(vnfs)}
        ),
        delays_enabled=True,
        max_delay={e: 0.02 for e in sorted(s.logical.endpoints)[::2]},
    )


@pytest.mark.parametrize(
    "seed, rows, text",
    [
        # SHA-256 of the rows as above and of ``to_lp_text``, taken at
        # commit ef7b243 like the pins above.
        (0, "2ca93d03ae9906a7", "64d32f1087f01a81"),
        (1, "042382499b56fea6", "88fe6b5eb1a97d35"),
        (2, "c019144c7fb9914d", "42d4393fef86a4b9"),
        (3, "3a7ba6363ddcd747", "73616bf48028b38e"),
    ],
)
def test_delay_rows_are_pinned(seed, rows, text):
    p = lp.build_problem(_delayed_toy(seed))
    assert Counter(con.cid[0] for con in p.constraints)[8] == 1
    assert (_rows_sha256(p), _text_sha256(p)[:16]) == (rows, text)


def test_build_and_dump_make_no_row_or_flow_objects(monkeypatch):
    # What the operator-scale benchmark asks of a problem: build, dump, the
    # row count and the binary refs.  None of it makes a LinearConstraint,
    # and the only VarRefs made are the binaries'.
    made = Counter()
    for cls in (lp.LinearConstraint, lp.VarRef):
        real = cls.__init__

        def spy(self, *args, real=real, **kwargs):
            real(self, *args, **kwargs)
            made[getattr(self, "kind", "row")] += 1

        monkeypatch.setattr(cls, "__init__", spy)

    def alive():
        kinds = (lp.LinearConstraint, lp.VarRef)
        return Counter(type(o).__name__ for o in gc.get_objects() if type(o) in kinds)

    before = alive()
    p = lp.build_problem(_instance("2x4 1"))
    text = lp.to_lp_text(p)
    assert len(p.constraints) == 174
    refs = p.binary_refs()
    assert made == Counter(ref.kind for ref in refs) and len(refs) == p.n_binaries()
    assert alive() - before == Counter({"VarRef": len(refs)})
    assert text == lp.to_lp_text(lp.build_problem(_instance("2x4 1")))


def _renamed(s, names):
    """``s`` with the ids ``names`` maps renamed, through its JSON document."""
    text = json.dumps(scenario_to_dict(s))
    for old, new in names.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    return scenario_from_dict(json.loads(text))


def test_lp_text_refuses_names_that_collide():
    s = generate(GeneratorParams(n_endpoints=1, n_nodes=3, rng_seed=1))
    # Sanitized alike: both ids print as n_1.
    p = lp.build_problem(_renamed(s, {"n01": "n-1", "n02": "n_1"}))
    with pytest.raises(ShapeMismatch, match="x_n00_n_1") as err:
        lp.to_lp_text(p)
    assert "('n00', 'n-1')" in str(err.value) and "('n00', 'n_1')" in str(err.value)
    # Joined alike: links ("a", "b_c") and ("a_b", "c") both print as x_a_b_c.
    p = lp.build_problem(_renamed(s, {"e00": "a", "n00": "b_c", "n01": "a_b", "n02": "c"}))
    with pytest.raises(ShapeMismatch, match="x_a_b_c") as err:
        lp.to_lp_text(p)
    assert "('a', 'b_c')" in str(err.value) and "('a_b', 'c')" in str(err.value)
    # Rows are checked on their own.
    p = lp.build_problem(s)
    rows = list(p.constraints)
    rows[0] = dataclasses.replace(rows[0], cid=(7, ("n-1",)))
    rows[1] = dataclasses.replace(rows[1], cid=(7, ("n_1",)))
    with pytest.raises(ShapeMismatch, match="eq7_cap_n_1") as err:
        lp.to_lp_text(dataclasses.replace(p, constraints=tuple(rows)))
    assert "(7, ('n-1',))" in str(err.value) and "(7, ('n_1',))" in str(err.value)
    # An id that sanitizes to a name no other id takes still dumps.
    text = lp.to_lp_text(lp.build_problem(_renamed(s, {"n01": "n-1"})))
    assert "0 <= y_n_1 <= 1" in text and "n-1" not in text
    # Ids that are one dict key but print apart keep their own names.
    rows[0] = dataclasses.replace(rows[0], cid=(7, (1,)))
    rows[1] = dataclasses.replace(rows[1], cid=(7, (1.0,)))
    text = lp.to_lp_text(dataclasses.replace(p, constraints=tuple(rows)))
    assert "\n eq7_cap_1:" in text and "\n eq7_cap_1_0:" in text


def test_lp_text_keeps_the_sign_of_zero():
    p = lp.build_problem(make_toy(0))
    rows = list(p.constraints)
    (pos, _), *rest = rows[0].terms
    rows[0] = dataclasses.replace(rows[0], terms=((pos, -0.0), *rest), rhs=-0.0)
    rows[1] = dataclasses.replace(rows[1], rhs=0.0)
    lines = lp.to_lp_text(dataclasses.replace(p, constraints=tuple(rows))).splitlines()
    first, second = lines[lines.index("Subject To") + 1 :][:2]
    assert first.endswith(" -0.0") and f" + 0.0 {first.split()[3]}" in first
    assert second.endswith(" 0.0") and not second.endswith("-0.0")


def _highs(p, path):
    """(status, objective) of HiGHS on ``p`` as read from its LP text."""
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

    path.write_text(lp.to_lp_text(p), encoding="utf-8")
    h = _Highs()
    h.setOptionValue("output_flag", False)
    assert h.readModel(str(path)) == HighsStatus.kOk
    assert (h.getNumRow(), h.getNumCol()) == (len(p.constraints), p.n_vars())
    assert h.run() == HighsStatus.kOk
    status = {HighsModelStatus.kOptimal: "optimal", HighsModelStatus.kInfeasible: "infeasible"}
    return status.get(h.getModelStatus(), str(h.getModelStatus())), h.getInfo().objective_function_value


def test_lp_text_solves_alike_on_highs(tmp_path):
    """HiGHS reads the dump and reaches ``lp.solve``'s status and optimum."""
    cases = [_instance(c) for c in LP_TEXT_SHA256 if c.startswith(("toy", "2x4"))]
    cases += [maker(seed) for maker in (make_capacity_starved, make_compute_starved) for seed in range(2)]
    statuses = Counter()
    for s in cases:
        p = lp.build_problem(s)
        for q in (p, _all_on_pinned(p)):
            ours = lp.solve(q)
            status, objective = _highs(q, tmp_path / "p.lp")
            assert status == ours.status
            if status == "optimal":
                assert objective == pytest.approx(ours.objective_value, rel=1e-9)
            statuses[status] += 1
    assert statuses["optimal"] == 30 and statuses["infeasible"] == 8

