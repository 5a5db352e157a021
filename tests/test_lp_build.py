"""Problem construction, variable modes and the text dump."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from conftest import single_vnf_scenario
from corpus import make_capacity_starved, make_compute_starved, make_toy
from optiloop import lp
from optiloop.errors import InvalidMode, InvariantBroken, ShapeMismatch
from optiloop.loop import _all_on, _assignment_modes, _assignment_problem
from optiloop.model import derive_logical_flows, validate_configuration
from optiloop.scenario import GeneratorParams, generate, scale_demand

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
    Assembles on a copy with its own block cache."""
    b = lp._assemble(dataclasses.replace(p, blocks={}))
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
            lp.solve(dataclasses.replace(q, blocks={}))
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
        b = lp._assemble(p)
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
    p = lp.build_problem(make_toy(0))
    assert p.blocks == {}  # building assembles nothing
    assembled = []
    real_add_at = np.add.at

    def spy_add_at(*args):
        assembled.append(args)
        return real_add_at(*args)

    monkeypatch.setattr(lp.np.add, "at", spy_add_at)
    guide = lp.solve(p)
    block = lp._assemble(p)
    y = np.arange(p.n_binaries())[p.layout["y"]][:2]
    q = lp._with_modes(p, {p.variables[col]: lp.fixed(0) for col in y.tolist()})
    probe = lp.solve(q, start=guide)
    pinned = lp.solve(_assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8)))
    assert len(assembled) == 1 and list(p.blocks) == [id(p.constraints)]
    assert q.blocks is p.blocks and lp._assemble(q) is block
    # Each optimum's frame is the shared block with its own final tableau.
    for sol in (guide, probe, pinned):
        assert sol.frame.A is block.A and sol.frame.tableau is not None
    assert block.tableau is None and probe.frame.tableau is not guide.frame.tableau
    # A copy with another constraints tuple assembles its own block.
    copied = dataclasses.replace(q, constraints=tuple(list(q.constraints)))
    assert lp._assemble(copied) is not block and len(assembled) == 2


def test_infeasible_row_duals_prove_infeasibility_with_the_pins():
    for seed in range(3):
        for maker in (make_capacity_starved, make_compute_starved):
            p = lp.build_problem(maker(seed))
            q = _assignment_problem(p, np.ones(p.n_binaries(), dtype=np.int8))
            sol = lp.solve(q)
            assert sol.status == "infeasible"
            b = lp._assemble(q)
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
    b = lp._assemble(p)
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
