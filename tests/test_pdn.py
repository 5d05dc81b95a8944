"""Simulator tests against independently written oracles.

The oracles below rebuild the nodal system from scratch (dense matrices,
element-by-element stamping, no shared code paths with the package) so any
structural bug in the fast implementation shows up as a disagreement.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import splu

from decapbench import pdn
from decapbench.cli import greedy_sim_placement
from decapbench.env import Evaluator, Problem
from decapbench.errors import ContractViolation, NumericFailure

TWO_PI = 2.0 * np.pi


# --- independent oracle -------------------------------------------------------

def oracle_admittance_chip_only(rows, cols, cell, f_hz):
    """Dense nodal admittance of a single-layer grid, stamped one element
    at a time with explicit row/col arithmetic."""
    n = rows * cols
    w = TWO_PI * f_hz
    y = np.zeros((n, n), dtype=complex)
    y_series = 1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            y[i, i] += cell.conductance_siemens + 1j * w * cell.capacitance_farad
            for (rr, cc) in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    j = rr * cols + cc
                    y[i, i] += y_series
                    y[j, j] += y_series
                    y[i, j] -= y_series
                    y[j, i] -= y_series
    return y


def oracle_z_with_decaps(config, probe, decap_ports, f_hz):
    """|Z_probe| by a full dense nodal re-solve with each decap stamped as
    an extra shunt admittance (no Schur reduction anywhere)."""
    chip = config.stack.chip
    y = oracle_admittance_chip_only(chip.n_rows, chip.n_cols, chip.cell, f_hz)
    zd = pdn.decap_impedance(config.decap, f_hz)
    for p in decap_ports:
        y[p, p] += 1.0 / zd
    rhs = np.zeros(chip.n_cells, dtype=complex)
    rhs[probe] = 1.0
    v = np.linalg.solve(y, rhs)
    return abs(v[probe])


def oracle_stack_nodes(spec):
    """Node of every chip cell and every package cell, rebuilt without the
    package's union-find: each chip cell is its nearest package node (ties
    to the lower package index)."""
    chip, pkg = spec.chip, spec.package
    wc, wp = chip.cell.width_meter, pkg.cell.width_meter
    off_x = (pkg.n_cols * wp - chip.n_cols * wc) / 2.0
    off_y = (pkg.n_rows * wp - chip.n_rows * wc) / 2.0
    nearest = []
    for r in range(chip.n_rows):
        for c in range(chip.n_cols):
            x, y = (c + 0.5) * wc + off_x, (r + 0.5) * wc + off_y
            best, best_d2 = -1, math.inf
            for pr in range(pkg.n_rows):
                for pc in range(pkg.n_cols):
                    d2 = ((x - (pc + 0.5) * wp) ** 2
                          + (y - (pr + 0.5) * wp) ** 2)
                    if d2 < best_d2:
                        best, best_d2 = pr * pkg.n_cols + pc, d2
            nearest.append(best)
    return nearest, list(range(pkg.n_cells))


def oracle_admittance_stack(spec, f_hz):
    """Dense nodal admittance of a chip-on-package stack, stamped one
    element at a time. Returns it with the node of every chip cell."""
    chip_node, pkg_node = oracle_stack_nodes(spec)
    n = max(chip_node + pkg_node) + 1
    w = TWO_PI * f_hz
    y = np.zeros((n, n), dtype=complex)

    def stamp(a, b, y_ab):
        y[a, a] += y_ab
        y[b, b] += y_ab
        y[a, b] -= y_ab
        y[b, a] -= y_ab

    for grid, node in ((spec.chip, chip_node), (spec.package, pkg_node)):
        cell = grid.cell
        y_series = 1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry)
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                i = node[r * grid.n_cols + c]
                y[i, i] += (cell.conductance_siemens
                            + 1j * w * cell.capacitance_farad)
                if c + 1 < grid.n_cols:
                    stamp(i, node[r * grid.n_cols + c + 1], y_series)
                if r + 1 < grid.n_rows:
                    stamp(i, node[(r + 1) * grid.n_cols + c], y_series)
    return y, chip_node


def oracle_stack_z_with_decaps(spec, decap, probe, decap_ports, f_hz):
    """Complex Z at the probe of a package stack by a dense re-solve with
    each decap stamped as a shunt on its port's node."""
    y, chip_node = oracle_admittance_stack(spec, f_hz)
    zd = pdn.decap_impedance(decap, f_hz)
    for p in decap_ports:
        y[chip_node[p], chip_node[p]] += 1.0 / zd
    rhs = np.zeros(len(y), dtype=complex)
    rhs[chip_node[probe]] = 1.0
    return np.linalg.solve(y, rhs)[chip_node[probe]]


def per_port_attach_decaps(sweep, probe, decap_ports, decap):
    """|Z| at the probe by the Schur termination with one row per decap
    port: the rows of the sorted ports gathered with np.ix_, plus z_d on a
    dense identity. Ports that share a node get duplicate rows."""
    pi = sweep.port_index(probe)
    ci = [sweep.port_index(p) for p in sorted(decap_ports)]
    zcc = sweep.z[np.ix_(np.arange(len(sweep.grid)), ci, ci)]
    zd = pdn.decap_impedance(decap, sweep.grid.points)
    a = zcc + zd[:, None, None] * np.eye(len(ci))[None, :, :]
    x = np.linalg.solve(a, sweep.z[:, ci, pi][:, :, None])
    z_probe = sweep.z[:, pi, pi] - (sweep.z[:, pi, ci][:, None, :] @ x)[:, 0, 0]
    return np.abs(z_probe)


def unique_rows_attach_decaps(sweep, probe, decap_ports, decap):
    """|Z| at the probe by attach_decaps' per-node formula as first
    written: rows and counts from np.unique, the decap impedance computed
    afresh on every call."""
    pi = sweep.port_index(probe)
    ci, counts = np.unique([sweep.port_index(p) for p in decap_ports],
                           return_counts=True)
    n_freq, nd = sweep.z.shape[:2]
    m = len(ci)
    flat = (ci[:, None] * nd + ci[None, :]).ravel()
    a = np.take(sweep.z.reshape(n_freq, nd * nd), flat, axis=1)
    a[:, ::m + 1] += pdn.decap_impedance(decap, sweep.grid.points)[:, None] \
        / counts
    x = np.linalg.solve(a.reshape(n_freq, m, m), sweep.z[:, ci, pi][:, :, None])
    z_probe = sweep.z[:, pi, pi] - (sweep.z[:, pi, ci][:, None, :] @ x)[:, 0, 0]
    return np.abs(z_probe)


# --- hand-solved cases ----------------------------------------------------------

def test_single_cell_impedance_closed_form():
    cell = pdn.CHIP_CELL
    spec = pdn.StackSpec(chip=pdn.GridSpec(1, 1, cell))
    grid = pdn.make_freq_grid(5, 1e9, 5e9)
    sweep = pdn.solve_z_ports(spec, [0], grid)
    for k, f in enumerate(grid.points):
        expect = 1.0 / (cell.conductance_siemens
                        + 1j * TWO_PI * f * cell.capacitance_farad)
        assert sweep.z[k, 0, 0] == pytest.approx(expect, rel=1e-12)


def test_two_cell_ladder_matches_hand_solution():
    # Two nodes joined by one series branch, shunt at each: solve the 2x2
    # system by hand with Cramer's rule.
    cell = pdn.CHIP_CELL
    spec = pdn.StackSpec(chip=pdn.GridSpec(1, 2, cell))
    f = 3.7e9
    w = TWO_PI * f
    ys = 1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry)
    yp = cell.conductance_siemens + 1j * w * cell.capacitance_farad
    det = (yp + ys) ** 2 - ys ** 2
    z00 = (yp + ys) / det
    z01 = ys / det
    grid = pdn.FreqGrid((f,))
    sweep = pdn.solve_z_ports(spec, [0, 1], grid)
    assert sweep.z[0, 0, 0] == pytest.approx(z00, rel=1e-12)
    assert sweep.z[0, 0, 1] == pytest.approx(z01, rel=1e-12)
    assert sweep.z[0, 1, 0] == pytest.approx(z01, rel=1e-12)


def chip_admittance(spec, f):
    """Dense nodal admittance of a chip-only stack at f: the operator the
    sweep's residual check applies, applied to the identity (Y e_j is
    column j of Y)."""
    eye = np.eye(spec.chip.n_cells)[None]
    return pdn.StackTopology(spec).apply_chip_admittance(np.array([f]),
                                                         eye)[0].T


def test_admittance_matches_stamp_oracle():
    for rows, cols in ((1, 3), (2, 2), (3, 4), (5, 5)):
        spec = pdn.StackSpec(chip=pdn.GridSpec(rows, cols, pdn.CHIP_CELL))
        for f in (2e8, 1e9, 2e10):
            fast = chip_admittance(spec, f)
            slow = oracle_admittance_chip_only(rows, cols, pdn.CHIP_CELL, f)
            assert np.allclose(fast, slow, rtol=1e-13, atol=1e-16)


def test_zero_via_merges_chip_into_package():
    # 1x1 chip on a 1x1 package: one merged node whose shunt admittance
    # is the sum of both layers'.
    spec = pdn.StackSpec(chip=pdn.GridSpec(1, 1, pdn.CHIP_CELL),
                         package=pdn.GridSpec(1, 1, pdn.PACKAGE_CELL))
    topo = pdn.StackTopology(spec)
    assert topo.n_nodes == 1
    f = 1e9
    w = TWO_PI * f
    y = topo.package_admittance([f])[0]
    expect = (pdn.CHIP_CELL.conductance_siemens
              + pdn.PACKAGE_CELL.conductance_siemens
              + 1j * w * (pdn.CHIP_CELL.capacitance_farad
                          + pdn.PACKAGE_CELL.capacitance_farad))
    assert y[0, 0] == pytest.approx(expect, rel=1e-15)


# --- Schur termination vs full re-solve -----------------------------------------

def test_attach_decaps_matches_full_resolve_oracle():
    config = pdn.chip_only_config(4, 4, pdn.make_freq_grid(11, 2e8, 2e10))
    sweep = pdn.solve_z_ports(config.stack, range(16), config.grid)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        probe = int(rng.integers(16))
        others = [p for p in range(16) if p != probe]
        k = int(rng.integers(1, 5))
        ports = [int(p) for p in rng.choice(others, size=k, replace=False)]
        fast = pdn.attach_decaps(sweep, probe, ports, config.decap)
        for i, f in enumerate(config.grid.points):
            slow = oracle_z_with_decaps(config, probe, ports, f)
            assert fast[i] == pytest.approx(slow, rel=1e-9)


def test_attach_decaps_permutation_bit_identical():
    config = pdn.chip_only_config(4, 4, pdn.make_freq_grid(11, 2e8, 2e10))
    sweep = pdn.solve_z_ports(config.stack, range(16), config.grid)
    a = pdn.attach_decaps(sweep, 0, [3, 7, 11, 14], config.decap)
    b = pdn.attach_decaps(sweep, 0, [14, 11, 3, 7], config.decap)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("rows, cols", [(4, 4), (5, 5)])
def test_attach_decaps_chip_only_bit_identical_to_per_port_form(rows, cols):
    # Every chip port is its own node, so each row carries one decap and
    # the per-node system is the per-port one, bit for bit.
    config = pdn.chip_only_config(rows, cols,
                                  pdn.make_freq_grid(11, 2e8, 2e10))
    n = rows * cols
    sweep = pdn.solve_z_ports(config.stack, range(n), config.grid)
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(20):
        probe, *ports = (int(p) for p in rng.permutation(n)[
            :int(rng.integers(2, 10))])
        assert np.array_equal(
            pdn.attach_decaps(sweep, probe, ports, config.decap),
            per_port_attach_decaps(sweep, probe, ports, config.decap))


@pytest.mark.parametrize("config", [
    pdn.chip_only_config(3, 3), pdn.chip_only_config(5, 5),
    pdn.paper_scale_config()], ids=["chip3x3", "chip5x5", "paper"])
def test_attach_decaps_bit_identical_to_unique_rows_form(config):
    # Rows by np.bincount and the cached decap impedance change no bit.
    chip = config.stack.chip
    n = chip.n_cells
    sweep = pdn.solve_z_ports(config.stack, range(n), config.grid)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        probe, *ports = (int(p) for p in rng.permutation(n)[
            :int(rng.integers(2, min(n, 21) + 1))])
        assert np.array_equal(
            pdn.attach_decaps(sweep, probe, ports, config.decap),
            unique_rows_attach_decaps(sweep, probe, ports, config.decap))


def test_attach_no_decaps_returns_bare_profile():
    config = pdn.chip_only_config(2, 2, pdn.make_freq_grid(5, 2e8, 2e10))
    sweep = pdn.solve_z_ports(config.stack, range(4), config.grid)
    prof = pdn.attach_decaps(sweep, 1, [], config.decap)
    assert np.array_equal(prof, np.abs(sweep.z[:, 1, 1]))


# --- package stacks: ports merged into shared nodes --------------------------

def small_package_stack():
    """4x4 chip (1.2 mm) on a 3x3 package (1.5 mm): the 16 chip cells fall
    into 9 package nodes, 1, 2 or 4 cells each."""
    return pdn.StackSpec(chip=pdn.GridSpec(4, 4, pdn.CHIP_CELL),
                         package=pdn.GridSpec(3, 3, pdn.PACKAGE_CELL))


def test_package_stack_sweep_matches_dense_oracle():
    spec = small_package_stack()
    grid = pdn.make_freq_grid(5, 2e8, 2e10)
    sweep = pdn.solve_z_ports(spec, range(16), grid)
    assert sweep.z.shape == (5, 9, 9)
    for k, f in enumerate(grid.points):
        y, chip_node = oracle_admittance_stack(spec, f)
        z_dense = np.linalg.inv(y)
        for i in range(16):
            for j in range(16):
                fast = sweep.z[k, sweep.port_index(i), sweep.port_index(j)]
                slow = z_dense[chip_node[i], chip_node[j]]
                assert fast == pytest.approx(slow, rel=1e-9)


def test_package_stack_attach_decaps_matches_dense_oracle():
    spec = small_package_stack()
    decap = pdn.DecapModel()
    grid = pdn.make_freq_grid(7, 2e8, 2e10)
    sweep = pdn.solve_z_ports(spec, range(16), grid)
    # Cells 1 and 2 share one package node, as do 5, 6, 9 and 10: two decaps on one node, and decaps on the probe's node.
    cases = [(0, [1, 2]), (0, [1, 2, 15]), (5, [6]), (5, [6, 9, 10, 3])]
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(6):
        probe = int(rng.integers(16))
        others = [p for p in range(16) if p != probe]
        k = int(rng.integers(1, 6))
        cases.append((probe, [int(p) for p in
                              rng.choice(others, size=k, replace=False)]))
    for probe, ports in cases:
        fast = pdn.attach_decaps(sweep, probe, ports, decap)
        for k, f in enumerate(grid.points):
            slow = abs(oracle_stack_z_with_decaps(spec, decap, probe,
                                                  ports, f))
            assert fast[k] == pytest.approx(slow, rel=1e-9)


def test_ports_on_one_node_score_exactly_equal():
    # Cells 1 and 2 share a package node, as do 4 and 8; cell 7 sits on a
    # node whose row lies between those of 4 and 8 when sorted by port.
    decap = pdn.DecapModel()
    sweep = pdn.solve_z_ports(small_package_stack(), range(16),
                              pdn.make_freq_grid(7, 2e8, 2e10))
    for probe, one, other in ((0, [1, 15], [2, 15]), (0, [4, 7], [8, 7]),
                              (15, [4, 7, 1], [8, 7, 2])):
        assert np.array_equal(pdn.attach_decaps(sweep, probe, one, decap),
                              pdn.attach_decaps(sweep, probe, other, decap))


def test_greedy_lookahead_takes_lowest_port_of_a_node():
    # Ports on one node tie exactly, so np.argmax over the ascending
    # candidates must take the lowest one that is still free.
    spec = small_package_stack()
    nodes = pdn.StackTopology(spec).chip_port_nodes
    ev = Evaluator(pdn.SimConfig(spec, pdn.DecapModel(),
                                 pdn.make_freq_grid(7, 2e8, 2e10)))
    for probe in range(16):
        problem = Problem(4, 4, probe, frozenset())
        placement = greedy_sim_placement(problem, 15, ev)
        for t, q in enumerate(placement):
            lower_free = [p for p in problem.allowed_ports
                          if p < q and nodes[p] == nodes[q]
                          and p not in placement[:t]]
            assert lower_free == [], (probe, placement)


def _two_ports_on_one_row_sweep(block):
    """Hand-built sweep over ports 0..4: port 0 (the probe) on row 0, ports
    1 and 2 on row 1, ports 3 and 4 on rows 2 and 3, at 3 frequencies.
    At frequency 1 the decap rows' block is chosen so that, after z_d / c is
    added on its diagonal (c = 2, 1, 1), the terminated system is block
    up to round-off."""
    grid = pdn.make_freq_grid(3, 2e8, 2e10)
    zd = pdn.decap_impedance(pdn.DecapModel(), grid.points[1])
    z = np.zeros((3, 4, 4), dtype=complex)
    z[:] = np.eye(4)
    z[:, 0, 1:] = z[:, 1:, 0] = 0.5
    z[1, 1:, 1:] = block - np.diag(zd / np.array([2, 1, 1]))
    return pdn.FrequencySweepZ((0, 1, 2, 3, 4), grid, z,
                               np.array([0, 1, 1, 2, 3]))


def test_attach_decaps_singular_termination_raises():
    # The row that carries two decaps cancels exactly only against z_d / 2.
    block = np.diag([0.0, 1.0, 1.0]).astype(complex)
    sweep = _two_ports_on_one_row_sweep(block)
    with pytest.raises(NumericFailure, match="singular") as info:
        pdn.attach_decaps(sweep, 0, [1, 2, 3, 4], pdn.DecapModel())
    assert info.value.frequency_index == 1
    assert f"{sweep.grid.points[1]:g} Hz" in str(info.value)


def test_attach_decaps_residual_check_names_the_frequency():
    # A rank-2 3x3 block whose LU leaves a round-off pivot: the solve
    # succeeds, but its relative residual is of order 1 (cond ~1e16).
    block = (np.array([[0.1, 0.2], [0.3, 0.7], [0.9, 0.4]])
             @ np.array([[0.3, 0.5, 0.7], [0.2, 0.9, 0.6]])).astype(complex)
    sweep = _two_ports_on_one_row_sweep(block)
    with pytest.raises(NumericFailure, match="ill-conditioned") as info:
        pdn.attach_decaps(sweep, 0, [1, 2, 3, 4], pdn.DecapModel())
    assert info.value.frequency_index == 1
    assert f"{sweep.grid.points[1]:g} Hz" in str(info.value)


def test_attach_decaps_non_finite_entry_names_the_frequency():
    sweep = _two_ports_on_one_row_sweep(np.eye(3, dtype=complex))
    sweep.z[2, 2, 3] = np.nan
    with pytest.raises(NumericFailure, match="ill-conditioned") as info:
        pdn.attach_decaps(sweep, 0, [1, 2, 3, 4], pdn.DecapModel())
    assert info.value.frequency_index == 2
    assert f"{sweep.grid.points[2]:g} Hz" in str(info.value)


@pytest.mark.parametrize("spec, ports", [
    (small_package_stack(), list(range(16))),
    (small_package_stack(), [15, 3, 6, 5, 0, 10, 2, 1]),
    (pdn.chip_only_config(2, 3).stack, [5, 1, 3, 0]),
    (pdn.chip_only_config(3, 3).stack, list(range(9))),
])
def test_compact_sweep_bit_identical_to_one_solve_per_port(spec, ports):
    grid = pdn.make_freq_grid(4, 2e8, 2e10)
    sweep = pdn.solve_z_ports(spec, ports, grid)
    topo = pdn.StackTopology(spec)
    nodes = topo.chip_port_nodes[ports]
    first_seen = list(dict.fromkeys(nodes.tolist()))
    assert sweep.z.shape[1:] == (len(first_seen), len(first_seen))
    assert [sweep.port_index(p) for p in ports] == \
        [first_seen.index(v) for v in nodes.tolist()]
    rows = [sweep.port_index(p) for p in ports]
    if spec.package is None:
        # Each column comes in closed form on its own: the sweep of the
        # same ports in ascending order, gathered to this order.
        ascending = pdn.solve_z_ports(spec, sorted(ports), grid)
        at = [ascending.port_index(p) for p in ports]
    else:
        # Solved densely, in one frequency block here.
        y = topo.package_admittance(grid.points)
        rhs = np.zeros((topo.n_nodes, len(ports)), dtype=complex)
        rhs[nodes, np.arange(len(ports))] = 1.0
    for k in range(len(grid)):
        if spec.package is None:
            per_port = ascending.z[k][np.ix_(at, at)]
        else:
            per_port = np.linalg.solve(y[k], rhs)[nodes, :]
        assert np.array_equal(sweep.z[k][np.ix_(rows, rows)], per_port)
    if len(first_seen) == len(ports):
        assert rows == list(range(len(ports)))


def test_paper_stack_has_36_distinct_port_nodes():
    cfg = pdn.paper_scale_config()
    topo = pdn.StackTopology(cfg.stack)
    assert len(set(topo.chip_port_nodes.tolist())) == 36
    sweep = pdn.solve_z_ports(cfg.stack, range(100), pdn.FreqGrid((1e9,)))
    assert sweep.z.shape == (1, 36, 36)


@settings(max_examples=25, deadline=None)
@given(chip_rows=st.integers(1, 4), chip_cols=st.integers(1, 4),
       extra_rows=st.integers(0, 2), extra_cols=st.integers(0, 2),
       data=st.data())
def test_package_stack_reciprocal_passive_and_permutation_invariant(
        chip_rows, chip_cols, extra_rows, extra_cols, data):
    # 0.3 mm chip cells, 0.5 mm package cells: ceil(0.6 n) package cells
    # cover n chip cells.
    spec = pdn.StackSpec(
        chip=pdn.GridSpec(chip_rows, chip_cols, pdn.CHIP_CELL),
        package=pdn.GridSpec(math.ceil(0.6 * chip_rows) + extra_rows,
                             math.ceil(0.6 * chip_cols) + extra_cols,
                             pdn.PACKAGE_CELL))
    n = spec.chip.n_cells
    grid = pdn.make_freq_grid(3, 2e8, 2e10)
    sweep = pdn.solve_z_ports(spec, range(n), grid)
    z = sweep.z
    assert np.all(np.abs(z - np.transpose(z, (0, 2, 1)))
                  <= 1e-10 * np.abs(z).max())
    assert np.real(np.diagonal(z, axis1=1, axis2=2)).min() > 0
    assume(n > 1)
    probe = data.draw(st.integers(0, n - 1))
    ports = data.draw(st.lists(st.integers(0, n - 1).filter(
        lambda p: p != probe), min_size=1, max_size=min(5, n - 1),
        unique=True))
    shuffled = data.draw(st.permutations(ports))
    decap = pdn.DecapModel()
    per_node = pdn.attach_decaps(sweep, probe, ports, decap)
    assert np.array_equal(per_node,
                          pdn.attach_decaps(sweep, probe, shuffled, decap))
    # One row per distinct node with z_d / c on its diagonal equals the
    # system with one row per port up to round-off.
    assert np.allclose(per_node,
                       per_port_attach_decaps(sweep, probe, ports, decap),
                       rtol=1e-12, atol=0)


# --- package larger than the chip: Kron reduction onto the footprint --------

def wide_package_stack(chip_rows=2, chip_cols=3):
    """A chip centred on a 5x6 package (2.5 x 3 mm) whose footprint leaves
    most package cells out, so they are eliminated: a 2x3 chip lands on
    1x2 package rows x columns, a 3x4 chip on 3x2."""
    return pdn.StackSpec(chip=pdn.GridSpec(chip_rows, chip_cols, pdn.CHIP_CELL),
                         package=pdn.GridSpec(5, 6, pdn.PACKAGE_CELL))


def footprint_cells(spec):
    """Package cells of the footprint rows x columns, row-major."""
    pkg_of = pdn.chip_to_package_map(spec)
    rows = np.unique(pkg_of // spec.package.n_cols)
    cols = np.unique(pkg_of % spec.package.n_cols)
    return [r * spec.package.n_cols + c for r in rows for c in cols]


@pytest.mark.parametrize("chip_rows, chip_cols", [(2, 3), (3, 4)])
def test_wide_package_sweep_matches_dense_oracle(chip_rows, chip_cols):
    spec = wide_package_stack(chip_rows, chip_cols)
    n = spec.chip.n_cells
    assert pdn.StackTopology(spec).n_nodes < spec.package.n_cells
    grid = pdn.make_freq_grid(5, 2e8, 2e10)
    sweep = pdn.solve_z_ports(spec, range(n), grid)
    for k, f in enumerate(grid.points):
        y, chip_node = oracle_admittance_stack(spec, f)
        z_dense = np.linalg.inv(y)
        for i in range(n):
            for j in range(n):
                fast = sweep.z[k, sweep.port_index(i), sweep.port_index(j)]
                slow = z_dense[chip_node[i], chip_node[j]]
                assert fast == pytest.approx(slow, rel=1e-9)


def test_paper_stack_sweep_matches_full_sparse_lu():
    # The oracle's 1,600-node admittance, factored whole, at the first and
    # the last frequency of the default grid.
    cfg = pdn.paper_scale_config()
    points = cfg.grid.points
    sweep = pdn.solve_z_ports(cfg.stack, range(100),
                              pdn.FreqGrid((points[0], points[-1])))
    rows = [sweep.port_index(p) for p in range(100)]
    for k, f in enumerate((points[0], points[-1])):
        y, chip_node = oracle_admittance_stack(cfg.stack, f)
        nodes = sorted(set(chip_node))
        rhs = np.zeros((len(y), len(nodes)), dtype=complex)
        rhs[nodes, np.arange(len(nodes))] = 1.0
        z_full = splu(sp.csc_matrix(y)).solve(rhs)[nodes, :]
        at = [nodes.index(n) for n in chip_node]
        fast = sweep.z[k][np.ix_(rows, rows)]
        slow = z_full[np.ix_(at, at)]
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow))


def test_path_modes_diagonalise_the_path_laplacian():
    for n in range(1, 42):
        mu, u = pdn._path_modes(n)
        lap = (np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0]) if n > 1
               else np.zeros((1, 1)))
        lap -= np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        assert np.allclose(u.T @ u, np.eye(n), rtol=0, atol=1e-12)
        assert np.allclose(u.T @ lap @ u, np.diag(mu), rtol=0, atol=1e-12)


@pytest.mark.parametrize("f", [2e8, 3.3e9, 2e10])
def test_package_block_is_the_schur_complement_onto_the_footprint(f):
    spec = wide_package_stack(3, 4)
    pkg = spec.package
    y = oracle_admittance_chip_only(pkg.n_rows, pkg.n_cols, pkg.cell, f)
    keep = footprint_cells(spec)
    drop = [i for i in range(pkg.n_cells) if i not in keep]
    schur = (y[np.ix_(keep, keep)] - y[np.ix_(keep, drop)]
             @ np.linalg.solve(y[np.ix_(drop, drop)], y[np.ix_(drop, keep)]))
    block = pdn.StackTopology(spec)._package_block(np.array([f]))[0]
    assert np.allclose(block, schur, rtol=0, atol=1e-9 * np.abs(schur).max())


@settings(max_examples=50, deadline=None)
@given(chip_rows=st.integers(1, 4), chip_cols=st.integers(1, 4),
       extra_rows=st.integers(0, 2), extra_cols=st.integers(0, 2))
def test_footprint_is_a_row_by_column_product(chip_rows, chip_cols,
                                              extra_rows, extra_cols):
    # The stacks of the reciprocity test above: every package node a chip
    # cell lands on is kept, and nothing else, so the reduction keeps no
    # more nodes than the footprint has.
    spec = pdn.StackSpec(
        chip=pdn.GridSpec(chip_rows, chip_cols, pdn.CHIP_CELL),
        package=pdn.GridSpec(math.ceil(0.6 * chip_rows) + extra_rows,
                             math.ceil(0.6 * chip_cols) + extra_cols,
                             pdn.PACKAGE_CELL))
    landed = set(pdn.chip_to_package_map(spec).tolist())
    assert landed == set(footprint_cells(spec))
    assert pdn.StackTopology(spec).n_nodes == len(landed)


@pytest.mark.parametrize("bound, spec, match", [
    ("SOLVE_RESIDUAL_TOL", pdn.chip_only_config(3, 3).stack, "nodal solve"),
    ("SOLVE_RESIDUAL_TOL", wide_package_stack(), "nodal solve"),
    ("BLOCK_RESIDUAL_TOL", wide_package_stack(), "package block"),
    ("BLOCK_RESIDUAL_TOL", pdn.chip_only_config(3, 3).stack, None),
])
def test_residual_checks_raise_with_frequency_index(monkeypatch, bound, spec,
                                                    match):
    # A negative bound fails every residual, so the check must fire at the
    # first frequency; a chip-only stack has no package block to check.
    grid = pdn.make_freq_grid(3, 2e8, 2e10)
    ports = range(spec.chip.n_cells)
    expected = pdn.solve_z_ports(spec, ports, grid).z
    monkeypatch.setattr(pdn, bound, -1.0)
    if match is None:
        assert np.array_equal(pdn.solve_z_ports(spec, ports, grid).z, expected)
        return
    with pytest.raises(NumericFailure, match=match) as info:
        pdn.solve_z_ports(spec, ports, grid)
    assert info.value.frequency_index == 0


def _rank_deficient(n):
    """An n x n matrix of rank n - 1 whose LU leaves a round-off pivot: it
    inverts and solves without error, with a residual of order 1."""
    rng = np.random.Generator(np.random.PCG64(3))
    return (rng.random((n, n - 1)) @ rng.random((n - 1, n))).astype(complex)


@pytest.mark.parametrize("method, poison, match", [
    ("_package_impedance", lambda n: np.zeros((n, n)), "singular package block"),
    ("_package_impedance", _rank_deficient, "package block inverse failed"),
    ("package_admittance", lambda n: np.zeros((n, n)), "singular system"),
    ("package_admittance", _rank_deficient, "nodal solve failed"),
])
def test_dense_sweep_failure_carries_the_grid_frequency_index(
        monkeypatch, method, poison, match):
    # One bad frequency in the second block of a package sweep: the error
    # names its index in the grid, not in its block.
    spec = wide_package_stack(3, 4)
    grid = pdn.make_freq_grid(pdn.FREQ_BLOCK + 9, 2e8, 2e10)
    bad = pdn.FREQ_BLOCK + 4
    build = getattr(pdn.StackTopology, method)

    def poisoned(self, f_hz):
        out = build(self, f_hz)
        out[np.asarray(f_hz) == grid.points[bad]] = poison(self.n_nodes)
        return out

    monkeypatch.setattr(pdn.StackTopology, method, poisoned)
    with pytest.raises(NumericFailure, match=match) as info:
        pdn.solve_z_ports(spec, range(spec.chip.n_cells), grid)
    assert info.value.frequency_index == bad


def test_paper_sweep_temporaries_stay_below_half_its_result():
    # Frequency blocks bound what the dense sweep holds besides z; all 201
    # frequencies in one block would take five times z.
    cfg = pdn.paper_scale_config()
    tracemalloc.start()
    try:
        sweep = pdn.solve_z_ports(cfg.stack, range(100), cfg.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sweep.z.nbytes


@pytest.mark.parametrize("spec", [pdn.chip_only_config(3, 3).stack,
                                  small_package_stack()])
def test_sweep_z_is_c_contiguous(spec):
    sweep = pdn.solve_z_ports(spec, range(spec.chip.n_cells),
                              pdn.make_freq_grid(pdn.FREQ_BLOCK + 3, 2e8, 2e10))
    assert sweep.z.flags.c_contiguous
    with pytest.raises(ContractViolation, match="C-contiguous"):
        pdn.FrequencySweepZ(sweep.ports, sweep.grid,
                            np.asfortranarray(sweep.z), sweep.port_rows)


@pytest.mark.parametrize("rows, cols, ports", [
    (1, 5, [0, 1, 2, 3, 4]),
    (1, 4, [3, 0, 2]),
    (3, 5, [14, 0, 7, 3, 8]),
    (4, 2, [5, 1, 6]),
    (5, 5, [24, 12, 0, 6, 18, 1]),
])
def test_chip_sweep_matches_dense_solve_of_the_oracle(rows, cols, ports):
    # Two frequency blocks; ports unordered, a subset of the board.
    spec = pdn.StackSpec(chip=pdn.GridSpec(rows, cols, pdn.CHIP_CELL))
    grid = pdn.make_freq_grid(pdn.FREQ_BLOCK + 3, 2e8, 2e10)
    sweep = pdn.solve_z_ports(spec, ports, grid)
    at = [sweep.port_index(p) for p in ports]
    rhs = np.zeros((rows * cols, len(ports)), dtype=complex)
    rhs[ports, np.arange(len(ports))] = 1.0
    for k, f in enumerate(grid.points):
        y = oracle_admittance_chip_only(rows, cols, pdn.CHIP_CELL, f)
        slow = np.linalg.solve(y, rhs)[ports, :]
        fast = sweep.z[k][np.ix_(at, at)]
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow))


def test_chip_sweep_temporaries_stay_below_half_its_result():
    spec = pdn.chip_only_config(10, 10).stack
    tracemalloc.start()
    try:
        sweep = pdn.solve_z_ports(spec, range(100), pdn.default_freq_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sweep.z.nbytes


def test_chip_sweep_on_few_ports_stays_far_below_one_full_block():
    # Only the ports' columns are computed: one block of the full 900 x 900
    # impedance would take 16 x 900^2 x 16 B, about 200 MB.
    spec = pdn.chip_only_config(30, 30).stack
    tracemalloc.start()
    try:
        pdn.solve_z_ports(spec, [0, 29, 451, 899], pdn.default_freq_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("points", [(1e9, np.nan, 2e9), (1e9, np.inf)])
def test_freq_grid_rejects_non_finite_frequencies(points):
    with pytest.raises(ContractViolation, match="finite"):
        pdn.FreqGrid(points)


def test_package_cell_without_shunt_rejected():
    no_shunt = pdn.UnitCellParams(0.093, 0.25e-9, 0.0, 0.0, 0.5e-3)
    with pytest.raises(ContractViolation, match="shunt"):
        pdn.StackSpec(chip=pdn.GridSpec(2, 2, pdn.CHIP_CELL),
                      package=pdn.GridSpec(3, 3, no_shunt))
    for g, c in ((5.4e-6, 0.0), (0.0, 0.045e-12)):
        spec = pdn.StackSpec(
            chip=pdn.GridSpec(2, 2, pdn.CHIP_CELL),
            package=pdn.GridSpec(3, 3, pdn.UnitCellParams(
                0.093, 0.25e-9, g, c, 0.5e-3)))
        z = pdn.solve_z_ports(spec, range(4), pdn.make_freq_grid(3, 2e8, 2e10)).z
        assert np.all(np.isfinite(z))


# --- physical properties ----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4),
       f=st.floats(2e8, 2e10))
def test_admittance_symmetric_and_passive(rows, cols, f):
    spec = pdn.StackSpec(chip=pdn.GridSpec(rows, cols, pdn.CHIP_CELL))
    y = chip_admittance(spec, f)
    assert np.allclose(y, y.T, rtol=0, atol=0)
    # Real part positive semidefinite (passive network).
    eig = np.linalg.eigvalsh(y.real)
    assert eig.min() > -1e-12


def test_z_matrix_reciprocal_and_resistive():
    config = pdn.chip_only_config(3, 3, pdn.make_freq_grid(7, 2e8, 2e10))
    sweep = pdn.solve_z_ports(config.stack, range(9), config.grid)
    assert np.allclose(sweep.z, np.transpose(sweep.z, (0, 2, 1)),
                       rtol=1e-12, atol=1e-15)
    assert np.real(sweep.z[:, range(9), range(9)]).min() > 0


def test_decaps_never_raise_objective_on_small_boards():
    config = pdn.chip_only_config(3, 3, pdn.make_freq_grid(11, 2e8, 2e10))
    sweep = pdn.solve_z_ports(config.stack, range(9), config.grid)
    bare = pdn.attach_decaps(sweep, 4, [], config.decap)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(20):
        ports = [int(p) for p in rng.choice([0, 1, 2, 3, 5, 6, 7, 8],
                                            size=int(rng.integers(1, 4)),
                                            replace=False)]
        final = pdn.attach_decaps(sweep, 4, ports, config.decap)
        j = pdn.objective(bare, final, config.grid)
        assert j > 0


# --- units and contracts -----------------------------------------------------------

def test_decap_impedance_closed_form():
    d = pdn.DecapModel(r_ohm=0.5, l_henry=2e-12, c_farad=3e-9)
    f = 1.3e9
    w = TWO_PI * f
    expect = 0.5 + 1j * (w * 2e-12 - 1.0 / (w * 3e-9))
    assert pdn.decap_impedance(d, f) == pytest.approx(expect, rel=1e-15)


def test_default_grid_is_201_points_linear():
    g = pdn.default_freq_grid()
    assert len(g) == 201
    assert g.points[0] == 2.0e8 and g.points[-1] == 2.0e10
    assert np.allclose(np.diff(g.points), g.points[1] - g.points[0])
    assert g.points is g.points and not g.points.flags.writeable


def test_objective_weighting():
    grid = pdn.FreqGrid((1e9, 2e9))
    j = pdn.objective(np.array([3.0, 3.0]), np.array([1.0, 2.0]), grid)
    assert j == pytest.approx(2.0 * 1.0 + 1.0 * 0.5, rel=1e-15)


def test_contract_errors():
    with pytest.raises(ContractViolation):
        pdn.GridSpec(0, 3, pdn.CHIP_CELL)
    with pytest.raises(ContractViolation):
        pdn.UnitCellParams(0.0, 0.0, 1e-3, 1e-12, 1e-4)
    with pytest.raises(ContractViolation):
        pdn.make_freq_grid(1, 1e8, 1e9)
    with pytest.raises(ContractViolation):
        pdn.DecapModel(c_farad=0.0)
    config = pdn.chip_only_config(2, 2, pdn.make_freq_grid(3, 2e8, 2e10))
    sweep = pdn.solve_z_ports(config.stack, range(4), config.grid)
    with pytest.raises(ContractViolation):
        pdn.attach_decaps(sweep, 0, [0], config.decap)
    with pytest.raises(ContractViolation):
        pdn.attach_decaps(sweep, 0, [1, 1], config.decap)
    with pytest.raises(ContractViolation):
        pdn.attach_decaps(sweep, 0, [1, 4], config.decap)


def test_numeric_failure_carries_frequency_index():
    err = NumericFailure("bad", 7)
    assert err.frequency_index == 7
