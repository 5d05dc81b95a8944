"""Layered RLGC grid model of a power distribution network.

The stack is a chip grid optionally sitting on a package grid. Each grid
cell is one electrical node with a shunt G + jwC to ground; orthogonally
adjacent cells of the same layer are joined by a series R + jwL branch.
Each chip cell is shorted to its nearest package cell (centered
alignment), so chip cells on one package cell share that node. The
package (a uniform grid, so its Laplacian has closed-form cosine modes) is
Kron-reduced exactly onto the package nodes under the chip; a package cell
must therefore have a shunt (G or C nonzero). A chip-only stack is itself
such a uniform grid, so its sweep needs no solve: the impedance columns of
the port nodes come straight from the same cosine modes. A package stack's
reduced system is small and fully dense and is solved directly. Both sweep
in blocks of frequencies and check every frequency's nodal residual.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContractViolation, NumericFailure

TWO_PI = 2.0 * np.pi

# Residual bound for declaring a nodal solve failed.
SOLVE_RESIDUAL_TOL = 1e-9
# Bound on the relative residual of the decap termination solve.
TERMINATION_RESIDUAL_TOL = 1e-6
# Bound on ||Z0 Y_fp - I|| (Frobenius) for the package block's inverse.
BLOCK_RESIDUAL_TOL = 1e-9
# Frequencies per block of a sweep. One block of all frequencies would hold
# several times the sweep's own size in temporaries.
FREQ_BLOCK = 16
# (FREQ_BLOCK, port nodes, nodes) complex arrays that one block of a sweep
# holds at once, for the RAM bound in solve_z_ports (chip-only sweeps peak
# at 5 to 5.6 of them besides z).
BLOCK_ARRAYS = 6


@dataclass(frozen=True)
class UnitCellParams:
    resistance_ohm: float
    inductance_henry: float
    conductance_siemens: float
    capacitance_farad: float
    width_meter: float

    def __post_init__(self):
        for name in ("resistance_ohm", "inductance_henry", "conductance_siemens",
                     "capacitance_farad", "width_meter"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")
        if self.resistance_ohm == 0 and self.inductance_henry == 0:
            raise ContractViolation("degenerate series branch: R and L both zero")


# Per-cell electrical parameters of the verification stack.
CHIP_CELL = UnitCellParams(
    resistance_ohm=0.26,
    inductance_henry=22e-12,
    conductance_siemens=1.2e-3,
    capacitance_farad=0.77e-12,
    width_meter=300e-6,
)
PACKAGE_CELL = UnitCellParams(
    resistance_ohm=0.093,
    inductance_henry=0.25e-9,
    conductance_siemens=5.4e-6,
    capacitance_farad=0.045e-12,
    width_meter=0.5e-3,
)


@dataclass(frozen=True)
class GridSpec:
    n_rows: int
    n_cols: int
    cell: UnitCellParams

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ContractViolation("grid dimensions must be positive")

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols


@dataclass(frozen=True)
class StackSpec:
    chip: GridSpec
    package: GridSpec | None = None

    def __post_init__(self):
        if self.package is not None:
            chip_w = self.chip.n_cols * self.chip.cell.width_meter
            chip_h = self.chip.n_rows * self.chip.cell.width_meter
            pkg_w = self.package.n_cols * self.package.cell.width_meter
            pkg_h = self.package.n_rows * self.package.cell.width_meter
            if pkg_w < chip_w or pkg_h < chip_h:
                raise ContractViolation("package extent must cover the chip")
            cell = self.package.cell
            if cell.conductance_siemens == 0 and cell.capacitance_farad == 0:
                raise ContractViolation("package cell needs a shunt: G and C both zero")


@dataclass(frozen=True)
class DecapModel:
    """Series-RLC decap attached from a port node to ground."""
    r_ohm: float = 0.01
    l_henry: float = 1e-12
    c_farad: float = 1e-9

    def __post_init__(self):
        if self.r_ohm < 0 or self.l_henry < 0:
            raise ContractViolation("decap R and L must be >= 0")
        if self.c_farad <= 0:
            raise ContractViolation("decap C must be > 0")


@dataclass(frozen=True)
class FreqGrid:
    points_hz: tuple

    def __post_init__(self):
        pts = np.asarray(self.points_hz, dtype=np.float64)
        if pts.ndim != 1 or len(pts) < 1:
            raise ContractViolation("frequency grid must be a 1-D list")
        if (not np.all(np.isfinite(pts)) or np.any(pts <= 0)
                or np.any(np.diff(pts) <= 0)):
            raise ContractViolation(
                "frequencies must be finite, positive and strictly increasing")

    @cached_property
    def points(self) -> np.ndarray:
        """The frequencies as one read-only float64 array, built once."""
        pts = np.array(self.points_hz, dtype=np.float64)
        pts.flags.writeable = False
        return pts

    def __len__(self):
        return len(self.points_hz)


def make_freq_grid(n: int, f_min_hz: float, f_max_hz: float) -> FreqGrid:
    """n equally spaced frequencies including both endpoints."""
    if n < 2:
        raise ContractViolation("need at least 2 frequency points")
    if f_min_hz <= 0 or f_max_hz <= f_min_hz:
        raise ContractViolation("need 0 < f_min < f_max")
    return FreqGrid(tuple(np.linspace(f_min_hz, f_max_hz, n)))


def default_freq_grid() -> FreqGrid:
    """201 points linear from 200 MHz to 20 GHz."""
    return make_freq_grid(201, 2.0e8, 2.0e10)


def decap_impedance(d: DecapModel, f_hz) -> np.ndarray:
    """Series-RLC impedance r + jwL + 1/(jwC), shaped like f_hz."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f <= 0):
        raise ContractViolation("frequency must be positive")
    w = TWO_PI * f
    return d.r_ohm + 1j * (w * d.l_henry - 1.0 / (w * d.c_farad))


@lru_cache(maxsize=16)
def _decap_impedance_on(d: DecapModel, grid: FreqGrid) -> np.ndarray:
    """decap_impedance(d, grid.points), computed once per (d, grid);
    read-only, since every caller shares it."""
    zd = decap_impedance(d, grid.points)
    zd.flags.writeable = False
    return zd


def _cell_centers(grid: GridSpec, offset_x: float, offset_y: float):
    """Physical center coordinates of every cell, row-major order."""
    w = grid.cell.width_meter
    cols = (np.arange(grid.n_cols) + 0.5) * w + offset_x
    rows = (np.arange(grid.n_rows) + 0.5) * w + offset_y
    xs = np.tile(cols, grid.n_rows)
    ys = np.repeat(rows, grid.n_cols)
    return xs, ys


def chip_to_package_map(spec: StackSpec) -> np.ndarray:
    """Nearest package node for each chip node, chip centered on package.

    Ties break toward the lower package index (deterministic).
    """
    if spec.package is None:
        raise ContractViolation("stack has no package layer")
    chip, pkg = spec.chip, spec.package
    pkg_w = pkg.n_cols * pkg.cell.width_meter
    pkg_h = pkg.n_rows * pkg.cell.width_meter
    chip_w = chip.n_cols * chip.cell.width_meter
    chip_h = chip.n_rows * chip.cell.width_meter
    cx, cy = _cell_centers(chip, (pkg_w - chip_w) / 2.0, (pkg_h - chip_h) / 2.0)
    px, py = _cell_centers(pkg, 0.0, 0.0)
    d2 = (cx[:, None] - px[None, :]) ** 2 + (cy[:, None] - py[None, :]) ** 2
    return np.argmin(d2, axis=1)


def _path_modes(n: int):
    """Eigenpairs of the Laplacian of an n-node path with free ends.

    Returns mu (n,) with mu_k = 2 - 2 cos(pi k / n), written as
    4 sin^2(pi k / 2n) to keep the small ones accurate, and the orthonormal
    eigenvectors as the columns of u (n, n), u[j, k] ∝ cos(pi k (j + 1/2) / n).
    """
    k = np.arange(n)
    mu = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    u = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    u[:, 0] = np.sqrt(1.0 / n)
    return mu, u


def _cell_admittances(cell: UnitCellParams, w):
    """Series branch admittance 1 / (R + jwL) and shunt admittance G + jwC
    of a grid cell at the angular frequencies w, each shaped like w."""
    return (1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry),
            cell.conductance_siemens + 1j * w * cell.capacitance_farad)


def _modal_impedance(cell: UnitCellParams, mu: np.ndarray, f_hz: np.ndarray,
                     pr: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Impedance of a uniform grid of cells between chosen rows x columns,
    at each frequency, from the modes of its Laplacian.

    With branch admittance y and shunt s per node, the grid's Z is the sum
    over modes (k, l) of (u_k u_k^T) (x) (v_l v_l^T) * D[k, l], where
    D[k, l] = 1 / (y mu[k, l] + s) and mu[k, l] = mu_k + nu_l. Its entry
    between nodes (r, c) and (r', c') is therefore pr @ D @ pc, with
    pr[(r, r'), k] = u_k(r) u_k(r') and pc[l, (c, c')] = v_l(c) v_l(c').
    pr (..., P, n_rows) and pc (..., n_cols, Q) may carry batch axes; the
    result is (len(f_hz), ..., P, Q).
    """
    w = TWO_PI * np.reshape(f_hz, (-1,) + (1,) * max(pr.ndim, pc.ndim))
    y, s = _cell_admittances(cell, w)
    return pr @ (1.0 / (y * mu + s)) @ pc


def _grid_branches(grid: GridSpec) -> np.ndarray:
    """(a, b) cell pairs of a grid's series branches, row-major order,
    as an (n_branches, 2) array."""
    out = []
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            i = r * grid.n_cols + c
            if c + 1 < grid.n_cols:
                out.append((i, i + 1))
            if r + 1 < grid.n_rows:
                out.append((i, i + grid.n_cols))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


class StackTopology:
    """Frequency-independent structure of a stack's nodal system.

    Built once per stack; values are computed per block of frequencies.
    A chip-only stack keeps one node per chip cell, row-major. It is a
    uniform grid, so the impedance columns of any nodes come in closed form
    from its Laplacian's cosine modes (`chip_impedance`), and its nodal
    admittance is applied branch by branch, never formed
    (`apply_chip_admittance`). A package is eliminated exactly onto its
    footprint, the package rows x columns that the chip cells sit on: the
    footprint nodes, numbered row-major, are the stack's nodes, and chip
    cells on one package node share it. Such a stack is stamped densely
    (`package_admittance`): the package enters as the Kron reduction of its
    uniform grid onto the footprint, built from the same cosine modes.
    """

    def __init__(self, spec: StackSpec):
        self.spec = spec
        chip = spec.chip
        if spec.package is None:
            self.n_nodes = chip.n_cells
            self.chip_port_nodes = np.arange(chip.n_cells)
            mu_r, self._u_r = _path_modes(chip.n_rows)
            mu_c, self._u_c = _path_modes(chip.n_cols)
            self._mu = mu_r[:, None] + mu_c[None, :]
            return
        pkg = spec.package
        pkg_of = chip_to_package_map(spec)
        fp_rows, row_of = np.unique(pkg_of // pkg.n_cols, return_inverse=True)
        fp_cols, col_of = np.unique(pkg_of % pkg.n_cols, return_inverse=True)
        node_of = row_of * len(fp_cols) + col_of
        self.n_nodes = len(fp_rows) * len(fp_cols)
        self.chip_port_nodes = node_of
        # The package's impedance on the footprint rows x columns, in the
        # form of _modal_impedance.
        mu_r, u_r = _path_modes(pkg.n_rows)
        mu_c, u_c = _path_modes(pkg.n_cols)
        self._mu = mu_r[:, None] + mu_c[None, :]
        ur, uc = u_r[fp_rows], u_c[fp_cols]
        self._pr = (ur[:, None, :] * ur[None, :, :]).reshape(-1, pkg.n_rows)
        self._pc = (uc[:, None, :] * uc[None, :, :]).reshape(-1, pkg.n_cols).T
        self._fp_shape = (len(fp_rows), len(fp_cols))

        # Chip branch Laplacian; chip branches inside one package node carry
        # no current and are dropped, parallel branches between two package
        # nodes add up.
        pairs = node_of[_grid_branches(chip)]
        a, b = pairs[pairs[:, 0] != pairs[:, 1]].T
        self._lap = np.zeros((self.n_nodes, self.n_nodes))
        np.add.at(self._lap, (np.concatenate([a, b, a, b]),
                              np.concatenate([a, b, b, a])),
                  np.repeat([1.0, 1.0, -1.0, -1.0], len(a)))

        # Chip shunt G and C accumulated per node.
        self._sh_g = np.zeros(self.n_nodes)
        self._sh_c = np.zeros(self.n_nodes)
        np.add.at(self._sh_g, node_of, chip.cell.conductance_siemens)
        np.add.at(self._sh_c, node_of, chip.cell.capacitance_farad)

    def chip_impedance(self, f_hz: np.ndarray, nodes) -> np.ndarray:
        """Impedance columns of a chip-only stack at each frequency, one per
        node in nodes, as one (len(f_hz), len(nodes), n_nodes) array: [k, j]
        holds the node voltages for unit current injected at nodes[j]."""
        if self.spec.package is not None:
            raise ContractViolation("stack has a package layer")
        chip = self.spec.chip
        r, c = np.divmod(np.asarray(nodes), chip.n_cols)
        # Row and column mode products of each column's node with every row
        # and every column of the grid.
        pr = self._u_r * self._u_r[r][:, None, :]
        pc = (self._u_c * self._u_c[c][:, None, :]).transpose(0, 2, 1)
        z = _modal_impedance(chip.cell, self._mu, f_hz, pr, pc)
        return z.reshape(len(f_hz), len(r), self.n_nodes)

    def apply_chip_admittance(self, f_hz: np.ndarray,
                              v: np.ndarray) -> np.ndarray:
        """Y(f) v for a chip-only stack, from its branch and shunt stamps
        without forming Y: v is (len(f_hz), m, n_nodes), m node-voltage
        vectors per frequency, and the result holds the currents they
        inject, in the same shape."""
        if self.spec.package is not None:
            raise ContractViolation("stack has a package layer")
        chip = self.spec.chip
        y, s = _cell_admittances(chip.cell,
                                 TWO_PI * np.reshape(f_hz, (-1, 1, 1, 1)))
        v = v.reshape(len(f_hz), -1, chip.n_rows, chip.n_cols)
        out = s * v
        # Each branch current flows out of its lower node into its higher
        # one: branches between adjacent rows, then adjacent columns.
        i_br = y * np.diff(v, axis=2)
        out[:, :, :-1] -= i_br
        out[:, :, 1:] += i_br
        i_br = y * np.diff(v, axis=3)
        out[..., :-1] -= i_br
        out[..., 1:] += i_br
        return out.reshape(len(f_hz), -1, self.n_nodes)

    def _package_impedance(self, f_hz: np.ndarray) -> np.ndarray:
        """Footprint block of the package grid's impedance matrix at each
        frequency, as one (len(f_hz), n, n) array."""
        a, b = self._fp_shape
        z0 = _modal_impedance(self.spec.package.cell, self._mu, f_hz,
                              self._pr, self._pc)
        z0 = z0.reshape(-1, a, a, b, b).transpose(0, 1, 3, 2, 4)
        return z0.reshape(-1, a * b, a * b)

    def _package_block(self, f_hz: np.ndarray) -> np.ndarray:
        """Admittance the package presents at its footprint nodes at each
        frequency: the inverse of `_package_impedance`, residual-checked per
        frequency (NumericFailure with the index into f_hz)."""
        z0 = self._package_impedance(f_hz)
        try:
            y_fp = np.linalg.inv(z0)
        except np.linalg.LinAlgError as exc:
            k = _first_singular(z0)
            raise NumericFailure(f"singular package block at {f_hz[k]:g} Hz",
                                 k) from exc
        resid = np.linalg.norm(z0 @ y_fp - np.eye(self.n_nodes), axis=(1, 2))
        k = _first_failed(resid, BLOCK_RESIDUAL_TOL)
        if k is not None:
            raise NumericFailure(f"package block inverse failed at {f_hz[k]:g} Hz",
                                 k)
        return y_fp

    def package_admittance(self, f_hz: np.ndarray) -> np.ndarray:
        """Dense nodal admittance of a package stack at each frequency, as
        one (len(f_hz), n, n) array: the package block plus the chip's
        branch and shunt stamps."""
        f_hz = np.asarray(f_hz, dtype=np.float64)
        if self.spec.package is None:
            raise ContractViolation("stack has no package layer")
        w = TWO_PI * f_hz
        y_br, _ = _cell_admittances(self.spec.chip.cell, w)
        y = self._package_block(f_hz)
        y += y_br[:, None, None] * self._lap
        nodes = np.arange(self.n_nodes)
        y[:, nodes, nodes] += self._sh_g + 1j * w[:, None] * self._sh_c
        return y


def _first_failed(resid: np.ndarray, tol: float):
    """Index of the first residual that is not finite or exceeds tol, or
    None when every one passes."""
    bad = np.flatnonzero(~np.isfinite(resid) | (resid > tol))
    return int(bad[0]) if bad.size else None


def _first_singular(a: np.ndarray) -> int:
    """Index of the first matrix of the stack a whose LU factorisation has
    a zero pivot, the one np.linalg rejected as singular."""
    return int(np.argmin(np.abs(np.linalg.slogdet(a).sign)))


@dataclass(frozen=True)
class FrequencySweepZ:
    """Port impedance matrices over a frequency grid.

    ports are chip cell indices. Ports that share a network node (chip
    cells on one package node) share one row and column: z has shape
    (n_freq, n_nodes, n_nodes) over the distinct port nodes in order of
    first appearance, and ports[i] reads row port_rows[i].
    When every port is its own node, z is (n_freq, n_ports, n_ports).
    """
    ports: tuple
    grid: FreqGrid
    z: np.ndarray = field(repr=False)
    port_rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        # attach_decaps gathers from z through a flat view; a strided z
        # would be copied whole on every call.
        if not self.z.flags.c_contiguous:
            raise ContractViolation("sweep z must be C-contiguous")

    @cached_property
    def _row_of_port(self) -> dict:
        return dict(zip(self.ports, self.port_rows.tolist()))

    def port_index(self, port: int) -> int:
        try:
            return self._row_of_port[port]
        except KeyError:
            raise ContractViolation(f"port {port} not in sweep") from None


def _check_sweep_ram(nd: int, n: int, n_freqs: int) -> None:
    """Reject a sweep whose z and (block, nd, n) work arrays exceed RAM."""
    need = 16 * (n_freqs * nd * nd
                 + BLOCK_ARRAYS * min(n_freqs, FREQ_BLOCK) * n * nd)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise ContractViolation(
            f"sweep of {nd} port nodes at {n_freqs} frequencies needs "
            f"{need / 2**30:.1f} GiB, more than the {ram / 2**30:.1f} GiB "
            "of physical RAM")


def solve_z_ports(spec: StackSpec, ports, grid: FreqGrid) -> FrequencySweepZ:
    """Z[i][j](f) = voltage at port i for unit current injected at port j.

    One column per distinct port node: ports on one node have the same
    column, so each is computed (and residual-checked) once. The grid is
    swept in blocks of FREQ_BLOCK frequencies. A sweep whose z and block
    work arrays would not fit in the machine's physical RAM is rejected
    before anything is allocated; on a chip-only stack, where every port
    is its own node, before ports is even iterated.
    """
    freqs = grid.points
    if spec.package is None:
        _check_sweep_ram(len(ports), spec.chip.n_cells, len(freqs))
    ports = tuple(int(p) for p in ports)
    if len(set(ports)) != len(ports):
        raise ContractViolation("ports must be distinct")
    topo = StackTopology(spec)
    if any(p < 0 or p >= spec.chip.n_cells for p in ports):
        raise ContractViolation("ports must be chip cell indices")
    row_of_node = {}  # distinct port node -> row of z, first appearance first
    port_rows = np.array([row_of_node.setdefault(node, len(row_of_node))
                          for node in topo.chip_port_nodes[list(ports)]],
                         dtype=np.int64)
    nodes = np.array(list(row_of_node), dtype=np.int64)
    nd = len(nodes)
    _check_sweep_ram(nd, topo.n_nodes, len(freqs))
    z = np.empty((len(freqs), nd, nd), dtype=np.complex128)
    solve = _modal_solve if spec.package is None else _dense_solve
    for k0 in range(0, len(freqs), FREQ_BLOCK):
        f = freqs[k0:k0 + FREQ_BLOCK]
        try:
            z[k0:k0 + len(f)] = solve(topo, f, nodes)
        except NumericFailure as exc:
            raise NumericFailure(str(exc), k0 + exc.frequency_index) from exc
    return FrequencySweepZ(ports, grid, z, port_rows)


def _modal_solve(topo: StackTopology, f_hz: np.ndarray,
                 nodes: np.ndarray) -> np.ndarray:
    """Impedance between the given nodes of a chip-only stack at each
    frequency, as one (len(f_hz), m, m) array. Its full columns are checked
    against the nodal equation Y Z = E per frequency (NumericFailure with
    the index into f_hz)."""
    z = topo.chip_impedance(f_hz, nodes)
    resid = topo.apply_chip_admittance(f_hz, z)
    resid[:, np.arange(len(nodes)), nodes] -= 1.0
    k = _first_failed(np.linalg.norm(resid, axis=2).max(axis=1),
                      SOLVE_RESIDUAL_TOL)
    if k is not None:
        raise NumericFailure(f"nodal solve failed at {f_hz[k]:g} Hz", k)
    return z[:, :, nodes].transpose(0, 2, 1)


def _dense_solve(topo: StackTopology, f_hz: np.ndarray,
                 nodes: np.ndarray) -> np.ndarray:
    """Impedance between the given nodes of a package stack at each
    frequency, as one (len(f_hz), m, m) array, from one batched solve with
    a unit right-hand side per node, residual-checked per frequency
    (NumericFailure with the index into f_hz)."""
    y = topo.package_admittance(f_hz)
    rhs = np.zeros((topo.n_nodes, len(nodes)), dtype=np.complex128)
    rhs[nodes, np.arange(len(nodes))] = 1.0
    try:
        v = np.linalg.solve(y, rhs)
    except np.linalg.LinAlgError as exc:
        k = _first_singular(y)
        raise NumericFailure(f"singular system at {f_hz[k]:g} Hz", k) from exc
    resid = np.linalg.norm(y @ v - rhs, axis=1).max(axis=1)
    k = _first_failed(resid, SOLVE_RESIDUAL_TOL)
    if k is not None:
        raise NumericFailure(f"nodal solve failed at {f_hz[k]:g} Hz", k)
    return v[:, nodes, :]


def attach_decaps(z_bare: FrequencySweepZ, probe: int, decap_ports,
                  d: DecapModel) -> np.ndarray:
    """|Z| at the probe after terminating decap ports with the decap model.

    Schur reduction per frequency over the distinct sweep rows ci of the
    decap ports, sorted ascending: Z' = Zpp - Zpc (Zcc + diag(z_d / c))^-1 Zcp,
    where c counts the decaps on each row. Ports that share a network node
    are electrically one port, so their c decaps act as one decap of
    impedance z_d / c (exact in exact arithmetic), and such ports score
    exactly equal. When every port is its own row this is the per-port
    K x K system. The result does not depend on the order of decap_ports.
    """
    decap_ports = [int(p) for p in decap_ports]
    if len(set(decap_ports)) != len(decap_ports):
        raise ContractViolation("decap ports must be distinct")
    if probe in decap_ports:
        raise ContractViolation("probe may not carry a decap")
    pi = z_bare.port_index(probe)
    if not decap_ports:
        return np.abs(z_bare.z[:, pi, pi])
    per_row = np.bincount([z_bare.port_index(p) for p in decap_ports])
    ci = np.flatnonzero(per_row)
    counts = per_row[ci]
    n_freq, nd = z_bare.z.shape[:2]
    m = len(ci)
    zpp = z_bare.z[:, pi, pi]
    zpc = z_bare.z[:, pi, ci]
    zcp = z_bare.z[:, ci, pi]
    flat = (ci[:, None] * nd + ci[None, :]).ravel()
    a = np.take(z_bare.z.reshape(n_freq, nd * nd), flat, axis=1)
    f_hz = z_bare.grid.points
    a[:, ::m + 1] += _decap_impedance_on(d, z_bare.grid)[:, None] / counts
    a = a.reshape(n_freq, m, m)
    b = zcp[:, :, None]
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        k = _first_singular(a)
        raise NumericFailure(
            f"singular decap termination solve at {f_hz[k]:g} Hz", k) from exc
    resid = np.linalg.norm(a @ x - b, axis=(1, 2)) / np.linalg.norm(b, axis=(1, 2))
    k = _first_failed(resid, TERMINATION_RESIDUAL_TOL)
    if k is not None:
        raise NumericFailure(
            f"ill-conditioned decap termination solve at {f_hz[k]:g} Hz", k)
    z_probe = zpp - (zpc[:, None, :] @ x)[:, 0, 0]
    return np.abs(z_probe)


def objective(z_init: np.ndarray, z_final: np.ndarray, grid: FreqGrid) -> float:
    """Impedance-suppression score: sum over f of (zi - zf) * 1GHz/f."""
    z_init = np.asarray(z_init, dtype=np.float64)
    z_final = np.asarray(z_final, dtype=np.float64)
    if z_init.shape != (len(grid),) or z_final.shape != (len(grid),):
        raise ContractViolation("profile length must match the frequency grid")
    return float(np.sum((z_init - z_final) * (1e9 / grid.points)))


@dataclass(frozen=True)
class SimConfig:
    """Everything the simulator needs: stack, decap model, frequency grid."""
    stack: StackSpec
    decap: DecapModel
    grid: FreqGrid


def paper_scale_config() -> SimConfig:
    """10x10 chip on a 40x40 package, default decap, 201-point sweep."""
    stack = StackSpec(chip=GridSpec(10, 10, CHIP_CELL),
                      package=GridSpec(40, 40, PACKAGE_CELL))
    return SimConfig(stack, DecapModel(), default_freq_grid())


def chip_only_config(n_rows: int, n_cols: int,
                     grid: FreqGrid | None = None) -> SimConfig:
    """Single-layer chip stack; the fast desk-scale configuration."""
    stack = StackSpec(chip=GridSpec(n_rows, n_cols, CHIP_CELL))
    return SimConfig(stack, DecapModel(), grid or default_freq_grid())


# The named simulator presets: `--sim` values and dataset-header `sim`s.
SIM_PRESETS = ("chip", "paper")


def sim_config(name: str, n_rows: int, n_cols: int) -> SimConfig:
    """The preset called name on an n_rows x n_cols board."""
    if name == "paper":
        cfg = paper_scale_config()
        if (n_rows, n_cols) != (cfg.stack.chip.n_rows, cfg.stack.chip.n_cols):
            raise ContractViolation("paper stack is fixed at 10x10")
        return cfg
    if name == "chip":
        return chip_only_config(n_rows, n_cols)
    raise ContractViolation(f"unknown simulator preset {name!r}")


def sim_preset(config: SimConfig) -> str | None:
    """The name of the preset that equals config on its board, or None."""
    if config == paper_scale_config():
        return "paper"
    chip = config.stack.chip
    if config == chip_only_config(chip.n_rows, chip.n_cols):
        return "chip"
    return None
