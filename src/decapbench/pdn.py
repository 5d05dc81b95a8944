"""Layered RLGC grid model of a power distribution network.

The stack is a chip grid optionally sitting on a package grid. Each grid
cell is one electrical node with a shunt G + jwC to ground; orthogonally
adjacent cells of the same layer are joined by a series R + jwL branch.
Each chip cell is shorted to its nearest package cell (centered
alignment), so chip cells on one package cell share that node. The
package (a uniform grid, so its Laplacian has closed-form cosine modes) is
Kron-reduced exactly onto the package nodes under the chip; a package cell
must therefore have a shunt (G or C nonzero). The sweep uses dense
frequency blocks for package stacks (whose reduced system is small and
fully dense), `splu` for chip-only stacks (one sparse factorisation per
frequency).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ContractViolation, NumericFailure

TWO_PI = 2.0 * np.pi

# Residual bound for declaring a nodal solve failed.
SOLVE_RESIDUAL_TOL = 1e-9
# Bound on ||Z0 Y_fp - I|| (Frobenius) for the package block's inverse.
BLOCK_RESIDUAL_TOL = 1e-9
# Frequencies per dense block of a package-stack sweep. One block of all
# frequencies would hold several times the sweep's own size in temporaries.
FREQ_BLOCK = 16


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
        if np.any(pts <= 0) or np.any(np.diff(pts) <= 0):
            raise ContractViolation("frequencies must be positive and strictly increasing")

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
    """Frequency-independent structure of the nodal admittance matrix.

    Built once per stack; admittance values are stamped per frequency.
    A chip-only stack keeps one node per chip cell and is stamped as a
    sparse matrix (`admittance`). A package is eliminated exactly onto its
    footprint, the package rows x columns that the chip cells sit on: the
    footprint nodes, numbered row-major, are the stack's nodes, and chip
    cells on one package node share it. Such a stack is stamped densely
    for many frequencies at once (`package_admittance`): the package enters
    as the Kron reduction of its uniform grid onto the footprint, built
    from the grid Laplacian's closed-form cosine modes.
    """

    def __init__(self, spec: StackSpec):
        self.spec = spec
        chip = spec.chip
        node_of = np.arange(chip.n_cells)
        self.n_nodes = chip.n_cells
        if spec.package is not None:
            pkg = spec.package
            pkg_of = chip_to_package_map(spec)
            fp_rows, row_of = np.unique(pkg_of // pkg.n_cols, return_inverse=True)
            fp_cols, col_of = np.unique(pkg_of % pkg.n_cols, return_inverse=True)
            node_of = row_of * len(fp_cols) + col_of
            self.n_nodes = len(fp_rows) * len(fp_cols)
            # Z_pkg = sum over modes (k, l) of (u_k u_k^T) (x) (v_l v_l^T) * D[k, l]
            # with D[k, l] = 1 / (y_p (mu_k + nu_l) + s_p); on the footprint
            # its ((r, c), (r', c')) entry is pr[(r, r'), :] @ D @ pc[:, (c, c')].
            mu_r, u_r = _path_modes(pkg.n_rows)
            mu_c, u_c = _path_modes(pkg.n_cols)
            self._mu = mu_r[:, None] + mu_c[None, :]
            ur, uc = u_r[fp_rows], u_c[fp_cols]
            self._pr = (ur[:, None, :] * ur[None, :, :]).reshape(-1, pkg.n_rows)
            self._pc = (uc[:, None, :] * uc[None, :, :]).reshape(-1, pkg.n_cols).T
            self._fp_shape = (len(fp_rows), len(fp_cols))
        self.chip_port_nodes = node_of

        # Series branches as node pairs; chip branches inside one package
        # node carry no current and are dropped.
        pairs = node_of[_grid_branches(chip)]
        self._br_a, self._br_b = pairs[pairs[:, 0] != pairs[:, 1]].T

        # Chip shunt G and C accumulated per node.
        self._sh_g = np.zeros(self.n_nodes)
        self._sh_c = np.zeros(self.n_nodes)
        np.add.at(self._sh_g, node_of, chip.cell.conductance_siemens)
        np.add.at(self._sh_c, node_of, chip.cell.capacitance_farad)

        a, b = self._br_a, self._br_b
        rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
        if spec.package is None:
            nodes = np.arange(self.n_nodes)
            self._rows = np.concatenate([rows, nodes])
            self._cols = np.concatenate([cols, nodes])
        else:
            # Chip branch Laplacian; parallel branches between two package
            # nodes add up.
            self._lap = np.zeros((self.n_nodes, self.n_nodes))
            np.add.at(self._lap, (rows, cols),
                      np.repeat([1.0, 1.0, -1.0, -1.0], len(a)))

    def _package_impedance(self, f_hz: np.ndarray) -> np.ndarray:
        """Footprint block of the package grid's impedance matrix at each
        frequency, as one (len(f_hz), n, n) array."""
        cell = self.spec.package.cell
        w = TWO_PI * f_hz[:, None, None]
        y_p = 1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry)
        s_p = cell.conductance_siemens + 1j * w * cell.capacitance_farad
        a, b = self._fp_shape
        z0 = self._pr @ (1.0 / (y_p * self._mu + s_p)) @ self._pc
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
        cell = self.spec.chip.cell
        y_br = 1.0 / (cell.resistance_ohm + 1j * w * cell.inductance_henry)
        y = self._package_block(f_hz)
        y += y_br[:, None, None] * self._lap
        nodes = np.arange(self.n_nodes)
        y[:, nodes, nodes] += self._sh_g + 1j * w[:, None] * self._sh_c
        return y

    def admittance(self, f_hz: float) -> sp.csc_matrix:
        """Sparse nodal admittance of a chip-only stack at one frequency."""
        if self.spec.package is not None:
            raise ContractViolation("a package stack is stamped densely: "
                                    "use package_admittance")
        if f_hz <= 0:
            raise ContractViolation("frequency must be positive")
        w = TWO_PI * f_hz
        cell = self.spec.chip.cell
        # Every branch is a chip branch: one admittance, divided by numpy
        # (whose complex division rounds unlike Python's) and repeated.
        z_br = np.array([cell.resistance_ohm]) + 1j * w * cell.inductance_henry
        y_br = np.repeat(1.0 / z_br, len(self._br_a))
        y_sh = self._sh_g + 1j * w * self._sh_c
        y = sp.coo_matrix((np.concatenate([y_br, y_br, -y_br, -y_br, y_sh]),
                           (self._rows, self._cols)),
                          shape=(self.n_nodes, self.n_nodes))
        return y.tocsc()


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


def solve_z_ports(spec: StackSpec, ports, grid: FreqGrid) -> FrequencySweepZ:
    """Z[i][j](f) = voltage at port i for unit current injected at port j.

    One right-hand side per distinct port node: ports on one node have the
    same column, so each is solved (and residual-checked) once. A sweep
    whose z and right-hand sides would not fit in the machine's physical
    RAM is rejected before anything is allocated.
    """
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
    n, nd = topo.n_nodes, len(nodes)
    freqs = grid.points
    need = 16 * (len(freqs) * nd * nd + n * nd)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise ContractViolation(
            f"sweep of {nd} port nodes at {len(freqs)} frequencies needs "
            f"{need / 2**30:.1f} GiB, more than the {ram / 2**30:.1f} GiB "
            "of physical RAM")
    z = np.empty((len(freqs), nd, nd), dtype=np.complex128)
    rhs = np.zeros((n, nd), dtype=np.complex128)
    rhs[nodes, np.arange(nd)] = 1.0
    if spec.package is None:
        for k, f in enumerate(freqs):
            y = topo.admittance(f)
            try:
                lu = splu(y)
                v = lu.solve(rhs)
            except RuntimeError as exc:
                raise NumericFailure(f"singular system at {f:g} Hz", k) from exc
            resid = np.linalg.norm(y @ v - rhs, axis=0)
            if not np.all(np.isfinite(v)) or np.max(resid) > SOLVE_RESIDUAL_TOL:
                raise NumericFailure(f"nodal solve failed at {f:g} Hz", k)
            z[k] = v[nodes, :]
        return FrequencySweepZ(ports, grid, z, port_rows)
    for k0 in range(0, len(freqs), FREQ_BLOCK):
        f = freqs[k0:k0 + FREQ_BLOCK]
        try:
            z[k0:k0 + len(f)] = _dense_solve(topo, f, rhs)[:, nodes, :]
        except NumericFailure as exc:
            raise NumericFailure(str(exc), k0 + exc.frequency_index) from exc
    return FrequencySweepZ(ports, grid, z, port_rows)


def _dense_solve(topo: StackTopology, f_hz: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Nodal voltages of a package stack for the right-hand sides rhs at
    each frequency, as one (len(f_hz), n, n_rhs) array, residual-checked
    per frequency (NumericFailure with the index into f_hz)."""
    y = topo.package_admittance(f_hz)
    try:
        v = np.linalg.solve(y, rhs)
    except np.linalg.LinAlgError as exc:
        k = _first_singular(y)
        raise NumericFailure(f"singular system at {f_hz[k]:g} Hz", k) from exc
    resid = np.linalg.norm(y @ v - rhs, axis=1).max(axis=1)
    k = _first_failed(resid, SOLVE_RESIDUAL_TOL)
    if k is not None:
        raise NumericFailure(f"nodal solve failed at {f_hz[k]:g} Hz", k)
    return v


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
    ci, counts = np.unique([z_bare.port_index(p) for p in decap_ports],
                           return_counts=True)
    n_freq, nd = z_bare.z.shape[:2]
    m = len(ci)
    zpp = z_bare.z[:, pi, pi]
    zpc = z_bare.z[:, pi, ci]
    zcp = z_bare.z[:, ci, pi]
    flat = (ci[:, None] * nd + ci[None, :]).ravel()
    a = np.take(z_bare.z.reshape(n_freq, nd * nd), flat, axis=1)
    zd = decap_impedance(d, z_bare.grid.points)
    a[:, ::m + 1] += zd[:, None] / counts
    a = a.reshape(n_freq, m, m)
    b = zcp[:, :, None]
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("singular decap termination solve") from exc
    resid = np.linalg.norm(a @ x - b, axis=(1, 2)) / np.linalg.norm(b, axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(resid) | (resid > 1e-6))
    if bad.size:
        raise NumericFailure("ill-conditioned decap termination solve",
                             int(bad[0]))
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
