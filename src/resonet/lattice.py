"""Lattice topology and the mechanical-electrical analogy.

A lattice is a rectangular grid of two-node resonator cells.  Each cell has an
outer node (lattice-facing, carries the larger FDNR) and an inner node (the
readout, carries the smaller FDNR) joined by an internal resistance.  Outer
nodes of 4-neighbor adjacent cells are joined by coupling resistances.
Grounded cells are clamped to zero potential and carry no degrees of freedom.

The same topology describes a mass-spring network: masses play the role of
FDNR values and spring constants the role of inverse resistances.  With a
scaling factor ``s``::

    D = s * mass          R = 1 / (s * k)

Both domains produce identical dynamics for any s > 0, which is what makes a
network trained in convenient mechanical units realizable with practical
circuit element values.  Quantization to standard resistor series (E24/E96)
is provided for hardware export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (DataFormatError, InvalidParameterError, TopologyError,
                     check_fields, read_json, refuse_overwrite, write_json)

# Standard resistor series mantissas (IEC 60063).
E24 = (
    1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.0,
    3.3, 3.6, 3.9, 4.3, 4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1,
)
E96 = (
    1.00, 1.02, 1.05, 1.07, 1.10, 1.13, 1.15, 1.18, 1.21, 1.24, 1.27, 1.30,
    1.33, 1.37, 1.40, 1.43, 1.47, 1.50, 1.54, 1.58, 1.62, 1.65, 1.69, 1.74,
    1.78, 1.82, 1.87, 1.91, 1.96, 2.00, 2.05, 2.10, 2.15, 2.21, 2.26, 2.32,
    2.37, 2.43, 2.49, 2.55, 2.61, 2.67, 2.74, 2.80, 2.87, 2.94, 3.01, 3.09,
    3.16, 3.24, 3.32, 3.40, 3.48, 3.57, 3.65, 3.74, 3.83, 3.92, 4.02, 4.12,
    4.22, 4.32, 4.42, 4.53, 4.64, 4.75, 4.87, 4.99, 5.11, 5.23, 5.36, 5.49,
    5.62, 5.76, 5.90, 6.04, 6.19, 6.34, 6.49, 6.65, 6.81, 6.98, 7.15, 7.32,
    7.50, 7.68, 7.87, 8.06, 8.25, 8.45, 8.66, 8.87, 9.09, 9.31, 9.53, 9.76,
)
SERIES_TABLES = {"E24": E24, "E96": E96}


def _as_readonly(values, n: int | None, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError(f"{what} must be a 1-D array, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise InvalidParameterError(f"{what} must have length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidParameterError(f"{what} entries must be finite and > 0")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LatticeSpec:
    """Grid geometry: which cells exist, which are grounded, where I/O sits.

    Cells are indexed row-major: cell = row * cols + col.  Grounded cells are
    clamped (no degrees of freedom) but their coupling resistors still tie
    neighboring outer nodes to ground.
    """

    rows: int
    cols: int
    grounded: frozenset[int]
    input_cell: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InvalidParameterError("rows and cols must be >= 1")
        object.__setattr__(self, "grounded", frozenset(int(i) for i in self.grounded))
        object.__setattr__(self, "outputs", tuple(int(i) for i in self.outputs))
        object.__setattr__(self, "input_cell", int(self.input_cell))
        n = self.n_cells
        for what, cells in (("grounded", self.grounded), ("input", (self.input_cell,)),
                            ("output", self.outputs)):
            for i in cells:
                if not 0 <= i < n:
                    raise TopologyError(f"{what} cell index {i} outside 0..{n - 1}")
        if self.input_cell in self.grounded:
            raise TopologyError("input cell must not be grounded")
        if len(set(self.outputs)) != len(self.outputs):
            raise TopologyError("output cells must be distinct")
        if not self.outputs:
            raise TopologyError("at least one output cell required")
        for i in self.outputs:
            if i in self.grounded:
                raise TopologyError(f"output cell {i} must not be grounded")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """4-neighbor adjacency, (a, b) with a < b, row-major order."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                i = r * self.cols + c
                if c + 1 < self.cols:
                    out.append((i, i + 1))
                if r + 1 < self.rows:
                    out.append((i, i + self.cols))
        return tuple(out)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def active_cells(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_cells) if i not in self.grounded)

    def rowcol(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.cols)

    @classmethod
    def default_grid(cls) -> "LatticeSpec":
        """5x5 grid, corners grounded, input mid-west, outputs on the east column."""
        return cls(rows=5, cols=5, grounded=frozenset({0, 4, 20, 24}),
                   input_cell=10, outputs=(9, 14, 19))


@dataclass(frozen=True)
class MechanicalParams:
    """Mass-spring parameters: per-cell masses/internal springs, per-edge couplings.

    Arrays cover every grid cell (grounded entries are carried but inert).
    Units: kg and N/m.
    """

    mass_outer: np.ndarray
    mass_inner: np.ndarray
    k_internal: np.ndarray
    k_coupling: np.ndarray

    def __post_init__(self):
        n = len(np.asarray(self.mass_outer))
        object.__setattr__(self, "mass_outer", _as_readonly(self.mass_outer, n, "mass_outer"))
        object.__setattr__(self, "mass_inner", _as_readonly(self.mass_inner, n, "mass_inner"))
        object.__setattr__(self, "k_internal", _as_readonly(self.k_internal, n, "k_internal"))
        object.__setattr__(self, "k_coupling", _as_readonly(self.k_coupling, None, "k_coupling"))

    @classmethod
    def uniform(cls, spec: LatticeSpec, mass_outer: float, mass_inner: float,
                k_internal: float, k_coupling: float) -> "MechanicalParams":
        n, m = spec.n_cells, spec.n_edges
        return cls(np.full(n, mass_outer), np.full(n, mass_inner),
                   np.full(n, k_internal), np.full(m, k_coupling))


@dataclass(frozen=True)
class CircuitParams:
    """Realizable circuit values: per-cell FDNRs/internal R, per-edge coupling R.

    FDNR values in s^2/ohm (= ohm * farad^2), resistances in ohm.
    """

    d_outer: np.ndarray
    d_inner: np.ndarray
    r_internal: np.ndarray
    r_coupling: np.ndarray

    def __post_init__(self):
        n = len(np.asarray(self.d_outer))
        object.__setattr__(self, "d_outer", _as_readonly(self.d_outer, n, "d_outer"))
        object.__setattr__(self, "d_inner", _as_readonly(self.d_inner, n, "d_inner"))
        object.__setattr__(self, "r_internal", _as_readonly(self.r_internal, n, "r_internal"))
        object.__setattr__(self, "r_coupling", _as_readonly(self.r_coupling, None, "r_coupling"))

    @classmethod
    def uniform(cls, spec: LatticeSpec, d_outer: float, d_inner: float,
                r_internal: float, r_coupling: float) -> "CircuitParams":
        n, m = spec.n_cells, spec.n_edges
        return cls(np.full(n, d_outer), np.full(n, d_inner),
                   np.full(n, r_internal), np.full(m, r_coupling))


@dataclass(frozen=True)
class ScalingFactor:
    """Analogy scale s mediating D = s*mass, R = 1/(s*k).  Dimensionless knob."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or v <= 0.0:
            raise InvalidParameterError(f"scaling factor must be finite and > 0, got {v}")
        object.__setattr__(self, "value", v)


def _scale_value(s) -> float:
    return s.value if isinstance(s, ScalingFactor) else ScalingFactor(float(s)).value


def mech_to_circuit(mech: MechanicalParams, s) -> CircuitParams:
    """Map masses/springs to FDNR/resistance values at scale s."""
    sv = _scale_value(s)
    return CircuitParams(
        d_outer=sv * mech.mass_outer,
        d_inner=sv * mech.mass_inner,
        r_internal=1.0 / (sv * mech.k_internal),
        r_coupling=1.0 / (sv * mech.k_coupling),
    )


def circuit_to_mech(circ: CircuitParams, s) -> MechanicalParams:
    """Inverse analogy map; circuit_to_mech(mech_to_circuit(m, s), s) == m."""
    sv = _scale_value(s)
    return MechanicalParams(
        mass_outer=circ.d_outer / sv,
        mass_inner=circ.d_inner / sv,
        k_internal=1.0 / (sv * circ.r_internal),
        k_coupling=1.0 / (sv * circ.r_coupling),
    )


def choose_scaling(mech: MechanicalParams, r_target_ohm: float) -> ScalingFactor:
    """Pick s so the geometric mean of all resulting resistances is r_target_ohm.

    Resonances are invariant under s, so this only centers the element values
    on a practical decade.
    """
    if not math.isfinite(r_target_ohm) or r_target_ohm <= 0.0:
        raise InvalidParameterError("r_target_ohm must be finite and > 0")
    all_k = np.concatenate([mech.k_internal, mech.k_coupling])
    gm_k = float(np.exp(np.mean(np.log(all_k))))
    return ScalingFactor(1.0 / (r_target_ohm * gm_k))


def nearest_standard_value(value: float, series: str = "E96") -> float:
    """Snap one positive value to the nearest series mantissa by relative error.

    Adjacent decades are searched too, so boundary values (e.g. 9.9) may round
    up into the next decade.  Ties resolve to the smaller candidate.
    """
    if series not in SERIES_TABLES:
        raise InvalidParameterError(f"unknown series {series!r}; expected one of {sorted(SERIES_TABLES)}")
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"value must be finite and > 0, got {value}")
    table = SERIES_TABLES[series]
    decade = math.floor(math.log10(value))
    candidates = [m * 10.0 ** d for d in (decade - 1, decade, decade + 1) for m in table]
    candidates.sort()
    errors = [abs(c - value) / value for c in candidates]
    return candidates[int(np.argmin(errors))]


@dataclass(frozen=True)
class QuantizationEntry:
    kind: str          # "r_internal" or "r_coupling"
    index: int
    original_ohm: float
    quantized_ohm: float
    rel_error: float


@dataclass(frozen=True)
class QuantizationReport:
    series: str
    entries: tuple[QuantizationEntry, ...]

    @property
    def max_rel_error(self) -> float:
        return max((e.rel_error for e in self.entries), default=0.0)

    @property
    def changed(self) -> tuple[QuantizationEntry, ...]:
        return tuple(e for e in self.entries if e.quantized_ohm != e.original_ohm)

    def to_json_dict(self) -> dict:
        return {
            "series": self.series,
            "max_rel_error": self.max_rel_error,
            "entries": [
                {"kind": e.kind, "index": e.index, "original_ohm": e.original_ohm,
                 "quantized_ohm": e.quantized_ohm, "rel_error": e.rel_error}
                for e in self.entries
            ],
        }


def quantize_eseries(circ: CircuitParams, series: str = "E96") -> tuple[CircuitParams, QuantizationReport]:
    """Snap every resistance to the nearest standard value; FDNRs untouched.

    Returns the quantized parameter set and a report listing every resistor
    with its original value, snapped value and relative error.
    """
    entries = []

    def snap(arr, kind):
        out = np.empty_like(arr)
        for i, v in enumerate(arr):
            q = nearest_standard_value(float(v), series)
            out[i] = q
            entries.append(QuantizationEntry(kind, i, float(v), q, abs(q - v) / v))
        return out

    quant = CircuitParams(
        d_outer=circ.d_outer, d_inner=circ.d_inner,
        r_internal=snap(circ.r_internal, "r_internal"),
        r_coupling=snap(circ.r_coupling, "r_coupling"),
    )
    return quant, QuantizationReport(series, tuple(entries))


# --- serialization ---------------------------------------------------------

def spec_to_json_dict(spec: LatticeSpec) -> dict:
    return {
        "rows": spec.rows,
        "cols": spec.cols,
        "grounded": sorted(spec.grounded),
        "input": spec.input_cell,
        "outputs": list(spec.outputs),
    }


_SPEC_FIELDS = {"rows": "int", "cols": "int", "grounded": "list[int]",
                "input": "int", "outputs": "list[int]"}


def spec_from_json_dict(d: dict, source="lattice description",
                        prefix: str = "") -> LatticeSpec:
    """Parse spec_to_json_dict output ("grounded" may be left out); a missing,
    unknown or ill-typed key, or a grid LatticeSpec refuses, is a
    DataFormatError naming `source` and the key, written `prefix + key`."""
    check_fields(d, _SPEC_FIELDS, source, prefix, optional=("grounded",))
    try:
        return LatticeSpec(rows=d["rows"], cols=d["cols"],
                           grounded=frozenset(d.get("grounded", ())),
                           input_cell=d["input"], outputs=tuple(d["outputs"]))
    except (InvalidParameterError, TopologyError) as exc:
        where = f"{prefix[:-1]}: " if prefix else ""
        raise DataFormatError(f"{source}: {where}{exc}") from exc


def mech_to_json_dict(spec: LatticeSpec, mech: MechanicalParams) -> dict:
    if len(mech.mass_outer) != spec.n_cells or len(mech.k_coupling) != spec.n_edges:
        raise InvalidParameterError("mechanical parameter lengths do not match the lattice spec")
    return {
        "spec": spec_to_json_dict(spec),
        "mass_outer_kg": [float(v) for v in mech.mass_outer],
        "mass_inner_kg": [float(v) for v in mech.mass_inner],
        "k_internal": [float(v) for v in mech.k_internal],
        "k_coupling": [float(v) for v in mech.k_coupling],
    }


# model.json is a mechanical description plus the record of the training run
# that wrote it (see resonet train); the record is not read back
_MECH_FIELDS = {"spec": "dict", "mass_outer_kg": "tuple[float > 0, ...]",
                "mass_inner_kg": "tuple[float > 0, ...]",
                "k_internal": "tuple[float > 0, ...]",
                "k_coupling": "tuple[float > 0, ...]", "history": "list",
                "stop_reason": "str", "divergence": "dict", "train_config": "dict"}


def mech_from_json_dict(d: dict, source="mechanical description"
                        ) -> tuple[LatticeSpec, MechanicalParams]:
    """Parse mech_to_json_dict output or a model.json; a missing, unknown or
    ill-typed key, a value that is not > 0, or a list that does not fit the
    spec is a DataFormatError naming `source` and the key."""
    check_fields(d, _MECH_FIELDS, source,
                 optional=("history", "stop_reason", "divergence", "train_config"))
    spec = spec_from_json_dict(d["spec"], source, "spec.")
    for key in ("mass_outer_kg", "mass_inner_kg", "k_internal", "k_coupling"):
        n = spec.n_edges if key == "k_coupling" else spec.n_cells
        if len(d[key]) != n:
            raise DataFormatError(f"{source}: expected {n} {key!r} entries, "
                                  f"got {len(d[key])}")
    return spec, MechanicalParams(mass_outer=d["mass_outer_kg"],
                                  mass_inner=d["mass_inner_kg"],
                                  k_internal=d["k_internal"], k_coupling=d["k_coupling"])


def system_to_json_dict(spec: LatticeSpec, circ: CircuitParams, s) -> dict:
    if len(circ.d_outer) != spec.n_cells or len(circ.r_coupling) != spec.n_edges:
        raise InvalidParameterError("circuit parameter lengths do not match the lattice spec")
    return {
        "spec": spec_to_json_dict(spec),
        "cells": [
            {"D_M": float(circ.d_outer[i]), "D_m": float(circ.d_inner[i]),
             "R_n": float(circ.r_internal[i])}
            for i in range(spec.n_cells)
        ],
        "edges": [
            {"a": a, "b": b, "R_c": float(circ.r_coupling[k])}
            for k, (a, b) in enumerate(spec.edges)
        ],
        "scaling": _scale_value(s),
    }


_SYSTEM_FIELDS = {"spec": "dict", "cells": "list", "edges": "list",
                  "scaling": "float > 0"}
_CELL_FIELDS = {"D_M": "float > 0", "D_m": "float > 0", "R_n": "float > 0"}
_EDGE_FIELDS = {"a": "int", "b": "int", "R_c": "float > 0"}


def system_from_json_dict(d: dict, source="system description"
                          ) -> tuple[LatticeSpec, CircuitParams, ScalingFactor]:
    """Parse system_to_json_dict output; a missing, unknown or ill-typed key,
    an element value or scaling that is not > 0, or a cell or edge list that
    does not fit the spec, is a DataFormatError naming `source` and the key
    or entry."""
    check_fields(d, _SYSTEM_FIELDS, source)
    spec = spec_from_json_dict(d["spec"], source, "spec.")
    cells, edges = d["cells"], d["edges"]
    for what, entries, n in (("cell", cells, spec.n_cells), ("edge", edges, spec.n_edges)):
        if len(entries) != n:
            raise DataFormatError(f"{source}: expected {n} {what} entries, got {len(entries)}")
    for i, c in enumerate(cells):
        check_fields(c, _CELL_FIELDS, source, f"cells[{i}].")
    for k, (e, (a, b)) in enumerate(zip(edges, spec.edges)):
        check_fields(e, _EDGE_FIELDS, source, f"edges[{k}].")
        if (e["a"], e["b"]) != (a, b):
            raise DataFormatError(f"{source}: edge {k} is ({e['a']},{e['b']}), "
                                  f"expected ({a},{b})")
    circ = CircuitParams(d_outer=[c["D_M"] for c in cells],
                         d_inner=[c["D_m"] for c in cells],
                         r_internal=[c["R_n"] for c in cells],
                         r_coupling=[e["R_c"] for e in edges])
    return spec, circ, ScalingFactor(d["scaling"])


def save_system(path, spec: LatticeSpec, circ: CircuitParams, s) -> None:
    write_json(path, system_to_json_dict(spec, circ, s), force=True)


def system_files(out, quantized: bool) -> list[Path]:
    """The paths save_system_files writes in directory `out`: system.json,
    then system_quantized.json and quantization.json if `quantized`."""
    names = ["system.json", "system_quantized.json", "quantization.json"]
    return [Path(out) / name for name in names[:3 if quantized else 1]]


def save_system_files(out, spec: LatticeSpec, circ: CircuitParams, s,
                      quantized: CircuitParams | None = None,
                      report: QuantizationReport | None = None,
                      force: bool = False) -> list[str]:
    """Write system.json, plus system_quantized.json and quantization.json
    when a quantized twin is given; returns one summary line per file.

    Checks every target first and raises ConfigError, writing nothing, if
    one exists and force is not set.
    """
    docs = [(system_to_json_dict(spec, circ, s), "system: {}")]
    if quantized is not None:
        docs += [
            (system_to_json_dict(spec, quantized, s), "quantized system: {}"),
            (report.to_json_dict(), "quantization report: {} "
             f"(max rel error {report.max_rel_error:.4%})")]
    paths = system_files(out, quantized is not None)
    refuse_overwrite(paths, force)
    return [line.format(write_json(path, doc, force))
            for path, (doc, line) in zip(paths, docs)]


def load_system(path) -> tuple[LatticeSpec, CircuitParams, ScalingFactor]:
    return system_from_json_dict(read_json(path), path)


# --- netlist export --------------------------------------------------------

def netlist_rows(spec: LatticeSpec, circ: CircuitParams) -> list[tuple]:
    """Flat component list: (ref, kind, value, unit, node_a, node_b).

    Grounded cells contribute no components; coupling resistors into them
    land on node "0" (ground).  Node names: c{cell}o / c{cell}i.
    """
    def node(cell: int, which: str) -> str:
        return "0" if cell in spec.grounded else f"c{cell}{which}"

    rows = []
    for c in spec.active_cells:
        rows.append((f"DA{c}", "fdnr", float(circ.d_outer[c]), "s2_per_ohm", f"c{c}o", "0"))
        rows.append((f"DB{c}", "fdnr", float(circ.d_inner[c]), "s2_per_ohm", f"c{c}i", "0"))
        rows.append((f"RN{c}", "resistor", float(circ.r_internal[c]), "ohm", f"c{c}o", f"c{c}i"))
    for k, (a, b) in enumerate(spec.edges):
        if a in spec.grounded and b in spec.grounded:
            continue  # both ends clamped: electrically inert
        rows.append((f"RC{a}_{b}", "resistor", float(circ.r_coupling[k]), "ohm",
                     node(a, "o"), node(b, "o")))
    return rows
