"""Stored reference tables for the exceptional-type Steinberg socle.

Two kinds of data ship with the package, loaded from versioned JSON files:

* decomposition tables for the dihedral Hecke algebras of the twisted F4
  groups at quantum characteristics 2 and 4: rows are character labels
  ordered by non-decreasing a-invariant, columns are modular irreducibles,
  and one distinguished column belongs to the sign character;
* a map (exceptional group type, quantum characteristic) -> socle label,
  with absent cells meaning the mod-l Steinberg module is simple.

The selection procedure on a decomposition table reads off the socle label
as the first row (in the stored a-ordering) whose sign-column entry is
nonzero, and the top cell label as the row of strictly maximal a-invariant.

Labels are opaque ASCII strings (``sigma_2``, ``eps_1``, ``8_z'`` ...);
no character theory is computed here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib.resources import files

__all__ = [
    "RefDataError",
    "DecompositionTable",
    "IRREDUCIBLE",
    "decomposition_table",
    "available_decomposition_tables",
    "select_mu0",
    "select_mu0_info",
    "select_lambda0",
    "first_hit_rows",
    "bullet_rows",
    "column_owners",
    "lookup_socle_label",
    "socle_label_table",
    "available_types",
    "data_checksums",
]

IRREDUCIBLE = "irreducible"

_DATA_FILES = ("twisted_f4_e2.json", "twisted_f4_e4.json", "socle_labels.json")


class RefDataError(ValueError):
    pass


@dataclass(frozen=True)
class DecompositionTable:
    """Integer decomposition matrix with labelled, a-ordered rows.

    ``entries[i][j]`` is the multiplicity of the j-th modular irreducible
    in the cell module of the i-th row; ``eps_col`` is the column of the
    sign character; ``bullets`` records which rows are marked as carrying
    a modular irreducible.
    """

    name: str
    row_labels: tuple[str, ...]
    a_invariants: tuple[int, ...]
    bullets: tuple[bool, ...]
    eps_col: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.row_labels)
        if not (n == len(self.a_invariants) == len(self.bullets) == len(self.entries)):
            raise RefDataError(f"{self.name}: inconsistent row counts")
        if n == 0:
            raise RefDataError(f"{self.name}: empty table")
        if len(set(self.row_labels)) != n:
            raise RefDataError(f"{self.name}: duplicate row labels")
        cols = len(self.entries[0])
        if any(len(row) != cols for row in self.entries):
            raise RefDataError(f"{self.name}: ragged entry rows")
        if not 0 <= self.eps_col < cols:
            raise RefDataError(f"{self.name}: sign column out of range")
        if any(d < 0 for row in self.entries for d in row):
            raise RefDataError(f"{self.name}: negative multiplicity")
        if any(self.a_invariants[i] > self.a_invariants[i + 1] for i in range(n - 1)):
            raise RefDataError(f"{self.name}: rows not ordered by a-invariant")
        for j in range(cols):
            if all(row[j] == 0 for row in self.entries):
                raise RefDataError(f"{self.name}: column {j} is identically zero")

    @property
    def num_columns(self) -> int:
        return len(self.entries[0])


def _data_text(fname: str) -> str:
    return files("steinberg").joinpath("data", fname).read_text(encoding="utf-8")


def _load_decomposition(fname: str) -> DecompositionTable:
    raw = json.loads(_data_text(fname))
    rows = raw["rows"]
    return DecompositionTable(
        name=raw["name"],
        row_labels=tuple(r["label"] for r in rows),
        a_invariants=tuple(int(r["a"]) for r in rows),
        bullets=tuple(bool(r["bullet"]) for r in rows),
        eps_col=int(raw["eps_col"]),
        entries=tuple(tuple(int(d) for d in row) for row in raw["entries"]),
    )


_TABLE_FILES = {("2F4", 2): "twisted_f4_e2.json", ("2F4", 4): "twisted_f4_e4.json"}


def _normalize_type(group_type: str) -> str:
    key = str(group_type).strip().upper()
    if key not in _socle_labels():
        known = ", ".join(sorted(_socle_labels()))
        raise RefDataError(f"unknown exceptional type {group_type!r}; known: {known}")
    return key


def available_decomposition_tables() -> tuple[tuple[str, int], ...]:
    return tuple(sorted(_TABLE_FILES))


def decomposition_table(group_type: str, e: int) -> DecompositionTable:
    """Stored decomposition table for (group type, quantum characteristic)."""
    key = (str(group_type).strip().upper(), int(e))
    if key not in _TABLE_FILES:
        have = ", ".join(f"{t} e={v}" for t, v in available_decomposition_tables())
        raise RefDataError(f"no stored table for {group_type!r} at e={e}; have: {have}")
    return _load_decomposition(_TABLE_FILES[key])


def select_mu0(table: DecompositionTable) -> str:
    """First row, in the stored a-ordering, hitting the sign column."""
    label, _ = select_mu0_info(table)
    return label


def select_mu0_info(table: DecompositionTable) -> tuple[str, bool]:
    """Socle label plus a flag for an a-invariant tie among candidates.

    The flag is True when some other row with the same a-invariant also has
    a nonzero sign-column entry, in which case the minimum-a criterion alone
    does not single out a row and the stored order decided.
    """
    hits = [i for i, row in enumerate(table.entries) if row[table.eps_col] != 0]
    if not hits:
        raise RefDataError(f"{table.name}: sign column has no nonzero entry")
    first = hits[0]
    a0 = table.a_invariants[first]
    tie = any(table.a_invariants[i] == a0 for i in hits[1:])
    return table.row_labels[first], tie


def select_lambda0(table: DecompositionTable) -> str:
    """Row of strictly maximal a-invariant; errors when the maximum ties."""
    top = max(table.a_invariants)
    winners = [i for i, a in enumerate(table.a_invariants) if a == top]
    if len(winners) != 1:
        tied = ", ".join(table.row_labels[i] for i in winners)
        raise RefDataError(f"{table.name}: maximal a-invariant {top} is tied ({tied})")
    return table.row_labels[winners[0]]


def first_hit_rows(table: DecompositionTable) -> frozenset[str]:
    """Labels of the first nonzero row of each column, in stored order."""
    return frozenset(column_owners(table))


def bullet_rows(table: DecompositionTable) -> frozenset[str]:
    return frozenset(
        lab for lab, b in zip(table.row_labels, table.bullets) if b)


def column_owners(table: DecompositionTable) -> tuple[str, ...]:
    """Per-column first-hit labels; entry ``eps_col`` is the socle label."""
    owners = []
    for j in range(table.num_columns):
        for i, row in enumerate(table.entries):
            if row[j] != 0:
                owners.append(table.row_labels[i])
                break
    return tuple(owners)


_socle_cache: dict[str, dict[int, str]] | None = None


def _socle_labels() -> dict[str, dict[int, str]]:
    global _socle_cache
    if _socle_cache is None:
        raw = json.loads(_data_text("socle_labels.json"))
        _socle_cache = {
            t: {int(e): lab for e, lab in cells.items()}
            for t, cells in raw["labels"].items()
        }
    return _socle_cache


def available_types() -> tuple[str, ...]:
    return tuple(sorted(_socle_labels()))


def lookup_socle_label(group_type: str, e: int) -> str:
    """Stored socle label, or the irreducible marker for an absent cell."""
    key = _normalize_type(group_type)
    e = int(e)
    if e < 2:
        raise RefDataError("quantum characteristic must be at least 2")
    return _socle_labels()[key].get(e, IRREDUCIBLE)


def socle_label_table() -> dict[str, dict[int, str]]:
    return {t: dict(cells) for t, cells in _socle_labels().items()}


def data_checksums() -> dict[str, str]:
    """SHA-256 of every bundled data file, keyed by file name."""
    return {
        fname: hashlib.sha256(_data_text(fname).encode("utf-8")).hexdigest()
        for fname in _DATA_FILES
    }
