"""Conjunctive predicates over relations: comparison atoms and IN-lists.

The predicate language is deliberately small; it is the filter language of
population views, sample definitions, and query WHERE clauses alike.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import TypeMismatchError, UnknownAttributeError

COMPARISON_OPS = ("=", "<", ">", "<=", ">=")

Value = Union[float, str]


@dataclass(frozen=True)
class Comparison:
    attr: str
    op: str  # one of COMPARISON_OPS
    value: Value


@dataclass(frozen=True)
class InList:
    attr: str
    values: tuple[Value, ...]


Atom = Union[Comparison, InList]


@dataclass(frozen=True)
class Predicate:
    """Conjunction of atoms; an empty conjunction is always true."""

    atoms: tuple[Atom, ...] = field(default_factory=tuple)

    def attributes(self) -> set[str]:
        return {a.attr for a in self.atoms}

    def __bool__(self) -> bool:
        return bool(self.atoms)


_COMPARE = {"=": operator.eq, "<": operator.lt, ">": operator.gt,
            "<=": operator.le, ">=": operator.ge}


def _atom_mask(atom: Atom, column: np.ndarray) -> np.ndarray:
    if isinstance(atom, InList):
        mask = np.zeros(len(column), dtype=bool)
        for value in atom.values:
            mask |= column == value
        return mask
    return _COMPARE[atom.op](column, atom.value)


def filter_rows(pred: Predicate | None, relation) -> np.ndarray:
    """Indices, in row order, of the rows of `relation` for which every atom
    holds."""
    keep = np.ones(len(relation), dtype=bool)
    for atom in pred.atoms if pred is not None else ():
        keep &= _atom_mask(atom, relation.columns[atom.attr])
    return np.flatnonzero(keep)


def check_types(pred: Predicate, schema_kinds: dict[str, str]) -> None:
    """Validate attribute existence and operator/literal compatibility.

    Numeric attributes accept all comparison ops with numeric literals;
    categorical attributes accept only ``=`` and IN with string literals.
    """
    for atom in pred.atoms:
        if atom.attr not in schema_kinds:
            raise UnknownAttributeError(f"unknown attribute '{atom.attr}' in predicate")
        kind = schema_kinds[atom.attr]
        literals = atom.values if isinstance(atom, InList) else (atom.value,)
        for lit in literals:
            if kind == "numeric" and not isinstance(lit, (int, float)):
                raise TypeMismatchError(
                    f"attribute '{atom.attr}' is numeric but compared to {lit!r}")
            if kind == "categorical" and not isinstance(lit, str):
                raise TypeMismatchError(
                    f"attribute '{atom.attr}' is categorical but compared to {lit!r}")
        if kind == "categorical" and isinstance(atom, Comparison) and atom.op != "=":
            raise TypeMismatchError(
                f"ordering comparison '{atom.op}' not defined for categorical '{atom.attr}'")
