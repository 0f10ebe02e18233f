"""Conjunctive predicates over relations: comparison atoms and IN-lists.

The predicate language is deliberately small; it is the filter language of
population views, sample definitions, and query WHERE clauses alike.
"""

from __future__ import annotations

import operator
import sys
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


_FLOAT_MAX = sys.float_info.max
_COMPARE = {"=": operator.eq, "<": operator.lt, ">": operator.gt,
            "<=": operator.le, ">=": operator.ge}


def _atom_mask(atom: Atom, relation) -> np.ndarray:
    column = relation.columns[atom.attr]
    if isinstance(atom, Comparison) and (atom.op != "=" or column.dtype != object):
        value = atom.value
        if type(value) is int and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            value = np.inf if value > 0 else -np.inf  # exact against finite values
        return _COMPARE[atom.op](column, value)
    literals = set(atom.values if isinstance(atom, InList) else (atom.value,))
    if column.dtype == object:  # look codes up; a literal it lacks matches no row
        values, codes = relation.key_columns([atom.attr])[atom.attr]
        return np.fromiter(map(literals.__contains__, values), bool, len(values))[codes]
    return np.isin(column, list(literals))


def filter_rows(pred: Predicate | None, relation) -> np.ndarray:
    """Indices, in row order, of the rows of `relation` for which every atom
    holds."""
    keep = np.ones(len(relation), dtype=bool)
    for atom in pred.atoms if pred is not None else ():
        keep &= _atom_mask(atom, relation)
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
