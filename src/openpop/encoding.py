"""Tuple <-> vector encoding for generator training.

Numeric attributes map affinely onto [0, 1] using the union of the sample
range and any marginal cell positions (so values the sample never saw are
still representable). Categorical attributes become one-hot blocks whose
value order is the attribute's active domain extended by marginal keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import (
    CATEGORICAL,
    NUMERIC,
    AttributeDef,
    Marginal,
    Relation,
    Schema,
)
from .errors import ConfigError


@dataclass
class AttrEncoding:
    name: str
    kind: str
    offset: int
    width: int  # 1 for numeric, domain size for categorical
    lo: float = 0.0
    hi: float = 1.0
    values: tuple[str, ...] = ()

    def dims(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.width)


class Encoding:
    def __init__(self, attrs: list[AttrEncoding]):
        self.attrs = attrs
        self.by_name = {a.name: a for a in attrs}
        self.dim = sum(a.width for a in attrs)

    @classmethod
    def build(cls, schema: Schema, columns: dict[str, np.ndarray],
              marginals: list[Marginal] | None = None) -> "Encoding":
        marginals = marginals or []
        attrs: list[AttrEncoding] = []
        offset = 0
        for attr in schema:
            col = columns[attr.name]
            if attr.kind == NUMERIC:
                lo = float(col.min()) if len(col) else 0.0
                hi = float(col.max()) if len(col) else 1.0
                if attr.lo is not None:
                    lo = min(lo, attr.lo)
                if attr.hi is not None:
                    hi = max(hi, attr.hi)
                for marginal in marginals:
                    if attr.name in marginal.attributes:
                        binning = marginal.binnings.get(attr.name)
                        ends = ([binning.lo, binning.hi] if binning is not None
                                else marginal.positions(attr.name).tolist())
                        lo, hi = min([lo, *ends]), max([hi, *ends])
                attrs.append(AttrEncoding(attr.name, NUMERIC, offset, 1,
                                          float(lo), float(hi)))
                offset += 1
            else:
                # Insertion-ordered: the domain, then values the rows and the
                # marginal cells add.
                values = dict.fromkeys(attr.domain)
                values.update(dict.fromkeys(col.tolist()))
                for marginal in marginals:
                    values.update(dict.fromkeys(marginal.parts.get(attr.name, ())))
                if not values:
                    raise ConfigError(
                        f"categorical attribute '{attr.name}' has an empty domain")
                attrs.append(AttrEncoding(attr.name, CATEGORICAL, offset,
                                          len(values), values=tuple(values)))
                offset += len(values)
        return cls(attrs)

    def schema(self) -> Schema:
        """The attributes `decode_rows` returns, in order."""
        return [AttributeDef(enc.name, enc.kind) for enc in self.attrs]

    def categorical_blocks(self) -> list[tuple[int, int]]:
        return [(a.offset, a.width) for a in self.attrs if a.kind == CATEGORICAL]

    def encode_rows(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Rows as points in the encoded space; the dimensions of attributes
        absent from `columns` stay 0."""
        n = len(next(iter(columns.values()))) if columns else 0
        out = np.zeros((n, self.dim))
        for enc in self.attrs:
            if enc.name not in columns:
                continue
            values = columns[enc.name]
            if enc.kind == NUMERIC:
                span = enc.hi - enc.lo
                out[:, enc.offset] = (values - enc.lo) / span if span > 0 else 0.5
            else:
                positions = {v: i for i, v in enumerate(enc.values)}
                picks = np.fromiter(map(positions.__getitem__, values), np.int64, n)
                out[np.arange(n), enc.offset + picks] = 1.0
        return out

    def decode_rows(self, matrix: np.ndarray) -> Relation:
        """Harden categorical blocks by argmax and invert the numeric maps;
        the rows come back as a unit-weight relation over the encoded
        attributes, in their order."""
        matrix = np.asarray(matrix, dtype=float)
        cols = {}
        for enc in self.attrs:
            if enc.kind == NUMERIC:
                span = enc.hi - enc.lo
                cols[enc.name] = enc.lo + matrix[:, enc.offset] * span \
                    if span > 0 else np.full(len(matrix), enc.lo)
            else:
                cols[enc.name] = np.array(enc.values, dtype=object)[
                    np.argmax(matrix[:, enc.offset:enc.offset + enc.width], axis=1)]
        return Relation(self.schema(), cols, np.ones(len(matrix)))

    def encode_cells(self, marginal: Marginal) -> np.ndarray:
        """A marginal's cells, in order, as points in the encoded subspace of
        its attributes (numeric cells at their scaled position, categorical
        cells one-hot)."""
        return self.encode_rows({
            attr: marginal.positions(attr) if self.by_name[attr].kind == NUMERIC
            else marginal.parts[attr] for attr in marginal.attributes
        })[:, self.marginal_dims(marginal)]

    def marginal_dims(self, marginal: Marginal) -> np.ndarray:
        return np.concatenate([self.by_name[a].dims() for a in marginal.attributes])
