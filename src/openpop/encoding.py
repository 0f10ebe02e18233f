"""Tuple <-> vector encoding for generator training.

Numeric attributes map affinely onto [0, 1] using the union of the sample
range and any marginal cell positions (so values the sample never saw are
still representable). Categorical attributes become one-hot blocks whose
value order is the attribute's active domain extended by marginal keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import CATEGORICAL, NUMERIC, Marginal, Schema, schema_index
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

    def scale(self, value: float) -> float:
        span = self.hi - self.lo
        return (float(value) - self.lo) / span if span > 0 else 0.5


class Encoding:
    def __init__(self, attrs: list[AttrEncoding]):
        self.attrs = attrs
        self.by_name = {a.name: a for a in attrs}
        self.dim = sum(a.width for a in attrs)

    @classmethod
    def build(cls, schema: Schema, rows, marginals: list[Marginal] | None = None) -> "Encoding":
        marginals = marginals or []
        index = schema_index(schema)
        attrs: list[AttrEncoding] = []
        offset = 0
        for attr in schema:
            col = [row[index[attr.name]] for row in rows]
            if attr.kind == NUMERIC:
                lo = min(col) if col else 0.0
                hi = max(col) if col else 1.0
                if attr.lo is not None:
                    lo = min(lo, attr.lo)
                if attr.hi is not None:
                    hi = max(hi, attr.hi)
                for marginal in marginals:
                    if attr.name not in marginal.attributes:
                        continue
                    binning = marginal.binnings.get(attr.name)
                    if binning is not None:
                        lo, hi = min(lo, binning.lo), max(hi, binning.hi)
                    else:
                        for key in marginal.cells:
                            pos = marginal.position_of(key, attr.name)
                            lo, hi = min(lo, pos), max(hi, pos)
                attrs.append(AttrEncoding(attr.name, NUMERIC, offset, 1,
                                          float(lo), float(hi)))
                offset += 1
            else:
                values = list(attr.domain)
                seen = set(values)
                for v in col:
                    if v not in seen:
                        values.append(v)
                        seen.add(v)
                for marginal in marginals:
                    if attr.name not in marginal.attributes:
                        continue
                    pos = (0 if len(marginal.attributes) == 1
                           else marginal.attributes.index(attr.name))
                    for key in marginal.cells:
                        v = key if not isinstance(key, tuple) else key[pos]
                        if v not in seen:
                            values.append(v)
                            seen.add(v)
                if not values:
                    raise ConfigError(
                        f"categorical attribute '{attr.name}' has an empty domain")
                attrs.append(AttrEncoding(attr.name, CATEGORICAL, offset,
                                          len(values), values=tuple(values)))
                offset += len(values)
        return cls(attrs)

    def categorical_blocks(self) -> list[tuple[int, int]]:
        return [(a.offset, a.width) for a in self.attrs if a.kind == CATEGORICAL]

    def encode_rows(self, rows, index: dict[str, int]) -> np.ndarray:
        out = np.zeros((len(rows), self.dim))
        for enc in self.attrs:
            col = index[enc.name]
            if enc.kind == NUMERIC:
                values = np.asarray([row[col] for row in rows], dtype=float)
                span = enc.hi - enc.lo
                out[:, enc.offset] = (values - enc.lo) / span if span > 0 else 0.5
            else:
                positions = {v: i for i, v in enumerate(enc.values)}
                for r, row in enumerate(rows):
                    out[r, enc.offset + positions[row[col]]] = 1.0
        return out

    def decode_rows(self, matrix: np.ndarray, attr_order: list[str]) -> list[tuple]:
        """Harden categorical blocks by argmax and invert the numeric maps."""
        matrix = np.asarray(matrix, dtype=float)
        cols = {}
        for enc in self.attrs:
            if enc.kind == NUMERIC:
                span = enc.hi - enc.lo
                cols[enc.name] = enc.lo + matrix[:, enc.offset] * span \
                    if span > 0 else np.full(len(matrix), enc.lo)
            else:
                block = matrix[:, enc.offset:enc.offset + enc.width]
                picks = np.argmax(block, axis=1)
                cols[enc.name] = [enc.values[i] for i in picks]
        rows = []
        for r in range(len(matrix)):
            rows.append(tuple(
                float(cols[name][r]) if self.by_name[name].kind == NUMERIC
                else cols[name][r]
                for name in attr_order))
        return rows

    def encode_cell(self, marginal: Marginal, key) -> np.ndarray:
        """A marginal cell as a point in the encoded subspace of its attributes
        (numeric cells at their scaled midpoint, categorical cells one-hot)."""
        parts = key if isinstance(key, tuple) else (key,)
        segments = []
        for attr, part in zip(marginal.attributes, parts):
            enc = self.by_name[attr]
            if enc.kind == NUMERIC:
                pos = marginal.position_of(key, attr)
                segments.append(np.array([enc.scale(pos)]))
            else:
                onehot = np.zeros(enc.width)
                onehot[enc.values.index(part)] = 1.0
                segments.append(onehot)
        return np.concatenate(segments)

    def marginal_dims(self, marginal: Marginal) -> np.ndarray:
        return np.concatenate([self.by_name[a].dims() for a in marginal.attributes])
