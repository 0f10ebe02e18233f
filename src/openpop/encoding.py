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
    group_rows,
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

    def scale(self, value: float) -> float:
        span = self.hi - self.lo
        return (float(value) - self.lo) / span if span > 0 else 0.5


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
                # Insertion-ordered: the domain, then values the rows and the
                # marginal cells add.
                values = dict.fromkeys(attr.domain)
                values.update(dict.fromkeys(col.tolist()))
                for marginal in marginals:
                    if attr.name in marginal.attributes:
                        pos = marginal.attributes.index(attr.name)
                        values.update(dict.fromkeys(
                            key[pos] if isinstance(key, tuple) else key
                            for key in marginal.cells))
                if not values:
                    raise ConfigError(
                        f"categorical attribute '{attr.name}' has an empty domain")
                attrs.append(AttrEncoding(attr.name, CATEGORICAL, offset,
                                          len(values), values=tuple(values)))
                offset += len(values)
        return cls(attrs)

    def categorical_blocks(self) -> list[tuple[int, int]]:
        return [(a.offset, a.width) for a in self.attrs if a.kind == CATEGORICAL]

    def encode_rows(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        n = len(columns[self.attrs[0].name]) if self.attrs else 0
        out = np.zeros((n, self.dim))
        for enc in self.attrs:
            values = columns[enc.name]
            if enc.kind == NUMERIC:
                span = enc.hi - enc.lo
                out[:, enc.offset] = (values - enc.lo) / span if span > 0 else 0.5
            else:
                positions = {v: i for i, v in enumerate(enc.values)}
                keys, ids, _ = group_rows([values], n)
                picks = np.asarray([positions[v] for (v,) in keys], dtype=np.int64)
                out[np.arange(n), enc.offset + picks[ids]] = 1.0
        return out

    def decode_rows(self, matrix: np.ndarray, attr_order: list[str]) -> Relation:
        """Harden categorical blocks by argmax and invert the numeric maps;
        the rows come back as a unit-weight relation over `attr_order`."""
        matrix = np.asarray(matrix, dtype=float)
        cols = {}
        for enc in self.attrs:
            if enc.kind == NUMERIC:
                span = enc.hi - enc.lo
                cols[enc.name] = enc.lo + matrix[:, enc.offset] * span \
                    if span > 0 else np.full(len(matrix), enc.lo)
            else:
                block = matrix[:, enc.offset:enc.offset + enc.width]
                cols[enc.name] = np.asarray(enc.values, dtype=object)[
                    np.argmax(block, axis=1)]
        schema = [AttributeDef(name, self.by_name[name].kind) for name in attr_order]
        return Relation(schema, {name: cols[name] for name in attr_order},
                        np.ones(len(matrix)))

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
