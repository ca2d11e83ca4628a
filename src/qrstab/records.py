"""Serializable description of a constructed and analyzed code.

Records serialize to key-sorted JSON (UTF-8, LF) and round-trip losslessly;
the schema version is checked on import.  Distances always carry their
exact / upper_bound tag.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

from .analysis import DistanceValue, standard_form
from .code import StabilizerCode
from .gf2 import Gf2Matrix
from .symplectic import SymplecticVector, from_pauli, to_pauli

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CodeRecord:
    schema_version: int
    name: str
    family: str
    p: int
    n: int
    k: int
    layout: str | None
    removed_rows: list[int] | None
    n_qubits: int
    k_logical: int
    rank: int
    d_dagger: dict[str, Any] | None
    d_min: dict[str, Any] | None
    degenerate: bool | None
    generators: list[str]
    logical_x: list[str]
    logical_z: list[str]
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CodeRecord":
        data = json.loads(text)
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        return cls(**data)

    def check_matrix(self) -> Gf2Matrix:
        """Rebuild H = [H1 | H2] from the generator Pauli strings."""
        import numpy as np

        vecs = [from_pauli(s) for s in self.generators]
        dense = np.array([np.concatenate([v.a, v.b]) for v in vecs], dtype=np.uint8)
        return Gf2Matrix.from_dense(dense)


def _distance_dict(v: DistanceValue | None) -> dict[str, Any] | None:
    if v is None:
        return None
    return {"value": v.value, "tag": v.tag, "witness": v.witness}


def make_record(code: StabilizerCode, name: str,
                d_dagger: DistanceValue | None = None,
                d_min: DistanceValue | None = None,
                degenerate: bool | None = None) -> CodeRecord:
    sf = standard_form(code)
    n = code.n_qubits
    gens = []
    dense = code.h.to_dense()
    for row in dense:
        gens.append(to_pauli(SymplecticVector(row[:n], row[n:])))
    prov = dict(code.provenance)
    return CodeRecord(
        schema_version=SCHEMA_VERSION,
        name=name,
        family=code.family,
        p=int(prov.get("p", 0)),
        n=int(prov.get("n", 0)),
        k=int(prov.get("k", 0)),
        layout=prov.get("layout"),
        removed_rows=prov.get("removed_rows"),
        n_qubits=n,
        k_logical=code.k_logical,
        rank=code.m,
        d_dagger=_distance_dict(d_dagger),
        d_min=_distance_dict(d_min),
        degenerate=degenerate,
        generators=gens,
        logical_x=[to_pauli(v) for v in sf.logical_x],
        logical_z=[to_pauli(v) for v in sf.logical_z],
        provenance=prov,
    )


def pauli_text(record: CodeRecord) -> str:
    """One generator per line, then logical rows prefixed X*/Z* if present."""
    lines = list(record.generators)
    lines += [f"X{i + 1} {s}" for i, s in enumerate(record.logical_x)]
    lines += [f"Z{i + 1} {s}" for i, s in enumerate(record.logical_z)]
    return "\n".join(lines) + "\n"
