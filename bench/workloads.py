"""The benchmark's workloads: what each one runs, and how its outputs are
checked.

Every workload is two passes of operations.  An operation's ``run`` is the
timed call into qrstab; ``finish`` runs after the pass, untimed, and
``check`` verifies the output with the code in ``checks`` and returns the
weight of the lightest operator the output carries as a distance witness.
Reference values are the paper's tables as printed, with the cells of the
errata list replaced by the values the construction reaches; they are
written out here rather than read from qrstab.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import Stabilizer, parse_alist, parse_pauli, require, weight

BUDGET = 300_000  # candidates per bounded search
SEARCH_SEED = 0     # seed of every bounded search

# Table I, p = 4n + 1 Type-I codes: p -> (d_min, d_dagger); p = 37 d_min is
# 11 on the errata list (published 12).
TABLE_I = {29: (11, 12), 37: (11, 12), 53: (15, 16), 61: (17, 18), 101: (21, 22)}
# Table II, p = 4n - 1 Type-I codes: p -> d_dagger; p = 71 is 12 on the
# errata list (published 16).
TABLE_II_DDAG = {71: 12, 79: 16}
# Table III: K of the stock p = 29 quasi-cyclic code.
TABLE_III_K29 = 13
# Table IV rows and the worked example, all variant A at p = 7:
# (layout, removed rows, K, d_min).  A K = 6 row (4095 cosets), the row
# whose weight-1 logical the pre-scan finds, and the K = 5 worked example,
# whose published d_min of 4 is on the errata list as 5.
TABLE_IV = (
    ("adj1-h2", (7, 11, 12, 14, 15, 21), 6, 4),
    ("adj2-h1", (7, 11, 12, 14, 15, 21), 6, 1),
    ("h1-adj2", (2, 3, 8, 11, 21), 5, 5),
)
QCS_BUILD_PRIMES = (29, 31, 37)


class Unmet(Exception):
    """A bounded search returned a bound heavier than its trivial witness.

    Bounded mode does not seed the search with that witness (the lightest
    generator, or a verified standard-form logical), so on the stock
    quasi-cyclic codes it returns weaker bounds; such operations count as
    failed.  ``weight`` is the bound returned.
    """

    def __init__(self, message: str, weight: int):
        super().__init__(message)
        self.weight = weight


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], int]
    finish: Callable[[object], object] = lambda out: out


def _qcs_variant(p: int) -> str:
    return "A" if p % 4 == 3 else "B"


class QcsBuild:
    """`qrstab build --type 2` of each stock quasi-cyclic code, written once
    as a JSON record and once as an alist file."""

    passes = ("json", "alist")

    def __init__(self, Q, workdir: Path):
        self.Q = Q
        self.outdir = workdir
        self.json_matrix: dict[int, object] = {}

    def prepare(self) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)

    def ops(self) -> list[list[Op]]:
        return [[self._op(p, fmt) for p in QCS_BUILD_PRIMES] for fmt in self.passes]

    def _op(self, p: int, fmt: str) -> Op:
        path = self.outdir / f"qcs-p{p}.{fmt}"
        argv = ["build", "--type", "2", "--p", str(p), "--variant", _qcs_variant(p),
                "--format", fmt, "--out", str(path)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.Q.cli.main(argv)

        def finish(rc):
            # the read path: qrstab's own reader, once per written file
            require(rc == 0, f"qrstab build exited {rc}")
            text = path.read_text(encoding="utf-8")
            if fmt == "json":
                return text, self.Q.records.CodeRecord.from_json(text).generators
            return text, self.Q.alist.import_alist(text).to_dense()

        check = self._check_json if fmt == "json" else self._check_alist
        return Op(f"build-{fmt}-p{p}", run, lambda out: check(p, *out), finish)

    def _check_json(self, p: int, text: str, read_back) -> int:
        rec = json.loads(text)
        stab = Stabilizer.from_pauli(rec["generators"])
        require(stab.n == rec["n_qubits"] == p * (p - 1) // 2, "wrong N")
        require(stab.m == rec["rank"], f"rank field {rec['rank']} != {stab.m}")
        require(stab.k == rec["k_logical"], f"K field {rec['k_logical']} != N - m = {stab.k}")
        if p == 29:
            require(stab.k == TABLE_III_K29, f"K = {stab.k} at p = 29, Table III gives 13")
        stab.check_logicals(rec["logical_x"], rec["logical_z"])
        require(list(read_back) == rec["generators"], "CodeRecord.from_json changed the generators")
        self.json_matrix[p] = [parse_pauli(s) for s in rec["generators"]]
        return min(weight(parse_pauli(s)) for s in rec["logical_x"] + rec["logical_z"])

    def _check_alist(self, p: int, text: str, read_back) -> int:
        dense = parse_alist(text)
        require((read_back == dense).all(), "import_alist disagrees with the alist file")
        stab = Stabilizer.from_dense(dense)
        require(stab.gens == self.json_matrix.get(p), "alist matrix differs from the JSON record")
        return stab.lightest_generator()


class ExactDistance:
    """Exact d_dagger and d_min of the [[29,1]] Type-I code, then exact
    d_min of two Table IV rows and of the worked example."""

    passes = ("span", "coset")

    def __init__(self, Q, workdir: Path):
        self.Q = Q
        ctx = Q.numtheory.classify_prime(29)
        self.code29 = Q.type1.build_type1(Q.type1.Type1Spec(ctx, Q.type1.Type1Variant.PLUS_FORM))
        ctx7 = Q.numtheory.classify_prime(7)
        self.codes21 = [
            Q.type2.build_qcs(Q.type2.QcsSpec(ctx7, Q.type2.QcsVariant.A,
                                              Q.type2.Layout(layout), removal))
            for layout, removal, _, _ in TABLE_IV]

    def prepare(self) -> None:
        """Verify every code, and certify each 21-qubit distance from below
        by brute force over all lighter Pauli operators."""
        self.stab29 = Stabilizer.from_dense(self.code29.h.to_dense())
        require(self.stab29.k == 1, "the p = 29 Type-I code must have K = 1")
        self.stabs21 = []
        for (layout, removal, k, d), code in zip(TABLE_IV, self.codes21):
            stab = Stabilizer.from_dense(code.h.to_dense())
            require(stab.k == k, f"{layout} {removal}: K = {stab.k}, table gives {k}")
            require(stab.lightest_logical(d - 1) is None,
                    f"{layout} {removal}: a logical lighter than {d} exists")
            self.stabs21.append(stab)

    def ops(self) -> list[list[Op]]:
        d_min29, d_dag29 = TABLE_I[29]
        span = [
            Op("d_dagger-p29", lambda: self.Q.analysis.d_dagger(self.code29),
               lambda v: _exact(self.stab29, "d_dagger", v, d_dag29)),
            Op("d_min-p29", lambda: self.Q.analysis.d_min(self.code29),
               lambda v: _exact(self.stab29, "d_min", v, d_min29)),
        ]
        coset = [
            Op(f"d_min-{layout}-{'.'.join(map(str, removal))}",
               lambda code=code: self.Q.analysis.d_min(code),
               lambda v, stab=stab, d=d: _exact(stab, "d_min", v, d))
            for (layout, removal, _, d), code, stab in zip(TABLE_IV, self.codes21, self.stabs21)]
        return [span, coset]


def _exact(stab: Stabilizer, kind: str, v, expected: int) -> int:
    require(v.tag == "exact", f"{kind} tagged {v.tag}, expected exact")
    require(v.value == expected, f"{kind} = {v.value}, table gives {expected}")
    _witness(stab, kind, v)
    return v.value


def _witness(stab: Stabilizer, kind: str, v) -> None:
    if kind == "d_dagger":
        stab.check_d_dagger_witness(v.value, v.witness)
    else:
        stab.check_d_min_witness(v.value, v.witness)


class BoundedDistance:
    """Seeded, fixed-budget information-set searches: Type-I d_min at
    p = 37, 53, 61, 101 and d_dagger at p = 71, 79, then the stock
    quasi-cyclic codes' d_dagger at p = 23, 29 and d_min at p = 29."""

    passes = ("type1", "qcs")
    TYPE1 = (("d_min", 37), ("d_min", 53), ("d_min", 61), ("d_min", 101),
             ("d_dagger", 71), ("d_dagger", 79))
    QCS = (("d_dagger", 23), ("d_dagger", 29), ("d_min", 29))

    def __init__(self, Q, workdir: Path):
        self.Q = Q
        t1 = Q.type1
        self.type1 = {}
        for _, p in self.TYPE1:
            ctx = Q.numtheory.classify_prime(p)
            variant = t1.Type1Variant.PLUS_FORM if p % 4 == 1 else t1.Type1Variant.RESIDUE_PAIR
            self.type1[p] = t1.build_type1(t1.Type1Spec(ctx, variant))
        t2 = Q.type2
        self.qcs = {p: t2.build_qcs(t2.QcsSpec(Q.numtheory.classify_prime(p),
                                               t2.QcsVariant(_qcs_variant(p))))
                    for p in (23, 29)}

    def prepare(self) -> None:
        """Verify every code and find each search's trivial witness: the
        lightest generator for d_dagger, and the lightest standard-form
        logical, once verified, for d_min."""
        self.stabs, self.trivial = {}, {}
        for family, codes, searches in (("type1", self.type1, self.TYPE1),
                                        ("qcs", self.qcs, self.QCS)):
            for kind, p in searches:
                code = codes[p]
                stab = Stabilizer.from_dense(code.h.to_dense())
                if kind == "d_dagger":
                    trivial = stab.lightest_generator()
                else:
                    sf = self.Q.analysis.standard_form(code)
                    logicals = [self.Q.symplectic.to_pauli(v)
                                for v in sf.logical_x + sf.logical_z]
                    for s in logicals:
                        stab.check_d_min_witness(weight(parse_pauli(s)), s)
                    trivial = min(weight(parse_pauli(s)) for s in logicals)
                self.stabs[family, p] = stab
                self.trivial[family, kind, p] = trivial

    def ops(self) -> list[list[Op]]:
        return [[self._op("type1", self.type1, kind, p) for kind, p in self.TYPE1],
                [self._op("qcs", self.qcs, kind, p) for kind, p in self.QCS]]

    def _op(self, family: str, codes: dict, kind: str, p: int) -> Op:
        code = codes[p]
        if kind == "d_dagger":
            table = TABLE_II_DDAG.get(p) if family == "type1" else None
            run = lambda: self.Q.analysis.d_dagger(code, budget=BUDGET, seed=SEARCH_SEED,
                                                   exact_max_m=-1)
        else:
            table = TABLE_I[p][0] if family == "type1" else None
            run = lambda: self.Q.analysis.d_min(code, budget=BUDGET, seed=SEARCH_SEED,
                                                exact_max_dual=-1)
        stab = self.stabs[family, p]
        trivial = self.trivial[family, kind, p]

        def check(v) -> int:
            require(v.tag == "upper_bound", f"{kind} tagged {v.tag}, expected upper_bound")
            _witness(stab, kind, v)
            if table is not None:
                require(v.value <= table, f"{kind} bound {v.value} above the table's {table}")
            if v.value > trivial:
                raise Unmet(f"{kind} bound {v.value} above the trivial witness's {trivial}",
                            v.value)
            return v.value

        return Op(f"{kind}-{family}-p{p}", run, check)


WORKLOADS = {"qcs-build": QcsBuild, "exact-distance": ExactDistance,
             "bounded-distance": BoundedDistance}
