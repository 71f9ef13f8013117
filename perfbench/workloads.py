"""Seeded input generators and the workload table of the benchmark.

Every finite workload is a definition document built here as a plain JSON
object in canonical form (entries sorted, zeros dropped), so the program
sees only the document.  The seed picks a random basis permutation; a
relabelling of the basis must not change any verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _scalar(c: int, p: int | None) -> int:
    return c % p if p else c


def _field(p: int | None) -> dict:
    return {"type": "prime", "p": p} if p else {"type": "rationals"}


def _power_label(base: str, i: int) -> str:
    return "" if i == 0 else (base if i == 1 else f"{base}^{i}")


def cyclic_group(n: int) -> dict:
    """kC_n with R = 1 (x) 1, the all-ones braiding, the sign character and
    the grouplike g (the group preset layout at any order)."""
    labels = [_power_label("g", i) or "1" for i in range(n)]
    g = [0] * n
    g[1 % n] = 1
    return {
        "name": f"kC{n}",
        "field": _field(None),
        "basis": labels,
        "mult": [[i, j, (i + j) % n, 1] for i in range(n) for j in range(n)],
        "comult": [[i, i, i, 1] for i in range(n)],
        "counit": [[i, 1] for i in range(n)],
        "antipode": sorted([(-i) % n, i, 1] for i in range(n)),
        "R": [[1, 0, 0]],
        "sigma": [[1] * n for _ in range(n)],
        "characters": {"sign": [(-1) ** i for i in range(n)]},
        "grouplikes": {"g": g},
    }


def drinfeld_double_cyclic(n: int) -> dict:
    """D(kC_n) on the basis delta_a g (index a * n + g) with the canonical
    R = sum_g delta_g (x) g; for an abelian group the product is
    (delta_a g)(delta_b h) = [a = b] delta_a gh."""
    idx = lambda a, g: a * n + g
    labels = [f"d{a}" + (_power_label("g", g) or "") for a in range(n) for g in range(n)]
    mult = [[idx(a, g), idx(a, h), idx(a, (g + h) % n), 1]
            for a in range(n) for g in range(n) for h in range(n)]
    comult = [[idx(a, g), idx(b, g), idx((a - b) % n, g), 1]
              for a in range(n) for g in range(n) for b in range(n)]
    counit = [[idx(a, g), 1 if a == 0 else 0] for a in range(n) for g in range(n)]
    antipode = [[idx((-a) % n, (-g) % n), idx(a, g), 1]
                for a in range(n) for g in range(n)]
    r = [[1, idx(g, 0), idx(a, g)] for g in range(n) for a in range(n)]
    return {
        "name": f"D(kC{n})",
        "field": _field(None),
        "basis": labels,
        "mult": sorted(mult),
        "comult": sorted(comult),
        "counit": counit,
        "antipode": sorted(antipode),
        "R": sorted(r, key=lambda e: (e[1], e[2])),
    }


def laurent_quotient(big_n: int, p: int | None = None) -> dict:
    """H_N = Laurent / (g^N - 1) for even N, basis g^i x^j at index 2 i + j.

    Every Laurent structure map and the braiding depend on exponents only
    through parity, so they descend to the quotient.  The antipode is
    omitted: the program has to solve for it.
    """
    if big_n < 2 or big_n % 2:
        raise ValueError("H_N needs an even N >= 2")
    idx = lambda i, j: 2 * (i % big_n) + j
    sign = lambda e: _scalar(-1 if e % 2 else 1, p)
    labels = [(_power_label("g", i) + ("x" if j else "")) or "1"
              for i in range(big_n) for j in (0, 1)]
    mult = [[idx(i, j), idx(t, s), idx(i + t, j + s), sign(j * t)]
            for i in range(big_n) for j in (0, 1)
            for t in range(big_n) for s in (0, 1) if j + s <= 1]
    comult = []
    for i in range(big_n):
        comult.append([idx(i, 0), idx(i, 0), idx(i, 0), 1])
        comult.append([idx(i, 1), idx(i, 1), idx(i, 0), 1])
        comult.append([idx(i, 1), idx(i + 1, 0), idx(i, 1), 1])
    sigma = [[0 if (j or s) else sign(i * t) for t in range(big_n) for s in (0, 1)]
             for i in range(big_n) for j in (0, 1)]
    return {
        "name": f"H{big_n}",
        "field": _field(p),
        "basis": labels,
        "mult": sorted(mult),
        "comult": sorted(comult),
        "counit": [[idx(i, j), 1 - j] for i in range(big_n) for j in (0, 1)],
        "sigma": sigma,
    }


def permute_basis(doc: dict, seed: int) -> dict:
    """Relabel the basis by a permutation drawn from seed; canonical form."""
    n = len(doc["basis"])
    perm = list(range(n))
    random.Random(seed).shuffle(perm)  # perm[old] = new

    def vec(values):
        out = [None] * n
        for old, v in enumerate(values):
            out[perm[old]] = v
        return out

    out = {"name": doc["name"], "field": doc["field"], "basis": vec(doc["basis"])}
    for key in ("mult", "comult"):
        out[key] = sorted([perm[i], perm[j], perm[k], c] for i, j, k, c in doc[key])
    out["counit"] = sorted([perm[i], c] for i, c in doc["counit"])
    if "antipode" in doc:
        out["antipode"] = sorted([perm[i], perm[j], c] for i, j, c in doc["antipode"])
    if "R" in doc:
        out["R"] = sorted(([c, perm[i], perm[j]] for c, i, j in doc["R"]),
                          key=lambda e: (e[1], e[2]))
    if "sigma" in doc:
        out["sigma"] = vec([vec(row) for row in doc["sigma"]])
    for key in ("characters", "grouplikes"):
        if key in doc:
            out[key] = {name: vec(v) for name, v in doc[key].items()}
    return out


def perturb_product(doc: dict) -> dict:
    """Double one product coefficient m(e_i, e_j), neither factor being the
    first basis element (the unit of the group algebras).  The entry is the
    same at every seed, so two basis permutations still agree on verdicts."""
    eligible = [pos for pos, (i, j, _, _) in enumerate(doc["mult"]) if i and j]
    pos = eligible[len(eligible) // 2]
    mult = [list(entry) for entry in doc["mult"]]
    mult[pos][3] = _scalar(2 * mult[pos][3], doc["field"].get("p"))
    return {**doc, "mult": mult}


@dataclass(frozen=True)
class Workload:
    name: str
    make_document: object  # () -> dict, or None for a preset source
    preset_args: tuple = ()
    # span-name prefixes of the layers this workload is built to stress; the
    # traced run prints the share of verify time they cover
    dominant: tuple = ()

    def document(self, seed: int, perturb: bool = False) -> dict | None:
        if self.make_document is None:
            return None
        doc = self.make_document()
        return permute_basis(perturb_product(doc) if perturb else doc, seed)

    def verify_argv(self, doc_path: str | None) -> list[str]:
        source = list(self.preset_args) if doc_path is None else [doc_path]
        return ["verify", *source, "--json"]


QUOTIENT_PRIME = 10007

# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("laurent", None, ("preset:laurent", "--window", "9"),
             ("coquasitriangular.axioms", "coquasitriangular.flip")),
    Workload("group-dual", lambda: cyclic_group(8),
             dominant=("cofrobenius.twist", "cofrobenius.extract")),
    Workload("double-qt", lambda: drinfeld_double_cyclic(4),
             dominant=("quasitriangular.", "linalg.")),
    Workload("quotient-solve", lambda: laurent_quotient(10, QUOTIENT_PRIME),
             dominant=("hopf.compute_antipode",)),
)}

# The smallest member of each family; the smoke mode runs these once each.
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload("laurent", None, ("preset:laurent", "--window", "2")),
    Workload("group-dual", lambda: cyclic_group(2)),
    Workload("double-qt", lambda: drinfeld_double_cyclic(2)),
    Workload("quotient-solve", lambda: laurent_quotient(2, QUOTIENT_PRIME)),
)}

# Checks that FAIL at this commit although the theory says they pass.  They
# stay counted in checks_failed and runs_failed; the correctness gate only
# refuses a FAIL outside this list.  cqt.dual_bridge_v compares the dual
# braiding's v functional, which evaluates f(S(u)) = f(v^-1), against v, so
# it passes only where v = v^-1 (D(kC2), kC_n with trivial R).
KNOWN_OPEN_DEFECTS = {"double-qt": frozenset({"cqt.dual_bridge_v"})}
