"""Built-in example algebras as definition documents.

Two cyclic group algebras (trivial controls), the four-dimensional algebra
generated by a grouplike g and a skew-primitive x over any field where 2
is invertible, and the infinite family handled separately by the laurent
module.  Group presets ship with R = 1 (x) 1 and the all-ones braiding so
the quasitriangular and braided suites have trivial positive cases.
"""

from __future__ import annotations

from .document import AlgebraDocument, DocumentError
from .scalars import Field, QQ

FINITE_PRESETS = ("group:C2", "group:C4", "sweedler4")
PRESET_NAMES = FINITE_PRESETS + ("laurent",)


def cyclic_group_document(order: int, field: Field = QQ) -> AlgebraDocument:
    one = field.one
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}")
                   for i in range(order))
    mult = tuple((i, j, (i + j) % order, one)
                 for i in range(order) for j in range(order))
    comult = tuple((i, i, i, one) for i in range(order))
    counit = tuple(one for _ in range(order))
    antipode = tuple((( -i) % order, i, one) for i in range(order))
    # i -> (-1)^i respects (i + j) mod order only when the order is even
    characters = ({"sign": tuple(field.parse((-1) ** i) for i in range(order))}
                  if order % 2 == 0 else {})
    g_vec = tuple(one if i == 1 else field.zero for i in range(order))
    return AlgebraDocument(
        name=f"kC{order}", field=field, basis=labels, mult=mult, comult=comult,
        counit=counit, antipode=antipode,
        r_entries=((one, 0, 0),),
        sigma=tuple(tuple(one for _ in range(order)) for _ in range(order)),
        characters=characters,
        grouplikes={"g": g_vec},
    )


def sweedler_document(xi=1, field: Field = QQ) -> AlgebraDocument:
    """Basis (1, g, x, gx) with g^2 = 1, x^2 = 0, gx = -xg, and the
    one-parameter family of R-matrices R = c + xi b."""
    one, zero, minus, half = map(field.parse, (1, 0, -1, "1/2"))
    neg = lambda x: field.reduce(-x)
    xi = field.parse(xi)
    labels = ("1", "g", "x", "gx")
    mult = (
        (0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one), (0, 3, 3, one),
        (1, 0, 1, one), (1, 1, 0, one), (1, 2, 3, one), (1, 3, 2, one),
        (2, 0, 2, one), (2, 1, 3, minus),
        (3, 0, 3, one), (3, 1, 2, minus),
    )
    comult = (
        (0, 0, 0, one),
        (1, 1, 1, one),
        (2, 2, 0, one), (2, 1, 2, one),
        (3, 3, 1, one), (3, 0, 3, one),
    )
    counit = (one, one, zero, zero)
    antipode = ((0, 0, one), (1, 1, one), (3, 2, minus), (2, 3, one))
    r_entries = [
        (half, 0, 0), (half, 0, 1), (half, 1, 0), (neg(half), 1, 1),
    ]
    if xi:
        b_half = field.reduce(xi * half)
        r_entries.extend([(b_half, 2, 2), (neg(b_half), 2, 3),
                          (b_half, 3, 2), (b_half, 3, 3)])
    return AlgebraDocument(
        name=f"sweedler4[xi={field.format(xi)}]", field=field, basis=labels,
        mult=mult, comult=comult, counit=counit, antipode=antipode,
        r_entries=tuple(r_entries),
        characters={"sign": (one, minus, zero, zero)},
        grouplikes={"g": (zero, one, zero, zero)},
    )


def preset_document(kind: str, xi=None, field: Field | None = None) -> AlgebraDocument:
    field = field if field is not None else QQ
    if kind == "group:C2":
        return cyclic_group_document(2, field)
    if kind == "group:C4":
        return cyclic_group_document(4, field)
    if kind == "sweedler4":
        return sweedler_document(1 if xi is None else xi, field)
    raise DocumentError(f"unknown preset '{kind}'")
