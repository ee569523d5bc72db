"""JSON documents written from records: the inverses of `spec_from_doc` and
`certificate_from_doc`.  No command writes a document, so none loads this module."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .extraspecial import Certificate
    from .spec import GroupSpecB


def spec_to_doc(spec: GroupSpecB) -> dict:
    """JSON-ready document for a group spec."""
    return {
        "type": "B",
        "n": list(spec.n),
        "mu_generators": [[g >> i & 1 for i in range(spec.m)] for g in spec.mu_gens],
    }


def certificate_to_doc(cert: Certificate) -> dict:
    """JSON-ready document for a certificate."""
    # extraspecial is loaded already, since it defines the certificate's class
    from .extraspecial import _Packing

    packing = _Packing(2 * r + 1 for r in cert.spec.n)
    width = packing.width
    generators = []
    for g in cert.generators:
        pattern = packing.sign_pattern(g & (1 << width) - 1)
        generators.append([
            {
                "sign": -1 if pattern >> f & 1 else 1,
                "indices": [i + 1 for i in range(d) if g >> width + o + i & 1],
            }
            for f, (d, o) in enumerate(zip(packing.dims, packing.offsets))
        ])
    doc = {"spec": spec_to_doc(cert.spec), "generators": generators}
    if cert.note:
        doc["note"] = cert.note
    return doc
