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
    doc = {
        "spec": spec_to_doc(cert.spec),
        "generators": [
            [
                {"sign": c.sign, "indices": [i + 1 for i in range(c.dim) if c.mask >> i & 1]}
                for c in g.components
            ]
            for g in cert.generators
        ],
    }
    if cert.note:
        doc["note"] = cert.note
    return doc
