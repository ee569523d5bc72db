"""The `certify` command: verify a certificate, built in or read from a document,
with the JSON and text forms of its report."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .caps import EXIT_CAP, EXIT_CERT, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION
from .extraspecial import builtin_certificate, certificate_from_doc, verify_certificate
from .gf2 import EnumerationTooLargeError
from .spec import SpecFormatError

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .extraspecial import CertReport


def report_to_doc(report: CertReport) -> dict:
    return {name: getattr(report, name) for name in report.__slots__}


def render_cert_text(report: CertReport) -> str:
    lines = [
        f"abelian in quotient: {'yes' if report.abelian_in_quotient else 'no'}",
        f"subgroup order: {report.subgroup_order}",
        f"rank: {report.rank}",
        f"centralizer finite: {'yes' if report.centralizer_finite else 'no'}",
    ]
    if report.lower_bound is not None:
        lines.append(f"lower bound {report.lower_bound}")
    else:
        lines.append(f"certificate invalid: {report.failure_reason}")
    lines.extend(f"note: {n}" for n in report.notes)
    return "\n".join(lines)


def answer(args: SimpleNamespace) -> tuple[int, dict | None, str]:
    """The exit code, the JSON document and the text report of `edcalc certify`,
    or the exit code, None and the error."""
    target = args.certificate
    if target.startswith("builtin:"):
        try:
            cert = builtin_certificate(target[len("builtin:") :])
        except ValueError as exc:
            return EXIT_PARSE, None, str(exc)
    else:
        import json

        try:
            with open(target, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            return EXIT_PARSE, None, f"cannot parse {target}: {exc}"
        try:
            cert = certificate_from_doc(doc)
        except SpecFormatError as exc:
            return EXIT_PARSE, None, str(exc)
        except ValueError as exc:
            return EXIT_VALIDATION, None, str(exc)
    try:
        report = verify_certificate(cert, enum_cap=args.enum_cap)
    except ValueError as exc:  # EmptySpecError and NotReducedError among them
        return EXIT_VALIDATION, None, str(exc)
    except EnumerationTooLargeError as exc:
        return EXIT_CAP, None, str(exc)
    code = EXIT_OK if report.lower_bound is not None else EXIT_CERT
    return code, report_to_doc(report), render_cert_text(report)
