"""Type and range checks for the plain-data records callers hand in.

Service requests (:class:`~repro.service.scheduler.JobRequest`) and
portfolio tasks (:class:`~repro.pebbling.portfolio.PortfolioTask`) are
frozen dataclasses built from caller data, parsed JSON included, so a
budget may arrive as a string or a boolean.  :func:`check_fields` refuses
such a record where it is made, under the name of the field at fault,
before the value can fail deep inside a search or a batch it shares with
well-formed siblings.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable


def check_fields(
    record: object,
    error: type[Exception],
    owner: str,
    *,
    strings: Iterable[str] = (),
    flags: Iterable[str] = (),
    counts: Iterable[str] = (),
    amounts: Iterable[str] = (),
    nullable: Collection[str] = (),
) -> None:
    """Raise ``error`` at the first field of ``record`` of the wrong type or range.

    ``strings`` must hold a ``str`` and ``flags`` a ``bool``; ``counts``
    an ``int`` (not a ``bool``) of at least 1; ``amounts`` a finite
    ``int`` or ``float`` (not a ``bool``) above 0.  Only the fields named
    in ``nullable`` may be ``None``.  Each message starts with ``owner``
    (for example ``"a request's"``) and names the field.
    """
    for name in strings:
        value = getattr(record, name)
        if not isinstance(value, str):
            raise error(f"{owner} {name} must be a string, got {value!r}")
    for name in flags:
        value = getattr(record, name)
        if not isinstance(value, bool):
            raise error(f"{owner} {name} must be true or false, got {value!r}")
    for name in counts:
        value = getattr(record, name)
        if value is None and name in nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise error(f"{owner} {name} must be an integer >= 1, got {value!r}")
    for name in amounts:
        value = getattr(record, name)
        if value is None and name in nullable:
            continue
        if not is_amount(value):
            raise error(f"{owner} {name} must be a number > 0, got {value!r}")


def is_amount(value: object) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float`` (not a ``bool``) above 0."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
        and value > 0
    )
