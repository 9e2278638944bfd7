"""Shim for ``bench/``, which imports :func:`accelerator_name` from here.

The numpy mobile sweep this module held is gone (mobile listeners come from
the channel's cell index — see :mod:`repro.net.channel`); nothing in ``src/``
imports this file.  Remove it in the next ``benchmark`` PR, together with the
``accelerator`` field of the bench host record.
"""


def accelerator_name() -> str:
    """Constant label: there is one mobile-lookup path and it is pure Python."""
    return "cell-index"
