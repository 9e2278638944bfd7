"""Put a mutant in a function's place, patched from its source text.

The mutation checks of the oracle tests (``test_property_fails_under_named_
mutations`` and its kin) all do the same thing: take a method of a class or
a function of a module, replace one piece of its source text, compile the
result in the module's namespace and patch it in for the test.  This is
that one step.
"""

import inspect
import textwrap
import types


def mutate(monkeypatch, owner, attr, old, new):
    """Put ``owner.attr`` with ``old`` replaced by ``new`` in its place.

    ``owner`` is a class (``attr`` one of its methods) or a module
    (``attr`` one of its functions).  ``old`` must occur exactly once in
    the source, so a mutation that no longer applies fails loudly instead
    of testing the unmutated code.
    """
    source = textwrap.dedent(inspect.getsource(getattr(owner, attr)))
    assert source.count(old) == 1, f"{old!r} is not in {attr} exactly once"
    module = owner if isinstance(owner, types.ModuleType) else inspect.getmodule(owner)
    scope = {}
    exec(source.replace(old, new), vars(module), scope)
    monkeypatch.setattr(owner, attr, scope[attr])
