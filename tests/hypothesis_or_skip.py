"""``hypothesis``'s ``given``, ``settings``, ``example`` and ``strategies``
for the ``*_properties.py`` modules; where ``hypothesis`` is not installed,
stand-ins that skip each ``@given`` test, so that a module's seeded tests,
which need no ``hypothesis``, still run."""

import pytest

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:

    class _Strategy:
        """Any strategy expression: an attribute or a call of one, such as
        ``st.lists(...).map(tuple)`` or ``@st.composite``, is itself."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Strategy()

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="needs hypothesis")

    def settings(*args, **kwargs):
        return lambda test: test

    example = settings

__all__ = ["example", "given", "settings", "st"]
