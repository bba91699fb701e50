"""A pure-Python stand-in for the two numba names the native kernels use.

``njit`` (bare or with options) returns the function unchanged and
``prange`` is ``range``, so the kernels run as interpreted Python.
``tests/backend/test_native_standin.py`` loads a private copy of
``repro.backend.native`` against this package.
"""


def njit(*args, **options):
    if len(args) == 1 and callable(args[0]) and not options:
        return args[0]
    return lambda fn: fn


prange = range
