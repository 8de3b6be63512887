"""Session setup shared by the test modules."""

import warnings

# Hypothesis imports this module when it reports a failing example.  With
# libcst installed the import raises a mypy_extensions DeprecationWarning,
# which filterwarnings = ["error"] would turn into an internal error that
# stops the session after the first failing property test.  Importing it
# once here, with that warning ignored, leaves the report to the failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst
        pass
