"""Setup shared by every test module."""

import warnings

# hypothesis's pytest plugin imports hypothesis.extra._patching on a failing
# example, to print a patch.  That module imports libcst, which warns on import,
# and under ``filterwarnings = error`` the warning ends the whole session.
# Imported once here with the warning ignored, a failing example stays one
# FAILED line.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the patch itself
        pass
