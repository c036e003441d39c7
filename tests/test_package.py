"""Package-level tests: public API surface and lazy imports."""

import pytest


def test_version():
    import repro

    assert repro.__version__


def test_lazy_exports():
    import repro

    assert repro.SeabedSession.__name__ == "SeabedSession"
    assert not hasattr(repro, "SeabedClient")
    assert repro.TableSchema.__name__ == "TableSchema"
    assert repro.ColumnSpec.__name__ == "ColumnSpec"


def test_unknown_attribute():
    import repro

    with pytest.raises(AttributeError, match="no attribute"):
        repro.does_not_exist


def test_error_hierarchy():
    from repro import errors

    for name in ("CryptoError", "EncodingError", "PlanningError",
                 "TranslationError", "ExecutionError", "DecryptionError",
                 "ParseError"):
        assert issubclass(getattr(errors, name), errors.SeabedError)
