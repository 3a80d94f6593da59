import powerdom


def test_public_names_resolve():
    # A name deleted from its module but left in __all__ breaks the
    # star import.
    assert [name for name in powerdom.__all__ if not hasattr(powerdom, name)] == []
    namespace: dict = {}
    exec("from powerdom import *", namespace)
    assert set(powerdom.__all__) <= namespace.keys()
